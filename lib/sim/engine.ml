module Telemetry = Blink_telemetry.Telemetry

type resource = { bandwidth : float; latency : float; lanes : int; gap : float }
type policy = [ `Fair | `Stream_priority ]

type result = {
  makespan : float;
  finish : float array;
  start : float array;
  busy : float array;
}

(* Monomorphic arena heaps for the event loop: the simulator spends most
   of its time pushing/popping these, and the staged add/pop protocol
   (see Pqueue) keeps steady-state event processing allocation-free. *)
module Events = Pqueue.Float_int
module Waitq = Pqueue.Float_int_int

(* Delays occupy no resource; [None] below means "start immediately". *)
let resource_of_op (o : Program.op) =
  match o.kind with
  | Program.Transfer { link; _ } -> Some link
  | Program.Compute { engine; _ } -> Some engine
  | Program.Delay _ -> None

(* Time until the op's data is available once service starts. *)
let data_time resources (o : Program.op) =
  match o.kind with
  | Program.Transfer { bytes; link; bw_scale; _ } ->
      let r = resources.(link) in
      bytes /. (r.bandwidth *. bw_scale)
  | Program.Compute { bytes; engine; _ } ->
      let r = resources.(engine) in
      bytes /. r.bandwidth
  | Program.Delay { seconds } -> seconds

(* Fold the timed ops into the telemetry handle as simulated-time slices,
   one track per resource — the merged-timeline half of the Chrome
   exporter. Only reached when tracing is on. *)
let record_slices telemetry prog ~start ~finish =
  Program.iter_ops
    (fun o ->
      let id = o.Program.id in
      let track = match resource_of_op o with Some r -> r | None -> -1 in
      let name =
        match o.Program.kind with
        | Program.Transfer { bytes; _ } -> Printf.sprintf "xfer#%d %.0fB" id bytes
        | Program.Compute { bytes; _ } -> Printf.sprintf "comp#%d %.0fB" id bytes
        | Program.Delay { seconds } ->
            Printf.sprintf "delay#%d %.0fus" id (seconds *. 1e6)
      in
      Telemetry.slice telemetry ~track ~name ~start:start.(id)
        ~dur:(finish.(id) -. start.(id))
        ~args:[ ("stream", Blink_telemetry.Json.int o.Program.stream) ]
        ())
    prog

(* ------------------------------------------------------------------ *)
(* Prepared schedules: everything [run] used to derive from the program
   on every call — validation, per-op resource ids, base durations and
   occupancies, pipeline latencies, pending-dependency counts and the
   dependents adjacency — lowered once into flat immutable arrays. The
   dependents lists become a CSR adjacency whose edges pack the
   destination op and the stream-edge flag into one int
   ([(dst lsl 1) lor is_stream]), preserving the exact per-op edge order
   the list-based engine produced so replay is bit-identical. *)

type prepared = {
  p_prog : Program.t;
  p_resources : resource array;
  p_n : int;
  p_n_res : int;
  p_res_of : int array;  (* resource id, or -1 for delays *)
  p_dur : float array;  (* base duration (data_time) *)
  p_occ : float array;  (* lane occupancy: max dur gap *)
  p_lat : float array;  (* pipeline latency of the op's resource *)
  p_stream : int array;
  p_lanes : int array;  (* per-resource lane count *)
  p_pending0 : int array;  (* initial pending-dependency counts *)
  p_dep_off : int array;  (* CSR row offsets, length n+1 *)
  p_dep : int array;  (* packed edges: (dst lsl 1) lor is_stream *)
  p_sources : int array;  (* ops with no dependencies, ascending id *)
  (* Prepare-time op fusion (see [contention_free] below): maximal runs of
     back-to-back same-resource, same-stream ops whose interior members
     have the stream edge as their only dependency are dispatched as one
     fused schedule entry. Interior members never enter the event heap. *)
  p_fuse_next : int array;  (* next chain member, or -1 *)
  p_fuse_len : int array;  (* chain length at heads (>= 2), 0 interior, 1 else *)
  p_fuse_head : int array;  (* op id -> its chain head (itself if unfused) *)
  p_fuse_safe : bool;  (* every resource passed the contention analysis *)
  p_fuse_chains : int;  (* number of fused chains *)
  p_fuse_ops : int;  (* ops covered by fused chains (heads included) *)
}

(* Contention-freedom analysis, the condition under which fusion is exact.

   Resource [r] is contention-free when the sum over streams of that
   stream's worst-case simultaneous lane demand on [r] is at most
   [lanes r]. A stream needs at most one lane at a time on [r] when every
   one of its ops there has [dur >= gap] (then occupancy equals duration,
   so the lane is released exactly when the stream successor becomes
   ready — finish times are monotone along a stream); otherwise we bound
   its demand by its op count on [r]. If every used resource is
   contention-free, no op ever waits past its ready time: start times are
   the dataflow fixpoint, independent of heap tie-breaking. That makes
   event elision for fused chains exact — interior members start at their
   predecessor's finish, which is precisely what the unfused engine
   computes — so fused replay is bit-identical (timing and data) to
   unfused. When any resource fails the test we disable fusion entirely
   rather than risk divergence. *)
let contention_free ~resources ~res_of ~dur ~stream ~n_streams n =
  let n_res = Array.length resources in
  let n_str = max 1 n_streams in
  let cnt = Array.make (n_res * n_str) 0 in
  let tight = Array.make (n_res * n_str) true in
  for id = 0 to n - 1 do
    let r = res_of.(id) in
    if r >= 0 then begin
      let c = (r * n_str) + stream.(id) in
      cnt.(c) <- cnt.(c) + 1;
      if dur.(id) < resources.(r).gap then tight.(c) <- false
    end
  done;
  let safe = ref true in
  for r = 0 to n_res - 1 do
    if !safe then begin
      let demand = ref 0 in
      for s = 0 to n_str - 1 do
        let c = (r * n_str) + s in
        if cnt.(c) > 0 then
          demand := !demand + (if tight.(c) then 1 else cnt.(c))
      done;
      if !demand > resources.(r).lanes then safe := false
    end
  done;
  !safe

let prepare ?(telemetry = Telemetry.disabled) ?(fuse = true) ~resources prog =
  Array.iteri
    (fun i r ->
      if r.lanes <= 0 || r.latency < 0. || r.bandwidth <= 0. || r.gap < 0. then
        invalid_arg (Printf.sprintf "Engine.run: bad resource %d" i))
    resources;
  let n = Program.n_ops prog in
  let n_res = Array.length resources in
  Program.iter_ops
    (fun o ->
      match resource_of_op o with
      | Some r when r < 0 || r >= n_res ->
          invalid_arg
            (Printf.sprintf "Engine.run: op %d uses unknown resource %d"
               o.Program.id r)
      | Some _ | None -> ())
    prog;
  let res_of = Array.make n (-1) in
  let dur = Array.make n 0. in
  let occ = Array.make n 0. in
  let lat = Array.make n 0. in
  let stream = Array.make n 0 in
  (* Pending-dependency counts: explicit deps plus one for a stream
     predecessor. Data dependencies pay the resource's pipeline latency;
     stream order does not (back-to-back chunks on one lane issue from the
     queue without a fresh launch round-trip). *)
  let pending = Array.make n 0 in
  let dependents = Array.make n [] in  (* (dependent, is_stream_edge) *)
  Program.iter_ops
    (fun o ->
      let id = o.Program.id in
      let d = data_time resources o in
      dur.(id) <- d;
      stream.(id) <- o.Program.stream;
      (match resource_of_op o with
      | Some r ->
          res_of.(id) <- r;
          occ.(id) <- Float.max d resources.(r).gap;
          lat.(id) <- resources.(r).latency
      | None -> ());
      List.iter
        (fun dep ->
          pending.(id) <- pending.(id) + 1;
          dependents.(dep) <- (id, false) :: dependents.(dep))
        o.Program.deps)
    prog;
  Program.iter_stream_edges
    (fun ~pred ~succ ->
      pending.(succ) <- pending.(succ) + 1;
      dependents.(pred) <- (succ, true) :: dependents.(pred))
    prog;
  let n_edges = Array.fold_left (fun acc l -> acc + List.length l) 0 dependents in
  let dep_off = Array.make (n + 1) 0 in
  let dep = Array.make n_edges 0 in
  let pos = ref 0 in
  for id = 0 to n - 1 do
    dep_off.(id) <- !pos;
    List.iter
      (fun (dst, is_stream) ->
        dep.(!pos) <- (dst lsl 1) lor (if is_stream then 1 else 0);
        incr pos)
      dependents.(id)
  done;
  dep_off.(n) <- !pos;
  let sources = ref [] in
  for id = n - 1 downto 0 do
    if pending.(id) = 0 then sources := id :: !sources
  done;
  (* Fusion chains: a stream edge pred -> succ is a chain link when both
     ops run on the same resource and the stream edge is succ's only
     dependency (pending count 1), so nothing external gates succ's
     start. Heads keep arbitrary dependencies. Only built when the whole
     schedule is contention-free (see [contention_free]); otherwise the
     arrays stay trivial and dispatch is unchanged. *)
  let fuse_safe =
    fuse
    && contention_free ~resources ~res_of ~dur ~stream
         ~n_streams:(Program.n_streams prog) n
  in
  let fuse_next = Array.make n (-1) in
  let fuse_len = Array.make n 1 in
  let fuse_head = Array.init n Fun.id in
  let fuse_chains = ref 0 in
  let fuse_ops = ref 0 in
  if fuse_safe then begin
    Program.iter_stream_edges
      (fun ~pred ~succ ->
        if res_of.(pred) >= 0
           && res_of.(pred) = res_of.(succ)
           && pending.(succ) = 1
        then fuse_next.(pred) <- succ)
      prog;
    let interior = Array.make n false in
    for id = 0 to n - 1 do
      let nx = fuse_next.(id) in
      if nx >= 0 then interior.(nx) <- true
    done;
    for id = 0 to n - 1 do
      if fuse_next.(id) >= 0 && not interior.(id) then begin
        let len = ref 1 in
        let m = ref fuse_next.(id) in
        let last = ref false in
        while not !last do
          incr len;
          fuse_len.(!m) <- 0;
          fuse_head.(!m) <- id;
          let nx = fuse_next.(!m) in
          if nx < 0 then last := true else m := nx
        done;
        fuse_len.(id) <- !len;
        incr fuse_chains;
        fuse_ops := !fuse_ops + !len
      end
    done
  end;
  if Telemetry.enabled telemetry then Telemetry.incr telemetry "engine.prepares";
  {
    p_prog = prog;
    p_resources = resources;
    p_n = n;
    p_n_res = n_res;
    p_res_of = res_of;
    p_dur = dur;
    p_occ = occ;
    p_lat = lat;
    p_stream = stream;
    p_lanes = Array.map (fun r -> r.lanes) resources;
    p_pending0 = pending;
    p_dep_off = dep_off;
    p_dep = dep;
    p_sources = Array.of_list !sources;
    p_fuse_next = fuse_next;
    p_fuse_len = fuse_len;
    p_fuse_head = fuse_head;
    p_fuse_safe = fuse_safe;
    p_fuse_chains = !fuse_chains;
    p_fuse_ops = !fuse_ops;
  }

let prepared_program p = p.p_prog
let prepared_ops p = p.p_n
let fusion_enabled p = p.p_fuse_safe
let fused_chains p = p.p_fuse_chains
let fused_ops p = p.p_fuse_ops

let fused_head p id =
  if id < 0 || id >= p.p_n then invalid_arg "Engine.fused_head: bad op id";
  p.p_fuse_head.(id)

let fused_members p id =
  if id < 0 || id >= p.p_n then invalid_arg "Engine.fused_members: bad op id";
  if p.p_fuse_len.(id) < 2 then [ id ]
  else begin
    let rec walk m acc =
      let acc = m :: acc in
      let nx = p.p_fuse_next.(m) in
      if nx < 0 then List.rev acc else walk nx acc
    in
    walk id []
  end

(* ------------------------------------------------------------------ *)
(* Fault tables: the input of a faulted run. [Fault] folds its injected
   events into one; the engine only reads it (and the per-op attempt
   counters it writes). *)

exception Unrecoverable of { op : int; resource : int; attempts : int }

type faults = {
  fail_at : float array;
  flaky : (float * float) list array;
  degr_t : float array array;
  degr_m : float array array;
  timeout_s : float;
  backoff_s : float;
  max_attempts : int;
  attempts : int array;
}

(* The healthy sentinel: a run without [~faults] compares against it once
   and takes the fused, nominal-rate branch. *)
let no_faults =
  {
    fail_at = [||];
    flaky = [||];
    degr_t = [||];
    degr_m = [||];
    timeout_s = 0.;
    backoff_s = 0.;
    max_attempts = 1;
    attempts = [||];
  }

let is_flaky windows t =
  List.exists (fun (from_s, until_s) -> t >= from_s && t < until_s) windows

(* Absolute finish time of [work] seconds of nominal-rate service on
   resource [r] starting at [t0], integrating the piecewise-constant rate
   multiplier. A segment ends the service when its finish lands at or
   before the next rate change, so a degradation at or after the nominal
   finish leaves it exactly [t0 +. work] (the healthy arithmetic). *)
let service_finish f r t0 work =
  let degr_t = f.degr_t.(r) and degr_m = f.degr_m.(r) in
  let n = Array.length degr_t in
  (* Multiplier already in force at t0. *)
  let i0 = ref 0 in
  while !i0 < n && degr_t.(!i0) <= t0 do incr i0 done;
  let rec go t w m i =
    let fin = t +. (w /. m) in
    if w <= 0. then t
    else if i >= n || fin <= degr_t.(i) then fin
    else go degr_t.(i) (w -. ((degr_t.(i) -. t) *. m)) degr_m.(i) (i + 1)
  in
  go t0 work (if !i0 = 0 then 1. else degr_m.(!i0 - 1)) !i0

(* ------------------------------------------------------------------ *)
(* Arenas: the engine's mutable working set, reset in place per run.
   Arrays are kept at exactly (n ops, n resources) — [result] aliases
   them directly, and consumers like [Trace.utilizations] iterate the
   whole [busy] array — and reallocated only when the prepared schedule's
   shape differs from the previous run. *)

type arena = {
  mutable a_start : float array;
  mutable a_finish : float array;
  mutable a_ready : float array;
  mutable a_pending : int array;
  mutable a_busy : float array;
  mutable a_lanes : int array;
  a_mk : float array;  (* 1 slot: running makespan, unboxed *)
  a_events : Events.t;
  a_staged : float array;  (* [Events.staged a_events] *)
  mutable a_wait : Waitq.t array;
  (* The run's settings, stored here at the start of each run so the
     dispatch functions below are top-level functions of (schedule,
     arena) rather than closures allocated per run. *)
  mutable a_fair : bool;
  mutable a_rec : Recorder.t;
  mutable a_faults : faults;
  mutable a_tel : Telemetry.t;
  a_in_use : bool Atomic.t;
      (* Guards against concurrent or reentrant runs on one arena, which
         would silently corrupt the working arrays. Atomic so the
         acquire is race-free across domains. *)
}

let arena () =
  let events = Events.create () in
  {
    a_start = [||];
    a_finish = [||];
    a_ready = [||];
    a_pending = [||];
    a_busy = [||];
    a_lanes = [||];
    a_mk = Array.make 1 0.;
    a_events = events;
    a_staged = Events.staged events;
    a_wait = [||];
    a_fair = true;
    a_rec = Recorder.none;
    a_faults = no_faults;
    a_tel = Telemetry.disabled;
    a_in_use = Atomic.make false;
  }

(* Per-domain scratch arena: the default when callers don't pass one.
   Domain-local so concurrent planners (e.g. tuning probes fanned across
   a Pool) never share mutable engine state. *)
let scratch_key = Domain.DLS.new_key arena
let scratch_arena () = Domain.DLS.get scratch_key

let reset_arena a p =
  let n = p.p_n and n_res = p.p_n_res in
  if Array.length a.a_start <> n then begin
    a.a_start <- Array.make n nan;
    a.a_finish <- Array.make n nan;
    a.a_ready <- Array.make n 0.;
    a.a_pending <- Array.make n 0
  end;
  if Array.length a.a_busy <> n_res then begin
    a.a_busy <- Array.make n_res 0.;
    a.a_lanes <- Array.make n_res 0
  end;
  if Array.length a.a_wait <> n_res then
    a.a_wait <- Array.init n_res (fun _ -> Waitq.create ())
  else Array.iter Waitq.clear a.a_wait;
  Array.fill a.a_start 0 n nan;
  Array.fill a.a_finish 0 n nan;
  (* Initial ready time of every op is its resource's pipeline latency. *)
  Array.blit p.p_lat 0 a.a_ready 0 n;
  Array.blit p.p_pending0 0 a.a_pending 0 n;
  Array.fill a.a_busy 0 n_res 0.;
  Array.blit p.p_lanes 0 a.a_lanes 0 n_res;
  a.a_mk.(0) <- 0.;
  Events.clear a.a_events

(* ------------------------------------------------------------------ *)
(* Dispatch. Float times travel through arrays, never as arguments:
   calls box float arguments, and this is the per-op hot path. An op's
   start time is read from the staged slot ([a_staged.(0)], where
   [pop_staged] leaves the event time) or, for fused chain members, from
   [a_start] (written by the predecessor); its finish is then in
   [a_finish]. *)

(* Flight recorder: begin and end are both known at dispatch (the
   simulator fixes the finish when service starts), so the pair is
   written together with inline array stores and no allocation. *)
let record_pair (rc : Recorder.t) p a id =
  let r = p.p_res_of.(id) in
  let h = rc.Recorder.head in
  let mask = rc.Recorder.mask in
  let i = h land mask in
  rc.Recorder.ev_kind.(i) <- 0;
  rc.Recorder.ev_op.(i) <- id;
  rc.Recorder.ev_res.(i) <- r;
  rc.Recorder.ev_time.(i) <- a.a_start.(id);
  let j = (h + 1) land mask in
  rc.Recorder.ev_kind.(j) <- 1;
  rc.Recorder.ev_op.(j) <- id;
  rc.Recorder.ev_res.(j) <- r;
  rc.Recorder.ev_time.(j) <- a.a_finish.(id);
  rc.Recorder.head <- h + 2

(* Release [id]'s dependents at its finish time: data edges pay the
   dependent's pipeline latency, stream edges do not, and a dependent
   whose last dependency this was becomes a ready event. [skip] is a
   packed edge to leave alone (a fused chain's inline successor) or -1,
   which matches no edge. *)
let fan_out p a id skip =
  let fin = a.a_finish.(id) in
  for e = p.p_dep_off.(id) to p.p_dep_off.(id + 1) - 1 do
    let packed = p.p_dep.(e) in
    if packed <> skip then begin
      let dep = packed lsr 1 in
      let candidate = if packed land 1 = 1 then fin else fin +. p.p_lat.(dep) in
      if candidate > a.a_ready.(dep) then a.a_ready.(dep) <- candidate;
      let pend = a.a_pending.(dep) - 1 in
      a.a_pending.(dep) <- pend;
      if pend = 0 then begin
        a.a_staged.(0) <- a.a_ready.(dep);
        Events.add_staged a.a_events dep
      end
    end
  done

(* Book one dispatched op whose service window is in
   [a_start]/[a_finish]: record it, hold a lane until the release time
   in [a_staged.(0)] (resourced ops only), and release its dependents. *)
let book p a id =
  if a.a_rec != Recorder.none then record_pair a.a_rec p a id;
  let r = p.p_res_of.(id) in
  if r >= 0 then begin
    a.a_lanes.(r) <- a.a_lanes.(r) - 1;
    (* Lane_free events are encoded as negative values (-1 - r). *)
    Events.add_staged a.a_events (-1 - r)
  end;
  let fin = a.a_finish.(id) in
  if fin > a.a_mk.(0) then a.a_mk.(0) <- fin;
  fan_out p a id (-1)

let rec fused_member p a id =
  let t = a.a_start.(id) in
  let fin = t +. p.p_dur.(id) in
  a.a_finish.(id) <- fin;
  if a.a_rec != Recorder.none then record_pair a.a_rec p a id;
  let next = p.p_fuse_next.(id) in
  if next < 0 then begin
    (* Last member: release the chain's lane before the dependents
       fan-out, exactly where the unfused engine pushes its lane_free
       (so equal-timestamp pops keep the free-before-acquire order). *)
    if fin > a.a_mk.(0) then a.a_mk.(0) <- fin;
    a.a_staged.(0) <- t +. p.p_occ.(id);
    Events.add_staged a.a_events (-1 - p.p_res_of.(id))
  end;
  (* The stream edge to the next chain member is handled inline below;
     skipping it in the fan-out keeps the member's pending count above
     zero, so it never enters the event heap. *)
  fan_out p a id ((next lsl 1) lor 1);
  if next >= 0 then begin
    (* Back-to-back on one lane: the successor starts exactly at this
       member's finish (stream edges pay no latency, and under the
       contention-free precondition it never waits for the lane). *)
    a.a_start.(next) <- fin;
    fused_member p a next
  end

(* One attempt of a resourced op under the run's fault table. All fault
   times are known when the run starts, so the outcome is decided here:
   an attempt starting on a dead resource or inside a flaky window, or
   cut by a mid-service death, fails and is detected [timeout_s] after
   it stalls, holding the lane meanwhile; degradations stretch service
   by integrating the rate multiplier. Busy time is added at dispatch,
   failed attempts included. *)
let start_faulted p a id r =
  let f = a.a_faults in
  let t = a.a_staged.(0) in
  let fail_at = f.fail_at.(r) in
  let gap = p.p_resources.(r).gap in
  let dead = t >= fail_at || is_flaky f.flaky.(r) t in
  let fin = if dead then t else service_finish f r t p.p_dur.(id) in
  if (not dead) && fin <= fail_at then begin
    let occupancy = Float.max (fin -. t) gap in
    a.a_busy.(r) <- a.a_busy.(r) +. occupancy;
    a.a_start.(id) <- t;
    a.a_finish.(id) <- fin;
    a.a_staged.(0) <- t +. occupancy;
    book p a id
  end
  else begin
    let detected = (if dead then t else fail_at) +. f.timeout_s in
    let k = f.attempts.(id) + 1 in
    f.attempts.(id) <- k;
    if k >= f.max_attempts then
      raise (Unrecoverable { op = id; resource = r; attempts = k });
    let occupancy = Float.max (detected -. t) gap in
    a.a_busy.(r) <- a.a_busy.(r) +. occupancy;
    a.a_lanes.(r) <- a.a_lanes.(r) - 1;
    a.a_staged.(0) <- t +. occupancy;
    Events.add_staged a.a_events (-1 - r);
    if a.a_rec != Recorder.none then
      Recorder.record a.a_rec Recorder.Retry ~op:id ~res:r ~time:detected;
    Telemetry.incr a.a_tel "engine.retries";
    (* Re-issue after an exponential backoff. *)
    a.a_staged.(0) <- detected +. (f.backoff_s *. (2. ** Float.of_int (k - 1)));
    Events.add_staged a.a_events id
  end

(* Dispatch op [id] on a free lane (or on no resource) at the time in
   [a_staged.(0)]. Faulted runs dispatch one op per event: fusion is
   exact only under nominal service times. *)
let start_op p a id =
  let r = p.p_res_of.(id) in
  if a.a_faults != no_faults && r >= 0 then start_faulted p a id r
  else begin
    let t = a.a_staged.(0) in
    a.a_start.(id) <- t;
    if p.p_fuse_len.(id) > 1 then begin
      (* Chain head: one lane serves the whole chain, acquired here and
         released by [fused_member] at the last member's release time. *)
      a.a_lanes.(r) <- a.a_lanes.(r) - 1;
      fused_member p a id
    end
    else begin
      a.a_finish.(id) <- t +. p.p_dur.(id);
      if r >= 0 then a.a_staged.(0) <- t +. p.p_occ.(id);
      book p a id
    end
  end

let rec drain p a =
  let events = a.a_events in
  if not (Events.is_empty events) then begin
    let v = Events.pop_staged events in
    if v >= 0 then begin
      (* Ready op. *)
      let r = p.p_res_of.(v) in
      if r < 0 || a.a_lanes.(r) > 0 then start_op p a v
      else begin
        (* Per-resource waiting sets keyed by the scheduling policy. *)
        let w = a.a_wait.(r) in
        (Waitq.staged w).(0) <- (if a.a_fair then a.a_staged.(0) else 0.);
        Waitq.add_staged w p.p_stream.(v) v
      end
    end
    else begin
      (* Lane freed on resource (-1 - v). [pop_staged] on the waitq
         leaves [a_staged.(0)] untouched, so the event time is still in
         place for [start_op]. *)
      let r = -1 - v in
      a.a_lanes.(r) <- a.a_lanes.(r) + 1;
      let w = a.a_wait.(r) in
      if not (Waitq.is_empty w) then start_op p a (Waitq.pop_staged w)
    end;
    drain p a
  end

let run_prepared ?(policy = `Fair) ?(telemetry = Telemetry.disabled) ?arena:a
    ?(recorder = Recorder.none) ?(faults = no_faults) p =
  let t_span = Telemetry.now_s telemetry in
  let a = match a with Some a -> a | None -> scratch_arena () in
  let n = p.p_n and n_res = p.p_n_res in
  let faulted = faults != no_faults in
  if
    faulted
    && (Array.length faults.attempts <> n
       || Array.length faults.fail_at <> n_res
       || Array.length faults.flaky <> n_res
       || Array.length faults.degr_t <> n_res
       || Array.length faults.degr_m <> n_res)
  then invalid_arg "Engine.run_prepared: fault table does not fit the schedule";
  if Atomic.exchange a.a_in_use true then
    invalid_arg
      "Engine.run_prepared: arena already in use (concurrent or reentrant \
       run on one arena)";
  reset_arena a p;
  a.a_fair <- (match policy with `Fair -> true | `Stream_priority -> false);
  a.a_rec <- recorder;
  a.a_faults <- faults;
  a.a_tel <- telemetry;
  if faulted then Array.fill faults.attempts 0 n 0;
  let srcs = p.p_sources in
  for i = 0 to Array.length srcs - 1 do
    let id = srcs.(i) in
    a.a_staged.(0) <- a.a_ready.(id);
    Events.add_staged a.a_events id
  done;
  (* A raise from inside the loop ([Unrecoverable]) must still release
     the arena, or every later run on it would be refused. *)
  (match drain p a with
  | () -> ()
  | exception e ->
      Atomic.set a.a_in_use false;
      raise e);
  (* Every op must have run; a cycle would leave NaNs (impossible by
     construction, but guard against programmer error). *)
  for i = 0 to n - 1 do
    if Float.is_nan a.a_finish.(i) then begin
      Atomic.set a.a_in_use false;
      invalid_arg (Printf.sprintf "Engine.run: op %d never became ready" i)
    end
  done;
  (* Healthy busy totals are a constant of the schedule (every op runs
     exactly once), so they are summed here in op-id order rather than in
     dispatch order: the float sum is then independent of heap pop order
     and bit-identical between fused and unfused replays. Faulted runs
     added theirs at dispatch, failed attempts included. *)
  if not faulted then
    for id = 0 to n - 1 do
      let r = p.p_res_of.(id) in
      if r >= 0 then a.a_busy.(r) <- a.a_busy.(r) +. p.p_occ.(id)
    done;
  let makespan = a.a_mk.(0) in
  if Telemetry.enabled telemetry then begin
    Telemetry.incr telemetry "engine.runs";
    Telemetry.incr telemetry ~by:n "engine.ops_executed";
    Telemetry.observe telemetry "engine.makespan_s" makespan;
    if Telemetry.tracing telemetry then begin
      record_slices telemetry p.p_prog ~start:a.a_start ~finish:a.a_finish;
      Telemetry.span telemetry ~cat:"engine" ~start:t_span
        ~args:
          [
            ("ops", Blink_telemetry.Json.int n);
            ("makespan_s", Blink_telemetry.Json.float makespan);
          ]
        "engine.run"
    end
  end;
  Atomic.set a.a_in_use false;
  { makespan; finish = a.a_finish; start = a.a_start; busy = a.a_busy }

let run ?policy ?(telemetry = Telemetry.disabled) ?fuse ~resources prog =
  let p = prepare ~telemetry ?fuse ~resources prog in
  (* A fresh arena per call: [run]'s result arrays must stay independent
     across calls (callers compare results of separate runs). *)
  run_prepared ?policy ~telemetry ~arena:(arena ()) p

let throughput ~bytes result =
  if result.makespan <= 0. then 0. else bytes /. result.makespan
