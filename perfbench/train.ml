(* dp-allreduce: a closed training loop over ResNet-18's six gradient
   buckets on the fragmented DGX-1V slice {1,4,5,6}. One step is every
   bucket's collectives: five buckets are all-reduced, and one is synced
   ZeRO-style (reduce_scatter of the gradients, then all_gather of the
   shards), so the step also times the reduce_scatter/all_gather data
   path, whose outputs are 1/k and k times the input and whose read-back
   goes through [read_slice]. The untraced loop calls [Comm] exactly as
   a user would; the traced loop issues the calls [Comm] composes (plan
   lookup, execute with a load callback, read-back) with a span around
   each. *)

open Blink_core
module Sem = Blink_sim.Semantics
module Codegen = Blink_collectives.Codegen

let gpus = [| 1; 4; 5; 6 |]
let k = Array.length gpus

let buckets = Array.of_list Blink_dnn.Models.resnet18.Blink_dnn.Models.buckets

(* The bucket synced ZeRO-style: layer3, 2.1 M elements, the middle of
   the bucket sizes. *)
let zero_bucket = "layer3"

(* Gradients are small integers, so every fp32 sum is exact and the
   expected result has a closed form: element [i] of rank [r] in a
   bucket with coefficients [(a, b, c)] is [((a i + b r + c) mod 15) - 7],
   so the rank sum depends only on [i mod 15]. *)
let period = 15

type bucket = { elems : int; zero : bool; sums : float array; inputs : float array array }

let make_buckets seed =
  let rng = Random.State.make [| seed; 0x7a11 |] in
  Array.map
    (fun (bucket : Blink_dnn.Models.bucket) ->
      let elems = bucket.Blink_dnn.Models.params in
      let a = 1 + Random.State.int rng 97 in
      let b = Random.State.int rng 13 in
      let c = Random.State.int rng 17 in
      let value r i = float ((((a * i) + (b * r) + c) mod period) - 7) in
      let sums =
        Array.init period (fun i ->
            List.fold_left ( +. ) 0. (List.init k (fun r -> value r i)))
      in
      {
        elems;
        zero = bucket.Blink_dnn.Models.name = zero_bucket;
        sums;
        inputs = Array.init k (fun r -> Array.init elems (value r));
      })
    buckets

(* [out.(j)] must be the rank sum of element [off + j]. *)
let matches bk ~off (out : float array) =
  let ok = ref true and p = ref (off mod period) in
  for j = 0 to Array.length out - 1 do
    if out.(j) <> bk.sums.(!p) then ok := false;
    incr p;
    if !p = period then p := 0
  done;
  !ok

(* One collective call's outputs, kept until the step's check. *)
type output =
  | Summed of float array array  (** all_reduce / all_gather: whole bucket at every rank *)
  | Shards of float array array  (** reduce_scatter: rank r's segment *)

let segment elems r = (r * elems / k, ((r + 1) * elems / k) - (r * elems / k))

(* Wrong outputs among one step's calls. *)
let check_step bks outs =
  List.fold_left
    (fun bad (bi, out) ->
      let bk = bks.(bi) in
      let ok =
        match out with
        | Summed v -> Array.for_all (fun x -> Array.length x = bk.elems && matches bk ~off:0 x) v
        | Shards v ->
            let ok = ref true in
            Array.iteri
              (fun r x ->
                let off, len = segment bk.elems r in
                if Array.length x <> len || not (matches bk ~off x) then ok := false)
              v;
            !ok
      in
      if ok then bad else bad + 1)
    0 outs

(* Untraced step through the user-facing API. Returns outputs, the
   simulated interconnect seconds and each call's (wall, CPU) seconds,
   in call order. *)
let step_comm comm bks =
  let sim = ref 0. in
  let outs = ref [] and times = ref [] in
  let call f =
    let r, wall, cpu = Common.timed f in
    times := (wall, cpu) :: !times;
    sim := !sim +. r.Comm.seconds;
    r.Comm.value
  in
  Array.iteri
    (fun bi bk ->
      if bk.zero then begin
        let rs = call (fun () -> Comm.reduce_scatter comm bk.inputs) in
        let ag = call (fun () -> Comm.all_gather comm rs) in
        outs := (bi, Summed ag) :: (bi, Shards rs) :: !outs
      end
      else begin
        let r = call (fun () -> Comm.all_reduce comm bk.inputs) in
        outs := (bi, Summed r) :: !outs
      end)
    bks;
  (!outs, !sim, Array.of_list (List.rev !times))

(* --- traced step --- *)

type spans = {
  tr : Trace.t;
  step : int;
  lookup : int;
  timing : int;
  marshal_in : int;
  kernel : int;
  marshal_out : int;
  call : Plan.collective -> int;
}

let spans tr =
  let l = Common.layer_span tr in
  let calls =
    List.map
      (fun c -> (c, Trace.name tr Trace.Call ("comm." ^ Plan.collective_name c)))
      Common.collectives
  in
  {
    tr;
    step = Trace.name tr Trace.Unit "step";
    lookup = l "blink.lookup";
    timing = l "engine.timing";
    marshal_in = l "comm.marshal_in";
    kernel = l "semantics.kernel";
    marshal_out = l "comm.marshal_out";
    call = (fun c -> List.assoc c calls);
  }

type counts = { mutable kernel_calls : int; mutable ops : int }

(* [Comm]'s composition of one call, split at the layer boundaries: the
   load callback's entry and exit divide [Plan.execute] into the timing
   pass, marshal-in and the replay kernels. *)
let traced_call sp counts kernel_memo h coll inputs ~extract =
  let tr = sp.tr in
  let call = Trace.enter tr (sp.call coll) in
  let elems = Array.length inputs.(0) in
  let s = Trace.enter tr sp.lookup in
  let plan = Blink.plan h coll ~elems in
  Trace.leave tr s;
  let cur = ref (Trace.enter tr sp.timing) in
  let load mem (layout : Codegen.layout) =
    Trace.leave tr !cur;
    let s = Trace.enter tr sp.marshal_in in
    Array.iteri (fun r buf -> Sem.write mem ~node:r ~buf:layout.Codegen.data.(r) buf) inputs;
    Trace.leave tr s;
    cur := Trace.enter tr sp.kernel
  in
  let exec = Plan.execute ~load plan in
  Trace.leave tr !cur;
  let mem = Option.get exec.Plan.memory in
  let s = Trace.enter tr sp.marshal_out in
  let value = extract mem plan.Plan.layout in
  Trace.leave tr s;
  Trace.leave tr call;
  let compiled =
    match Hashtbl.find_opt kernel_memo (coll, elems) with
    | Some n -> n
    | None ->
        let _, n, _ = Sem.kernel_stats mem plan.Plan.program in
        Hashtbl.add kernel_memo (coll, elems) n;
        n
  in
  counts.kernel_calls <- counts.kernel_calls + compiled;
  counts.ops <- counts.ops + Blink_sim.Program.n_ops plan.Plan.program;
  (value, Plan.seconds exec)

let read_data mem (layout : Codegen.layout) r =
  Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)

let read_output mem (layout : Codegen.layout) r =
  match layout.Codegen.output with
  | Some o -> Sem.read mem ~node:r ~buf:o.(r)
  | None -> invalid_arg "perfbench: all_gather plan without output buffers"

let step_traced sp comm bks kernel_memo =
  let h = Comm.handle comm in
  let counts = { kernel_calls = 0; ops = 0 } in
  let sim = ref 0. in
  let outs = ref [] in
  let unit_span = Trace.enter sp.tr sp.step in
  Array.iteri
    (fun bi bk ->
      let call = traced_call sp counts kernel_memo h in
      if bk.zero then begin
        let shards, s1 =
          call Plan.Reduce_scatter bk.inputs ~extract:(fun mem layout ->
              Array.init k (fun r ->
                  let off, len = segment bk.elems r in
                  Sem.read_slice mem ~node:r ~buf:layout.Codegen.data.(r) ~off ~len))
        in
        let v, s2 =
          call Plan.All_gather shards ~extract:(fun mem layout ->
              Array.init k (read_output mem layout))
        in
        sim := !sim +. s1 +. s2;
        outs := (bi, Summed v) :: (bi, Shards shards) :: !outs
      end
      else begin
        let v, s =
          call Plan.All_reduce bk.inputs ~extract:(fun mem layout ->
              Array.init k (read_data mem layout))
        in
        sim := !sim +. s;
        outs := (bi, Summed v) :: !outs
      end)
    bks;
  Trace.leave sp.tr unit_span;
  (!outs, !sim, counts)

(* Words allocated by the minor heap, and directly in the major heap
   (large buffers; promotions excluded, since they depend on where the
   minor heap happened to be when the step began). *)
let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words -. s.Gc.promoted_words)

let setup_every = 10

(* The process's peak RSS levels off after about twenty steps (the
   collector reaches its steady heap size), so every run takes at least
   this many, whatever its time budget. *)
let min_steps = 24

let run ~seed ~seconds ~traced =
  let bks = make_buckets seed in
  let attempted = ref 0 and failed = ref 0 in
  let check outs =
    attempted := !attempted + List.length outs;
    failed := !failed + check_step bks outs
  in
  (* Every step runs the same plans on the same sizes, so its simulated
     time must repeat to the last bit. *)
  let sim0 = ref None in
  let same_sim sim =
    match !sim0 with
    | None -> sim0 := Some sim
    | Some s0 ->
        if not (Float.equal s0 sim) then
          failwith
            (Printf.sprintf "nondeterministic simulated step time: %h then %h" s0 sim)
  in
  (* Set-up: a fresh communicator, its first plans (MIAD tuning and
     codegen for each bucket size) and one warm-up step with data. Its
     CPU seconds are the sample. *)
  let setup () =
    let (comm, outs, sim), _, s =
      Common.timed (fun () ->
          let comm = Comm.init Blink_topology.Server.dgx1v ~gpus in
          let outs, sim, _ = step_comm comm bks in
          (comm, outs, sim))
    in
    check outs;
    same_sim sim;
    (comm, s)
  in
  (* A fresh communicator replaces the current one every [setup_every]
     steps, so the set-ups are spread over the run and one slow phase of
     the host cannot move them all. The old communicator is dropped (and
     its buffers collected) before the next set-up starts. *)
  let comm = ref None and setup_s = ref [] in
  let fresh () =
    comm := None;
    Gc.compact ();
    let c, s = setup () in
    comm := Some c;
    setup_s := s :: !setup_s
  in
  let steps = ref [] in
  Common.repeat_for
    ~seconds:(if traced then seconds /. 2. else seconds)
    ~min_reps:min_steps
    (fun i ->
      if i mod setup_every = 0 then fresh ();
      let comm = Option.get !comm in
      let outs, sim, times = step_comm comm bks in
      steps := times :: !steps;
      same_sim sim;
      check outs);
  let setup_s = Array.of_list !setup_s in
  let comm = Option.get !comm in
  let calls = Array.of_list (List.rev !steps) in
  let steps = Array.map (Array.fold_left (fun a (w, _) -> a +. w) 0.) calls in
  let sim = Option.get !sim0 in
  let step_ms = Stats.timing "step_ms_p50" "ms" (Array.map (fun s -> 1e3 *. s) steps) in
  (* The gated figure: the CPU time of a step made of each call at its
     own 10th percentile over the run (each call is timed on its own). *)
  let step_cpu =
    Stats.scalar ~n:(Array.length steps) "step_cpu_ms_p10" "ms"
      (1e3
      *. Array.fold_left ( +. ) 0.
           (Array.init (Array.length calls.(0)) (fun j ->
                Stats.percentile (Array.map (fun c -> snd c.(j)) calls) 10.)))
  in
  let steps_per_s =
    Stats.scalar ~n:(Array.length steps) "steps_per_s" "1/s"
      (float (Array.length steps) /. Array.fold_left ( +. ) 0. steps)
  in
  let layers, facts, trace =
    if not traced then ([], [], None)
    else begin
      let tr = Trace.create () in
      let sp = spans tr in
      let kernel_memo = Hashtbl.create 16 in
      let samples = ref [] and minor = ref [] and major = ref [] in
      let counts0 = ref None in
      Common.repeat_for ~seconds:(seconds /. 2.) ~min_reps:5 (fun _ ->
          let minor0, major0 = gc_words () in
          let (outs, sim, counts), dt =
            Common.wall (fun () -> step_traced sp comm bks kernel_memo)
          in
          let minor1, major1 = gc_words () in
          samples := dt :: !samples;
          minor := (minor1 -. minor0) :: !minor;
          major := (major1 -. major0) :: !major;
          same_sim sim;
          check outs;
          (* Allocation counts drift by a fraction of a percent between
             steps, so they are reported as medians and not checked. *)
          let c = (counts.kernel_calls, counts.ops) in
          match !counts0 with
          | None -> counts0 := Some c
          | Some c0 -> if c <> c0 then failwith "per-step kernel or op counts differ between steps");
      let kernel_calls, ops = Option.get !counts0 in
      let median l = Stats.median (Array.of_list !l) in
      let layers =
        Common.ledger_metrics tr ~overhead:((median samples /. Stats.median steps) -. 1.)
        @ [
            ("semantics.kernel_calls", float kernel_calls);
            ("engine.ops", float ops);
            ("comm.minor_words", median minor);
            ("comm.major_words", median major);
          ]
      in
      ( layers,
        [ ("kernel_calls", Common.fact_int kernel_calls); ("engine_ops", Common.fact_int ops) ],
        Some tr )
    end
  in
  let sim_ms = Stats.scalar ~n:(Array.length steps) "sim_comm_ms" "ms" (1e3 *. sim) in
  {
    Common.setup_s;
    latency_ms = step_cpu;
    named = [ step_cpu; step_ms; steps_per_s; sim_ms ];
    attempted = !attempted;
    failed = !failed;
    determinism = ("sim_comm_ms", Common.fact_float sim_ms.Stats.value) :: facts;
    layers;
    trace;
  }
