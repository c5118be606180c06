(* service: Scheduler.run_service over the paper-scale 40,000-job trace on
   64 DGX-1V servers, with a shared store bounded below the trace's
   topology classes (so hits, misses and evictions all occur) and
   sampled bit-identity verification. The untraced run times the call
   from outside; the traced run replays the trace's admission and
   placement in benchmark code and drives every slice through the same
   public calls run_service makes, with a span around each. *)

open Blink_core
module Server = Blink_topology.Server
module Scheduler = Blink_cluster.Scheduler
module Fingerprint = Blink_store.Fingerprint
module Telemetry = Blink_telemetry.Telemetry

let servers = 64
let n_jobs = 40_000
let warmup_jobs = 2_000
let max_store_plans = 40
let verify_every = 500

(* run_service's defaults, which the traced replay mirrors. *)
let n_tenants = 8
let quota_frac = 0.5
let elems = 1_000_000

let run_service ~seed n_jobs =
  Scheduler.run_service ~seed ~servers ~max_store_plans ~verify_every ~n_jobs ()

let facts (r : Scheduler.service_report) =
  let st = r.Scheduler.store in
  [
    ("admitted", Common.fact_int r.Scheduler.admitted_jobs);
    ("rejected", Common.fact_int (r.Scheduler.rejected_capacity_jobs + r.Scheduler.rejected_quota_jobs));
    ("planned", Common.fact_int r.Scheduler.planned_slices);
    ("verified", Common.fact_int r.Scheduler.verified_slices);
    ("store_hits", Common.fact_int st.Blink_store.Store.hits);
    ("store_misses", Common.fact_int st.Blink_store.Store.misses);
    ("store_evictions", Common.fact_int st.Blink_store.Store.evictions);
    ("fingerprints", Common.fact_int r.Scheduler.unique_fingerprints);
    ("mean_slice_seconds", Common.fact_float r.Scheduler.mean_slice_seconds);
  ]

type spans = {
  tr : Trace.t;
  job : int;
  fingerprint : int;
  store_create : int;
  create : int;
  lookup : int;
  codegen : int;
  timing : int;
}

let spans tr =
  let l = Common.layer_span tr in
  {
    tr;
    job = Trace.name tr Trace.Unit "job";
    fingerprint = l "fingerprint.make";
    store_create = l "store.create";
    create = l "treegen.create";
    lookup = l "blink.lookup";
    codegen = l "codegen.build";
    timing = l "engine.timing";
  }

type replay = {
  mutable admitted : int;
  mutable planned : int;
  mutable verified : int;
  mutable mismatches : int;
  mutable slice_seconds : float;
  mutable ops : int;
}

(* The service loop's admission, placement and departures, replayed
   step for step so the slices (and so the store traffic) are the ones
   run_service sees; each slice goes through Fingerprint.make ->
   canonical_alloc -> Blink.create ?store -> Blink.plan ->
   Plan.execute ~data:false, and every [verify_every]-th through a fresh
   isolated handle. Returns the loop's wall time too; with spans off
   (a trace created with [~on:false]) the same loop is the untraced
   baseline for the tracing overhead. *)
let replay sp ~seed =
  let tr = sp.tr in
  let server = Server.dgx1v in
  let n_gpus = server.Server.n_gpus in
  let jobs = Scheduler.generate_trace ~seed ~n_jobs () in
  let store = Blink.new_store ~max_plans:max_store_plans () in
  let free_ids = Array.init servers (fun _ -> Array.make n_gpus true) in
  let free = Array.make servers n_gpus in
  let quota = max 1 (int_of_float (quota_frac *. float (servers * n_gpus))) in
  let in_flight = Array.make n_tenants 0 in
  let departures = Hashtbl.create 64 in
  let r =
    { admitted = 0; planned = 0; verified = 0; mismatches = 0; slice_seconds = 0.; ops = 0 }
  in
  let take_ids s g =
    let ids = ref [] and got = ref 0 and id = ref 0 in
    while !got < g && !id < n_gpus do
      if free_ids.(s).(!id) then begin
        free_ids.(s).(!id) <- false;
        ids := !id :: !ids;
        incr got
      end;
      incr id
    done;
    free.(s) <- free.(s) - g;
    List.rev !ids
  in
  let plan handle =
    let misses0 = (Blink.store_stats store).Blink_store.Store.misses in
    let s = Trace.enter tr sp.lookup in
    let p = Blink.plan ~chunk_elems:(Blink.heuristic_chunk ~elems) handle Plan.All_reduce ~elems in
    let miss = (Blink.store_stats store).Blink_store.Store.misses > misses0 in
    Trace.leave ?rename:(if miss then Some sp.codegen else None) tr s;
    p
  in
  let execute p =
    r.ops <- r.ops + Blink_sim.Program.n_ops p.Plan.program;
    Trace.span tr sp.timing (fun () -> Plan.seconds (Plan.execute ~data:false p))
  in
  let run_slice ids =
    let gpus = Array.of_list ids in
    if Array.length gpus >= 2 && Blink_topology.Alloc.nvlink_connected server ids then begin
      let cgpus =
        Trace.span tr sp.fingerprint (fun () ->
            let fp = Fingerprint.make server ~gpus ~faults:[] in
            match Fingerprint.canonical_alloc fp with Some (tuple, _) -> tuple | None -> gpus)
      in
      let handle =
        Trace.span tr sp.store_create (fun () ->
            Blink.create ~telemetry:Telemetry.disabled ~store server ~gpus:cgpus)
      in
      let seconds = execute (plan handle) in
      r.planned <- r.planned + 1;
      r.slice_seconds <- r.slice_seconds +. seconds;
      if r.planned mod verify_every = 0 then begin
        let fresh =
          Trace.span tr sp.create (fun () ->
              Blink.create ~telemetry:Telemetry.disabled server ~gpus:cgpus)
        in
        let p =
          Trace.span tr sp.codegen (fun () ->
              Blink.plan ~chunk_elems:(Blink.heuristic_chunk ~elems) fresh Plan.All_reduce ~elems)
        in
        r.verified <- r.verified + 1;
        if not (Float.equal seconds (execute p)) then r.mismatches <- r.mismatches + 1
      end
    end
  in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun now (job : Scheduler.job) ->
      let unit_span = Trace.enter tr sp.job in
      (match Hashtbl.find_opt departures now with
      | Some (tenant, slices) ->
          List.iter
            (fun (s, ids) ->
              List.iter (fun id -> free_ids.(s).(id) <- true) ids;
              free.(s) <- free.(s) + List.length ids;
              in_flight.(tenant) <- in_flight.(tenant) - List.length ids)
            slices;
          Hashtbl.remove departures now
      | None -> ());
      let tenant = job.Scheduler.id mod n_tenants in
      let g = job.Scheduler.gpus in
      if Array.fold_left ( + ) 0 free >= g && in_flight.(tenant) + g <= quota then begin
        r.admitted <- r.admitted + 1;
        in_flight.(tenant) <- in_flight.(tenant) + g;
        let best = ref (-1) in
        Array.iteri (fun s f -> if f >= g && (!best < 0 || f < free.(!best)) then best := s) free;
        let slices =
          if !best >= 0 then [ (!best, take_ids !best g) ]
          else begin
            let order =
              List.stable_sort (fun a b -> compare free.(b) free.(a)) (List.init servers Fun.id)
            in
            let remaining = ref g and acc = ref [] in
            List.iter
              (fun s ->
                if !remaining > 0 && free.(s) > 0 then begin
                  let take = min free.(s) !remaining in
                  remaining := !remaining - take;
                  acc := (s, take_ids s take) :: !acc
                end)
              order;
            List.rev !acc
          end
        in
        List.iter (fun (_, ids) -> run_slice ids) slices;
        let rec book leave slices =
          match Hashtbl.find_opt departures leave with
          | None -> Hashtbl.replace departures leave (tenant, slices)
          | Some (t', prior) when t' = tenant ->
              Hashtbl.replace departures leave (tenant, slices @ prior)
          | Some _ -> book (leave + 1) slices
        in
        book (now + job.Scheduler.duration) slices
      end;
      Trace.leave tr unit_span)
    jobs;
  (r, Blink.store_stats store, Unix.gettimeofday () -. t0)

let run ~seed ~seconds ~traced =
  let attempted = ref 0 and failed = ref 0 in
  let first = ref None in
  (* One call of the service; every call on the same trace must report
     the same admissions, store traffic and simulated times. *)
  let call n =
    let r, wall, cpu = Common.timed (fun () -> run_service ~seed n) in
    attempted := !attempted + n;
    failed := !failed + r.Scheduler.verify_mismatches;
    (r, wall, cpu)
  in
  (* Set-up: the service on a 2,000-job prefix of the same trace, its
     CPU seconds the sample. It is repeated before every measured call,
     so that one slow phase of the host cannot move every repetition. *)
  let setup_s = ref [] in
  let times = ref [] in
  Common.repeat_for
    ~seconds:(if traced then seconds /. 2. else seconds)
    ~min_reps:3
    (fun _ ->
      let _, _, setup_cpu = call warmup_jobs in
      setup_s := setup_cpu :: !setup_s;
      let r, wall, cpu = call n_jobs in
      times := (wall, cpu) :: !times;
      match !first with
      | None -> first := Some r
      | Some r0 -> if facts r <> facts r0 then failwith "service: calls on one trace differ");
  let walls = Array.of_list (List.rev_map fst !times) in
  let report = Option.get !first in
  let per_job xs = Array.map (fun t -> 1e3 *. t /. float n_jobs) xs in
  let job_ms = Stats.timing "job_ms_p50" "ms" (per_job walls) in
  (* The gated figure: the median over calls of CPU time per job. *)
  let job_cpu =
    Stats.scalar ~n:(Array.length walls) "job_cpu_ms_p50" "ms"
      (Stats.median (per_job (Array.of_list (List.map snd !times))))
  in
  let jobs_per_s =
    Stats.scalar ~n:(Array.length walls) "jobs_per_s" "1/s"
      (float (n_jobs * Array.length walls) /. Array.fold_left ( +. ) 0. walls)
  in
  let st = report.Scheduler.store in
  let layers, trace =
    if not traced then ([], None)
    else begin
      (* Untraced and traced replays alternate, so that a slow phase of
         the host does not land on one side only; the ledger is the last
         traced replay's. *)
      let pairs =
        List.init 3 (fun _ ->
            let _, _, untraced = replay (spans (Trace.create ~on:false ())) ~seed in
            let tr = Trace.create () in
            let r, rst, traced = replay (spans tr) ~seed in
            (untraced, traced, (r, rst, tr)))
      in
      let median f = Stats.median (Array.of_list (List.map f pairs)) in
      let overhead = (median (fun (_, t, _) -> t) /. median (fun (u, _, _) -> u)) -. 1. in
      let _, _, (r, rst, tr) = List.nth pairs 2 in
      attempted := !attempted + n_jobs;
      failed := !failed + r.mismatches;
      (* The replay must see exactly the service's slices and store
         traffic, or its ledger describes some other workload. *)
      if
        r.admitted <> report.Scheduler.admitted_jobs
        || r.planned <> report.Scheduler.planned_slices
        || r.verified <> report.Scheduler.verified_slices
        || rst.Blink_store.Store.hits <> st.Blink_store.Store.hits
        || rst.Blink_store.Store.misses <> st.Blink_store.Store.misses
        || rst.Blink_store.Store.evictions <> st.Blink_store.Store.evictions
        || not (Float.equal (r.slice_seconds /. float r.planned)
                  report.Scheduler.mean_slice_seconds)
      then failwith "service: traced replay diverged from run_service";
      ( Common.ledger_metrics ~per:1 tr ~overhead
      @ [
          ("engine.ops", float r.ops);
          ("store.hits", float st.Blink_store.Store.hits);
          ("store.misses", float st.Blink_store.Store.misses);
          ("store.evictions", float st.Blink_store.Store.evictions);
          ("store.hit_rate", report.Scheduler.hit_rate);
          ("store.fingerprints", float report.Scheduler.unique_fingerprints);
          ("scheduler.admitted", float report.Scheduler.admitted_jobs);
          ( "scheduler.rejected",
            float (report.Scheduler.rejected_capacity_jobs + report.Scheduler.rejected_quota_jobs) );
          ("scheduler.verify_mismatches", float report.Scheduler.verify_mismatches);
        ],
        Some tr )
    end
  in
  {
    Common.setup_s = Array.of_list !setup_s;
    latency_ms = job_cpu;
    named = [ job_cpu; jobs_per_s; job_ms ];
    attempted = !attempted;
    failed = !failed;
    determinism = facts report;
    layers;
    trace;
  }
