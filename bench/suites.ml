(* The measurement suites that both `blink <suite>` and
   `bench/main.exe -- <suite>` run. Each takes its scenario, prints its
   rows and returns what it measured; the bench adds its JSON artifact
   and gates, the CLI maps the result to an exit code. *)

open Util
module Analysis = Blink_core.Analysis
module Treegen = Blink_core.Treegen
module Planner = Blink_core.Planner
module Scheduler = Blink_cluster.Scheduler
module Store = Blink_store.Store
module Telemetry = Blink_telemetry.Telemetry
module Sem = Blink_sim.Semantics
module Program = Blink_sim.Program

(* Rank [rank]'s input: small integers, so every reduction order sums
   them exactly. *)
let rank_input ~rank ~elems =
  Array.init elems (fun i -> Float.of_int (((i * 3) + (rank * 7)) mod 11))

(* ------------------------------------------------------------------ *)
(* Replay: the steady-state loop. One warm-up call sizes pools and
   compiles kernels; then [runs] calls, averaged. *)

type steady = { wall_s : float; minor_words : float }

let steady_state ~runs f =
  f ();
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    f ()
  done;
  let words = Gc.minor_words () -. w0 in
  let wall = Unix.gettimeofday () -. t0 in
  { wall_s = wall /. Float.of_int runs; minor_words = words /. Float.of_int runs }

(* Re-execute one compiled plan: timing only, or timing plus data with
   every rank's input reloaded per call, as a training loop would. *)
let replay ~runs ~data (plan : Plan.t) =
  if data then begin
    let inputs =
      Array.init plan.Plan.n_ranks (fun rank ->
          rank_input ~rank ~elems:plan.Plan.elems)
    in
    let load mem (layout : Codegen.layout) =
      Array.iteri
        (fun r values -> Sem.write mem ~node:r ~buf:layout.Codegen.data.(r) values)
        inputs
    in
    steady_state ~runs (fun () -> ignore (Plan.execute ~load plan))
  end
  else steady_state ~runs (fun () -> ignore (Plan.execute ~data:false plan))

let print_engine_counters telemetry =
  row "  engine.prepares %d vs engine.runs %d (schedules are lowered once, \
       replayed thereafter)\n"
    (Telemetry.counter_value telemetry "engine.prepares")
    (Telemetry.counter_value telemetry "engine.runs")

(* ------------------------------------------------------------------ *)
(* Analyze: one timing pass per collective, attributed — bottleneck
   links, the critical-path op chain, achieved rate vs the topology's
   edge-cut bound — then the planner phases behind the handle. *)

let print_report ~server ~gpus ~mbytes (r : Analysis.report) =
  row "%s of %.0f MB on %s {%s}: makespan %.3f ms (chunk %d elems)\n"
    (Plan.collective_name r.Analysis.collective)
    mbytes server.Server.name (config_label gpus)
    (r.Analysis.makespan_s *. 1e3)
    r.Analysis.chunk_elems;
  row "achieved %.1f GB/s vs %.1f GB/s edge-cut bound: %.1f%% of what the \
       topology permits\n"
    r.Analysis.achieved_gbps r.Analysis.bound_gbps
    (100. *. r.Analysis.efficiency);
  row "bottleneck link(s), the run's rate-defining set:\n";
  List.iter
    (fun l ->
      row "  %-22s %5.1f%% utilized, %.3f ms slack%s\n" l.Analysis.li_label
        (100. *. l.Analysis.li_utilization)
        (l.Analysis.li_slack_s *. 1e3)
        (if l.Analysis.li_on_critical_path then "  [on critical path]" else ""))
    r.Analysis.bottlenecks;
  row "critical path: %d ops — transfer %.3f ms, compute %.3f ms, delay %.3f \
       ms, wait %.3f ms\n"
    r.Analysis.critical_ops
    (r.Analysis.transfer_s *. 1e3)
    (r.Analysis.compute_s *. 1e3)
    (r.Analysis.delay_s *. 1e3)
    (r.Analysis.wait_s *. 1e3);
  List.iteri
    (fun i (label, s) ->
      if i < 3 then row "  %d. %-22s %.3f ms on the chain\n" (i + 1) label (s *. 1e3))
    r.Analysis.critical_resources

type analysis = {
  handle : Blink.t;
  reports : Analysis.report list;
  phases : Analysis.phase list;
}

let analyze ~server ~gpus ~mbytes collectives =
  let handle = Blink.create server ~gpus in
  let elems = elems_of_mb mbytes in
  let reports =
    List.map
      (fun collective ->
        let r = Analysis.analyze handle collective ~elems in
        print_report ~server ~gpus ~mbytes r;
        r)
      collectives
  in
  let phases = Analysis.phases handle in
  if phases <> [] then begin
    row "planner phases (this handle's replan cost, decomposed):\n";
    List.iter
      (fun (p : Analysis.phase) ->
        row "  %-22s %2d call(s) %8.2f ms\n" p.Analysis.phase p.Analysis.calls
          (p.Analysis.total_s *. 1e3))
      phases
  end;
  { handle; reports; phases }

(* ------------------------------------------------------------------ *)
(* Cluster: the multi-tenant collective service against one shared
   fingerprint-keyed plan store. *)

let print_service ~verify_every (r : Scheduler.service_report) =
  let st = r.Scheduler.store in
  row "%d jobs over %d tenants: %d admitted, %d rejected (capacity), %d \
       rejected (quota)\n"
    r.Scheduler.jobs
    (List.length r.Scheduler.tenants)
    r.Scheduler.admitted_jobs r.Scheduler.rejected_capacity_jobs
    r.Scheduler.rejected_quota_jobs;
  row "slices: %d planned, %d single-gpu, %d pcie-only\n"
    r.Scheduler.planned_slices r.Scheduler.single_gpu_slices
    r.Scheduler.pcie_slices;
  row "shared store: %d hits / %d misses (%.1f%% cross-job hit rate), %d \
       unique fingerprints, %d live plans, %d evictions\n"
    st.Store.hits st.Store.misses
    (100. *. r.Scheduler.hit_rate)
    r.Scheduler.unique_fingerprints st.Store.entries st.Store.evictions;
  row "throughput: %.0f jobs/s (%.2f s wall), fairness %.3f\n"
    r.Scheduler.jobs_per_second r.Scheduler.wall_seconds r.Scheduler.fairness;
  List.iter
    (fun t ->
      row "  tenant %d: %4d submitted, %4d admitted, %3d/%3d rejected \
           (cap/quota), %10.0f gpu-s\n"
        t.Scheduler.tenant t.Scheduler.submitted t.Scheduler.admitted
        t.Scheduler.rejected_capacity t.Scheduler.rejected_quota
        t.Scheduler.gpu_seconds)
    r.Scheduler.tenants;
  if verify_every > 0 then
    row "verification: %d sampled slices, %d mismatches\n"
      r.Scheduler.verified_slices r.Scheduler.verify_mismatches;
  row "observatory (per-tenant service health):\n";
  List.iter
    (fun (o : Scheduler.tenant_observatory) ->
      row "  tenant %d: %4d jobs, latency %7.2f/%7.2f ms (mean/p95), \
           queue-wait %6.2f/%6.2f ms, %d straggler slices\n"
        o.Scheduler.ob_tenant o.Scheduler.ob_jobs
        (o.Scheduler.ob_latency.Scheduler.h_mean_s *. 1e3)
        (o.Scheduler.ob_latency.Scheduler.h_p95_s *. 1e3)
        (o.Scheduler.ob_queue_wait.Scheduler.h_mean_s *. 1e3)
        (o.Scheduler.ob_queue_wait.Scheduler.h_p95_s *. 1e3)
        o.Scheduler.ob_straggler_slices)
    r.Scheduler.observatory;
  List.iteri
    (fun i (c : Scheduler.fingerprint_class) ->
      if i < 5 then
        row "  class %-22s %5d slices, %6.1f GB/s mean (best %.1f, worst \
             %.1f), %d stragglers\n"
          c.Scheduler.fc_class c.Scheduler.fc_slices c.Scheduler.fc_mean_gbps
          c.Scheduler.fc_best_gbps c.Scheduler.fc_worst_gbps
          c.Scheduler.fc_stragglers)
    r.Scheduler.classes;
  row "stragglers: %d flagged slices (> %.0f%% below the class's best rate)\n"
    r.Scheduler.straggler_slices
    (100. *. r.Scheduler.straggler_epsilon);
  List.iteri
    (fun i (s : Scheduler.straggler) ->
      if i < 5 then
        row "  tenant %d on class %s: %.1f GB/s achieved vs %.1f expected\n"
          s.Scheduler.st_tenant s.Scheduler.st_class
          s.Scheduler.st_achieved_gbps s.Scheduler.st_expected_gbps)
    r.Scheduler.stragglers;
  Option.iter
    (fun d ->
      let u, v = d.Scheduler.dr_link in
      row "failover drill (link %d-%d): cold %.1f ms, warm %.1f ms, \
           contingency %.2f ms (prewarm %.1f ms, %d plans)\n"
        u v
        (d.Scheduler.dr_cold_replan_s *. 1e3)
        (d.Scheduler.dr_warm_replan_s *. 1e3)
        (d.Scheduler.dr_contingency_replan_s *. 1e3)
        (d.Scheduler.dr_prewarm_s *. 1e3)
        d.Scheduler.dr_prewarmed_plans)
    r.Scheduler.drill

(* ------------------------------------------------------------------ *)
(* Tournament: every registered planner backend on each fabric, timed
   through the DES and held to a differential check — Treegen.feasible
   plus element-exact AllReduce data against the reference semantics. *)

type entry = {
  backend : string;
  plan_s : float;
  graph : Blink_graph.Digraph.t;
  directed : Treegen.packing option;
  undirected : Treegen.packing option;
  broadcast_gbps : float;
  all_reduce_gbps : float;
  feasible : bool;
  data_correct : bool;
}

(* Element-exact AllReduce differential: slab semantics vs the float-array
   reference, over every buffer of the compiled program. *)
let data_correct handle =
  let elems = 2_048 in
  let plan = Blink.plan ~chunk_elems:512 handle Plan.All_reduce ~elems in
  let prog = plan.Plan.program in
  let layout = plan.Plan.layout in
  let mem = Sem.memory_of_program prog in
  let rmem = Sem.Ref.memory_of_program prog in
  Array.iteri
    (fun rank buf ->
      let values = rank_input ~rank ~elems in
      Sem.write mem ~node:rank ~buf values;
      Sem.Ref.write rmem ~node:rank ~buf values)
    layout.Codegen.data;
  Sem.run prog mem;
  Sem.Ref.run prog rmem;
  List.for_all
    (fun (node, buf, _len) -> Sem.Ref.read rmem ~node ~buf = Sem.read mem ~node ~buf)
    (Program.buffers prog)

let trees = function None -> 0 | Some p -> List.length p.Treegen.trees

let race ~mbytes ?link_faults server ~gpus backend =
  let t0 = Unix.gettimeofday () in
  let handle = Blink.create ~planner:backend ?link_faults server ~gpus in
  let plan_s = Unix.gettimeofday () -. t0 in
  let graph = Blink.graph handle in
  let directed = Blink.packing handle in
  let undirected = Blink.undirected_packing handle in
  let feasible =
    List.for_all
      (function None -> false | Some p -> Treegen.feasible graph p)
      [ directed; undirected ]
  in
  let data_correct = data_correct handle in
  let broadcast_gbps = blink_broadcast ~mbytes handle in
  let all_reduce_gbps = blink_all_reduce ~mbytes handle in
  let e =
    {
      backend = Planner.name backend; plan_s; graph; directed; undirected;
      broadcast_gbps; all_reduce_gbps; feasible; data_correct;
    }
  in
  row "  %-11s %5.1f GB/s %5.1f GB/s %5d %7d %9.1f %5b %5b\n" e.backend
    broadcast_gbps all_reduce_gbps (trees directed) (trees undirected)
    (plan_s *. 1e3) feasible data_correct;
  e

let tournament ~mbytes ?(faults = []) server ~gpus =
  let down =
    String.concat ""
      (List.map (fun ((u, v), _) -> Printf.sprintf " %d-%d" u v) faults)
  in
  row "%s gpus {%s}%s, %.0f MB:\n" server.Server.name (config_label gpus)
    (if down = "" then "" else " with link(s)" ^ down ^ " faulted")
    mbytes;
  row "  %-11s %9s %9s %7s %7s %9s %5s %5s\n" "backend" "bcast" "allred"
    "btrees" "atrees" "plan-ms" "feas" "data";
  let link_faults = if faults = [] then None else Some faults in
  List.map (race ~mbytes ?link_faults server ~gpus) (Planner.all ())

(* ------------------------------------------------------------------ *)
(* Failover: report faults to a live handle one at a time — the replan's
   wall time and path, then the surviving rate and simulated AllReduce —
   and hold the end state against a handle born on the degraded fabric. *)

type fault = Fail_link of int * int | Degrade of int * int * float | Fail_gpu of int

type step = {
  replan_s : float;  (** wall time of the fault report itself *)
  key_plan_s : float;  (** wall time of the next AllReduce plan lookup *)
  rate_gbps : float;
  all_reduce_s : float;
  plan : Plan.t;
}

let all_reduce_s handle ~elems =
  Plan.seconds (Plan.execute ~data:false (Blink.plan handle Plan.All_reduce ~elems))

let healthy handle ~elems =
  let rate = Blink.all_reduce_rate handle and s = all_reduce_s handle ~elems in
  row "healthy: %.1f GB/s packing rate, %.3f ms all_reduce of %.0f MB\n" rate
    (s *. 1e3)
    (Float.of_int elems *. Blink.bytes_per_elem /. mb);
  (rate, s)

let fault_step ~cold ~elems handle fault =
  let telemetry = Blink.telemetry handle in
  let hits () = Telemetry.counter_value telemetry "plan.contingency.hits" in
  let replan = if cold then `Cold else `Warm in
  let hits0 = hits () in
  let t0 = Unix.gettimeofday () in
  let label =
    match fault with
    | Fail_link (u, v) ->
        Blink.fail_link ~replan handle ~u ~v;
        Printf.sprintf "fail-link %d-%d" u v
    | Degrade (u, v, factor) ->
        Blink.degrade_link ~replan handle ~u ~v ~factor;
        Printf.sprintf "degrade %d-%d to %g" u v factor
    | Fail_gpu gpu ->
        Blink.fail_gpu handle ~gpu;
        Printf.sprintf "fail-gpu %d" gpu
  in
  let t1 = Unix.gettimeofday () in
  let plan = Blink.plan handle Plan.All_reduce ~elems in
  let key_plan_s = Unix.gettimeofday () -. t1 in
  let path =
    if hits () > hits0 then "contingency" else if cold then "cold" else "warm"
  in
  let s =
    {
      replan_s = t1 -. t0; key_plan_s;
      rate_gbps = Blink.all_reduce_rate handle;
      all_reduce_s = Plan.seconds (Plan.execute ~data:false plan); plan;
    }
  in
  row "%-22s replanned in %6.1f ms (%s): %.1f GB/s, %.3f ms all_reduce\n"
    label (s.replan_s *. 1e3) path s.rate_gbps (s.all_reduce_s *. 1e3);
  s

let print_fault_counters handle =
  let counter = Telemetry.counter_value (Blink.telemetry handle) in
  row "counters: fault.injected %d, plan.cache.invalidations %d\n"
    (counter "fault.injected")
    (counter "plan.cache.invalidations")

type cross_check = { fresh_rate_gbps : float; fresh_all_reduce_s : float; matches : bool }

(* Cold (and contingency-served) replans must match a fresh handle bit
   for bit; a warm replan keeps surviving trees, so its packing may trade
   some rate for the fast replan and the comparison is informational. *)
let cross_check ~cold ~elems handle =
  let fresh =
    Blink.create ~link_faults:(Blink.link_faults handle) (Blink.server handle)
      ~gpus:(Blink.gpus handle)
  in
  let fresh_rate_gbps = Blink.all_reduce_rate fresh in
  let fresh_all_reduce_s = all_reduce_s fresh ~elems in
  let rate = Blink.all_reduce_rate handle in
  let matches = fresh_rate_gbps = rate && fresh_all_reduce_s = all_reduce_s handle ~elems in
  if matches then row "fresh handle on the degraded fabric matches exactly\n"
  else if cold then row "fresh handle on the degraded fabric DIVERGES (bug)\n"
  else
    row "fresh handle on the degraded fabric: %.1f GB/s vs %.1f GB/s warm \
         (surviving trees kept; pass --cold for bit-identity)\n"
      fresh_rate_gbps rate;
  { fresh_rate_gbps; fresh_all_reduce_s; matches }

(* The largest set of survivors still NVLink-connected to one another:
   the allocation a partitioned job can shrink to. *)
let largest_connected handle ~survivors =
  let survivors = List.sort compare survivors in
  let graph =
    Server.nvlink_digraph ~faults:(Blink.link_faults handle)
      (Blink.server handle) ~gpus:(Array.of_list survivors)
  in
  List.init (List.length survivors) (fun from ->
      let reach = Blink_graph.Digraph.reachable graph ~from in
      List.filteri (fun j _ -> reach.(j)) survivors)
  |> List.fold_left
       (fun best c -> if List.length c > List.length best then c else best)
       []

let print_partition handle ~alive ~unreachable =
  let ids l = String.concat "," (List.map string_of_int l) in
  row "fabric partitioned: gpus {%s} can no longer reach {%s}; shrink the \
       allocation (e.g. --gpus %s) or repair the link\n"
    (ids alive) (ids unreachable)
    (ids (largest_connected handle ~survivors:(alive @ unreachable)))

type failover = No_faults | Survived of cross_check | Partitioned

let failover ~contingencies ~cold ~server ~gpus ~mbytes faults =
  let handle = Blink.create server ~gpus in
  let elems = elems_of_mb mbytes in
  ignore (healthy handle ~elems);
  if contingencies then begin
    let t0 = Unix.gettimeofday () in
    let n = Blink.prewarm ~contingencies:`All handle [ (Plan.All_reduce, elems) ] in
    row "prewarmed %d one-link-down contingency plan(s) in %.1f ms\n" n
      ((Unix.gettimeofday () -. t0) *. 1e3)
  end;
  match List.map (fault_step ~cold ~elems handle) faults with
  | [] ->
      row "(no faults requested: pass --fail-link, --degrade or --fail-gpu)\n";
      No_faults
  | _ ->
      print_fault_counters handle;
      Survived (cross_check ~cold ~elems handle)
  | exception Blink.Partitioned { alive; unreachable } ->
      print_partition handle ~alive ~unreachable;
      Partitioned
