(* plan-churn: fresh handles on a dozen allocations, each planning all
   six collectives over the round-MB grid, one timing-only execute per
   plan, then one warm fail_link on a pair the plans use and a re-plan
   of every key. Private stores, no data pass: the work is TreeGen, MIAD,
   codegen/Engine.prepare and replanning. Untraced, each library call is
   timed on its own and the output checks fall outside those times. *)

open Blink_core
module Server = Blink_topology.Server
module Tree = Blink_collectives.Tree
module Fingerprint = Blink_store.Fingerprint

(* 64 KB .. 256 MB in fp32 elements (1 MB = 250,000 elements). The 1 MB
   point on the full DGX-1V is the known MIAD cliff; it stays. *)
let sizes = [ 16_000; 64_000; 250_000; 1_000_000; 4_000_000; 16_000_000; 64_000_000 ]
let largest = 64_000_000

type alloc = {
  server : Server.t;
  gpus : int array;
  faults : Server.faults;  (** links degraded at creation *)
}

(* The five most frequent classes of NVLink-connected 3-7-GPU fragment
   on each server, in the canonical GPU order run_service plans them
   in. They come from run_service's first-fit placement of the
   40,000-job trace of seed 1 on 64 servers; the DGX-1P list classifies
   the same placements on DGX-1P servers. WORKLOADS.md gives each
   class's share. The set is fixed, not drawn from the seed: drawn
   slices run into further MIAD cliffs of 70-135 s (see WORKLOADS.md),
   which would put single runs past their time limit. *)
let dgx1v_fragments =
  [ [| 0; 1; 2; 3 |]; [| 0; 5; 7; 4 |]; [| 0; 5; 1; 4 |]; [| 0; 6; 7; 4 |]; [| 0; 5; 6; 4 |] ]

let dgx1p_fragments =
  [ [| 0; 1; 2; 3 |]; [| 0; 5; 6; 4 |]; [| 0; 6; 7; 3 |]; [| 0; 5; 1; 4 |]; [| 0; 6; 7; 4 |] ]

(* The NVLink pairs of a slice, in ascending order. *)
let links server gpus =
  let ids = List.sort compare (Array.to_list gpus) in
  List.concat_map
    (fun u ->
      List.filter_map
        (fun v -> if u < v && Server.pair_links server u v <> None then Some (u, v) else None)
        ids)
    ids

(* The second and fourth fragment of each server are created with their
   first NVLink pair at half bandwidth: four of the twelve allocations. *)
let fragments server list =
  List.mapi
    (fun i gpus ->
      let faults =
        if i mod 2 = 1 then [ (List.hd (links server gpus), Server.Degraded 0.5) ] else []
      in
      { server; gpus; faults })
    list

(* The paper's {1,4,5,6} and the trace's fragments. *)
let slices =
  ({ server = Server.dgx1v; gpus = [| 1; 4; 5; 6 |]; faults = [] }
  :: fragments Server.dgx1v dgx1v_fragments)
  @ fragments Server.dgx1p dgx1p_fragments

(* The full DGX-1V, whose 1 MB point is the known MIAD cliff. *)
let full = { server = Server.dgx1v; gpus = Array.init 8 Fun.id; faults = [] }

let allocations = full :: slices

(* An allocation's position in [allocations]. *)
let index a =
  let rec go i = function
    | [] -> invalid_arg "plan-churn: unknown allocation"
    | b :: rest -> if b == a then i else go (i + 1) rest
  in
  go 0 allocations

(* One sweep: three rounds over the slices, the full DGX-1V, then three
   more rounds. Rounds on both sides of the cliff (about 20 s) spread the
   plan-latency samples over the whole sweep, so that one slow phase of
   the host cannot shift them all. *)
let rounds = List.init 3 (fun _ -> slices)
let sweep_rounds = rounds @ ([ full ] :: rounds)

let create a = Blink.create ~link_faults:a.faults a.server ~gpus:a.gpus

let packings h = List.filter_map Fun.id [ Blink.packing h; Blink.undirected_packing h ]
let feasible h = List.for_all (Treegen.feasible (Blink.graph h)) (packings h)

(* GPU pairs a plan's trees route over. *)
let tree_pairs h (p : Plan.t) =
  let gpus = Blink.gpus h in
  List.concat_map
    (fun (w : Tree.weighted) ->
      let t = w.Tree.tree in
      List.filter_map
        (fun r ->
          let q = t.Tree.parent.(r) in
          if q < 0 then None
          else
            let u = gpus.(q) and v = gpus.(r) in
            Some (min u v, max u v))
        (List.init (Array.length t.Tree.parent) Fun.id))
    p.Plan.trees

(* The pairs among [pairs] whose loss leaves the slice connected. *)
let survivable a pairs =
  List.filter
    (fun (u, v) ->
      let g =
        Server.nvlink_digraph ~faults:(a.faults @ [ ((u, v), Server.Down) ]) a.server ~gpus:a.gpus
      in
      Blink_graph.Digraph.is_connected_from g ~root:0)
    pairs

(* The pair the warm fail_link takes down: the first pair, in ascending
   order, that the plans route over and whose loss leaves the slice
   connected. A slice whose links form a chain (DGX-1P {0,6,7,3}) has no
   such pair and skips the fault. *)
let fault_pair a h plans =
  let used = List.sort_uniq compare (List.concat_map (tree_pairs h) plans) in
  match survivable a used with
  | p :: _ -> Some p
  | [] -> None

(* Per-run accumulators. [wall] sums the timed library calls only. *)
type acc = {
  mutable wall : float;
  mutable plans : int;
  mutable plan_ms : ((int * int * Plan.collective) * (float * float)) list;
      (** pre-fault misses' (wall, CPU) ms, keyed by (allocation,
          elements, collective) *)
  mutable replan_ms : float list;  (** per allocation: fail_link + its misses *)
  mutable algbw : float list;
  mutable bound_pct : ((alloc * Plan.collective) * float) list;
      (** per (allocation, collective) at 256 MB *)
  mutable trees : int;
  mutable program_ops : int;
  mutable invalidations : int;
  mutable attempted : int;
  mutable failed : int;
}

let new_acc () =
  {
    wall = 0.;
    plans = 0;
    plan_ms = [];
    replan_ms = [];
    algbw = [];
    bound_pct = [];
    trees = 0;
    program_ops = 0;
    invalidations = 0;
    attempted = 0;
    failed = 0;
  }

let check acc ok =
  acc.attempted <- acc.attempted + 1;
  if not ok then acc.failed <- acc.failed + 1

(* Span ids of the traced sweep. *)
type spans = {
  tr : Trace.t;
  sweep : int;
  alloc : int;
  bench : int;
  fingerprint : int;
  create : int;
  miad : int;
  codegen : int;
  timing : int;
  fail_link : int;
  keys : int;
  lookup : int;
}

let spans tr =
  let l = Common.layer_span tr in
  {
    tr;
    sweep = Trace.name tr Trace.Unit "sweep";
    alloc = Trace.name tr Trace.Call "allocation";
    bench = Trace.name tr Trace.Bench "check";
    fingerprint = l "fingerprint.make";
    create = l "treegen.create";
    miad = l "chunking.miad";
    codegen = l "codegen.build";
    timing = l "engine.timing";
    fail_link = l "replan.fail_link";
    keys = l "replan.keys";
    lookup = l "blink.lookup";
  }

(* One allocation's churn. Untraced, each library call is timed on its
   own; traced, each gets a span, MIAD is split out of the first plan of
   a size class by asking for the tuned chunk first, and the fingerprint
   is computed before [Blink.create] (whose own call then hits the
   fingerprint memo). *)
let churn ?sp acc a =
  let timed layer f =
    match sp with
    | Some sp -> Trace.span sp.tr (layer sp) f
    | None ->
        let x, dt = Common.wall f in
        acc.wall <- acc.wall +. dt;
        x
  in
  let checking f = match sp with Some sp -> Trace.span sp.tr sp.bench f | None -> f () in
  let call = Option.map (fun sp -> Trace.enter sp.tr sp.alloc) sp in
  Option.iter
    (fun sp ->
      Trace.span sp.tr sp.fingerprint (fun () ->
          ignore
            (Fingerprint.make ~planner:"treegen" a.server ~gpus:a.gpus ~faults:a.faults)))
    sp;
  let h = timed (fun sp -> sp.create) (fun () -> create a) in
  checking (fun () ->
      check acc (feasible h);
      acc.trees <- acc.trees + List.fold_left (fun n p -> n + List.length p.Treegen.trees) 0 (packings h));
  (* Plan one key, with its (wall, CPU) seconds untraced; the returned
     flag tells a miss (compiled) from a hit. *)
  let plan coll elems ~miss_layer =
    let before = (Blink.plan_cache_stats h).Blink.misses in
    match sp with
    | None ->
        let p, wall, cpu = Common.timed (fun () -> Blink.plan h coll ~elems) in
        acc.wall <- acc.wall +. wall;
        (p, (wall, cpu), (Blink.plan_cache_stats h).Blink.misses > before)
    | Some sp ->
        let s = Trace.enter sp.tr sp.lookup in
        let p = Blink.plan h coll ~elems in
        let miss = (Blink.plan_cache_stats h).Blink.misses > before in
        Trace.leave ?rename:(if miss then Some (miss_layer sp) else None) sp.tr s;
        (p, (0., 0.), miss)
  in
  let execute elems p =
    let e = timed (fun sp -> sp.timing) (fun () -> Plan.execute ~data:false p) in
    let bw = Blink.algbw_gbps ~elems e.Plan.timing in
    checking (fun () -> check acc (Float.is_finite bw && bw > 0.));
    acc.algbw <- bw :: acc.algbw;
    bw
  in
  let tune elems =
    Option.iter
      (fun sp -> Trace.span sp.tr sp.miad (fun () -> ignore (Blink.tuned_chunk h ~elems)))
      sp
  in
  let plans =
    List.concat_map
      (fun elems ->
        tune elems;
        List.map
          (fun coll ->
            let p, dt, miss = plan coll elems ~miss_layer:(fun sp -> sp.codegen) in
            if miss then begin
              acc.plans <- acc.plans + 1;
              acc.program_ops <- acc.program_ops + Blink_sim.Program.n_ops p.Plan.program;
              let wall, cpu = dt in
              acc.plan_ms <- ((index a, elems, coll), (1e3 *. wall, 1e3 *. cpu)) :: acc.plan_ms
            end;
            let bw = execute elems p in
            if elems = largest then
              acc.bound_pct <-
                ((a, coll), 100. *. bw /. Blink.edge_cut_bound h coll) :: acc.bound_pct;
            p)
          Common.collectives)
      sizes
  in
  let pair =
    checking (fun () ->
        let pair = fault_pair a h plans in
        check acc (pair <> None || survivable a (links a.server a.gpus) = []);
        pair)
  in
  Option.iter
    (fun (u, v) ->
      let wall0 = acc.wall in
      timed (fun sp -> sp.fail_link) (fun () -> Blink.fail_link h ~u ~v);
      let replans = ref (acc.wall -. wall0) in
      List.iter
        (fun elems ->
          tune elems;
          List.iter
            (fun coll ->
              let p, dt, miss = plan coll elems ~miss_layer:(fun sp -> sp.keys) in
              if miss then begin
                acc.plans <- acc.plans + 1;
                acc.program_ops <- acc.program_ops + Blink_sim.Program.n_ops p.Plan.program;
                replans := !replans +. fst dt
              end;
              checking (fun () -> check acc (not (List.mem (u, v) (tree_pairs h p))));
              ignore (execute elems p))
            Common.collectives)
        sizes;
      (* fail_link plus the re-planning of the keys it invalidated. *)
      acc.replan_ms <- (1e3 *. !replans) :: acc.replan_ms;
      checking (fun () -> check acc (feasible h));
      acc.invalidations <- acc.invalidations + Blink.plan_cache_invalidations h)
    pair;
  Option.iter (fun sp -> Trace.leave sp.tr (Option.get call)) sp

(* Set-up repetitions before each round of an untraced sweep: spread
   over the sweep, so that one slow phase of the host cannot move them
   all. *)
let setups_per_round = 3

(* Everything a sweep must reproduce exactly for the same seed. *)
let facts acc =
  [
    ("sim_algbw_gbps", Common.fact_float (Stats.geomean (Array.of_list acc.algbw)));
    ("plans", Common.fact_int acc.plans);
    ("trees", Common.fact_int acc.trees);
    ("program_ops", Common.fact_int acc.program_ops);
    ("invalidations", Common.fact_int acc.invalidations);
  ]

(* The inputs do not depend on the seed (see [slices]). *)
let run ~seed:_ ~seconds ~traced =
  (* Set-up: a handle on every allocation (TreeGen packing), checked
     feasible, its CPU seconds the sample. The sweeps below then start
     again from fresh handles. *)
  let rates = ref None in
  let setup () =
    let hs, _, s = Common.timed (fun () -> List.map create allocations) in
    if not (List.for_all feasible hs) then failwith "plan-churn: infeasible packing at set-up";
    let r = List.map (fun h -> (Blink.rate h, Blink.all_reduce_rate h)) hs in
    (match !rates with
    | None -> rates := Some r
    | Some r0 -> if r <> r0 then failwith "plan-churn: packing rates differ between set-ups");
    s
  in
  let setup_s = ref [] in
  let sweep ?sp () =
    let acc = new_acc () in
    let unit_span = Option.map (fun sp -> Trace.enter sp.tr sp.sweep) sp in
    List.iter
      (fun round ->
        (* Each round starts from a compacted heap, whatever came before:
           the cliff leaves a multi-GB heap behind. *)
        (match sp with Some sp -> Trace.span sp.tr sp.bench Gc.compact | None -> Gc.compact ());
        if sp = None then
          for _ = 1 to setups_per_round do
            setup_s := setup () :: !setup_s
          done;
        List.iter (churn ?sp acc) round)
      sweep_rounds;
    Option.iter (fun sp -> Trace.leave sp.tr (Option.get unit_span)) sp;
    acc
  in
  let accs = ref [] in
  Common.repeat_for ~seconds:(if traced then 0. else seconds) ~min_reps:1 (fun _ ->
      accs := sweep () :: !accs);
  let accs = List.rev !accs in
  let first = List.hd accs in
  List.iter
    (fun a -> if facts a <> facts first then failwith "plan-churn: sweeps differ")
    accs;
  let sum f = List.fold_left (fun s a -> s +. f a) 0. accs in
  let samples f = Array.of_list (List.concat_map f accs) in
  let keyed = List.concat_map (fun a -> a.plan_ms) accs in
  let plan_ms = Array.of_list (List.map (fun (_, (wall, _)) -> wall) keyed) in
  (* The gated figure: each slice's key is planned once per round on a
     fresh handle, and it is the mean over those keys of each key's own
     10th-percentile CPU time. The full DGX-1V, planned once a sweep,
     is left out. *)
  let repeated =
    List.filter
      (fun (_, xs) -> Array.length xs > 1)
      (Stats.by_key (List.map (fun (k, (_, cpu)) -> (k, cpu)) keyed))
  in
  let plan_cpu =
    Stats.scalar
      ~n:(List.fold_left (fun n (_, xs) -> n + Array.length xs) 0 repeated)
      "plan_cpu_ms_p10" "ms"
      (Stats.mean (Array.of_list (List.map (fun (_, xs) -> Stats.percentile xs 10.) repeated)))
  in
  let plan_p50 = Stats.timing "plan_ms_p50" "ms" plan_ms in
  let plan_p95 =
    { plan_p50 with Stats.name = "plan_ms_p95"; value = Stats.percentile plan_ms 95. }
  in
  let wall = sum (fun a -> a.wall) in
  let plans_per_s =
    Stats.scalar ~n:(List.length accs) "plans_per_s" "1/s" (sum (fun a -> float a.plans) /. wall)
  in
  let replan = Stats.timing "replan_ms_p50" "ms" (samples (fun a -> a.replan_ms)) in
  let algbw =
    Stats.scalar ~n:(List.length first.algbw) "sim_algbw_gbps" "GB/s"
      (Stats.geomean (Array.of_list first.algbw))
  in
  let layers, traced_facts, traced_acc =
    if not traced then ([], [], [])
    else begin
      let tr = Trace.create () in
      let sp = spans tr in
      let acc = sweep ~sp () in
      if facts acc <> facts first then failwith "plan-churn: traced sweep differs";
      let l = Trace.ledger tr in
      let bound coll =
        let xs =
          List.filter_map
            (fun ((_, c), p) -> if c = coll then Some p else None)
            (List.sort_uniq compare acc.bound_pct)
        in
        Stats.mean (Array.of_list xs)
      in
      ( Common.ledger_metrics tr ~overhead:((l.Trace.unit_s /. first.wall) -. 1.)
        @ [
            ("treegen.trees", float acc.trees);
            ("codegen.program_ops", float acc.program_ops);
            ("blink.invalidations", float acc.invalidations);
          ]
        @ List.map
            (fun c -> ("analysis.bound_pct." ^ Plan.collective_name c, bound c))
            Common.collectives,
        List.map
          (fun c -> ("bound_pct." ^ Plan.collective_name c, Common.fact_float (bound c)))
          Common.collectives,
        [ (acc, tr) ] )
    end
  in
  let checked = accs @ List.map fst traced_acc in
  {
    Common.setup_s = Array.of_list !setup_s;
    latency_ms = plan_cpu;
    named = [ plan_cpu; plans_per_s; plan_p50; plan_p95; replan; algbw ];
    attempted = List.fold_left (fun n a -> n + a.attempted) 0 checked;
    failed = List.fold_left (fun n a -> n + a.failed) 0 checked;
    determinism = facts first @ traced_facts;
    layers;
    trace = Option.map snd (List.nth_opt traced_acc 0);
  }
