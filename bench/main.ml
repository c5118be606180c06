(* Benchmark harness: `dune exec bench/main.exe` regenerates every figure of
   the paper's evaluation (see EXPERIMENTS.md for paper-vs-measured) and
   finishes with Bechamel micro-benchmarks of the planning and simulation
   hot paths. `dune exec bench/main.exe -- fig15` runs a single target;
   `-- list` enumerates them. The measurement suites shared with the
   `blink` CLI live in suites.ml; this file adds their artifacts and
   gates. *)

open Blink_suites
module Server = Blink_topology.Server
module Blink = Blink_core.Blink
module Codegen = Blink_collectives.Codegen
module Treegen = Blink_core.Treegen
module Json = Blink_telemetry.Json
module Telemetry = Blink_telemetry.Telemetry

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: planner and simulator costs. *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  Util.heading "Bechamel: planner / simulator hot paths (ns per run)";
  let gpus8 = Array.init 8 Fun.id in
  let graph = Server.nvlink_digraph Server.dgx1v ~gpus:gpus8 in
  let handle = Blink.create Server.dgx1v ~gpus:gpus8 in
  let elems = 25_000_000 in
  let telemetry = Blink.telemetry handle in
  let fabric = Blink.fabric handle in
  let spec = Codegen.spec ~chunk_elems:1_048_576 ~telemetry fabric in
  let trees = Blink.all_reduce_trees handle in
  (* Codegen outside the plan cache, so every run pays a full compile. *)
  let codegen () = Codegen.all_reduce spec ~elems ~trees in
  let prog, _ = codegen () in
  let resources = Blink_topology.Fabric.resources fabric in
  let tests =
    [
      Test.make ~name:"maxflow-rate"
        (Staged.stage (fun () -> ignore (Treegen.best_root graph)));
      Test.make ~name:"mwu-pack"
        (Staged.stage (fun () -> ignore (Treegen.pack ~epsilon:0.1 graph ~root:0)));
      Test.make ~name:"plan-with-ilp"
        (Staged.stage (fun () -> ignore (Treegen.plan ~epsilon:0.1 graph ~root:0)));
      Test.make ~name:"plan-undirected"
        (Staged.stage (fun () ->
             ignore (Treegen.plan_undirected ~epsilon:0.1 graph ~root:0)));
      Test.make ~name:"codegen-allreduce-100MB"
        (Staged.stage (fun () -> ignore (codegen ())));
      Test.make ~name:"engine-run-100MB"
        (Staged.stage (fun () ->
             ignore (Blink_sim.Engine.run ~telemetry ~resources prog)));
      Test.make ~name:"ring-channel-search"
        (Staged.stage (fun () ->
             ignore (Blink_baselines.Ring.nccl_channels Server.dgx1v ~gpus:gpus8)));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:100 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let stats = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> Printf.printf "  %-28s %12.0f ns/run\n%!" name ns
          | Some _ | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
        stats)
    tests

(* ------------------------------------------------------------------ *)
(* Plan-cache mode: prove that planning work is done once and repeated
   collectives replay the compiled plan. *)

module Comm = Blink_core.Comm
module Plan = Blink_core.Plan

let plan_cache_suite () =
  let iters = 100 in
  let elems = 1_000_000 in
  Util.heading "Plan cache: %dx Comm.all_reduce of %d elems on gpus {1,4,5,6}"
    iters elems;
  let c = Comm.init Server.dgx1v ~gpus:[| 1; 4; 5; 6 |] in
  let inputs = Array.init 4 (fun rank -> Suites.rank_input ~rank ~elems) in
  let wall f =
    let t0 = Sys.time () in
    let x = f () in
    (Sys.time () -. t0, x)
  in
  (* First call compiles: tree extraction + MIAD tuning + codegen. *)
  let t_first, _ = wall (fun () -> Comm.all_reduce c inputs) in
  let t_rest = ref 0. in
  for _ = 2 to iters do
    let t, _ = wall (fun () -> Comm.all_reduce c inputs) in
    t_rest := !t_rest +. t
  done;
  let { Blink.hits; misses } = Comm.plan_cache_stats c in
  let avg_rest = !t_rest /. Float.of_int (iters - 1) in
  Util.row "  first call (plan + execute):    %8.1f ms\n" (t_first *. 1e3);
  Util.row "  later calls (cached plan):      %8.1f ms avg\n" (avg_rest *. 1e3);
  Util.row "  planning amortization:          %8.1fx\n" (t_first /. avg_rest);
  Util.row "  plan cache: %d hits / %d misses (%.1f%% hit rate)\n" hits misses
    (100. *. Float.of_int hits /. Float.of_int (hits + misses));
  (* Split one cached iteration into its passes on a timing-only plan. *)
  let handle = Comm.handle c in
  let t_plan_hit, plan =
    wall (fun () -> Blink.plan handle Plan.All_reduce ~elems)
  in
  let t_timing, _ = wall (fun () -> Plan.execute ~data:false plan) in
  let t_replay, _ = wall (fun () -> Plan.execute plan) in
  Util.row "  per call: plan lookup %.3f ms, timing pass %.1f ms, \
            timing+data passes %.1f ms\n"
    (t_plan_hit *. 1e3) (t_timing *. 1e3) (t_replay *. 1e3);
  (* Dump the final cache counters plus the communicator's full telemetry
     registry — the same counters the rows above summarize — as a
     machine-readable artifact for CI and the regression gate. *)
  let { Blink.hits = hits_final; misses = misses_final } =
    Comm.plan_cache_stats c
  in
  Util.write_bench_json ~file:"BENCH_plan_cache.json" ~suite:"plan_cache"
    [
      ("iters", Json.int iters);
      ("elems", Json.int elems);
      ("hits", Json.int hits_final);
      ("misses", Json.int misses_final);
      ( "hit_rate",
        Json.float
          (Float.of_int hits_final
          /. Float.of_int (max 1 (hits_final + misses_final))) );
      ("metrics", Telemetry.metrics_json (Comm.telemetry c));
    ]

(* ------------------------------------------------------------------ *)
(* Parallel-plan mode: the same planning sweep driven by a 1-domain pool
   (sequential by construction) and a multi-domain pool, with wall-clock
   and speedup dumped as a machine-readable artifact. The planning work —
   per-server MWU + ILP packing in Multiserver.create, MIAD tuning and
   codegen in Blink.prewarm — is what the domain pool fans out. *)

module Pool = Blink_parallel.Pool
module Multiserver = Blink_core.Multiserver

let parallel_plan_measured () =
  let cluster n = List.init n (fun _ -> (Server.dgx1v, Array.init 8 Fun.id)) in
  let prewarm_keys =
    List.concat_map
      (fun elems -> [ (Plan.All_reduce, elems); (Plan.Broadcast, elems) ])
      [ 262_144; 1_048_576; 4_194_304; 16_777_216 ]
  in
  let jobs =
    [
      ( "multiserver-2x8",
        fun pool -> ignore (Multiserver.create ~pool (cluster 2)) );
      ( "multiserver-4x8",
        fun pool -> ignore (Multiserver.create ~pool (cluster 4)) );
      ( "prewarm-8keys",
        fun pool ->
          let handle =
            Blink.create Server.dgx1v ~gpus:(Array.init 8 Fun.id)
          in
          ignore (Blink.prewarm ~pool handle prewarm_keys) );
    ]
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  (* Warm-up pass so allocator effects don't favour either side. *)
  Pool.with_pool ~domains:1 (fun pool ->
      List.iter (fun (_, job) -> job pool) jobs);
  let time_all pool = List.map (fun (name, job) -> (name, wall (fun () -> job pool))) jobs in
  let seq = Pool.with_pool ~domains:1 time_all in
  (* Ask for 4 domains but never exceed what this host can actually run
     in parallel: oversubscribing cores makes the "parallel" run slower
     than sequential and the artifact misleading. *)
  let requested = 4 in
  let effective = min requested (max 1 (Pool.default_domains ())) in
  let par_domains, par =
    Pool.with_pool ~domains:effective (fun pool ->
        (Pool.domains pool, time_all pool))
  in
  let total xs = List.fold_left (fun acc (_, t) -> acc +. t) 0. xs in
  let t_seq = total seq and t_par = total par in
  let speedup = if t_par > 0. then t_seq /. t_par else 0. in
  let expected_on_this_host = speedup < 1.0 && par_domains < requested in
  Util.row "  %-18s %12s %12s %9s\n" "job" "1 domain"
    (Printf.sprintf "%d domains" par_domains)
    "speedup";
  List.iter2
    (fun (name, ts) (_, tp) ->
      Util.row "  %-18s %10.1f ms %10.1f ms %8.2fx\n" name (ts *. 1e3)
        (tp *. 1e3)
        (if tp > 0. then ts /. tp else 0.))
    seq par;
  Util.row "  %-18s %10.1f ms %10.1f ms %8.2fx\n" "total" (t_seq *. 1e3)
    (t_par *. 1e3) speedup;
  Util.row
    "  (requested %d domains, ran %d; recommended on this machine: %d)\n"
    requested par_domains (Pool.default_domains ());
  if expected_on_this_host then
    Util.row
    "  (sub-1.0 speedup is expected on this host: too few real cores)\n";
  let job_objs =
    List.map2
      (fun (name, ts) (_, tp) ->
        Json.Obj
          [
            ("job", Json.str name);
            ("seq_s", Json.float ts);
            ("par_s", Json.float tp);
            ("speedup", Json.float (if tp > 0. then ts /. tp else 0.));
          ])
      seq par
  in
  Util.write_bench_json ~file:"BENCH_parallel_plan.json" ~suite:"parallel_plan"
    [
      ("skipped_no_domains", Json.Bool false);
      ("recommended_domains", Json.int (Pool.default_domains ()));
      ("requested_domains", Json.int requested);
      ("par_domains", Json.int par_domains);
      ("expected_on_this_host", Json.Bool expected_on_this_host);
      ("seq_total_s", Json.float t_seq);
      ("par_total_s", Json.float t_par);
      ("speedup", Json.float speedup);
      ("jobs", Json.List job_objs);
    ];
  (* Speedup gate: only enforced where parallelism actually exists.
     [expected_on_this_host] (fewer real cores than requested) keeps the
     gate advisory on laptops; the BLINK_DOMAINS=4 CI job makes it
     hard. *)
  if (not expected_on_this_host) && speedup < 1.05 then begin
    Printf.eprintf
      "parallel-plan: %.2fx speedup with %d domains (gate: >= 1.05x)\n"
      speedup par_domains;
    exit 1
  end

(* Single-domain hosts (CI runners, small containers) have no
   parallelism to measure: a 1-vs-1 comparison would only publish
   scheduler noise. Report the skip explicitly so the artifact says why
   the numbers are absent instead of carrying misleading ones. *)
let parallel_plan_suite () =
  Util.heading
    "Parallel planning: multi-server packing + plan prewarm, 1 vs N domains";
  if Pool.default_domains () <= 1 then begin
    Util.row
      "  skipped: this host recommends a single domain — nothing to \
       parallelize\n";
    Util.write_bench_json ~file:"BENCH_parallel_plan.json"
      ~suite:"parallel_plan"
      [
        ("skipped_no_domains", Json.Bool true);
        ("recommended_domains", Json.int (Pool.default_domains ()));
      ]
  end
  else parallel_plan_measured ()

(* ------------------------------------------------------------------ *)
(* Overlap mode: planning hidden behind execution. The foreground domain
   replays an already-compiled plan (the training loop stand-in) while
   [Blink.prewarm_async] pipelines next-allocation tuning + codegen on a
   pool worker. Sequential = prewarm then replay; overlapped = submit,
   replay, await. The replay loop is calibrated to roughly the prewarm
   wall, so perfect overlap approaches 2x. *)

let overlap_measured () =
  let gpus = Array.init 8 Fun.id in
  let keys =
    List.concat_map
      (fun elems -> [ (Plan.All_reduce, elems); (Plan.Broadcast, elems) ])
      [ 262_144; 1_048_576; 4_194_304 ]
  in
  let mk () = Blink.create Server.dgx1v ~gpus in
  let wall f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  (* Foreground work: steady-state timing replays of a compiled plan. *)
  let live = Blink.create Server.dgx1v ~gpus:[| 1; 4; 5; 6 |] in
  let plan = Blink.plan live Plan.All_reduce ~elems:1_000_000 in
  ignore (Plan.execute ~data:false plan);
  (* Calibrate: one throwaway 1-domain prewarm (also the warm-up pass)
     sizes the replay loop to the single-worker pipeline wall — what the
     async job actually costs, since it runs on one pool worker while
     [prewarm ~pool] fans the same keys out across all of them. *)
  let prewarm_wall =
    Pool.with_pool ~domains:1 (fun pool ->
        wall (fun () -> ignore (Blink.prewarm ~pool (mk ()) keys)))
  in
  let one_exec =
    wall (fun () -> for _ = 1 to 10 do ignore (Plan.execute ~data:false plan) done)
    /. 10.
  in
  let exec_iters =
    max 10 (int_of_float (prewarm_wall /. Float.max 1e-9 one_exec))
  in
  let exec_loop () =
    for _ = 1 to exec_iters do
      ignore (Plan.execute ~data:false plan)
    done
  in
  let domains = min 4 (max 2 (Pool.default_domains ())) in
  let seq_total, overlap_total =
    Pool.with_pool ~domains (fun pool ->
        let h_seq = mk () in
        let seq =
          wall (fun () ->
              ignore (Blink.prewarm ~pool h_seq keys);
              exec_loop ())
        in
        let h_ovl = mk () in
        let ovl =
          wall (fun () ->
              let job = Blink.prewarm_async ~pool h_ovl keys in
              exec_loop ();
              ignore (Blink.prewarm_await h_ovl job))
        in
        (seq, ovl))
  in
  let speedup = if overlap_total > 0. then seq_total /. overlap_total else 0. in
  Util.row "  prewarm wall %.1f ms, replay loop %d x %.3f ms\n"
    (prewarm_wall *. 1e3) exec_iters (one_exec *. 1e3);
  Util.row "  sequential %.1f ms, overlapped %.1f ms: %.2fx\n"
    (seq_total *. 1e3) (overlap_total *. 1e3) speedup;
  let effective = min domains (Pool.default_domains ()) in
  let expected_on_this_host = speedup < 1.0 && effective < 2 in
  Util.write_bench_json ~file:"BENCH_overlap.json" ~suite:"overlap"
    [
      ("skipped_no_domains", Json.Bool false);
      ("recommended_domains", Json.int (Pool.default_domains ()));
      ("pool_domains", Json.int domains);
      ("prewarm_wall_s", Json.float prewarm_wall);
      ("exec_iters", Json.int exec_iters);
      ("exec_wall_s", Json.float one_exec);
      ("seq_total_s", Json.float seq_total);
      ("overlap_total_s", Json.float overlap_total);
      ("speedup", Json.float speedup);
      ("expected_on_this_host", Json.Bool expected_on_this_host);
    ];
  if (not expected_on_this_host) && speedup < 1.10 then begin
    Printf.eprintf
      "overlap: prewarm_async hid only %.2fx with %d domains (gate: >= \
       1.10x)\n"
      speedup domains;
    exit 1
  end

let overlap_suite () =
  Util.heading
    "Overlap: prewarm_async planning hidden behind plan replay, seq vs async";
  if Pool.default_domains () <= 1 then begin
    Util.row
      "  skipped: this host recommends a single domain — prewarm_async \
       degenerates to sequential\n";
    Util.write_bench_json ~file:"BENCH_overlap.json" ~suite:"overlap"
      [
        ("skipped_no_domains", Json.Bool true);
        ("recommended_domains", Json.int (Pool.default_domains ()));
      ]
  end
  else overlap_measured ()

(* ------------------------------------------------------------------ *)
(* Replay mode: steady-state cost of re-executing a compiled plan.

   Seed path (what every execute cost before the prepare/run split): a
   full Engine.run — validation, schedule lowering, event-queue and
   result allocation — plus a fresh float-array reference memory for the
   data replay. Prepared path: Plan.execute replays the cached schedule
   against the plan's arena and pooled Bigarray memory, so the steady
   state allocates (almost) nothing. The suite measures per-execute wall
   clock and minor-heap words for both across all six collectives and
   enforces the allocation budget on the timing-only fast path. *)

module E = Blink_sim.Engine
module Sem = Blink_sim.Semantics

(* Minor words a steady-state timing-only Plan.execute may allocate per
   run. The arena makes the engine itself allocation-free; the budget
   covers the execution record, telemetry bookkeeping and Gc sampling.
   Exceeding it means someone reintroduced a per-run allocation that
   scales with the program (events list, result arrays, dependents). *)
let alloc_guard_minor_words = 2048.

let replay_suite () =
  let iters = 100 in
  let elems = 1_000_000 in
  Util.heading
    "Replay: %dx per-collective re-execution of %d elems on gpus {1,4,5,6}"
    iters elems;
  let handle = Blink.create Server.dgx1v ~gpus:[| 1; 4; 5; 6 |] in
  let inputs = Array.init 4 (fun rank -> Suites.rank_input ~rank ~elems) in
  let collectives =
    [
      Plan.All_reduce;
      Plan.Broadcast;
      Plan.Reduce;
      Plan.Gather;
      Plan.All_gather;
      Plan.Reduce_scatter;
    ]
  in
  Util.row "  %-15s %13s %13s %6s %14s %14s %8s\n" "collective" "seed/exec"
    "prepared/exec" "wall" "seed minor/ex" "prep minor/ex" "alloc";
  let guard_worst = ref 0. in
  let tot_chains = ref 0 and tot_fops = ref 0 in
  let tot_kraw = ref 0 and tot_kcomp = ref 0 in
  let rows, headline =
    List.fold_left
      (fun (rows, headline) collective ->
        let plan = Blink.plan handle collective ~elems in
        let prog = plan.Plan.program and resources = plan.Plan.resources in
        let layout = plan.Plan.layout in
        let seed_exec () =
          ignore (E.run ~resources prog);
          let rmem = Sem.Ref.memory_of_program prog in
          Array.iteri
            (fun r buf ->
              Sem.Ref.write rmem ~node:r ~buf:layout.Codegen.data.(r) buf)
            inputs;
          Sem.Ref.run prog rmem
        in
        let steady = Suites.steady_state ~runs:iters in
        let seed = steady seed_exec in
        let prep = Suites.replay ~runs:iters ~data:true plan in
        let seed_t = steady (fun () -> ignore (E.run ~resources prog)) in
        let prep_t = Suites.replay ~runs:iters ~data:false plan in
        let seed_s = seed.Suites.wall_s and seed_w = seed.Suites.minor_words in
        let prep_s = prep.Suites.wall_s and prep_w = prep.Suites.minor_words in
        (* Simulated makespan of the compiled plan: deterministic on any
           host, so the regression gate can diff it exactly. *)
        let sim_s = Plan.seconds (Plan.execute ~data:false plan) in
        (* Fusion and kernel-table shape: pure functions of the program,
           so the gate diffs them exactly — a drop in batching or a
           fused-chain count change is a planner regression even when
           wall clock hides it. *)
        let prepared = plan.Plan.prepared in
        let fusion_on = E.fusion_enabled prepared in
        let f_chains = E.fused_chains prepared and f_ops = E.fused_ops prepared in
        let k_raw, k_compiled, _ =
          match plan.Plan.pool_mem with
          | Some mem -> Sem.kernel_stats mem prog
          | None -> Sem.kernel_stats (Sem.memory_of_program prog) prog
        in
        tot_chains := !tot_chains + f_chains;
        tot_fops := !tot_fops + f_ops;
        tot_kraw := !tot_kraw + k_raw;
        tot_kcomp := !tot_kcomp + k_compiled;
        guard_worst := Float.max !guard_worst prep_t.Suites.minor_words;
        let speedup = if prep_s > 0. then seed_s /. prep_s else 0. in
        let alloc_ratio = if prep_w > 0. then seed_w /. prep_w else infinity in
        let name = Plan.collective_name collective in
        Util.row "  %-15s %10.2f ms %10.2f ms %5.1fx %12.0f w %12.0f w %7.0fx\n"
          name (seed_s *. 1e3) (prep_s *. 1e3) speedup seed_w prep_w
          alloc_ratio;
        let row =
          Json.Obj
            [
              ("collective", Json.str name);
              ("simulated_makespan_s", Json.float sim_s);
              ("seed_wall_s", Json.float seed_s);
              ("prepared_wall_s", Json.float prep_s);
              ("wall_speedup", Json.float speedup);
              ("seed_minor_words", Json.float seed_w);
              ("prepared_minor_words", Json.float prep_w);
              ("alloc_ratio", Json.float alloc_ratio);
              ("seed_timing_wall_s", Json.float seed_t.Suites.wall_s);
              ("prepared_timing_wall_s", Json.float prep_t.Suites.wall_s);
              ("seed_timing_minor_words", Json.float seed_t.Suites.minor_words);
              ("prepared_timing_minor_words", Json.float prep_t.Suites.minor_words);
              ("fusion_enabled", Json.Bool fusion_on);
              ("fused_chains", Json.int f_chains);
              ("fused_ops", Json.int f_ops);
              ("kernels_raw", Json.int k_raw);
              ("kernels_compiled", Json.int k_compiled);
            ]
        in
        let headline =
          if collective = Plan.All_reduce then Some (speedup, alloc_ratio)
          else headline
        in
        (row :: rows, headline))
      ([], None) collectives
  in
  let rows = List.rev rows in
  let hl_speedup, hl_alloc =
    match headline with Some h -> h | None -> (0., 0.)
  in
  Util.row "  headline (all_reduce): %.1fx wall, %.0fx fewer minor words\n"
    hl_speedup hl_alloc;
  let guard_ok = !guard_worst <= alloc_guard_minor_words in
  Util.row "  alloc guard: worst timing-only execute %.0f minor words/run \
            (budget %.0f) — %s\n"
    !guard_worst alloc_guard_minor_words
    (if guard_ok then "OK" else "FAIL");
  let tel = Blink.telemetry handle in
  let counter name = Blink_telemetry.Telemetry.counter_value tel name in
  Suites.print_engine_counters tel;
  Util.row "  fusion: %d chains covering %d ops; kernel tables %d raw -> \
            %d compiled across the six plans\n"
    !tot_chains !tot_fops !tot_kraw !tot_kcomp;
  Util.write_bench_json ~file:"BENCH_replay.json" ~suite:"replay"
    [
      ("iters", Json.int iters);
      ("elems", Json.int elems);
      ("headline_wall_speedup", Json.float hl_speedup);
      ("headline_alloc_ratio", Json.float hl_alloc);
      ("alloc_guard_minor_words", Json.float alloc_guard_minor_words);
      ("alloc_guard_worst", Json.float !guard_worst);
      ("alloc_guard_ok", Json.Bool guard_ok);
      ("engine_prepares", Json.int (counter "engine.prepares"));
      ("engine_runs", Json.int (counter "engine.runs"));
      ("collectives", Json.List rows);
    ];
  if not guard_ok then (
    Printf.eprintf
      "replay: allocation guard failed (%.0f > %.0f minor words/run)\n"
      !guard_worst alloc_guard_minor_words;
    exit 1)

(* ------------------------------------------------------------------ *)
(* Kernel microbench: GB/s of each C stub entry point on large slabs.
   Throughputs are host-dependent (the gate ignores them); the
   benchmarked shapes are exact. *)

let kernels_suite () =
  Util.heading "Kernels: C stub throughput";
  let elems = 4_194_304 in
  let make () =
    Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout elems
  in
  let a = make () and b = make () and c = make () in
  Bigarray.Array1.fill a 1.5;
  Bigarray.Array1.fill b 0.25;
  Bigarray.Array1.fill c 0.0;
  let f64 = Array.init elems (fun i -> Float.of_int (i land 255)) in
  let iters = 40 in
  let bench name bytes_per_elem f =
    f ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    let dt = (Unix.gettimeofday () -. t0) /. Float.of_int iters in
    let gbps = Float.of_int elems *. bytes_per_elem /. dt /. 1e9 in
    Util.row "  %-10s %8.2f GB/s  (%.3f ms per %d-elem call)\n" name gbps
      (dt *. 1e3) elems;
    (name, dt, gbps)
  in
  (* Bytes moved per element: copy touches 8 (read + write), reduce 12
     (read both + write), of_f64 12 (8 in, 4 out). Bound sequentially:
     list elements evaluate right-to-left. *)
  let k_copy = bench "copy" 8. (fun () -> Sem.Kernels.copy b 0 a 0 elems) in
  let k_reduce =
    bench "reduce" 12. (fun () -> Sem.Kernels.reduce c 0 a 0 elems)
  in
  let k_of_f64 =
    bench "of_f64" 12. (fun () -> Sem.Kernels.of_f64 a 0 f64 elems)
  in
  let ks = [ k_copy; k_reduce; k_of_f64 ] in
  Util.write_bench_json ~file:"BENCH_kernels.json" ~suite:"kernels"
    [
      ("elems", Json.int elems);
      ("iters", Json.int iters);
      ( "kernels",
        Json.List
          (List.map
             (fun (name, dt, gbps) ->
               Json.Obj
                 [
                   ("kernel", Json.str name);
                   ("elems", Json.int elems);
                   ("wall_s", Json.float dt);
                   ("gbps", Json.float gbps);
                 ])
             ks) );
    ]

(* ------------------------------------------------------------------ *)
(* Failover mode: fault injection and degraded-topology replanning.

   Healthy-handle baseline, then a link loss and a link degradation
   reported mid-life: wall-clock replan latency around each mutation,
   cache-invalidation counters, degraded packing rate versus a fresh
   handle created directly on the degraded fabric (must match exactly),
   a mid-run flaky-link simulation through Fault.run, and the typed
   partition error on an allocation whose cut link is a bridge. *)

module Tree = Blink_collectives.Tree
module Program = Blink_sim.Program
module Fault = Blink_sim.Fault

let used_pairs (p : Plan.t) ~gpus =
  List.concat_map
    (fun { Tree.tree; _ } ->
      Array.to_list (Array.mapi (fun r pr -> (r, pr)) tree.Tree.parent))
    p.Plan.trees
  |> List.filter_map (fun (r, pr) ->
         if pr >= 0 then
           Some (min gpus.(r) gpus.(pr), max gpus.(r) gpus.(pr))
         else None)
  |> List.sort_uniq compare

let failover_suite () =
  let gpus = Array.init 8 Fun.id in
  let elems = 1_000_000 in
  Util.heading
    "Failover: link fault injection + replanning, %d elems on dgx1v 8 gpus"
    elems;
  let handle = Blink.create Server.dgx1v ~gpus in
  let healthy_rate, healthy_s = Suites.healthy handle ~elems in
  let plan0 = Blink.plan handle Plan.All_reduce ~elems in
  (* Cold pass: fail an NVLink the cached plan routes over (the mutation
     invalidates exactly the touching cache keys), cross-check against a
     handle born on the degraded fabric, then degrade a second link to
     half rate on top of the loss. *)
  let u, v = List.hd (used_pairs plan0 ~gpus) in
  let step ~cold h fault = Suites.fault_step ~cold ~elems h fault in
  let cold = step ~cold:true handle (Suites.Fail_link (u, v)) in
  let fresh = Suites.cross_check ~cold:true ~elems handle in
  let u2, v2 = List.hd (used_pairs cold.Suites.plan ~gpus) in
  let twice = step ~cold:true handle (Suites.Degrade (u2, v2, 0.5)) in
  Suites.print_fault_counters handle;
  (* Incremental replanning: the same fault sequence on a handle that
     keeps surviving trees and re-packs only the displaced flow (warm),
     and on a handle whose one-link-down plan was prewarmed as a
     background contingency (failover = a fingerprint swap). *)
  let warm = Blink.create Server.dgx1v ~gpus in
  ignore (Blink.plan warm Plan.All_reduce ~elems);
  let warm_fail = step ~cold:false warm (Suites.Fail_link (u, v)) in
  let warm_degrade = step ~cold:false warm (Suites.Degrade (u2, v2, 0.5)) in
  let warm_rate_equals_cold = warm_fail.Suites.rate_gbps = cold.Suites.rate_gbps in
  Util.row "warm vs cold: fail %.1fx faster, degrade %.1fx faster%s\n"
    (cold.Suites.replan_s /. warm_fail.Suites.replan_s)
    (twice.Suites.replan_s /. warm_degrade.Suites.replan_s)
    (if warm_rate_equals_cold then " (fail: = cold rate)" else "");
  let cont = Blink.create Server.dgx1v ~gpus in
  ignore (Blink.plan cont Plan.All_reduce ~elems);
  let t0 = Unix.gettimeofday () in
  let prewarmed =
    Blink.prewarm ~contingencies:(`Pairs [ (u, v) ]) cont
      [ (Plan.All_reduce, elems) ]
  in
  let t_prewarm = Unix.gettimeofday () -. t0 in
  Util.row "contingency: prewarmed %d plans in %.1f ms\n" prewarmed
    (t_prewarm *. 1e3);
  let contingency = step ~cold:false cont (Suites.Fail_link (u, v)) in
  let contingency_matches =
    contingency.Suites.rate_gbps = cold.Suites.rate_gbps
    && contingency.Suites.all_reduce_s = cold.Suites.all_reduce_s
  in
  let cont_hits =
    Blink_telemetry.Telemetry.counter_value (Blink.telemetry cont)
      "plan.contingency.hits"
  in
  Util.row "contingency plan %s\n"
    (if contingency_matches then "matches the cold replan exactly"
     else "MISMATCH vs cold replan");
  let tel = Blink.telemetry handle in
  let counter name = Blink_telemetry.Telemetry.counter_value tel name in
  (* Mid-run fault model: replay the healthy compiled plan with a flaky
     window on its first transfer link — ops retry with backoff and the
     run completes late instead of wedging. *)
  let link = ref (-1) in
  Program.iter_ops
    (fun o ->
      match o.Program.kind with
      | Program.Transfer { link = l; _ } when !link < 0 -> link := l
      | _ -> ())
    plan0.Plan.program;
  let clean = Fault.run ~resources:plan0.Plan.resources plan0.Plan.program in
  let clean_s = clean.Fault.timing.E.makespan in
  let flaky =
    Fault.run ~resources:plan0.Plan.resources
      ~events:[ Fault.Flaky { res = !link; from_s = 0.; until_s = clean_s /. 2. } ]
      plan0.Plan.program
  in
  Util.row "mid-run flaky link %d: %d retries over %d faulted ops, %.3f ms \
            -> %.3f ms\n"
    !link flaky.Fault.retries flaky.Fault.faulted_ops (clean_s *. 1e3)
    (flaky.Fault.timing.E.makespan *. 1e3);
  (* Partition detection: within {1,4,5,6} the (1,5) NVLink is gpu 1's
     only edge, so failing it must raise the typed error, not replan. *)
  let island = Blink.create ~root:2 Server.dgx1v ~gpus:[| 1; 4; 5; 6 |] in
  let partition =
    match Blink.fail_link island ~u:1 ~v:5 with
    | () -> None
    | exception Blink.Partitioned { alive; unreachable } ->
        Suites.print_partition island ~alive ~unreachable;
        Some (alive, unreachable)
  in
  if partition = None then
    Util.row "partition on {1,4,5,6} - link 1-5: NOT DETECTED (bug)\n";
  Util.write_bench_json ~file:"BENCH_failover.json" ~suite:"failover"
    [
            ("elems", Json.int elems);
            ("healthy_rate_gbps", Json.float healthy_rate);
            ("healthy_all_reduce_s", Json.float healthy_s);
            ("failed_link", Json.List [ Json.int u; Json.int v ]);
            ("topology_replan_s", Json.float cold.Suites.replan_s);
            ("key_replan_s", Json.float cold.Suites.key_plan_s);
            ("degraded_rate_gbps", Json.float cold.Suites.rate_gbps);
            ("degraded_all_reduce_s", Json.float cold.Suites.all_reduce_s);
            ("fresh_handle_rate_gbps", Json.float fresh.Suites.fresh_rate_gbps);
            ("fresh_handle_all_reduce_s", Json.float fresh.Suites.fresh_all_reduce_s);
            ("fresh_matches_replanned", Json.Bool fresh.Suites.matches);
            ("degraded_link", Json.List [ Json.int u2; Json.int v2 ]);
            ("degrade_replan_s", Json.float twice.Suites.replan_s);
            ("double_fault_rate_gbps", Json.float twice.Suites.rate_gbps);
            ("warm_replan_s", Json.float warm_fail.Suites.replan_s);
            ("warm_degrade_replan_s", Json.float warm_degrade.Suites.replan_s);
            ("warm_rate_gbps", Json.float warm_fail.Suites.rate_gbps);
            ("warm_rate_equals_cold", Json.Bool warm_rate_equals_cold);
            ("replan_speedup_vs_cold", Json.float (cold.Suites.replan_s /. warm_fail.Suites.replan_s));
            ("contingency_prewarm_s", Json.float t_prewarm);
            ("contingency_prewarmed_plans", Json.int prewarmed);
            ("contingency_replan_s", Json.float contingency.Suites.replan_s);
            ("contingency_rate_gbps", Json.float contingency.Suites.rate_gbps);
            ("contingency_matches_cold", Json.Bool contingency_matches);
            ("contingency_hits", Json.int cont_hits);
            ("faults_injected", Json.int (counter "fault.injected"));
            ( "plan_cache_invalidations",
              Json.int (counter "plan.cache.invalidations") );
            ("midrun_retries", Json.int flaky.Fault.retries);
            ("midrun_faulted_ops", Json.int flaky.Fault.faulted_ops);
            ("midrun_clean_s", Json.float clean_s);
            ("midrun_flaky_s", Json.float flaky.Fault.timing.E.makespan);
            ( "partition_detected",
              Json.Bool (Option.is_some partition) );
            ( "partition_alive",
              Json.List
                (match partition with
                | Some (alive, _) -> List.map Json.int alive
                | None -> []) );
            ( "partition_unreachable",
              Json.List
                (match partition with
                | Some (_, unreachable) -> List.map Json.int unreachable
                | None -> []) );
    ];
  if not fresh.Suites.matches then (
    Printf.eprintf
      "failover: replanned handle diverges from a fresh handle on the \
       degraded fabric\n";
    exit 1);
  if partition = None then (
    Printf.eprintf "failover: partition was not detected\n";
    exit 1);
  (* Hard latency gates for the incremental-replanning paths: a warm
     replan must land within 10x of a plan-cache re-plan, a contingency
     failover within 2x — and the contingency plan must be the cold plan
     (it was built cold, ahead of time, under the post-fault key). *)
  let t_replan = cold.Suites.key_plan_s in
  if warm_fail.Suites.replan_s > 10. *. t_replan then (
    Printf.eprintf
      "failover: warm replan %.3f ms exceeds 10x key re-plan %.3f ms\n"
      (warm_fail.Suites.replan_s *. 1e3) (t_replan *. 1e3);
    exit 1);
  if contingency.Suites.replan_s > 2. *. t_replan then (
    Printf.eprintf
      "failover: contingency failover %.3f ms exceeds 2x key re-plan %.3f \
       ms\n"
      (contingency.Suites.replan_s *. 1e3) (t_replan *. 1e3);
    exit 1);
  if not contingency_matches then (
    Printf.eprintf
      "failover: contingency plan diverges from the cold replan\n";
    exit 1)

(* ------------------------------------------------------------------ *)
(* Cluster service: the shared fingerprint-keyed plan store under a
   multi-tenant churn trace — the paper's 40,000-jobs-to-46-topologies
   observation as a sustained-throughput benchmark. CI runs this as a
   smoke: the exit-1 guards hold the acceptance floor (>= 95%% cross-job
   hit rate, <= 50 unique fingerprints, zero bit-identity mismatches). *)

module Scheduler = Blink_cluster.Scheduler

let cluster_suite () =
  let n_jobs = 2_000 and servers = 64 and verify_every = 50 in
  Util.heading
    "Cluster service: %d jobs on %d dgx1v servers, shared plan store" n_jobs
    servers;
  let r =
    Scheduler.run_service ~servers ~verify_every ~failover_drill:true ~n_jobs ()
  in
  Suites.print_service ~verify_every r;
  let st = r.Scheduler.store in
  (* Straggler injection: tenant 3 runs every slice 2x slow; the
     observatory must flag it and the flags must concentrate there. *)
  let straggler_tenant = 3 in
  let rs =
    Scheduler.run_service ~servers:16 ~n_jobs:400
      ~straggler:(straggler_tenant, 2.0) ()
  in
  let injected_flagged = rs.Scheduler.straggler_slices in
  let flagged_on_tenant =
    List.length
      (List.filter
         (fun (s : Scheduler.straggler) ->
           s.Scheduler.st_tenant = straggler_tenant)
         rs.Scheduler.stragglers)
  in
  Util.row "injected straggler (tenant %d, 2.0x): %d flagged slices, %d on \
            the injected tenant\n"
    straggler_tenant injected_flagged flagged_on_tenant;
  let tenant_obj (o : Scheduler.tenant_observatory) =
    let summary (h : Scheduler.histogram_summary) =
      Json.Obj
        [
          ("count", Json.int h.Scheduler.h_count);
          ("mean_s", Json.float h.Scheduler.h_mean_s);
          ("p95_s", Json.float h.Scheduler.h_p95_s);
          ("max_s", Json.float h.Scheduler.h_max_s);
        ]
    in
    Json.Obj
      [
        ("tenant", Json.int o.Scheduler.ob_tenant);
        ("jobs", Json.int o.Scheduler.ob_jobs);
        ("latency", summary o.Scheduler.ob_latency);
        ("queue_wait", summary o.Scheduler.ob_queue_wait);
        ("straggler_slices", Json.int o.Scheduler.ob_straggler_slices);
      ]
  in
  let class_obj (c : Scheduler.fingerprint_class) =
    Json.Obj
      [
        ("class", Json.str c.Scheduler.fc_class);
        ("slices", Json.int c.Scheduler.fc_slices);
        ("mean_gbps", Json.float c.Scheduler.fc_mean_gbps);
        ("best_gbps", Json.float c.Scheduler.fc_best_gbps);
        ("worst_gbps", Json.float c.Scheduler.fc_worst_gbps);
        ("stragglers", Json.int c.Scheduler.fc_stragglers);
      ]
  in
  Util.write_bench_json ~file:"BENCH_cluster.json" ~suite:"cluster"
    [
            ("jobs", Json.int r.Scheduler.jobs);
            ("servers", Json.int servers);
            ("admitted_jobs", Json.int r.Scheduler.admitted_jobs);
            ( "rejected_capacity_jobs",
              Json.int r.Scheduler.rejected_capacity_jobs );
            ("rejected_quota_jobs", Json.int r.Scheduler.rejected_quota_jobs);
            ("planned_slices", Json.int r.Scheduler.planned_slices);
            ("single_gpu_slices", Json.int r.Scheduler.single_gpu_slices);
            ("pcie_slices", Json.int r.Scheduler.pcie_slices);
            ("store_hits", Json.int st.Blink_store.Store.hits);
            ("store_misses", Json.int st.Blink_store.Store.misses);
            ("store_entries", Json.int st.Blink_store.Store.entries);
            ("hit_rate", Json.float r.Scheduler.hit_rate);
            ( "unique_fingerprints",
              Json.int r.Scheduler.unique_fingerprints );
            ("jobs_per_second", Json.float r.Scheduler.jobs_per_second);
            ("wall_seconds", Json.float r.Scheduler.wall_seconds);
            ("fairness", Json.float r.Scheduler.fairness);
            ("verified_slices", Json.int r.Scheduler.verified_slices);
            ("verify_mismatches", Json.int r.Scheduler.verify_mismatches);
            ("straggler_epsilon", Json.float r.Scheduler.straggler_epsilon);
            ("straggler_slices", Json.int r.Scheduler.straggler_slices);
            ( "observatory",
              Json.List (List.map tenant_obj r.Scheduler.observatory) );
            ("classes", Json.List (List.map class_obj r.Scheduler.classes));
            ("injected_straggler_tenant", Json.int straggler_tenant);
            ("injected_straggler_factor", Json.float 2.0);
            ("injected_straggler_slices", Json.int injected_flagged);
            ("injected_flags_on_tenant", Json.int flagged_on_tenant);
            ( "failover_drill",
              match r.Scheduler.drill with
              | None -> Json.Bool false
              | Some d ->
                  let u, v = d.Scheduler.dr_link in
                  Json.Obj
                    [
                      ("link", Json.List [ Json.int u; Json.int v ]);
                      ("prewarm_s", Json.float d.Scheduler.dr_prewarm_s);
                      ( "prewarmed_plans",
                        Json.int d.Scheduler.dr_prewarmed_plans );
                      ("cold_replan_s", Json.float d.Scheduler.dr_cold_replan_s);
                      ("warm_replan_s", Json.float d.Scheduler.dr_warm_replan_s);
                      ( "contingency_replan_s",
                        Json.float d.Scheduler.dr_contingency_replan_s );
                      ( "warm_rate_equals_cold",
                        Json.Bool d.Scheduler.dr_warm_rate_equals_cold );
                      ( "contingency_rate_equals_cold",
                        Json.Bool d.Scheduler.dr_contingency_rate_equals_cold );
                    ] );
    ];
  if r.Scheduler.hit_rate < 0.95 then (
    Printf.eprintf "cluster: cross-job hit rate %.3f below 0.95 floor\n"
      r.Scheduler.hit_rate;
    exit 1);
  if r.Scheduler.unique_fingerprints > 50 then (
    Printf.eprintf "cluster: %d unique fingerprints exceeds the 50 ceiling\n"
      r.Scheduler.unique_fingerprints;
    exit 1);
  if r.Scheduler.verify_mismatches > 0 then (
    Printf.eprintf
      "cluster: %d shared plans diverged from fresh isolated handles\n"
      r.Scheduler.verify_mismatches;
    exit 1);
  if r.Scheduler.straggler_slices > 0 then (
    Printf.eprintf
      "cluster: %d straggler slices flagged on the healthy run (rates of a \
       class should be bit-identical)\n"
      r.Scheduler.straggler_slices;
    exit 1);
  if injected_flagged = 0 then (
    Printf.eprintf "cluster: injected straggler was not flagged\n";
    exit 1);
  if flagged_on_tenant <> injected_flagged then (
    Printf.eprintf
      "cluster: %d of %d straggler flags landed off the injected tenant\n"
      (injected_flagged - flagged_on_tenant)
      injected_flagged;
    exit 1)

(* ------------------------------------------------------------------ *)
(* Analyze mode: critical-path attribution and achieved-vs-bound rate
   for the six collectives on the DGX-1V, plus the planner phase
   breakdown — the numbers behind the EXPERIMENTS.md analysis table.
   Everything here is simulator output, so it is bit-reproducible and
   prime material for the regression gate. *)

module Analysis = Blink_core.Analysis

let analyze_suite () =
  let mbytes = 500. in
  let elems = Util.elems_of_mb mbytes in
  Util.heading
    "Analyze: critical path vs edge-cut bound, %.0f MB on dgx1v 8 gpus" mbytes;
  let { Suites.reports; phases; _ } =
    Suites.analyze ~server:Server.dgx1v ~gpus:(Array.init 8 Fun.id) ~mbytes
      Plan.[ All_reduce; Broadcast; Reduce; Gather; All_gather; Reduce_scatter ]
  in
  let all_reduce = List.hd reports in
  Util.write_bench_json ~file:"BENCH_analyze.json" ~suite:"analyze"
    [
      ("mbytes", Json.float mbytes);
      ("elems", Json.int elems);
      ("collectives", Json.List (List.map Analysis.report_json reports));
      ("phases", Analysis.phases_json phases);
    ];
  if all_reduce.Analysis.efficiency < 0.95 then (
    Printf.eprintf
      "analyze: all_reduce achieved %.1f GB/s, below 95%% of the %.1f GB/s \
       edge-cut bound\n"
      all_reduce.Analysis.achieved_gbps all_reduce.Analysis.bound_gbps;
    exit 1);
  if List.length phases < 3 then (
    Printf.eprintf "analyze: only %d planner phase timers fired (expected >= 3)\n"
      (List.length phases);
    exit 1)

(* ------------------------------------------------------------------ *)
(* Planner-backend tournament: every registered backend plans the same
   fabrics; the DES times the resulting AllReduce/Broadcast schedules and
   a differential check holds each backend to Treegen.feasible plus
   bit-equality against the reference semantics. Two gates (after the
   artifact is written): every backend must pass the differential check,
   and TreeGen must stay within 5% of the best backend's achieved
   AllReduce rate on the DGX-1 topologies — the tournament doubles as a
   guard on TreeGen's optimality claims. Not part of the regress
   baselines: planning wall-clock is host-dependent. *)

module Planner = Blink_core.Planner

(* The closeness gate covers the healthy DGX-1 fabrics. The degraded
   fabric is measured and differentially checked but not gated: there
   LP-flow's column generation legitimately beats TreeGen's MWU+ILP by
   ~6% achieved AllReduce (the fault breaks the symmetry MWU exploits) —
   exactly the kind of planner gap the tournament exists to surface. *)
let tournament_fabrics =
  let fabric ?(faults = []) ?(gated = true) name server gpus =
    (name, gated, server, gpus, faults)
  in
  [
    fabric "dgx1v-8" Server.dgx1v (Array.init 8 Fun.id);
    fabric "dgx1p-8" Server.dgx1p (Array.init 8 Fun.id);
    fabric "dgx1v-quad" Server.dgx1v [| 1; 4; 5; 6 |];
    fabric "dgx1v-8-degraded" Server.dgx1v (Array.init 8 Fun.id)
      ~faults:[ ((2, 3), Server.Down) ] ~gated:false;
  ]

let tournament_suite () =
  let mbytes = 100. in
  Util.heading "Tournament: %d planner backends x %d topologies, %.0f MB"
    (List.length (Planner.all ()))
    (List.length tournament_fabrics)
    mbytes;
  let results =
    List.map
      (fun (name, gated, server, gpus, faults) ->
        (name, gated, Suites.tournament ~mbytes ~faults server ~gpus))
      tournament_fabrics
  in
  let packing_fields prefix g = function
    | None -> [ (prefix ^ "_trees", Json.Null); (prefix ^ "_rate", Json.Null) ]
    | Some (p : Treegen.packing) ->
        [
          (prefix ^ "_trees", Json.int (List.length p.Treegen.trees));
          (prefix ^ "_rate", Json.float p.Treegen.rate);
          (prefix ^ "_optimal", Json.float p.Treegen.optimal);
          (prefix ^ "_feasible", Json.Bool (Treegen.feasible g p));
        ]
  in
  let entry_json (e : Suites.entry) =
    Json.Obj
      ([
         ("backend", Json.str e.Suites.backend);
         ("plan_wall_s", Json.float e.Suites.plan_s);
         ("broadcast_gbps", Json.float e.Suites.broadcast_gbps);
         ("all_reduce_gbps", Json.float e.Suites.all_reduce_gbps);
         ("feasible", Json.Bool e.Suites.feasible);
         ("data_correct", Json.Bool e.Suites.data_correct);
       ]
      @ packing_fields "broadcast" e.Suites.graph e.Suites.directed
      @ packing_fields "all_reduce" e.Suites.graph e.Suites.undirected)
  in
  Util.write_bench_json ~file:"BENCH_tournament.json" ~suite:"tournament"
    [
      ("mbytes", Json.float mbytes);
      ( "topologies",
        Json.List
          (List.map
             (fun (name, gated, entries) ->
               Json.Obj
                 [
                   ("name", Json.str name);
                   ("gated", Json.Bool gated);
                   ("backends", Json.List (List.map entry_json entries));
                 ])
             results) );
    ];
  (* Gate 1: the differential check holds for every backend everywhere. *)
  let bad =
    List.concat_map
      (fun (name, _, entries) ->
        List.filter_map
          (fun (e : Suites.entry) ->
            if e.Suites.feasible && e.Suites.data_correct then None
            else Some (name, e))
          entries)
      results
  in
  List.iter
    (fun (topo, (e : Suites.entry)) ->
      Printf.eprintf
        "tournament: %s on %s failed the differential check (feasible=%b \
         data_correct=%b)\n"
        e.Suites.backend topo e.Suites.feasible e.Suites.data_correct)
    bad;
  if bad <> [] then exit 1;
  (* Gate 2: TreeGen within 5% of the best backend's achieved AllReduce
     rate on every gated (healthy DGX-1) topology. *)
  let laggards =
    List.filter_map
      (fun (name, gated, entries) ->
        if not gated then None
        else
          let best =
            List.fold_left
              (fun acc (e : Suites.entry) -> Float.max acc e.Suites.all_reduce_gbps)
              0. entries
          in
          match
            List.find_opt
              (fun (e : Suites.entry) -> String.equal e.Suites.backend "treegen")
              entries
          with
          | None -> Some (name, 0., 0.)
          | Some e ->
              let tg = e.Suites.all_reduce_gbps in
              if tg < 0.95 *. best then Some (name, tg, best) else None)
      results
  in
  List.iter
    (fun (topo, tg, best) ->
      Printf.eprintf
        "tournament: treegen achieved %.1f GB/s on %s, below 95%% of the \
         best backend's %.1f GB/s\n"
        tg topo best)
    laggards;
  if laggards <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Regression gate: diff fresh BENCH_*.json in the cwd against the
   committed baselines in bench/baselines/. Only simulator-derived
   fields are compared — wall-clock and host-dependent numbers vary per
   machine and are deliberately unchecked. `regress-selftest` proves the
   gate has teeth by perturbing one fresh value in memory and requiring
   the comparator to flag it. *)

let baseline_dir = "bench/baselines"

type path_step = F of string | Row of string * string * string

type check_kind = Exact | Near of float

type check_spec = { suite : string; path : path_step list; kind : check_kind }

let path_string path =
  String.concat "."
    (List.map
       (function
         | F name -> name
         | Row (list_field, _, key) -> Printf.sprintf "%s[%s]" list_field key)
       path)

let rec resolve doc = function
  | [] -> Some doc
  | F name :: rest -> (
      match Json.member name doc with
      | Some d -> resolve d rest
      | None -> None)
  | Row (list_field, key_field, key) :: rest -> (
      match Json.member list_field doc with
      | Some l -> (
          match
            List.find_opt
              (fun item -> Json.member key_field item = Some (Json.Str key))
              (Json.to_list l)
          with
          | Some d -> resolve d rest
          | None -> None)
      | None -> None)

(* Rewrite the value at [path] (used by the selftest to inject a fake
   regression into an otherwise-clean document). *)
let rec perturb path f doc =
  match (path, doc) with
  | [], _ -> f doc
  | F name :: rest, Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = name then (k, perturb rest f v) else (k, v))
           fields)
  | Row (list_field, key_field, key) :: rest, Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = list_field then
               ( k,
                 Json.List
                   (List.map
                      (fun item ->
                        if Json.member key_field item = Some (Json.Str key)
                        then perturb rest f item
                        else item)
                      (Json.to_list v)) )
             else (k, v))
           fields)
  | _ -> doc

let six_collectives =
  [ "all_reduce"; "broadcast"; "reduce"; "gather"; "all_gather"; "reduce_scatter" ]

(* The curated deterministic surface of each suite. A missing field on
   either side is itself a failure: renames must update this table. *)
let check_specs =
  let near ?(tol = 1e-6) suite path = { suite; path; kind = Near tol } in
  let exact suite path = { suite; path; kind = Exact } in
  List.concat
    [
      List.map
        (fun suite -> exact suite [ F "schema_version" ])
        [
          "plan_cache"; "parallel_plan"; "replay"; "failover"; "cluster";
          "analyze"; "kernels"; "overlap";
        ];
      [
        exact "plan_cache" [ F "hits" ];
        exact "plan_cache" [ F "misses" ];
        near "plan_cache" [ F "hit_rate" ];
        exact "replay" [ F "engine_prepares" ];
        exact "replay" [ F "engine_runs" ];
        exact "replay" [ F "alloc_guard_ok" ];
      ];
      List.map
        (fun c ->
          near "replay"
            [ Row ("collectives", "collective", c); F "simulated_makespan_s" ])
        six_collectives;
      (* Fusion and kernel-table shape are pure functions of the
         program: any drift is a planner/compiler change, not noise. *)
      List.concat_map
        (fun c ->
          let row field = [ Row ("collectives", "collective", c); F field ] in
          [
            exact "replay" (row "fusion_enabled");
            exact "replay" (row "fused_chains");
            exact "replay" (row "fused_ops");
            exact "replay" (row "kernels_raw");
            exact "replay" (row "kernels_compiled");
          ])
        six_collectives;
      List.map
        (fun k -> exact "kernels" [ Row ("kernels", "kernel", k); F "elems" ])
        [ "copy"; "reduce"; "of_f64" ];
      List.concat_map
        (fun c ->
          let row field = [ Row ("collectives", "collective", c); F field ] in
          [
            near "analyze" (row "makespan_s");
            near "analyze" (row "achieved_gbps");
            near "analyze" (row "bound_gbps");
            near "analyze" (row "efficiency");
          ])
        six_collectives;
      [
        near "failover" [ F "healthy_rate_gbps" ];
        near "failover" [ F "healthy_all_reduce_s" ];
        near "failover" [ F "degraded_rate_gbps" ];
        near "failover" [ F "degraded_all_reduce_s" ];
        near "failover" [ F "double_fault_rate_gbps" ];
        exact "failover" [ F "fresh_matches_replanned" ];
        exact "failover" [ F "faults_injected" ];
        exact "failover" [ F "plan_cache_invalidations" ];
        exact "failover" [ F "midrun_retries" ];
        exact "failover" [ F "midrun_faulted_ops" ];
        near "failover" [ F "midrun_clean_s" ];
        near "failover" [ F "midrun_flaky_s" ];
        exact "failover" [ F "partition_detected" ];
        near "failover" [ F "warm_rate_gbps" ];
        exact "failover" [ F "warm_rate_equals_cold" ];
        near "failover" [ F "contingency_rate_gbps" ];
        exact "failover" [ F "contingency_matches_cold" ];
        exact "failover" [ F "contingency_hits" ];
        exact "cluster" [ F "admitted_jobs" ];
        exact "cluster" [ F "rejected_capacity_jobs" ];
        exact "cluster" [ F "rejected_quota_jobs" ];
        exact "cluster" [ F "planned_slices" ];
        exact "cluster" [ F "single_gpu_slices" ];
        exact "cluster" [ F "pcie_slices" ];
        exact "cluster" [ F "store_hits" ];
        exact "cluster" [ F "store_misses" ];
        exact "cluster" [ F "unique_fingerprints" ];
        near "cluster" [ F "hit_rate" ];
        near "cluster" [ F "fairness" ];
        exact "cluster" [ F "verify_mismatches" ];
        exact "cluster" [ F "straggler_slices" ];
        exact "cluster" [ F "injected_straggler_slices" ];
        exact "cluster" [ F "injected_flags_on_tenant" ];
        exact "cluster" [ F "failover_drill"; F "warm_rate_equals_cold" ];
        exact "cluster"
          [ F "failover_drill"; F "contingency_rate_equals_cold" ];
      ];
    ]

let bench_file suite = Printf.sprintf "BENCH_%s.json" suite

let load_doc file =
  if not (Sys.file_exists file) then None
  else
    let ic = open_in file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Json.parse_result s with
    | Ok doc -> Some doc
    | Error e ->
        Printf.eprintf "regress: %s does not parse: %s\n" file e;
        None

(* Compare one check; [None] means the whole suite is absent on the
   baseline side (skipped: new suites regress from their first commit). *)
let run_check ~baseline ~fresh spec =
  let b = resolve baseline spec.path and f = resolve fresh spec.path in
  let ok =
    match (spec.kind, b, f) with
    | _, None, _ | _, _, None -> false
    | Exact, Some b, Some f -> b = f
    | Near tol, Some b, Some f -> (
        match (Json.to_float b, Json.to_float f) with
        | Some b, Some f ->
            Float.abs (f -. b) <= tol *. Float.max 1e-12 (Float.abs b)
        | _ -> false)
  in
  let render = function
    | Some v -> Json.to_string v
    | None -> "missing"
  in
  ( ok,
    Json.Obj
      [
        ("suite", Json.str spec.suite);
        ("field", Json.str (path_string spec.path));
        ( "kind",
          Json.str
            (match spec.kind with
            | Exact -> "exact"
            | Near tol -> Printf.sprintf "near(%g)" tol) );
        ("baseline", Json.str (render b));
        ("fresh", Json.str (render f));
        ("ok", Json.Bool ok);
      ] )

(* [fresh_override] lets the selftest swap in a perturbed document. *)
let regress_run ?fresh_override () =
  Util.heading "Regression gate: fresh BENCH_*.json vs %s" baseline_dir;
  let suites =
    List.sort_uniq compare (List.map (fun s -> s.suite) check_specs)
  in
  let failures = ref 0 and skipped = ref [] and results = ref [] in
  List.iter
    (fun suite ->
      let specs = List.filter (fun s -> s.suite = suite) check_specs in
      let baseline =
        load_doc (Filename.concat baseline_dir (bench_file suite))
      in
      let fresh =
        match fresh_override with
        | Some f -> f suite
        | None -> load_doc (bench_file suite)
      in
      match (baseline, fresh) with
      | None, _ ->
          (* No committed baseline: report, don't fail — committing the
             baseline is how a new suite arms the gate. *)
          Util.row "  %-14s no baseline committed, skipped\n" suite;
          skipped := suite :: !skipped
      | Some _, None ->
          Util.row "  %-14s FRESH ARTIFACT MISSING (%s)\n" suite
            (bench_file suite);
          incr failures
      | Some baseline, Some fresh ->
          let bad = ref 0 in
          List.iter
            (fun spec ->
              let ok, obj = run_check ~baseline ~fresh spec in
              results := obj :: !results;
              if not ok then begin
                incr bad;
                incr failures;
                Util.row "  %-14s REGRESSION %s: baseline %s, fresh %s\n"
                  suite
                  (path_string spec.path)
                  (match resolve baseline spec.path with
                  | Some v -> Json.to_string v
                  | None -> "missing")
                  (match resolve fresh spec.path with
                  | Some v -> Json.to_string v
                  | None -> "missing")
              end)
            specs;
          Util.row "  %-14s %d checks, %d failed\n" suite (List.length specs)
            !bad)
    suites;
  Util.write_bench_json ~file:"BENCH_regress.json" ~suite:"regress"
    [
      ("failures", Json.int !failures);
      ("ok", Json.Bool (!failures = 0));
      ( "skipped_suites",
        Json.List (List.map Json.str (List.rev !skipped)) );
      ("checks", Json.List (List.rev !results));
    ];
  !failures

let regress_suite () =
  let failures = regress_run () in
  if failures > 0 then (
    Printf.eprintf "regress: %d deterministic checks failed\n" failures;
    exit 1);
  Util.row "  gate passed\n"

(* Selftest: perturb one deterministic fresh value (replay all_reduce
   simulated makespan x1.5) and require the comparator to flag it. *)
let regress_selftest () =
  let perturbed suite =
    match load_doc (bench_file suite) with
    | None -> None
    | Some doc when suite = "replay" ->
        Some
          (perturb
             [ Row ("collectives", "collective", "all_reduce");
               F "simulated_makespan_s" ]
             (function Json.Num x -> Json.Num (x *. 1.5) | v -> v)
             doc)
    | Some doc -> Some doc
  in
  let failures = regress_run ~fresh_override:perturbed () in
  if failures = 0 then (
    Printf.eprintf
      "regress-selftest: a 1.5x makespan slowdown went unflagged — the gate \
       is toothless\n";
    exit 1);
  Util.row "  selftest passed: synthetic slowdown flagged (%d failures)\n"
    failures

(* ------------------------------------------------------------------ *)
(* Baseline regeneration: run every artifact-producing suite, then copy
   the fresh BENCH_*.json over bench/baselines/. This is the one
   sanctioned way to move the regression gate after an intentional
   planner/simulator change — the diff of the copied baselines is what
   the reviewer sees. *)

let copy_file src dst =
  let ic = open_in_bin src in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

(* Every artifact-writing suite: target name, the BENCH_<artifact>.json it
   writes, and its body. A suite that dies on an uncaught exception
   before its own write still leaves a stub artifact behind (the in-suite
   gates already write first, then exit 1). *)
let suites =
  [
    ("plan-cache", "plan_cache", plan_cache_suite);
    ("parallel-plan", "parallel_plan", parallel_plan_suite);
    ("overlap", "overlap", overlap_suite);
    ("replay", "replay", replay_suite);
    ("kernels", "kernels", kernels_suite);
    ("failover", "failover", failover_suite);
    ("cluster", "cluster", cluster_suite);
    ("analyze", "analyze", analyze_suite);
    ("tournament", "tournament", tournament_suite);
  ]

let run_suite (_, artifact, run) =
  Util.guard_artifact ~file:(bench_file artifact) ~suite:artifact run

(* The baselines are the artifacts of the suites the gate checks. *)
let regen_baselines () =
  Util.heading "Regen baselines: live run -> %s" baseline_dir;
  let gated =
    List.filter
      (fun (_, artifact, _) ->
        List.exists (fun spec -> spec.suite = artifact) check_specs)
      suites
  in
  List.iter run_suite gated;
  if not (Sys.file_exists baseline_dir) then Sys.mkdir baseline_dir 0o755;
  Util.heading "Regen baselines: copying fresh artifacts";
  List.iter
    (fun (_, artifact, _) ->
      let src = bench_file artifact in
      if Sys.file_exists src then begin
        copy_file src (Filename.concat baseline_dir src);
        Util.row "  %s -> %s/\n" src baseline_dir
      end)
    gated

(* ------------------------------------------------------------------ *)

let targets =
  Figures.registry
  @ List.map (fun ((name, _, _) as s) -> (name, fun () -> run_suite s)) suites
  @ [
      ("regress", regress_suite);
      ("regress-selftest", regress_selftest);
      ("regen-baselines", regen_baselines);
      ("bechamel", bechamel_suite);
    ]

let all () =
  Figures.all_figures ();
  List.iter run_suite suites;
  bechamel_suite ()

let () =
  match Array.to_list Sys.argv with
  | _ :: [] ->
      all ();
      print_newline ()
  | _ :: args ->
      List.iter
        (function
          | "list" -> List.iter (fun (name, _) -> print_endline name) targets
          | "all" -> all ()
          | name -> (
              match List.assoc_opt name targets with
              | Some f -> f ()
              | None ->
                  Printf.eprintf
                    "unknown target %S (use `list` to enumerate)\n" name;
                  exit 1))
        args
  | [] -> assert false
