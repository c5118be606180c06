module Pq = Blink_sim.Pqueue
module P = Blink_sim.Program
module E = Blink_sim.Engine
module Sem = Blink_sim.Semantics
module Fault = Blink_sim.Fault
module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Server = Blink_topology.Server

let check_float = Alcotest.(check (float 1e-9))
let check_time = Alcotest.(check (float 1e-7))

(* ------------------------------------------------------------------ *)
(* Program *)

let test_program_builder () =
  let p = P.create () in
  let s = P.fresh_stream p in
  let a = P.add p ~stream:s (P.Delay { seconds = 1. }) in
  let b = P.add p ~deps:[ a ] ~stream:s (P.Delay { seconds = 2. }) in
  Alcotest.(check int) "ops" 2 (P.n_ops p);
  Alcotest.(check (list int)) "stream order" [ a; b ] (P.stream_ops p s);
  Alcotest.(check (list int)) "topo" [ a; b ] (P.topological_order p);
  Alcotest.(check (list int)) "deps" [ a ] (P.op p b).P.deps

let test_program_errors () =
  let p = P.create () in
  let s = P.fresh_stream p in
  Alcotest.check_raises "forward dep" (Invalid_argument "Program.add: forward dependency")
    (fun () -> ignore (P.add p ~deps:[ 5 ] ~stream:s (P.Delay { seconds = 0. })));
  Alcotest.check_raises "unknown stream" (Invalid_argument "Program.add: unknown stream")
    (fun () -> ignore (P.add p ~stream:7 (P.Delay { seconds = 0. })));
  Alcotest.check_raises "negative delay" (Invalid_argument "Program.add: negative delay")
    (fun () -> ignore (P.add p ~stream:s (P.Delay { seconds = -1. })))

let test_program_buffers () =
  let p = P.create () in
  let b0 = P.declare_buffer p ~node:3 ~len:10 in
  let b1 = P.declare_buffer p ~node:3 ~len:20 in
  let c0 = P.declare_buffer p ~node:5 ~len:7 in
  Alcotest.(check (list int)) "dense per node" [ 0; 1; 0 ] [ b0; b1; c0 ];
  Alcotest.(check int) "len" 20 (P.buffer_len p ~node:3 ~buf:b1);
  Alcotest.(check int) "buffers" 3 (List.length (P.buffers p))

(* ------------------------------------------------------------------ *)
(* Engine *)

let one_link ?(bandwidth = 1e9) ?(latency = 0.) ?(lanes = 1) ?(gap = 0.) () =
  [| { E.bandwidth; latency; lanes; gap } |]

let transfer ?(bytes = 1e9) ?(bw_scale = 1.) link =
  P.Transfer { bytes; link; bw_scale; action = None }

let test_engine_single_transfer () =
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer ~bytes:5e8 0));
  let r = E.run ~resources:(one_link ()) p in
  check_time "half second" 0.5 r.E.makespan

let test_engine_latency_on_data_deps () =
  (* a -> b with latency 0.1: b starts at finish(a) + latency.
     c in a's stream: no latency between stream neighbours. *)
  let resources = one_link ~latency:0.1 () in
  let p = P.create () in
  let s = P.fresh_stream p in
  let a = P.add p ~stream:s (transfer ~bytes:1e9 0) in
  let s2 = P.fresh_stream p in
  ignore (P.add p ~deps:[ a ] ~stream:s2 (transfer ~bytes:1e9 0));
  ignore (P.add p ~stream:s (transfer ~bytes:1e9 0));
  let r = E.run ~resources p in
  (* op a: starts at 0.1 (initial latency), ends 1.1; stream mate starts 1.1
     (no extra latency), ends 2.1; dependent ready 1.1 + 0.1 = 1.2 but the
     lane is busy until 2.1, so it ends at 3.1. *)
  check_time "stream mate back-to-back" 2.1 r.E.finish.(2);
  check_time "dependent pays latency and waits" 3.1 r.E.finish.(1)

let test_engine_lanes () =
  let resources = [| { E.bandwidth = 1e9; latency = 0.; lanes = 2; gap = 0. } |] in
  let p = P.create () in
  for _ = 1 to 4 do
    let s = P.fresh_stream p in
    ignore (P.add p ~stream:s (transfer ~bytes:1e9 0))
  done;
  let r = E.run ~resources p in
  check_time "4 ops over 2 lanes" 2. r.E.makespan;
  check_float "busy" 4. r.E.busy.(0)

let test_engine_gap () =
  (* Tiny transfers: lane occupancy floors at the gap. *)
  let resources = one_link ~gap:0.5 () in
  let p = P.create () in
  for _ = 1 to 3 do
    let s = P.fresh_stream p in
    ignore (P.add p ~stream:s (transfer ~bytes:1. 0))
  done;
  let r = E.run ~resources p in
  (* data finishes fast but lanes release every 0.5s: third op starts at 1.0 *)
  check_time "issue-gap bound" 1.0 r.E.start.(2)

let test_engine_bw_scale () =
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer ~bytes:1e9 ~bw_scale:0.5 0));
  let r = E.run ~resources:(one_link ()) p in
  check_time "scaled" 2. r.E.makespan

let test_engine_delay_and_compute () =
  let resources = one_link () in
  let p = P.create () in
  let s = P.fresh_stream p in
  let d = P.add p ~stream:s (P.Delay { seconds = 0.25 }) in
  ignore (P.add p ~deps:[ d ] ~stream:s (transfer ~bytes:1e9 0));
  let r = E.run ~resources p in
  check_time "delay then transfer" 1.25 r.E.makespan

let test_engine_pipeline_formula () =
  (* Chain of h hops, c chunks: makespan = (h - 1 + c) * t + h * latency
     with equal hop times t and per-hop latency. *)
  let h = 4 and c = 6 in
  let t = 0.1 and lat = 0.01 in
  let resources =
    Array.init h (fun _ -> { E.bandwidth = 1e9; latency = lat; lanes = 1; gap = 0. })
  in
  let p = P.create () in
  let streams = Array.init h (fun _ -> P.fresh_stream p) in
  let prev = Array.make c (-1) in
  for hop = 0 to h - 1 do
    for chunk = 0 to c - 1 do
      let deps = if hop = 0 then [] else [ prev.(chunk) ] in
      prev.(chunk) <-
        P.add p ~deps ~stream:streams.(hop) (transfer ~bytes:(t *. 1e9) hop)
    done
  done;
  let r = E.run ~resources p in
  check_time "pipeline makespan"
    ((Float.of_int (h - 1 + c) *. t) +. (Float.of_int h *. lat))
    r.E.makespan

let test_engine_policies () =
  (* Two streams contending on one lane; Stream_priority must finish stream
     0 entirely before starting stream 1's queued ops. *)
  let resources = one_link () in
  let build () =
    let p = P.create () in
    let s0 = P.fresh_stream p in
    let s1 = P.fresh_stream p in
    let last0 = ref (-1) and last1 = ref (-1) in
    for _ = 1 to 3 do
      last0 := P.add p ~stream:s0 (transfer ~bytes:1e8 0);
      last1 := P.add p ~stream:s1 (transfer ~bytes:1e8 0)
    done;
    (p, !last0, !last1)
  in
  let p, _, last1 = build () in
  let fair = E.run ~policy:`Fair ~resources p in
  let p', _, last1' = build () in
  let unfair = E.run ~policy:`Stream_priority ~resources p' in
  Alcotest.(check bool) "stream 1 delayed under priority" true
    (unfair.E.finish.(last1') >= fair.E.finish.(last1) -. 1e-9);
  check_time "same total work" fair.E.makespan unfair.E.makespan

let test_engine_stream_priority_beats_arrival_order () =
  (* A scenario where the two policies demonstrably pick different ops
     from the waiting queue. One lane; a long transfer A (stream 0)
     occupies it while two one-byte transfers queue behind it: B (the
     HIGHER-numbered stream) arrives at t=2, C (the LOWER-numbered
     stream) at t=4. `Fair serves the queue by arrival time (B first);
     `Stream_priority serves by stream number (C first). *)
  let resources = one_link ~bandwidth:1. () in
  let build () =
    let p = P.create () in
    let s_a = P.fresh_stream p in
    let s_c = P.fresh_stream p in
    let s_b = P.fresh_stream p in
    ignore (P.add p ~stream:s_a (transfer ~bytes:10. 0));
    (* Delays gate the queued transfers' ready times without touching the
       link; stream order makes each transfer wait for its delay. *)
    ignore (P.add p ~stream:s_b (P.Delay { seconds = 2. }));
    let b = P.add p ~stream:s_b (transfer ~bytes:1. 0) in
    ignore (P.add p ~stream:s_c (P.Delay { seconds = 4. }));
    let c = P.add p ~stream:s_c (transfer ~bytes:1. 0) in
    (p, b, c)
  in
  let p, b, c = build () in
  let fair = E.run ~policy:`Fair ~resources p in
  check_time "fair: earlier arrival (B) served first" 11. fair.E.finish.(b);
  check_time "fair: C runs second" 12. fair.E.finish.(c);
  let p, b, c = build () in
  let prio = E.run ~policy:`Stream_priority ~resources p in
  check_time "priority: lower stream (C) served first" 11. prio.E.finish.(c);
  check_time "priority: B runs second" 12. prio.E.finish.(b);
  check_time "same makespan either way" fair.E.makespan prio.E.makespan

let test_engine_validation () =
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer 3));
  Alcotest.(check bool) "unknown resource rejected" true
    (try
       ignore (E.run ~resources:(one_link ()) p);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Semantics *)

let test_semantics_copy_reduce () =
  let p = P.create () in
  let s = P.fresh_stream p in
  let src = P.declare_buffer p ~node:0 ~len:4 in
  let dst = P.declare_buffer p ~node:1 ~len:4 in
  let mref node buf off len = { P.node; buf; off; len } in
  let a =
    P.add p ~stream:s
      (P.Transfer
         { bytes = 16.; link = 0; bw_scale = 1.;
           action = Some (P.Copy { src = mref 0 src 0 4; dst = mref 1 dst 0 4 }) })
  in
  ignore
    (P.add p ~deps:[ a ] ~stream:s
       (P.Transfer
          { bytes = 8.; link = 0; bw_scale = 1.;
            action = Some (P.Reduce { src = mref 0 src 0 2; dst = mref 1 dst 2 2 }) }));
  let mem = Sem.memory_of_program p in
  Sem.write mem ~node:0 ~buf:src [| 1.; 2.; 3.; 4. |];
  Sem.run p mem;
  Alcotest.(check (array (float 1e-9))) "copy then reduce"
    [| 1.; 2.; 4.; 6. |]
    (Sem.read mem ~node:1 ~buf:dst)

let test_semantics_bounds () =
  let p = P.create () in
  let s = P.fresh_stream p in
  let b = P.declare_buffer p ~node:0 ~len:2 in
  let mref off len = { P.node = 0; buf = b; off; len } in
  ignore
    (P.add p ~stream:s
       (P.Transfer
          { bytes = 1.; link = 0; bw_scale = 1.;
            action = Some (P.Copy { src = mref 0 2; dst = mref 1 2 }) }));
  let mem = Sem.memory_of_program p in
  Alcotest.(check bool) "out of bounds rejected" true
    (try Sem.run p mem; false with Invalid_argument _ -> true)

let test_semantics_write_mismatch () =
  let p = P.create () in
  ignore (P.declare_buffer p ~node:0 ~len:3);
  let mem = Sem.memory_of_program p in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Semantics.write: length mismatch") (fun () ->
      Sem.write mem ~node:0 ~buf:0 [| 1. |])

(* ------------------------------------------------------------------ *)
(* Arena heaps *)

let test_arena_heap_order_and_ties () =
  let q = Pq.Float_int.create () in
  List.iteri (fun i k -> Pq.Float_int.add q k i) [ 5.; 1.; 4.; 1.; 3. ];
  Alcotest.(check int) "length" 5 (Pq.Float_int.length q);
  let drained = List.init 5 (fun _ -> Option.get (Pq.Float_int.pop q)) in
  (* Equal keys pop in insertion order: the 1. inserted as value 1 before
     the 1. inserted as value 3. *)
  Alcotest.(check (list (pair (float 0.) int)))
    "sorted, ties by insertion"
    [ (1., 1); (1., 3); (3., 4); (4., 2); (5., 0) ]
    drained;
  Alcotest.(check bool) "empty" true (Pq.Float_int.is_empty q);
  Alcotest.(check int) "pop on empty" min_int (Pq.Float_int.pop_staged q)

let test_arena_heap_clear_reuse () =
  let q = Pq.Float_int.create ~capacity:2 () in
  for round = 1 to 3 do
    for i = 9 downto 0 do
      (Pq.Float_int.staged q).(0) <- Float.of_int i;
      Pq.Float_int.add_staged q (round * i)
    done;
    let drained = List.init 10 (fun _ -> Pq.Float_int.pop_staged q) in
    Alcotest.(check (list int))
      "drains sorted after clear+refill"
      (List.init 10 (fun i -> round * i))
      drained;
    Pq.Float_int.clear q
  done

let test_arena_waitq_order () =
  let q = Pq.Float_int_int.create () in
  (* Lexicographic (time, stream, id): time dominates, then stream, then
     id; insertion order breaks full ties. *)
  Pq.Float_int_int.add q 2. 0 7;
  Pq.Float_int_int.add q 1. 9 8;
  Pq.Float_int_int.add q 1. 2 9;
  Pq.Float_int_int.add q 1. 2 3;
  let drained = List.init 4 (fun _ -> Pq.Float_int_int.pop_staged q) in
  Alcotest.(check (list int)) "lexicographic" [ 3; 9; 8; 7 ] drained;
  Alcotest.(check int) "empty" min_int (Pq.Float_int_int.pop_staged q)

(* Oracle: a stable sort by key, so equal keys keep insertion order. *)
let prop_arena_heap_matches_stable_sort =
  QCheck.Test.make ~name:"arena heap drains like stable sort" ~count:200
    QCheck.(list (int_bound 50))
    (fun keys ->
      let q = Pq.Float_int.create () in
      let entries = List.mapi (fun i k -> (Float.of_int k /. 7., i)) keys in
      List.iter (fun (key, i) -> Pq.Float_int.add q key i) entries;
      let rec drain acc =
        match Pq.Float_int.pop q with
        | None -> List.rev acc
        | Some e -> drain (e :: acc)
      in
      drain [] = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) entries)

(* ------------------------------------------------------------------ *)
(* Prepared schedules / arenas *)

(* A program that exercises every engine feature at once: multiple
   resources with distinct latencies/gaps/lanes, cross-stream data deps,
   stream chains, delays and contended waiting queues. *)
let build_mixed_program () =
  let resources =
    [|
      { E.bandwidth = 1e9; latency = 0.01; lanes = 1; gap = 0.02 };
      { E.bandwidth = 5e8; latency = 0.; lanes = 2; gap = 0. };
      { E.bandwidth = 2e9; latency = 0.005; lanes = 1; gap = 0.001 };
    |]
  in
  let p = P.create () in
  let streams = Array.init 4 (fun _ -> P.fresh_stream p) in
  let last = Array.make 4 (-1) in
  for round = 0 to 5 do
    for s = 0 to 3 do
      let link = (round + s) mod 3 in
      let deps =
        (if s > 0 && last.(s - 1) >= 0 then [ last.(s - 1) ] else [])
        @ if round > 1 && s = 2 then [ last.(3) ] else []
      in
      last.(s) <-
        P.add p ~deps ~stream:streams.(s)
          (transfer ~bytes:(1e8 *. Float.of_int (1 + ((round + s) mod 4))) link)
    done;
    if round = 2 then
      last.(0) <-
        P.add p ~deps:[ last.(0) ] ~stream:streams.(0)
          (P.Delay { seconds = 0.003 })
  done;
  (resources, p)

let check_results_equal label (a : E.result) (b : E.result) =
  Alcotest.(check (float 0.)) (label ^ ": makespan") a.E.makespan b.E.makespan;
  Alcotest.(check (array (float 0.))) (label ^ ": start") a.E.start b.E.start;
  Alcotest.(check (array (float 0.))) (label ^ ": finish") a.E.finish b.E.finish;
  Alcotest.(check (array (float 0.))) (label ^ ": busy") a.E.busy b.E.busy

let test_prepared_matches_run () =
  let resources, p = build_mixed_program () in
  let prepared = E.prepare ~resources p in
  List.iter
    (fun (name, policy) ->
      let baseline = E.run ~policy ~resources p in
      let arena = E.arena () in
      let replay = E.run_prepared ~policy ~arena prepared in
      check_results_equal name baseline replay;
      (* Repeated runs on the same arena must be bit-identical too. *)
      let again = E.run_prepared ~policy ~arena prepared in
      check_results_equal (name ^ " rerun") baseline again)
    [ ("fair", `Fair); ("priority", `Stream_priority) ]

let test_prepared_arena_reuse_across_shapes () =
  (* One arena serving schedules of different shapes must resize cleanly
     and keep producing exact results. *)
  let arena = E.arena () in
  let run_both (resources, p) =
    let baseline = E.run ~resources p in
    let replay = E.run_prepared ~arena (E.prepare ~resources p) in
    check_results_equal "shape change" baseline replay
  in
  run_both (build_mixed_program ());
  let small = P.create () in
  let s = P.fresh_stream small in
  ignore (P.add small ~stream:s (transfer ~bytes:5e8 0));
  run_both (one_link (), small);
  run_both (build_mixed_program ())

let test_prepared_validation () =
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer 3));
  Alcotest.(check bool) "unknown resource rejected at prepare" true
    (try
       ignore (E.prepare ~resources:(one_link ()) p);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad resource rejected at prepare" true
    (try
       ignore
         (E.prepare
            ~resources:[| { E.bandwidth = 1e9; latency = 0.; lanes = 0; gap = 0. } |]
            (P.create ()));
       false
     with Invalid_argument _ -> true)

let test_arena_released_after_raise () =
  (* A run that raises [Unrecoverable] from inside the event loop must
     still release its arena: the next run on it has to succeed. *)
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer ~bytes:1e9 0));
  let prepared = E.prepare ~resources:(one_link ()) p in
  let arena = E.arena () in
  let faults =
    {
      E.fail_at = [| 0. |];
      flaky = [| [] |];
      degr_t = [| [||] |];
      degr_m = [| [||] |];
      timeout_s = 0.01;
      backoff_s = 0.01;
      max_attempts = 2;
      attempts = [| 0 |];
    }
  in
  (match E.run_prepared ~arena ~faults prepared with
  | _ -> Alcotest.fail "dead link should exhaust retries"
  | exception E.Unrecoverable { attempts; _ } ->
      Alcotest.(check int) "attempts" 2 attempts);
  let r = E.run_prepared ~arena prepared in
  check_time "healthy run on the same arena" 1. r.E.makespan

(* ------------------------------------------------------------------ *)
(* Bigarray semantics vs the float-array reference *)

let build_copy_reduce_program () =
  let p = P.create () in
  let s = P.fresh_stream p in
  let src = P.declare_buffer p ~node:0 ~len:4 in
  let dst = P.declare_buffer p ~node:1 ~len:4 in
  let mref node buf off len = { P.node; buf; off; len } in
  let a =
    P.add p ~stream:s
      (P.Transfer
         { bytes = 16.; link = 0; bw_scale = 1.;
           action = Some (P.Copy { src = mref 0 src 0 4; dst = mref 1 dst 0 4 }) })
  in
  ignore
    (P.add p ~deps:[ a ] ~stream:s
       (P.Transfer
          { bytes = 8.; link = 0; bw_scale = 1.;
            action = Some (P.Reduce { src = mref 0 src 0 2; dst = mref 1 dst 2 2 }) }));
  (p, src, dst)

let test_semantics_matches_ref () =
  let p, src, dst = build_copy_reduce_program () in
  let input = [| 1.; 2.; 3.; 4. |] in
  let mem = Sem.memory_of_program p in
  Sem.write mem ~node:0 ~buf:src input;
  Sem.run p mem;
  let rmem = Sem.Ref.memory_of_program p in
  Sem.Ref.write rmem ~node:0 ~buf:src input;
  Sem.Ref.run p rmem;
  Alcotest.(check (array (float 0.))) "identical to reference"
    (Sem.Ref.read rmem ~node:1 ~buf:dst)
    (Sem.read mem ~node:1 ~buf:dst)

let test_semantics_reset_replay () =
  let p, src, dst = build_copy_reduce_program () in
  let mem = Sem.memory_of_program p in
  Sem.write mem ~node:0 ~buf:src [| 1.; 2.; 3.; 4. |];
  Sem.run p mem;
  let first = Sem.read mem ~node:1 ~buf:dst in
  (* Reset zeroes in place; an identical replay must reproduce the same
     output (no state leaks across runs). *)
  Sem.reset mem;
  Alcotest.(check (array (float 0.))) "reset zeroes" [| 0.; 0.; 0.; 0. |]
    (Sem.read mem ~node:0 ~buf:src);
  Sem.write mem ~node:0 ~buf:src [| 1.; 2.; 3.; 4. |];
  Sem.run p mem;
  Alcotest.(check (array (float 0.))) "replay identical" first
    (Sem.read mem ~node:1 ~buf:dst)

let test_semantics_read_slice () =
  let p, src, dst = build_copy_reduce_program () in
  let mem = Sem.memory_of_program p in
  Sem.write mem ~node:0 ~buf:src [| 1.; 2.; 3.; 4. |];
  Sem.run p mem;
  Alcotest.(check (array (float 0.))) "middle slice" [| 2.; 4. |]
    (Sem.read_slice mem ~node:1 ~buf:dst ~off:1 ~len:2);
  Alcotest.(check bool) "oob slice rejected" true
    (try
       ignore (Sem.read_slice mem ~node:1 ~buf:dst ~off:3 ~len:2);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Fault injection *)

(* A program with enough structure to exercise the event loop's corners:
   a contended 1-lane link (waitq tie-breaking), cross-stream deps
   (stream vs data edge latency), gaps and a second resource. *)
let fault_fixture () =
  let p = P.create () in
  let s0 = P.fresh_stream p and s1 = P.fresh_stream p and s2 = P.fresh_stream p in
  let a = P.add p ~stream:s0 (transfer ~bytes:2e8 0) in
  let b = P.add p ~stream:s1 (transfer ~bytes:3e8 0) in
  let c = P.add p ~stream:s2 (transfer ~bytes:1e8 1) in
  let d = P.add p ~deps:[ a; c ] ~stream:s0 (transfer ~bytes:2e8 1) in
  let e = P.add p ~deps:[ b ] ~stream:s1 (transfer ~bytes:1e8 0) in
  ignore (P.add p ~deps:[ d; e ] ~stream:s2 (P.Delay { seconds = 1e-4 }));
  let resources =
    [|
      { E.bandwidth = 1e9; latency = 2e-6; lanes = 1; gap = 1e-6 };
      { E.bandwidth = 2e9; latency = 5e-6; lanes = 2; gap = 0. };
    |]
  in
  (p, resources)

(* The six collectives planned on a full 8-GPU DGX-1V at 4 M elements,
   as (name, resources, program): real schedules, three of them with
   fused chains (broadcast, reduce, gather). Planned once per process. *)
let dgx_plans =
  lazy
    (let h = Blink.create Server.dgx1v ~gpus:(Array.init 8 Fun.id) in
     List.map
       (fun c ->
         let plan = Blink.plan h c ~elems:4_194_304 in
         (Plan.collective_name c, plan.Plan.resources, plan.Plan.program))
       Plan.[ All_reduce; Broadcast; Reduce; Gather; All_gather; Reduce_scatter ])

let test_fault_no_events_matches_engine () =
  let p, resources = fault_fixture () in
  let _, fused_res, fused =
    List.find
      (fun (_, resources, prog) ->
        E.fused_chains (E.prepare ~resources prog) > 0)
      (Lazy.force dgx_plans)
  in
  List.iter
    (fun (resources, p) ->
      List.iter
        (fun policy ->
          let want = E.run ~policy ~resources p in
          let got = (Fault.run ~policy ~resources p).Fault.timing in
          (* Bit-for-bit: same event ordering and float arithmetic, so
             exact equality, not tolerance. *)
          Alcotest.(check (float 0.)) "makespan" want.E.makespan got.E.makespan;
          Alcotest.(check (array (float 0.))) "finish" want.E.finish got.E.finish;
          Alcotest.(check (array (float 0.))) "start" want.E.start got.E.start;
          Alcotest.(check (array (float 0.))) "busy" want.E.busy got.E.busy)
        [ `Fair; `Stream_priority ])
    [ (resources, p); (fused_res, fused) ]

(* Faults that land at or after the healthy makespan cannot touch any
   attempt, so the faulted branch (unfused, busy summed at dispatch) must
   reproduce the healthy run: timing bit for bit, busy up to summation
   order. Inputs: the mixed program and the six DGX-1V plans. *)
let prop_fault_late_events_match_engine =
  let gen =
    QCheck.Gen.(
      pair (int_bound 6)
        (list_size (int_range 1 5)
           (quad (int_bound 2) nat
              (oneof [ return 0.; float_bound_inclusive 1. ])
              (float_range 0.01 1.))))
  in
  let print (which, evs) =
    Printf.sprintf "program %d, events %s" which
      (String.concat "; "
         (List.map
            (fun (k, r, u, v) -> Printf.sprintf "(%d, %d, %h, %h)" k r u v)
            evs))
  in
  QCheck.Test.make ~name:"late fault events match healthy run" ~count:40
    (QCheck.make ~print gen)
    (fun (which, evs) ->
      let resources, prog =
        if which = 0 then build_mixed_program ()
        else
          let _, resources, prog = List.nth (Lazy.force dgx_plans) (which - 1) in
          (resources, prog)
      in
      let n_res = Array.length resources in
      let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max (Float.abs a) (Float.abs b) in
      List.for_all
        (fun policy ->
          let want = E.run ~policy ~resources prog in
          let mk = want.E.makespan in
          let events =
            List.map
              (fun (kind, res, u, v) ->
                let res = res mod n_res and at = mk *. (1. +. u) in
                match kind with
                | 0 -> Fault.Degrade { res; at; factor = v }
                | 1 -> Fault.Fail { res; at }
                | _ -> Fault.Flaky { res; from_s = at; until_s = at +. (mk *. v) })
              evs
          in
          let out = Fault.run ~policy ~events ~resources prog in
          let got = out.Fault.timing in
          out.Fault.retries = 0
          && Float.equal got.E.makespan want.E.makespan
          && Array.for_all2 Float.equal got.E.start want.E.start
          && Array.for_all2 Float.equal got.E.finish want.E.finish
          && Array.for_all2 close got.E.busy want.E.busy)
        [ `Fair; `Stream_priority ])

let test_fault_degrade_slows () =
  (* 1 GB at 1 GB/s; at t=0.5 the link drops to half rate: the remaining
     0.5 GB takes 1 s, finishing at 1.5 s exactly. *)
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer ~bytes:1e9 0));
  let resources = one_link () in
  let out =
    Fault.run ~resources
      ~events:[ Fault.Degrade { res = 0; at = 0.5; factor = 0.5 } ]
      p
  in
  check_float "degraded finish" 1.5 out.Fault.timing.E.makespan;
  Alcotest.(check int) "no retries" 0 out.Fault.retries;
  Alcotest.(check int) "no faulted ops" 0 out.Fault.faulted_ops;
  (* A degradation landing exactly at an op's nominal finish leaves the
     finish untouched. The mixed program's last op on resource 2 ends at
     the makespan, and its [t0 +. work] rounds down there, so the
     remaining work exceeds the rounded [at -. t0] by an ulp. *)
  let resources, p = build_mixed_program () in
  let mk = (E.run ~resources p).E.makespan in
  let late =
    Fault.run ~resources
      ~events:[ Fault.Degrade { res = 2; at = mk; factor = 0.3 } ]
      p
  in
  Alcotest.(check (float 0.)) "degrade at finish" mk late.Fault.timing.E.makespan;
  (* On a fused schedule, halving the rate of a fused chain's resource
     from t=0 doubles every op on it: faulted runs dispatch one op per
     event, chain members included. *)
  let _, resources, prog = List.nth (Lazy.force dgx_plans) 1 in
  let prepared = E.prepare ~resources prog in
  let member =
    List.find
      (fun id -> E.fused_head prepared id <> id)
      (List.init (E.prepared_ops prepared) Fun.id)
  in
  let res =
    match (P.op prog member).P.kind with
    | P.Transfer { link; _ } -> link
    | P.Compute { engine; _ } -> engine
    | P.Delay _ -> assert false
  in
  let healthy = E.run ~resources prog in
  let slow =
    (Fault.run ~resources ~events:[ Fault.Degrade { res; at = 0.; factor = 0.5 } ] prog)
      .Fault.timing
  in
  P.iter_ops
    (fun o ->
      let id = o.P.id in
      match o.P.kind with
      | (P.Transfer { link = r; _ } | P.Compute { engine = r; _ }) when r = res ->
          Alcotest.(check (float 1e-9)) "service time doubled" 2.
            ((slow.E.finish.(id) -. slow.E.start.(id))
            /. (healthy.E.finish.(id) -. healthy.E.start.(id)))
      | _ -> ())
    prog

let test_fault_flaky_retries () =
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer ~bytes:1e9 0));
  let resources = one_link () in
  let retry = { Fault.timeout_s = 0.05; backoff_s = 0.1; max_attempts = 3 } in
  let telemetry = Blink_telemetry.Telemetry.create () in
  let out =
    Fault.run ~telemetry ~retry ~resources
      ~events:[ Fault.Flaky { res = 0; from_s = 0.; until_s = 0.1 } ]
      p
  in
  (* Attempt 1 starts at 0 inside the window: detected at 0.05, backoff
     0.1, attempt 2 at 0.15 (window closed) runs the full second. *)
  check_float "retried finish" 1.15 out.Fault.timing.E.makespan;
  Alcotest.(check int) "one retry" 1 out.Fault.retries;
  Alcotest.(check int) "one faulted op" 1 out.Fault.faulted_ops;
  (* Lane held for the stalled 0.05 s, then the clean 1 s service. *)
  check_float "busy counts failed attempt" 1.05 out.Fault.timing.E.busy.(0);
  Alcotest.(check int) "retries counted" 1
    (Blink_telemetry.Telemetry.counter_value telemetry "engine.retries");
  Alcotest.(check int) "events counted" 1
    (Blink_telemetry.Telemetry.counter_value telemetry "fault.injected")

let test_fault_dead_link_unrecoverable () =
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer ~bytes:1e9 0));
  let resources = one_link () in
  let retry = { Fault.timeout_s = 0.01; backoff_s = 0.01; max_attempts = 2 } in
  match
    Fault.run ~retry ~resources ~events:[ Fault.Fail { res = 0; at = 0.4 } ] p
  with
  | _ -> Alcotest.fail "dead link should exhaust retries"
  | exception Fault.Unrecoverable { op; resource; attempts } ->
      Alcotest.(check int) "op" 0 op;
      Alcotest.(check int) "resource" 0 resource;
      Alcotest.(check int) "attempts" 2 attempts

let test_fault_validation () =
  let p = P.create () in
  let s = P.fresh_stream p in
  ignore (P.add p ~stream:s (transfer ~bytes:1e9 0));
  let resources = one_link () in
  let bad events msg =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Fault.run ~resources ~events p))
  in
  bad
    [ Fault.Degrade { res = 9; at = 0.; factor = 0.5 } ]
    "Fault.run: event on unknown resource 9";
  bad
    [ Fault.Degrade { res = 0; at = 0.; factor = 1.5 } ]
    "Fault.run: degradation factor must be in (0, 1]";
  bad [ Fault.Fail { res = 0; at = -1. } ] "Fault.run: negative event time";
  bad
    [ Fault.Flaky { res = 0; from_s = 0.3; until_s = 0.3 } ]
    "Fault.run: empty flaky window"

let () =
  Alcotest.run "sim"
    [
      ( "pqueue",
        [
          Alcotest.test_case "arena heap order/ties" `Quick
            test_arena_heap_order_and_ties;
          Alcotest.test_case "arena heap clear+reuse" `Quick
            test_arena_heap_clear_reuse;
          Alcotest.test_case "arena waitq lexicographic" `Quick
            test_arena_waitq_order;
          QCheck_alcotest.to_alcotest prop_arena_heap_matches_stable_sort;
        ] );
      ( "program",
        [
          Alcotest.test_case "builder" `Quick test_program_builder;
          Alcotest.test_case "errors" `Quick test_program_errors;
          Alcotest.test_case "buffers" `Quick test_program_buffers;
        ] );
      ( "engine",
        [
          Alcotest.test_case "single transfer" `Quick test_engine_single_transfer;
          Alcotest.test_case "latency semantics" `Quick test_engine_latency_on_data_deps;
          Alcotest.test_case "lanes" `Quick test_engine_lanes;
          Alcotest.test_case "issue gap" `Quick test_engine_gap;
          Alcotest.test_case "bw scale" `Quick test_engine_bw_scale;
          Alcotest.test_case "delay" `Quick test_engine_delay_and_compute;
          Alcotest.test_case "pipeline formula" `Quick test_engine_pipeline_formula;
          Alcotest.test_case "policies" `Quick test_engine_policies;
          Alcotest.test_case "stream priority vs fair" `Quick
            test_engine_stream_priority_beats_arrival_order;
          Alcotest.test_case "validation" `Quick test_engine_validation;
        ] );
      ( "prepared",
        [
          Alcotest.test_case "run_prepared matches run" `Quick
            test_prepared_matches_run;
          Alcotest.test_case "arena reuse across shapes" `Quick
            test_prepared_arena_reuse_across_shapes;
          Alcotest.test_case "validation at prepare" `Quick
            test_prepared_validation;
          Alcotest.test_case "arena released after raise" `Quick
            test_arena_released_after_raise;
        ] );
      ( "fault",
        [
          Alcotest.test_case "no events matches engine" `Quick
            test_fault_no_events_matches_engine;
          Alcotest.test_case "degrade slows service" `Quick
            test_fault_degrade_slows;
          Alcotest.test_case "flaky link retries" `Quick
            test_fault_flaky_retries;
          Alcotest.test_case "dead link unrecoverable" `Quick
            test_fault_dead_link_unrecoverable;
          Alcotest.test_case "event validation" `Quick test_fault_validation;
          QCheck_alcotest.to_alcotest prop_fault_late_events_match_engine;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "copy/reduce" `Quick test_semantics_copy_reduce;
          Alcotest.test_case "bounds" `Quick test_semantics_bounds;
          Alcotest.test_case "write mismatch" `Quick test_semantics_write_mismatch;
          Alcotest.test_case "matches float-array reference" `Quick
            test_semantics_matches_ref;
          Alcotest.test_case "reset + replay" `Quick test_semantics_reset_replay;
          Alcotest.test_case "read_slice" `Quick test_semantics_read_slice;
        ] );
    ]
