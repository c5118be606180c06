module Server = Blink_topology.Server
module Fabric = Blink_topology.Fabric
module Tree = Blink_collectives.Tree
module Codegen = Blink_collectives.Codegen
module Subtree = Blink_collectives.Subtree
module Threephase = Blink_collectives.Threephase
module Micro = Blink_collectives.Micro
module Emit = Blink_collectives.Emit
module P = Blink_sim.Program
module Sem = Blink_sim.Semantics
module E = Blink_sim.Engine
module Plan = Blink_core.Plan

(* Blink's program and layout for one collective, compiled through the
   handle's plan cache. *)
let compiled collective ~chunk_elems h ~elems =
  let plan = Blink_core.Blink.plan ~chunk_elems h collective ~elems in
  (plan.Plan.program, plan.Plan.layout)

let time h prog =
  E.run ~resources:(Fabric.resources (Blink_core.Blink.fabric h)) prog

(* ------------------------------------------------------------------ *)
(* Tree *)

let test_tree_of_edges () =
  let t = Tree.of_edges ~n_ranks:4 ~root:1 [ (1, 0); (1, 2); (2, 3) ] in
  Alcotest.(check int) "root" 1 t.Tree.root;
  Alcotest.(check int) "depth of 3" 2 t.Tree.depth.(3);
  Alcotest.(check (list int)) "children of 1" [ 0; 2 ] t.Tree.children.(1);
  Alcotest.(check int) "max depth" 2 (Tree.max_depth t);
  Alcotest.(check (list int)) "path to root" [ 3; 2; 1 ] (Tree.path_to_root t 3);
  Alcotest.(check (list int)) "bfs order head" [ 1 ] [ List.hd t.Tree.order ]

let test_tree_validation () =
  let bad edges = try ignore (Tree.of_edges ~n_ranks:3 ~root:0 edges); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "wrong count" true (bad [ (0, 1) ]);
  Alcotest.(check bool) "cycle" true (bad [ (1, 2); (2, 1) ]);
  Alcotest.(check bool) "edge into root" true (bad [ (1, 0); (0, 2) ]);
  Alcotest.(check bool) "duplicate child" true (bad [ (0, 1); (2, 1) ])

let test_normalize_shares () =
  let t = Tree.of_edges ~n_ranks:2 ~root:0 [ (0, 1) ] in
  let w = Tree.normalize_shares [ (t, 3.); (t, 1.); (t, 0.) ] in
  Alcotest.(check int) "drops non-positive" 2 (List.length w);
  Alcotest.(check (float 1e-9)) "share" 0.75 (List.hd w).Tree.share;
  Alcotest.check_raises "all zero"
    (Invalid_argument "Tree.normalize_shares: no positive weights") (fun () ->
      ignore (Tree.normalize_shares [ (t, 0.) ]))

(* ------------------------------------------------------------------ *)
(* regions / chunks *)

let test_split_chunks () =
  Alcotest.(check (list (pair int int))) "exact"
    [ (0, 4); (4, 4) ]
    (Codegen.split_chunks ~chunk:4 ~off:0 ~len:8);
  Alcotest.(check (list (pair int int))) "remainder"
    [ (10, 4); (14, 1) ]
    (Codegen.split_chunks ~chunk:4 ~off:10 ~len:5);
  Alcotest.(check (list (pair int int))) "empty" [] (Codegen.split_chunks ~chunk:4 ~off:0 ~len:0)

let prop_regions_partition =
  QCheck.Test.make ~name:"regions partition the buffer" ~count:200
    QCheck.(pair (int_range 1 1000) (list_of_size Gen.(1 -- 6) (int_range 1 10)))
    (fun (elems, weights) ->
      let t = Tree.of_edges ~n_ranks:2 ~root:0 [ (0, 1) ] in
      let trees =
        List.map (fun w -> { Tree.tree = t; share = Float.of_int w }) weights
      in
      let regions = Codegen.regions ~elems trees in
      let total = List.fold_left (fun acc (_, _, len) -> acc + len) 0 regions in
      let contiguous =
        let rec check expected = function
          | [] -> expected = elems
          | (_, off, len) :: rest -> off = expected && len >= 0 && check (off + len) rest
        in
        check 0 regions
      in
      total = elems && contiguous)

(* ------------------------------------------------------------------ *)
(* Collective semantics helpers *)

let input_for rank elems =
  Array.init elems (fun i -> Float.of_int (((i * 7) + (rank * 131)) mod 41))

let expected_sum k elems =
  let acc = Array.make elems 0. in
  for r = 0 to k - 1 do
    Array.iteri (fun i x -> acc.(i) <- acc.(i) +. x) (input_for r elems)
  done;
  acc

let load_inputs mem (layout : Codegen.layout) k elems =
  for r = 0 to k - 1 do
    Sem.write mem ~node:r ~buf:layout.Codegen.data.(r) (input_for r elems)
  done

let array_eq a b =
  Array.length a = Array.length b
  && Array.for_all Fun.id (Array.mapi (fun i x -> Float.abs (x -. b.(i)) < 1e-6) a)

let dgx1v_handle gpus = Blink_core.Blink.create Server.dgx1v ~gpus

let trees_for gpus =
  let h = dgx1v_handle gpus in
  (Blink_core.Blink.fabric h, Blink_core.Blink.broadcast_trees h,
   Blink_core.Blink.all_reduce_trees h, Blink_core.Blink.root h)

let test_broadcast_semantics () =
  List.iter
    (fun (gpus, elems, chunk) ->
      let fabric, btrees, _, root = trees_for gpus in
      let spec = Codegen.spec ~chunk_elems:chunk fabric in
      let prog, layout = Codegen.broadcast spec ~root ~elems ~trees:btrees in
      let mem = Sem.memory_of_program prog in
      let k = Array.length gpus in
      load_inputs mem layout k elems;
      Sem.run prog mem;
      let want = input_for root elems in
      for r = 0 to k - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "rank %d got root data" r)
          true
          (array_eq want (Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)))
      done)
    [
      ([| 0; 1; 2; 3; 4; 5; 6; 7 |], 10_007, 1000);
      ([| 1; 4; 5; 6 |], 4_096, 512);
      ([| 2; 3 |], 100, 7);
      ([| 0; 1; 3 |], 33, 100);
    ]

let test_reduce_semantics () =
  let gpus = [| 0; 1; 2; 3 |] in
  let fabric, btrees, _, root = trees_for gpus in
  let elems = 5_000 in
  let spec = Codegen.spec ~chunk_elems:640 fabric in
  let prog, layout = Codegen.reduce spec ~root ~elems ~trees:btrees in
  let mem = Sem.memory_of_program prog in
  load_inputs mem layout 4 elems;
  Sem.run prog mem;
  Alcotest.(check bool) "root has the sum" true
    (array_eq (expected_sum 4 elems) (Sem.read mem ~node:root ~buf:layout.Codegen.data.(root)))

let test_all_reduce_semantics () =
  List.iter
    (fun (gpus, elems, chunk) ->
      let fabric, _, artrees, _ = trees_for gpus in
      let spec = Codegen.spec ~chunk_elems:chunk fabric in
      let prog, layout = Codegen.all_reduce spec ~elems ~trees:artrees in
      let mem = Sem.memory_of_program prog in
      let k = Array.length gpus in
      load_inputs mem layout k elems;
      Sem.run prog mem;
      let want = expected_sum k elems in
      for r = 0 to k - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "rank %d has the sum" r)
          true
          (array_eq want (Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)))
      done)
    [
      ([| 0; 1; 2; 3; 4; 5; 6; 7 |], 9_973, 1000);
      ([| 1; 4; 5; 6 |], 2_048, 100);
      ([| 0; 4 |], 64, 64);
    ]

let test_all_reduce_one_hop_roots () =
  (* DGX-2 one-hop trees have 16 distinct roots. *)
  let h = Blink_core.Blink.create Server.dgx2 ~gpus:(Array.init 16 Fun.id) in
  let elems = 4_800 in
  let prog, layout = compiled Plan.All_reduce ~chunk_elems:100 h ~elems in
  let mem = Sem.memory_of_program prog in
  load_inputs mem layout 16 elems;
  Sem.run prog mem;
  let want = expected_sum 16 elems in
  for r = 0 to 15 do
    Alcotest.(check bool) "dgx-2 sum" true
      (array_eq want (Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)))
  done

let test_gather_semantics () =
  let gpus = [| 0; 1; 2; 3; 4; 5; 6; 7 |] in
  let fabric, btrees, _, root = trees_for gpus in
  let elems = 1_001 in
  let spec = Codegen.spec ~chunk_elems:128 fabric in
  let prog, layout = Codegen.gather spec ~root ~elems ~trees:btrees in
  let mem = Sem.memory_of_program prog in
  load_inputs mem layout 8 elems;
  Sem.run prog mem;
  let out =
    match layout.Codegen.output with
    | Some o -> Sem.read mem ~node:root ~buf:o.(root)
    | None -> Alcotest.fail "gather must produce an output buffer"
  in
  for r = 0 to 7 do
    let want = input_for r elems in
    let got = Array.sub out (r * elems) elems in
    Alcotest.(check bool) (Printf.sprintf "segment %d" r) true (array_eq want got)
  done

let test_all_gather_semantics () =
  let gpus = [| 1; 4; 5; 6 |] in
  let fabric, btrees, _, root = trees_for gpus in
  let elems = 777 in
  let spec = Codegen.spec ~chunk_elems:100 fabric in
  let prog, layout = Codegen.all_gather spec ~root ~elems ~trees:btrees in
  let mem = Sem.memory_of_program prog in
  load_inputs mem layout 4 elems;
  Sem.run prog mem;
  for q = 0 to 3 do
    let out =
      match layout.Codegen.output with
      | Some o -> Sem.read mem ~node:q ~buf:o.(q)
      | None -> Alcotest.fail "all_gather output"
    in
    for r = 0 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "rank %d segment %d" q r)
        true
        (array_eq (input_for r elems) (Array.sub out (r * elems) elems))
    done
  done

let prop_all_reduce_random_allocations =
  QCheck.Test.make ~name:"all_reduce correct on random connected allocations"
    ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed + 5 |] in
      let size = 2 + Random.State.int rng 6 in
      (* pick a random NVLink-connected subset by growing from a seed GPU *)
      let chosen = ref [ Random.State.int rng 8 ] in
      while List.length !chosen < size do
        let candidates =
          List.filter
            (fun g ->
              (not (List.mem g !chosen))
              && List.exists (fun h -> Server.pair_capacity Server.dgx1v g h > 0) !chosen)
            (List.init 8 Fun.id)
        in
        match candidates with
        | [] -> chosen := [ Random.State.int rng 8 ] (* restart *)
        | _ -> chosen := List.nth candidates (Random.State.int rng (List.length candidates)) :: !chosen
      done;
      let gpus = Array.of_list (List.sort compare !chosen) in
      let fabric, _, artrees, _ = trees_for gpus in
      let elems = 128 + Random.State.int rng 2_000 in
      let chunk = 1 + Random.State.int rng 500 in
      let spec = Codegen.spec ~chunk_elems:chunk fabric in
      let prog, layout = Codegen.all_reduce spec ~elems ~trees:artrees in
      let mem = Sem.memory_of_program prog in
      let k = Array.length gpus in
      load_inputs mem layout k elems;
      Sem.run prog mem;
      let want = expected_sum k elems in
      List.for_all
        (fun r -> array_eq want (Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)))
        (List.init k Fun.id))

let test_check_trees_validation () =
  let fabric = Fabric.of_server Server.dgx1v ~gpus:[| 0; 1 |] in
  let spec = Codegen.spec fabric in
  let t = Tree.of_edges ~n_ranks:2 ~root:0 [ (0, 1) ] in
  Alcotest.(check bool) "empty trees rejected" true
    (try ignore (Codegen.broadcast spec ~root:0 ~elems:4 ~trees:[]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong root rejected" true
    (try
       ignore (Codegen.broadcast spec ~root:1 ~elems:4 ~trees:[ { Tree.tree = t; share = 1. } ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Subtree *)

let test_subtree_reroot () =
  let t = Subtree.of_edges ~root:2 [ (2, 5); (5, 7) ] in
  Alcotest.(check (list int)) "members" [ 2; 5; 7 ] (List.sort compare (Subtree.members t));
  let r = Subtree.reroot t ~root:7 in
  Alcotest.(check int) "new root" 7 r.Subtree.root;
  Alcotest.(check (list int)) "same members" (List.sort compare (Subtree.members t))
    (List.sort compare (Subtree.members r));
  Alcotest.(check bool) "bad edges rejected" true
    (try ignore (Subtree.of_edges ~root:0 [ (0, 1); (1, 0) ]); false
     with Invalid_argument _ -> true)

let test_threephase_semantics () =
  let servers = [ (Server.dgx1v, [| 0; 1; 2 |]); (Server.dgx1v, [| 0; 1; 2; 3; 4 |]) ] in
  let ms = Blink_core.Multiserver.create servers in
  let elems = 3_000 in
  let prog, layout = Blink_core.Multiserver.all_reduce ~chunk_elems:256 ms ~elems in
  let mem = Sem.memory_of_program prog in
  load_inputs mem layout 8 elems;
  Sem.run prog mem;
  let want = expected_sum 8 elems in
  for r = 0 to 7 do
    Alcotest.(check bool) (Printf.sprintf "rank %d" r) true
      (array_eq want (Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)))
  done

let test_threephase_three_servers () =
  let servers =
    [ (Server.dgx1v, [| 0; 1 |]); (Server.dgx1v, [| 4; 5 |]); (Server.dgx1v, [| 2; 3; 6; 7 |]) ]
  in
  let ms = Blink_core.Multiserver.create servers in
  let elems = 1_024 in
  let prog, layout = Blink_core.Multiserver.all_reduce ~chunk_elems:100 ms ~elems in
  let mem = Sem.memory_of_program prog in
  load_inputs mem layout 8 elems;
  Sem.run prog mem;
  let want = expected_sum 8 elems in
  for r = 0 to 7 do
    Alcotest.(check bool) (Printf.sprintf "rank %d" r) true
      (array_eq want (Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)))
  done

(* ------------------------------------------------------------------ *)
(* Calibration: the simulator must land on the paper's micro-benchmarks *)

let in_range name lo hi x =
  Alcotest.(check bool) (Printf.sprintf "%s = %.2f in [%.1f, %.1f]" name x lo hi)
    true (x >= lo && x <= hi)

let test_micro_calibration () =
  (* paper section 2.2 / appendix A.1, 1000 MB points *)
  in_range "chain-8 forward" 20. 22.5 (Micro.chain_forward ~n_gpus:8 1000.);
  in_range "chain-8 reduce+forward" 17. 19.5 (Micro.chain_reduce_forward ~n_gpus:8 1000.);
  in_range "chain-8 reduce-broadcast" 15.5 19. (Micro.chain_reduce_broadcast ~n_gpus:8 1000.);
  in_range "mimo" 17. 19. (Micro.mimo 100.);
  in_range "mca" 17. 19. (Micro.mca 100.);
  in_range "fan-in forward" 20. 22.5 (Micro.fan_in_forward ~degree:3 100.);
  in_range "fan-in reduce" 17. 19. (Micro.fan_in_reduce ~degree:3 100.);
  in_range "fan-out forward" 20. 22.5 (Micro.fan_out_forward ~degree:3 100.)

let test_micro_small_sizes_degrade () =
  let small = Micro.chain_forward ~n_gpus:8 10. in
  let large = Micro.chain_forward ~n_gpus:8 1000. in
  Alcotest.(check bool) "small sizes slower" true (small < large *. 0.8)

let test_stream_reuse_helps () =
  let h = dgx1v_handle [| 0; 1; 2; 3; 4; 5; 6; 7 |] in
  let elems = 25_000_000 in
  let program stream_reuse =
    let spec =
      Codegen.spec ~chunk_elems:1_048_576 ~stream_reuse (Blink_core.Blink.fabric h)
    in
    fst (Codegen.all_reduce spec ~elems ~trees:(Blink_core.Blink.all_reduce_trees h))
  in
  let on = program true and off = program false in
  let t_on = (time h on).E.makespan in
  let t_off = (time h off).E.makespan in
  Alcotest.(check bool)
    (Printf.sprintf "stream management faster (%.2fms <= %.2fms)" (t_on *. 1e3) (t_off *. 1e3))
    true (t_on <= t_off +. 1e-9)

let test_timing_deterministic () =
  let h = dgx1v_handle [| 1; 4; 5; 6 |] in
  let prog, _ = compiled Plan.All_reduce ~chunk_elems:65_536 h ~elems:1_000_000 in
  let a = (time h prog).E.makespan in
  let b = (time h prog).E.makespan in
  Alcotest.(check (float 0.)) "identical runs" a b

let () =
  Alcotest.run "collectives"
    [
      ( "tree",
        [
          Alcotest.test_case "of_edges" `Quick test_tree_of_edges;
          Alcotest.test_case "validation" `Quick test_tree_validation;
          Alcotest.test_case "normalize shares" `Quick test_normalize_shares;
        ] );
      ( "chunking",
        [
          Alcotest.test_case "split chunks" `Quick test_split_chunks;
          QCheck_alcotest.to_alcotest prop_regions_partition;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "broadcast" `Quick test_broadcast_semantics;
          Alcotest.test_case "reduce" `Quick test_reduce_semantics;
          Alcotest.test_case "all_reduce" `Quick test_all_reduce_semantics;
          Alcotest.test_case "all_reduce one-hop roots" `Quick test_all_reduce_one_hop_roots;
          Alcotest.test_case "gather" `Quick test_gather_semantics;
          Alcotest.test_case "all_gather" `Quick test_all_gather_semantics;
          Alcotest.test_case "validation" `Quick test_check_trees_validation;
          QCheck_alcotest.to_alcotest prop_all_reduce_random_allocations;
        ] );
      ( "subtree/threephase",
        [
          Alcotest.test_case "reroot" `Quick test_subtree_reroot;
          Alcotest.test_case "three-phase 3+5" `Quick test_threephase_semantics;
          Alcotest.test_case "three-phase 2+2+4" `Quick test_threephase_three_servers;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "paper micro-benchmarks" `Quick test_micro_calibration;
          Alcotest.test_case "small sizes degrade" `Quick test_micro_small_sizes_degrade;
          Alcotest.test_case "stream management helps" `Quick test_stream_reuse_helps;
          Alcotest.test_case "deterministic" `Quick test_timing_deterministic;
        ] );
    ]
