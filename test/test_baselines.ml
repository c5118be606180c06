module Server = Blink_topology.Server
module Fabric = Blink_topology.Fabric
module Ring = Blink_baselines.Ring
module Dbtree = Blink_baselines.Dbtree
module Hierarchical = Blink_baselines.Hierarchical
module Codegen = Blink_collectives.Codegen
module Tree = Blink_collectives.Tree
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

let input_for rank elems =
  Array.init elems (fun i -> Float.of_int (((i * 3) + (rank * 17)) mod 13))

let expected_sum k elems =
  let acc = Array.make elems 0. in
  for r = 0 to k - 1 do
    Array.iteri (fun i x -> acc.(i) <- acc.(i) +. x) (input_for r elems)
  done;
  acc

let array_eq a b =
  Array.length a = Array.length b
  && Array.for_all Fun.id (Array.mapi (fun i x -> Float.abs (x -. b.(i)) < 1e-6) a)

let check_all_reduce name prog (layout : Codegen.layout) k elems =
  let mem = Sem.memory_of_program prog in
  for r = 0 to k - 1 do
    Sem.write mem ~node:r ~buf:layout.Codegen.data.(r) (input_for r elems)
  done;
  Sem.run prog mem;
  let want = expected_sum k elems in
  for r = 0 to k - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "%s rank %d" name r)
      true
      (array_eq want (Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)))
  done

(* ------------------------------------------------------------------ *)
(* Ring channel construction *)

let test_channels_dgx1p_full () =
  let ch = Ring.nccl_channels Server.dgx1p ~gpus:(Array.init 8 Fun.id) in
  Alcotest.(check int) "4 directed rings" 4 (Ring.n_rings ch);
  Alcotest.(check bool) "nvlink" true (ch.Ring.cls = Fabric.Nv)

let test_channels_dgx1v_full () =
  let ch = Ring.nccl_channels Server.dgx1v ~gpus:(Array.init 8 Fun.id) in
  Alcotest.(check int) "6 directed rings" 6 (Ring.n_rings ch);
  Alcotest.(check bool) "nvlink" true (ch.Ring.cls = Fabric.Nv)

let test_channels_pcie_fallback () =
  (* 1,4,5,6 admits no NVLink ring (figure 1): NCCL drops to PCIe. *)
  let ch = Ring.nccl_channels Server.dgx1v ~gpus:[| 1; 4; 5; 6 |] in
  Alcotest.(check bool) "pcie" true (ch.Ring.cls = Fabric.Pcie);
  Alcotest.(check int) "both directions" 2 (Ring.n_rings ch)

let test_channels_two_gpus () =
  let single = Ring.nccl_channels Server.dgx1v ~gpus:[| 0; 1 |] in
  Alcotest.(check int) "single-link pair: 1 ring" 1 (Ring.n_rings single);
  let doubled = Ring.nccl_channels Server.dgx1v ~gpus:[| 0; 3 |] in
  Alcotest.(check int) "doubled pair: 2 rings" 2 (Ring.n_rings doubled)

let test_channels_four_ring () =
  (* 2,3,6,7 forms a ring (paper 5.2.1) *)
  let ch = Ring.nccl_channels Server.dgx1v ~gpus:[| 2; 3; 6; 7 |] in
  Alcotest.(check bool) "nvlink ring exists" true (ch.Ring.cls = Fabric.Nv);
  Alcotest.(check bool) "at least 2 rings" true (Ring.n_rings ch >= 2)

let test_ring_tree () =
  let t = Ring.ring_tree ~root:2 [ 0; 1; 2; 3 ] in
  Alcotest.(check int) "root" 2 t.Tree.root;
  Alcotest.(check (list int)) "path order" [ 2; 3; 0; 1 ] t.Tree.order;
  Alcotest.(check int) "depth" 3 (Tree.max_depth t)

let test_nvswitch_channels () =
  let ch = Ring.nvswitch_channels ~n_ranks:16 () in
  Alcotest.(check int) "4 rings (2 per direction)" 4 (Ring.n_rings ch)

(* ------------------------------------------------------------------ *)
(* Ring collectives semantics *)

let test_ring_broadcast_semantics () =
  let gpus = Array.init 8 Fun.id in
  let fabric = Fabric.of_server Server.dgx1v ~gpus in
  let ch = Ring.nccl_channels Server.dgx1v ~gpus in
  let elems = 5_000 in
  let spec = Codegen.spec ~chunk_elems:777 fabric in
  let prog, layout = Ring.broadcast spec ~root:0 ~elems ~channels:ch in
  let mem = Sem.memory_of_program prog in
  Sem.write mem ~node:0 ~buf:layout.Codegen.data.(0) (input_for 0 elems);
  Sem.run prog mem;
  for r = 0 to 7 do
    Alcotest.(check bool) (Printf.sprintf "rank %d" r) true
      (array_eq (input_for 0 elems) (Sem.read mem ~node:r ~buf:layout.Codegen.data.(r)))
  done

let test_ring_all_reduce_semantics () =
  let gpus = Array.init 8 Fun.id in
  let fabric = Fabric.of_server Server.dgx1v ~gpus in
  let ch = Ring.nccl_channels Server.dgx1v ~gpus in
  let spec = Codegen.spec ~chunk_elems:333 fabric in
  let prog, layout = Ring.all_reduce spec ~elems:4_801 ~channels:ch in
  check_all_reduce "nvlink rings" prog layout 8 4_801

let test_ring_all_reduce_pcie () =
  let gpus = [| 1; 4; 5; 6 |] in
  let fabric = Fabric.of_server Server.dgx1v ~gpus in
  let ch = Ring.nccl_channels Server.dgx1v ~gpus in
  let spec = Codegen.spec ~chunk_elems:100 fabric in
  let prog, layout = Ring.all_reduce spec ~elems:1_000 ~channels:ch in
  check_all_reduce "pcie fallback" prog layout 4 1_000

let test_ring_all_reduce_two () =
  let gpus = [| 0; 3 |] in
  let fabric = Fabric.of_server Server.dgx1v ~gpus in
  let ch = Ring.nccl_channels Server.dgx1v ~gpus in
  let spec = Codegen.spec ~chunk_elems:64 fabric in
  let prog, layout = Ring.all_reduce spec ~elems:500 ~channels:ch in
  check_all_reduce "two gpus" prog layout 2 500

let test_ring_gather_semantics () =
  let gpus = Array.init 4 Fun.id in
  let fabric = Fabric.of_server Server.dgx1v ~gpus in
  let ch = Ring.nccl_channels Server.dgx1v ~gpus in
  let elems = 600 in
  let spec = Codegen.spec ~chunk_elems:100 fabric in
  let prog, layout = Ring.gather spec ~root:0 ~elems ~channels:ch in
  let mem = Sem.memory_of_program prog in
  for r = 0 to 3 do
    Sem.write mem ~node:r ~buf:layout.Codegen.data.(r) (input_for r elems)
  done;
  Sem.run prog mem;
  let out =
    match layout.Codegen.output with
    | Some o -> Sem.read mem ~node:0 ~buf:o.(0)
    | None -> Alcotest.fail "gather output"
  in
  for r = 0 to 3 do
    Alcotest.(check bool) (Printf.sprintf "segment %d" r) true
      (array_eq (input_for r elems) (Array.sub out (r * elems) elems))
  done

(* ------------------------------------------------------------------ *)
(* Double binary trees *)

let test_dbtree_structure () =
  List.iter
    (fun k ->
      match Dbtree.trees ~n_ranks:k with
      | [ a; b ] ->
          Alcotest.(check (float 1e-9)) "half share" 0.5 a.Tree.share;
          (* every rank is a leaf in at least one tree *)
          for r = 0 to k - 1 do
            let leaf_in t = t.Tree.children.(r) = [] in
            Alcotest.(check bool)
              (Printf.sprintf "rank %d leaf somewhere (k=%d)" r k)
              true
              (leaf_in a.Tree.tree || leaf_in b.Tree.tree)
          done;
          (* binary: at most 2 children anywhere *)
          List.iter
            (fun { Tree.tree; _ } ->
              Array.iter
                (fun cs -> Alcotest.(check bool) "binary" true (List.length cs <= 2))
                tree.Tree.children)
            [ a; b ]
      | _ -> Alcotest.fail "expected two trees")
    [ 4; 8; 16 ]

let test_dbtree_all_reduce_semantics () =
  let fabric = Fabric.of_server Server.dgx2 ~gpus:(Array.init 16 Fun.id) in
  let spec = Codegen.spec ~chunk_elems:256 fabric in
  let prog, layout = Dbtree.all_reduce spec ~elems:3_200 in
  check_all_reduce "dbtree 16" prog layout 16 3_200

let test_dbtree_odd_ranks () =
  let fabric = Fabric.of_server Server.dgx2 ~gpus:(Array.init 5 Fun.id) in
  let spec = Codegen.spec ~chunk_elems:100 fabric in
  let prog, layout = Dbtree.all_reduce spec ~elems:1_000 in
  check_all_reduce "dbtree 5" prog layout 5 1_000

let test_dbtree_latency_vs_one_hop () =
  (* Paper figure 20: one-hop trees beat double binary trees on latency for
     small sizes. *)
  let gpus = Array.init 16 Fun.id in
  let h = Blink_core.Blink.create Server.dgx2 ~gpus in
  let fabric = Blink_core.Blink.fabric h in
  let elems = 4_096 (* 16 KB *) in
  let spec = Codegen.spec ~chunk_elems:1_024 fabric in
  let bp, _ = compiled Plan.All_reduce ~chunk_elems:1_024 h ~elems in
  let dp, _ = Dbtree.all_reduce spec ~elems in
  let tb = (time h bp).E.makespan in
  let td = (time h dp).E.makespan in
  Alcotest.(check bool)
    (Printf.sprintf "one-hop %.0fus at least 2x faster than dbt %.0fus"
       (tb *. 1e6) (td *. 1e6))
    true
    (td >= 2. *. tb)

(* ------------------------------------------------------------------ *)
(* Hierarchical *)

let test_hierarchical_semantics () =
  let servers = [ (Server.dgx1v, [| 0; 1; 2 |]); (Server.dgx1v, [| 0; 1; 2; 3; 4 |]) ] in
  let hi = Hierarchical.create servers in
  let prog, layout = Hierarchical.all_reduce ~chunk_elems:200 hi ~elems:2_000 in
  check_all_reduce "hierarchical 3+5" prog layout 8 2_000

let test_hierarchical_local_cls () =
  let servers = [ (Server.dgx1v, [| 0; 1; 2; 3 |]); (Server.dgx1v, [| 1; 4; 5; 6 |]) ] in
  let hi = Hierarchical.create servers in
  Alcotest.(check bool) "quad rings over nvlink" true
    (Hierarchical.local_cls hi 0 = Fabric.Nv);
  Alcotest.(check bool) "fragmented side falls to pcie" true
    (Hierarchical.local_cls hi 1 = Fabric.Pcie)

let test_blink_beats_hierarchical_35 () =
  (* Figure 22(a): Blink's three-phase beats Horovod on fragmented 3+5. *)
  let servers = [ (Server.dgx1v, [| 0; 1; 2 |]); (Server.dgx1v, [| 0; 1; 2; 3; 4 |]) ] in
  let elems = 12_500_000 in
  let ms = Blink_core.Multiserver.create servers in
  let mp, _ = Blink_core.Multiserver.all_reduce ms ~elems in
  let tm = (Blink_core.Multiserver.time ms mp).E.makespan in
  let hi = Hierarchical.create servers in
  let hp, _ = Hierarchical.all_reduce hi ~elems in
  let th = (Hierarchical.time hi hp).E.makespan in
  Alcotest.(check bool)
    (Printf.sprintf "blink %.1fms <= horovod %.1fms" (tm *. 1e3) (th *. 1e3))
    true (tm <= th)

let () =
  Alcotest.run "baselines"
    [
      ( "channels",
        [
          Alcotest.test_case "dgx-1p full: 4 rings" `Quick test_channels_dgx1p_full;
          Alcotest.test_case "dgx-1v full: 6 rings" `Quick test_channels_dgx1v_full;
          Alcotest.test_case "pcie fallback" `Quick test_channels_pcie_fallback;
          Alcotest.test_case "two gpus" `Quick test_channels_two_gpus;
          Alcotest.test_case "2,3,6,7 ring" `Quick test_channels_four_ring;
          Alcotest.test_case "ring tree" `Quick test_ring_tree;
          Alcotest.test_case "nvswitch channels" `Quick test_nvswitch_channels;
        ] );
      ( "ring collectives",
        [
          Alcotest.test_case "broadcast" `Quick test_ring_broadcast_semantics;
          Alcotest.test_case "all_reduce nvlink" `Quick test_ring_all_reduce_semantics;
          Alcotest.test_case "all_reduce pcie" `Quick test_ring_all_reduce_pcie;
          Alcotest.test_case "all_reduce 2 gpus" `Quick test_ring_all_reduce_two;
          Alcotest.test_case "gather" `Quick test_ring_gather_semantics;
        ] );
      ( "double binary trees",
        [
          Alcotest.test_case "structure" `Quick test_dbtree_structure;
          Alcotest.test_case "all_reduce 16" `Quick test_dbtree_all_reduce_semantics;
          Alcotest.test_case "odd ranks" `Quick test_dbtree_odd_ranks;
          Alcotest.test_case "latency vs one-hop" `Quick test_dbtree_latency_vs_one_hop;
        ] );
      ( "hierarchical",
        [
          Alcotest.test_case "semantics 3+5" `Quick test_hierarchical_semantics;
          Alcotest.test_case "local link classes" `Quick test_hierarchical_local_cls;
          Alcotest.test_case "blink beats horovod" `Quick test_blink_beats_hierarchical_35;
        ] );
    ]
