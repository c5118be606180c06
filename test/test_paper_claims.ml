(* The paper's headline claims, asserted as invariants over the full
   configuration sweeps — the reproduction's regression suite. Buffer sizes
   are 100 MB to keep the suite fast; the shapes are size-stable (see
   `bench/main.exe sweep`). *)

module Server = Blink_topology.Server
module Fabric = Blink_topology.Fabric
module Alloc = Blink_topology.Alloc
module Blink = Blink_core.Blink
module Ring = Blink_baselines.Ring
module Dbtree = Blink_baselines.Dbtree
module Codegen = Blink_collectives.Codegen
module E = Blink_sim.Engine
module Plan = Blink_core.Plan

(* Blink's program and layout for one collective, compiled through the
   handle's plan cache. *)
let compiled collective ~chunk_elems h ~elems =
  let plan = Blink.plan ~chunk_elems h collective ~elems in
  (plan.Plan.program, plan.Plan.layout)

let elems = 25_000_000 (* 100 MB *)
let chunk = 262_144

let gbps prog fabric =
  4. *. Float.of_int elems
  /. (E.run ~resources:(Fabric.resources fabric) prog).E.makespan
  /. 1e9

let geomean xs =
  exp (List.fold_left (fun a x -> a +. log x) 0. xs /. Float.of_int (List.length xs))

let sweep server collective =
  List.map
    (fun cfg ->
      let gpus = Array.of_list cfg in
      let handle = Blink.create server ~gpus in
      let fabric = Blink.fabric handle in
      let channels = Ring.nccl_channels server ~gpus in
      let spec = Codegen.spec ~chunk_elems:chunk fabric in
      let blink_prog, nccl_prog =
        match collective with
        | `Broadcast ->
            ( fst (compiled Plan.Broadcast ~chunk_elems:chunk handle ~elems),
              fst (Ring.broadcast spec ~root:(Blink.root handle) ~elems ~channels) )
        | `All_reduce ->
            ( fst (compiled Plan.All_reduce ~chunk_elems:chunk handle ~elems),
              fst (Ring.all_reduce spec ~elems ~channels) )
      in
      let speedup = gbps blink_prog fabric /. gbps nccl_prog fabric in
      (cfg, channels.Ring.cls, speedup))
    (Alloc.unique_configs server ~sizes:[ 3; 4; 5; 6; 7; 8 ])

(* Paper fig 15: DGX-1V broadcast — geomean ~2x, up to 6x; Blink never
   loses. *)
let test_fig15_claims () =
  let results = sweep Server.dgx1v `Broadcast in
  let speedups = List.map (fun (_, _, s) -> s) results in
  List.iter
    (fun (cfg, _, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "broadcast %s: blink >= nccl (%.2fx)" (Alloc.to_string cfg) s)
        true (s >= 0.99))
    results;
  let g = geomean speedups and m = List.fold_left Float.max 0. speedups in
  Alcotest.(check bool) (Printf.sprintf "geomean %.2f in [1.4, 2.6]" g) true
    (g >= 1.4 && g <= 2.6);
  Alcotest.(check bool) (Printf.sprintf "max %.2f >= 4" m) true (m >= 4.)

(* Paper fig 17: DGX-1V AllReduce — geomean ~2x, up to 8x; Blink wins big
   wherever NCCL fell back to PCIe. *)
let test_fig17_claims () =
  let results = sweep Server.dgx1v `All_reduce in
  let speedups = List.map (fun (_, _, s) -> s) results in
  List.iter
    (fun (cfg, cls, s) ->
      if cls = Fabric.Pcie then
        Alcotest.(check bool)
          (Printf.sprintf "allreduce %s (pcie fallback): %.2fx >= 2" (Alloc.to_string cfg) s)
          true (s >= 2.))
    results;
  let g = geomean speedups and m = List.fold_left Float.max 0. speedups in
  Alcotest.(check bool) (Printf.sprintf "geomean %.2f in [1.7, 2.8]" g) true
    (g >= 1.7 && g <= 2.8);
  Alcotest.(check bool) (Printf.sprintf "max %.2f >= 5" m) true (m >= 5.)

(* Paper fig 16: DGX-1P broadcast — geomean ~1.6x, up to 3x. *)
let test_fig16_claims () =
  let results = sweep Server.dgx1p `Broadcast in
  let speedups = List.map (fun (_, _, s) -> s) results in
  let g = geomean speedups and m = List.fold_left Float.max 0. speedups in
  Alcotest.(check bool) (Printf.sprintf "geomean %.2f in [1.2, 1.9]" g) true
    (g >= 1.2 && g <= 1.9);
  Alcotest.(check bool) (Printf.sprintf "max %.2f >= 2" m) true (m >= 2.)

(* Paper figs 19-20: DGX-2 small-message AllReduce latency, one-hop trees
   at least 2x lower than NCCL's best of dbtree/ring. *)
let test_dgx2_latency_claims () =
  let gpus = Array.init 16 Fun.id in
  let handle = Blink.create Server.dgx2 ~gpus in
  let fabric = Blink.fabric handle in
  let rings = Ring.nvswitch_channels ~n_ranks:16 () in
  List.iter
    (fun kb ->
      let elems = kb * 256 in
      let chunk = max 256 (elems / 16) in
      let spec = Codegen.spec ~chunk_elems:chunk fabric in
      let lat prog = (E.run ~resources:(Fabric.resources fabric) prog).E.makespan in
      let blink =
        lat (fst (compiled Plan.All_reduce ~chunk_elems:chunk handle ~elems))
      in
      let dbt = lat (fst (Dbtree.all_reduce spec ~elems)) in
      let ring = lat (fst (Ring.all_reduce spec ~elems ~channels:rings)) in
      let ratio = Float.min dbt ring /. blink in
      Alcotest.(check bool)
        (Printf.sprintf "%dKB: one-hop %.1fx lower latency" kb ratio)
        true (ratio >= 2.))
    [ 4; 16; 64; 256 ]

(* Paper fig 21: hybrid gains shrink with GPU count but never hurt. *)
let test_hybrid_claims () =
  let gain n =
    let gpus = Blink_collectives.Micro.chain_gpus n in
    let handle = Blink.create Server.dgx1v ~gpus in
    let fabric = Blink.fabric handle in
    let nv =
      gbps (fst (compiled Plan.Broadcast ~chunk_elems:chunk handle ~elems)) fabric
    in
    let hy =
      gbps (fst (Blink_core.Hybrid.broadcast ~chunk_elems:chunk handle ~elems)) fabric
    in
    hy -. nv
  in
  let g3 = gain 3 and g8 = gain 8 in
  Alcotest.(check bool) (Printf.sprintf "3 GPUs gain %.1f > 3" g3) true (g3 > 3.);
  Alcotest.(check bool) (Printf.sprintf "8 GPUs gain %.1f >= -0.5" g8) true (g8 >= -0.5);
  Alcotest.(check bool) "gain shrinks with gpu count" true (g3 > g8)

(* Paper fig 22b: Blink rides the network; NCCL-hierarchical is pinned at
   its intra-server PCIe rate. *)
let test_multiserver_claims () =
  let servers = [ (Server.dgx1v, [| 0; 1; 2 |]); (Server.dgx1v, [| 0; 1; 2; 3; 4 |]) ] in
  let blink net_bw =
    let ms = Blink_core.Multiserver.create ~net_bw servers in
    let prog, _ = Blink_core.Multiserver.all_reduce ~chunk_elems:chunk ms ~elems in
    4. *. Float.of_int elems /. (Blink_core.Multiserver.time ms prog).E.makespan /. 1e9
  in
  let horovod net_bw =
    let hi = Blink_baselines.Hierarchical.create ~net_bw servers in
    let prog, _ = Blink_baselines.Hierarchical.all_reduce ~chunk_elems:chunk hi ~elems in
    4. *. Float.of_int elems /. (Blink_baselines.Hierarchical.time hi prog).E.makespan /. 1e9
  in
  Alcotest.(check bool) "blink scales 40 -> 200 Gbps by >2.5x" true
    (blink 25. > 2.5 *. blink 5.);
  Alcotest.(check bool) "horovod pinned (under 1.3x)" true
    (horovod 25. < 1.3 *. horovod 5.);
  Alcotest.(check bool) "blink >= horovod at 40 Gbps" true (blink 5. >= horovod 5.)

let () =
  Alcotest.run "paper-claims"
    [
      ( "single-server sweeps",
        [
          Alcotest.test_case "fig 15 (DGX-1V broadcast)" `Slow test_fig15_claims;
          Alcotest.test_case "fig 17 (DGX-1V allreduce)" `Slow test_fig17_claims;
          Alcotest.test_case "fig 16 (DGX-1P broadcast)" `Slow test_fig16_claims;
        ] );
      ( "dgx-2 / hybrid / multi-server",
        [
          Alcotest.test_case "figs 19-20 (DGX-2 latency)" `Quick test_dgx2_latency_claims;
          Alcotest.test_case "fig 21 (hybrid)" `Quick test_hybrid_claims;
          Alcotest.test_case "fig 22b (multi-server)" `Quick test_multiserver_claims;
        ] );
    ]
