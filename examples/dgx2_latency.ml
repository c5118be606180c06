(* DGX-2 one-hop trees (paper section 3.5, figures 19-20): on an NVSwitch
   machine Blink roots 1/16 of the data at every GPU and sends it one hop;
   NCCL's double binary trees pay several switch crossings per chunk and
   its rings pay 2(N-1) of them. Small-message latency is where it shows.

   Run with: dune exec examples/dgx2_latency.exe *)

module Server = Blink_topology.Server
module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Ring = Blink_baselines.Ring
module Dbtree = Blink_baselines.Dbtree
module Codegen = Blink_collectives.Codegen
module E = Blink_sim.Engine

let () =
  let gpus = Array.init 16 Fun.id in
  let handle = Blink.create Server.dgx2 ~gpus in
  let fabric = Blink.fabric handle in
  let rings = Ring.nvswitch_channels ~n_ranks:16 () in
  Format.printf "16x V100 over NVSwitch; Blink uses %d one-hop trees@.@."
    (List.length (Blink.all_reduce_trees handle));
  Format.printf "%10s %15s %15s %15s@." "size" "Blink one-hop" "NCCL dbtree" "NCCL rings";
  List.iter
    (fun kb ->
      let elems = max 16 (kb * 256) in
      let chunk = Blink.heuristic_chunk ~elems in
      let spec = Codegen.spec ~chunk_elems:chunk fabric in
      let bplan = Blink.plan ~chunk_elems:chunk handle Plan.All_reduce ~elems in
      let dp, _ = Dbtree.all_reduce spec ~elems in
      let rp, _ = Ring.all_reduce spec ~elems ~channels:rings in
      let lat p =
        (E.run ~resources:(Blink_topology.Fabric.resources fabric) p).E.makespan
        *. 1e6
      in
      let blat = Plan.seconds (Plan.execute ~data:false bplan) *. 1e6 in
      Format.printf "%8dKB %13.0fus %13.0fus %13.0fus@." kb blat (lat dp) (lat rp))
    [ 4; 16; 64; 256; 1024 ];
  Format.printf "@.(throughput crossover for large buffers: run `bench/main.exe fig19`)@."
