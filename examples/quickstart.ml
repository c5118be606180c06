(* Quickstart: plan trees for a fragmented DGX-1V allocation, check the
   generated AllReduce actually computes the right thing, and time it
   against the NCCL-style ring baseline.

   Run with: dune exec examples/quickstart.exe *)

module Server = Blink_topology.Server
module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Treegen = Blink_core.Treegen
module Ring = Blink_baselines.Ring
module Codegen = Blink_collectives.Codegen
module Sem = Blink_sim.Semantics

let () =
  (* The scheduler gave us GPUs 1, 4, 5, 6 of a DGX-1V — an allocation with
     no NVLink ring (figure 1 of the paper), where NCCL falls back to PCIe. *)
  let gpus = [| 1; 4; 5; 6 |] in
  let handle = Blink.create Server.dgx1v ~gpus in

  (* TreeGen probed the topology and packed spanning trees: *)
  (match Blink.packing handle with
  | Some packing ->
      Format.printf "TreeGen: %a@." Treegen.pp packing
  | None -> ());
  Format.printf "broadcast rate %.1f GB/s, all-reduce rate %.1f GB/s@."
    (Blink.rate handle) (Blink.all_reduce_rate handle);

  (* Compile an AllReduce plan for a 100 MB gradient buffer — generated
     once per allocation, replayed every iteration. *)
  let elems = 25_000_000 in
  let plan = Blink.plan ~chunk_elems:262_144 handle Plan.All_reduce ~elems in
  Format.printf "CodeGen: %d ops over %d streams@."
    (Blink_sim.Program.n_ops plan.Plan.program)
    (Blink_sim.Program.n_streams plan.Plan.program);

  (* Verify the schedule's semantics on real buffers (small slice):
     Plan.execute runs the data-replay and timing passes over the same
     program instance. *)
  let small = 10_000 in
  let vplan = Blink.plan ~chunk_elems:1_000 handle Plan.All_reduce ~elems:small in
  let exec =
    Plan.execute
      ~load:(fun mem layout ->
        Array.iteri
          (fun r _ ->
            Sem.write mem ~node:r ~buf:layout.Codegen.data.(r)
              (Array.init small (fun i -> Float.of_int ((i + r) mod 7))))
          gpus)
      vplan
  in
  let mem = Option.get exec.Plan.memory in
  let got = Sem.read mem ~node:0 ~buf:vplan.Plan.layout.Codegen.data.(0) in
  let expect i =
    Float.of_int (((i + 0) mod 7) + ((i + 1) mod 7) + ((i + 2) mod 7) + ((i + 3) mod 7))
  in
  assert (Array.for_all Fun.id (Array.mapi (fun i x -> x = expect i) got));
  Format.printf "semantics: every rank holds the element-wise sum ✓@.";

  (* Time Blink vs the ring baseline on the simulated interconnect; the
     big plan only needs the timing pass. *)
  let blink =
    Blink.algbw_gbps ~elems (Plan.execute ~data:false plan).Plan.timing
  in
  let channels = Ring.nccl_channels Server.dgx1v ~gpus in
  let fabric = Blink.fabric handle in
  let nccl_prog, _ = Ring.all_reduce (Codegen.spec fabric) ~elems ~channels in
  let resources = Blink_topology.Fabric.resources fabric in
  let nccl = Blink.algbw_gbps ~elems (Blink_sim.Engine.run ~resources nccl_prog) in
  Format.printf "AllReduce 100 MB:  Blink %.1f GB/s   NCCL-style rings %.1f GB/s (%s)  -> %.1fx@."
    blink nccl
    (match channels.Ring.cls with
    | Blink_topology.Fabric.Pcie -> "PCIe fallback"
    | Blink_topology.Fabric.Nv -> "NVLink"
    | Blink_topology.Fabric.Net -> "network")
    (blink /. nccl)
