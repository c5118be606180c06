(* Shared helpers for the figure-reproduction harness. *)

module Server = Blink_topology.Server
module Fabric = Blink_topology.Fabric
module Alloc = Blink_topology.Alloc
module Codegen = Blink_collectives.Codegen
module Tree = Blink_collectives.Tree
module Blink = Blink_core.Blink
module Plan = Blink_core.Plan
module Ring = Blink_baselines.Ring
module E = Blink_sim.Engine

let mb = 1_000_000.
let elems_of_mb m = int_of_float (m *. mb /. 4.)

(* Chunk policy used uniformly across methods in the figures: 1 MiB for
   large buffers, shrinking for small ones so every transfer still
   pipelines. *)
let chunk_for elems = Blink.heuristic_chunk ~elems

let heading fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "\n=== %s ===\n%!" s)
    fmt

let row fmt = Printf.printf fmt

let gbps ~elems (r : E.result) = Blink.algbw_gbps ~elems r

(* Baselines and hand-built programs are timed on the fabric directly;
   Blink's own collectives go through the handle's compiled plans. *)
let time_fabric fabric prog =
  E.run ~resources:(Fabric.resources fabric) prog

let time_blink ~chunk_elems handle collective ~elems =
  (Plan.execute ~data:false (Blink.plan ~chunk_elems handle collective ~elems))
    .Plan.timing

(* Blink vs NCCL measurements on one allocation. *)
let blink_gbps ?(mbytes = 500.) handle collective =
  let elems = elems_of_mb mbytes in
  gbps ~elems (time_blink ~chunk_elems:(chunk_for elems) handle collective ~elems)

let blink_broadcast ?mbytes handle = blink_gbps ?mbytes handle Plan.Broadcast
let blink_all_reduce ?mbytes handle = blink_gbps ?mbytes handle Plan.All_reduce

(* NCCL-style rings: Broadcast and Gather from [root], or AllReduce. *)
let nccl_gbps ?(mbytes = 500.) ?(root = 0) server ~gpus fabric collective =
  let elems = elems_of_mb mbytes in
  let channels = Ring.nccl_channels server ~gpus in
  let spec = Codegen.spec ~chunk_elems:(chunk_for elems) fabric in
  let prog, _ =
    match collective with
    | Plan.Broadcast -> Ring.broadcast spec ~root ~elems ~channels
    | Plan.All_reduce -> Ring.all_reduce spec ~elems ~channels
    | Plan.Gather -> Ring.gather spec ~root ~elems ~channels
    | c -> invalid_arg ("Util.nccl_gbps: no ring " ^ Plan.collective_name c)
  in
  gbps ~elems (time_fabric fabric prog)

let nccl_broadcast ?mbytes server ~gpus fabric =
  nccl_gbps ?mbytes server ~gpus fabric Plan.Broadcast

let nccl_all_reduce ?mbytes server ~gpus fabric =
  nccl_gbps ?mbytes server ~gpus fabric Plan.All_reduce

(* Simulator-backed AllReduce cost functions for the training model. The
   Blink side goes through the handle's compiled-plan cache; the ring
   baseline has no plan layer, so it keeps the generic memoizer. *)
let blink_backend handle = Blink_dnn.Training.plan_backend handle

let nccl_backend server ~gpus fabric =
  let channels = Ring.nccl_channels server ~gpus in
  Blink_dnn.Training.memoized_backend ~label:"nccl" (fun bytes ->
      let elems = max 64 (int_of_float (bytes /. Blink_dnn.Training.bytes_per_elem)) in
      let spec = Codegen.spec ~chunk_elems:(chunk_for elems) fabric in
      let prog, _ = Ring.all_reduce spec ~elems ~channels in
      (time_fabric fabric prog).E.makespan)

(* ------------------------------------------------------------------ *)
(* Versioned bench artifacts: every BENCH_*.json goes through one writer
   that stamps the schema version and enough host metadata to judge
   whether two artifacts are comparable (same schema, same word size,
   same compiler) before the regression gate diffs them. *)

module Json = Blink_telemetry.Json

let schema_version = 2

let host_metadata () =
  Json.Obj
    [
      ("hostname", Json.str (Unix.gethostname ()));
      ("os_type", Json.str Sys.os_type);
      ("ocaml_version", Json.str Sys.ocaml_version);
      ("word_size", Json.int Sys.word_size);
      ("recommended_domains", Json.int (Domain.recommended_domain_count ()));
    ]

(* Files written this run, so [guard_artifact] knows whether a dying
   suite already left its evidence behind. *)
let written : (string, unit) Hashtbl.t = Hashtbl.create 8

let write_bench_json ~file ~suite fields =
  let doc =
    Json.Obj
      (("schema_version", Json.int schema_version)
      :: ("suite", Json.str suite)
      :: ("host", host_metadata ())
      :: fields)
  in
  let oc = open_out file in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Hashtbl.replace written file ();
  row "  wrote %s\n" file

(* CI uploads BENCH_*.json to explain gate failures — so a suite that
   dies on an exception *before* its write (the gates themselves all
   write first, then [exit 1]) must still leave an artifact. The stub
   records the abort and the exception; the non-zero exit still fails
   the job. *)
let guard_artifact ~file ~suite f =
  Hashtbl.remove written file;
  try f ()
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    if not (Hashtbl.mem written file) then
      write_bench_json ~file ~suite
        [
          ("aborted", Json.Bool true);
          ("error", Json.str (Printexc.to_string e));
        ];
    Printexc.raise_with_backtrace e bt

let geomean = function
  | [] -> nan
  | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. Float.of_int (List.length xs))

let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      let idx = int_of_float (p *. Float.of_int (n - 1)) in
      List.nth sorted idx

let config_label gpus = Alloc.to_string (Array.to_list gpus)
