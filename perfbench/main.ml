(* perfbench: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--state-dir DIR]

   Prints a table of every figure (value, unit, sample count, highest
   percentile with ten samples beyond it) and, as the last line, one JSON
   object: the end-to-end metrics untraced, the per-layer metrics traced.
   With --state-dir, deterministic facts of each run are recorded per
   (binary, workload, seed, mode) and a later run that disagrees fails;
   the traced run's spans are written there as a Chrome trace. *)

let workloads =
  [
    ("dp-allreduce", Train.run);
    ("plan-churn", Churn.run);
    ("service", Service.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (dp-allreduce|plan-churn|service) --seed N --seconds S \
     --trace 0|1 [--state-dir DIR]";
  exit 2

let parse () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let state_dir = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := Some (v = "1"); go rest
    | "--state-dir" :: v :: rest -> state_dir := Some v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some run, Some seed, Some seconds, Some traced when seconds > 0. ->
      (!workload, run, seed, seconds, traced, !state_dir)
  | _ -> usage ()

(* Peak resident set size in MB (Linux VmHWM), else the OCaml heap's
   high-water mark. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                  Some (float kb /. 1024.))
          | Some _ -> find ()
        in
        find ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
      float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Same seed, same binary, same mode => the same facts, or fail loudly. *)
let check_determinism ~dir ~workload ~seed ~traced facts =
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let path =
    Filename.concat dir
      (Printf.sprintf "facts-%s-seed%d-trace%d-%s.txt" workload seed (Bool.to_int traced)
         (String.sub exe 0 12))
  in
  let text = String.concat "" (List.map (fun (k, v) -> k ^ " " ^ v ^ "\n") facts) in
  if Sys.file_exists path then begin
    let previous = In_channel.with_open_bin path In_channel.input_all in
    if previous <> text then begin
      Printf.eprintf
        "perfbench: determinism check failed: seed %d of %s gave different facts than \
         an earlier run (%s)\n--- earlier\n%s--- now\n%s"
        seed workload path previous text;
      exit 3
    end;
    "matched an earlier run"
  end
  else begin
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    "recorded"
  end

let () =
  let workload, run, seed, seconds, traced, state_dir = parse () in
  Printf.printf "# perfbench %s seed=%d seconds=%g trace=%d\n" workload seed seconds
    (Bool.to_int traced);
  Printf.printf "# host cpus=%d ocaml=%s word_size=%d os=%s\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version Sys.word_size Sys.os_type;
  let o =
    try run ~seed ~seconds ~traced
    with e ->
      Printf.eprintf "perfbench: %s failed: %s\n" workload (Printexc.to_string e);
      exit 3
  in
  let rss = peak_rss_mb () in
  let setup = Stats.timing "setup_s" "s" o.Common.setup_s in
  let failed_frac = float o.Common.failed /. float (max 1 o.Common.attempted) in
  Stats.print_table stdout
    (setup :: o.Common.named
    @ [
        Stats.scalar "peak_rss_mb" "MB" rss;
        Stats.scalar ~n:o.Common.attempted "failed_frac" "ratio" failed_frac;
      ]);
  let layer_units = Common.layer_metrics in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name layer_units) then
        failwith ("perfbench: unlisted per-layer metric " ^ name))
    o.Common.layers;
  let layers =
    List.map
      (fun (name, unit_) ->
        (name, unit_, Option.value (List.assoc_opt name o.Common.layers) ~default:0.))
      layer_units
  in
  if traced then begin
    print_endline "per-layer:";
    List.iter (fun (n, u, v) -> Printf.printf "  %-36s %16.6g  %s\n" n v u) layers
  end;
  (match state_dir with
  | None -> ()
  | Some dir ->
      mkdir_p dir;
      let verdict = check_determinism ~dir ~workload ~seed ~traced o.Common.determinism in
      Option.iter
        (fun tr ->
          let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
          Trace.write_chrome tr path;
          Printf.printf "# spans written to %s\n" path)
        o.Common.trace;
      Printf.printf "# determinism: %d facts %s\n" (List.length o.Common.determinism) verdict);
  let metrics =
    if traced then layers
    else
      [
        ("setup_s", "s", setup.Stats.value);
        ("latency_cpu_ms", "ms", o.Common.latency_ms.Stats.value);
        ("peak_rss_mb", "MB", rss);
      ]
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.Common.failed = 0) o.Common.attempted o.Common.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (Stats.json_float v) u)
          metrics))
