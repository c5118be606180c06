module Telemetry = Blink_telemetry.Telemetry

type event =
  | Degrade of { res : int; at : float; factor : float }
  | Fail of { res : int; at : float }
  | Flaky of { res : int; from_s : float; until_s : float }

type retry = { timeout_s : float; backoff_s : float; max_attempts : int }

let default_retry = { timeout_s = 1e-3; backoff_s = 5e-4; max_attempts = 4 }

type outcome = {
  timing : Engine.result;
  retries : int;
  faulted_ops : int;
}

exception Unrecoverable = Engine.Unrecoverable

(* Fold the event list into the engine's per-resource fault table: first
   death time, sorted flaky windows, and a piecewise-constant rate
   multiplier (event times paired with the cumulative factor in force
   from that time on). *)
let fault_table ~retry ~n_ops ~n_res events =
  let check_res r =
    if r < 0 || r >= n_res then
      invalid_arg (Printf.sprintf "Fault.run: event on unknown resource %d" r)
  in
  let fail_at = Array.make n_res infinity in
  let flaky = Array.make n_res [] in
  let degrades = Array.make n_res [] in
  List.iter
    (fun ev ->
      match ev with
      | Degrade { res; at; factor } ->
          check_res res;
          if at < 0. then invalid_arg "Fault.run: negative event time";
          if factor <= 0. || factor > 1. then
            invalid_arg "Fault.run: degradation factor must be in (0, 1]";
          degrades.(res) <- (at, factor) :: degrades.(res)
      | Fail { res; at } ->
          check_res res;
          if at < 0. then invalid_arg "Fault.run: negative event time";
          fail_at.(res) <- Float.min fail_at.(res) at
      | Flaky { res; from_s; until_s } ->
          check_res res;
          if from_s < 0. || until_s <= from_s then
            invalid_arg "Fault.run: empty flaky window";
          flaky.(res) <- (from_s, until_s) :: flaky.(res))
    events;
  let degrades = Array.map (List.sort compare) degrades in
  let degr_m =
    Array.map
      (fun ds ->
        let m = ref 1. in
        Array.of_list
          (List.map
             (fun (_, factor) ->
               m := !m *. factor;
               !m)
             ds))
      degrades
  in
  {
    Engine.fail_at;
    flaky = Array.map (List.sort compare) flaky;
    degr_t = Array.map (fun ds -> Array.of_list (List.map fst ds)) degrades;
    degr_m;
    timeout_s = retry.timeout_s;
    backoff_s = retry.backoff_s;
    max_attempts = retry.max_attempts;
    attempts = Array.make n_ops 0;
  }

let run ?policy ?(telemetry = Telemetry.disabled) ?(retry = default_retry)
    ?(events = []) ?(recorder = Recorder.none) ~resources prog =
  if retry.timeout_s < 0. || retry.backoff_s < 0. || retry.max_attempts < 1 then
    invalid_arg "Fault.run: bad retry policy";
  let p = Engine.prepare ~telemetry ~resources prog in
  (* No events is a healthy run: bit for bit [Engine.run]. *)
  let faults =
    if events = [] then None
    else
      Some
        (fault_table ~retry ~n_ops:(Engine.prepared_ops p)
           ~n_res:(Array.length resources) events)
  in
  Telemetry.incr telemetry ~by:(List.length events) "fault.injected";
  let timing =
    Engine.run_prepared ?policy ~telemetry ~arena:(Engine.arena ()) ~recorder
      ?faults p
  in
  let retries, faulted_ops =
    match faults with
    | None -> (0, 0)
    | Some f ->
        Array.fold_left
          (fun (r, o) k -> (r + k, if k > 0 then o + 1 else o))
          (0, 0) f.Engine.attempts
  in
  (* Automatic post-mortem: a faulted run dumps its flight-recorder window
     into the Chrome exporter so the retry storm is visible next to the
     planning spans without any caller action. *)
  if recorder != Recorder.none && retries > 0 && Telemetry.tracing telemetry
  then ignore (Recorder.dump_slices recorder telemetry);
  { timing; retries; faulted_ops }
