(* Span recorder for the traced run. Spans are recorded from the
   benchmark's own code around the public calls into each layer, kept in
   preallocated arrays, and written out only when the run ends.

   A span is a [Unit] (one step, sweep or service pass: the call whose
   wall time the ledger splits), a [Call] (a container such as one
   collective inside a step), a [Layer], or [Bench]: the benchmark's own
   bookkeeping (output checks), which is cut out of the unit's wall
   time. A span's self time is its duration minus the time its children
   cover; layers never nest, so the self time of every [Unit] and [Call]
   span is wall time no layer accounts for. *)

type kind = Unit | Call | Layer | Bench

type t = {
  on : bool;  (** false: enter and leave record nothing *)
  mutable names : string array;
  mutable kinds : kind array;
  mutable n_names : int;
  ids : (string, int) Hashtbl.t;
  mutable name : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable group : int array;
  mutable n : int;
  mutable stack : int array;
  mutable depth : int;
  mutable group_id : int;
}

let create ?(on = true) () =
  let cap = 1024 in
  {
    on;
    names = Array.make 64 "";
    kinds = Array.make 64 Layer;
    n_names = 0;
    ids = Hashtbl.create 64;
    name = Array.make cap 0;
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    parent = Array.make cap (-1);
    group = Array.make cap 0;
    n = 0;
    stack = Array.make 16 (-1);
    depth = 0;
    group_id = 0;
  }

let now = Unix.gettimeofday

(* Interned span name; the first registration fixes its kind. *)
let name t kind s =
  match Hashtbl.find_opt t.ids s with
  | Some i -> i
  | None ->
      let i = t.n_names in
      if i = Array.length t.names then begin
        t.names <- Array.append t.names (Array.make i "");
        t.kinds <- Array.append t.kinds (Array.make i Layer)
      end;
      t.names.(i) <- s;
      t.kinds.(i) <- kind;
      t.n_names <- i + 1;
      Hashtbl.add t.ids s i;
      i

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- extend t.name 0;
  t.start <- extend t.start 0.;
  t.stop <- extend t.stop 0.;
  t.parent <- extend t.parent (-1);
  t.group <- extend t.group 0

(* Open a span under the innermost open one. A [Unit] span starts a new
   group: every span opened until it closes shares its id. *)
let enter t nm =
  if not t.on then -1
  else begin
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.n <- i + 1;
    if t.kinds.(nm) = Unit then t.group_id <- t.group_id + 1;
    t.name.(i) <- nm;
    t.parent.(i) <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
    t.group.(i) <- t.group_id;
    if t.depth = Array.length t.stack then
      t.stack <- Array.append t.stack (Array.make t.depth (-1));
    t.stack.(t.depth) <- i;
    t.depth <- t.depth + 1;
    t.start.(i) <- now ();
    i
  end

(* Close the innermost span, optionally renaming it: whether a plan
   lookup was a hit or a miss is known only once it returns. *)
let leave ?rename t i =
  if t.on then begin
    t.stop.(i) <- now ();
    if t.depth = 0 || t.stack.(t.depth - 1) <> i then
      invalid_arg "Trace.leave: spans must close innermost first";
    t.depth <- t.depth - 1;
    Option.iter (fun nm -> t.name.(i) <- nm) rename
  end

let span t nm f =
  let s = enter t nm in
  match f () with
  | x ->
      leave t s;
      x
  | exception e ->
      leave t s;
      raise e

(* Self time of every span: its duration minus its children's. *)
let self_times t =
  let self = Array.init t.n (fun i -> t.stop.(i) -. t.start.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. (t.stop.(i) -. t.start.(i))
  done;
  self

type ledger = {
  layer_s : (string * float) list;  (** total self seconds per layer *)
  units : int;
  unit_s : float;  (** summed wall time of the unit spans, minus checks *)
  uncovered_s : float;  (** self time of units and calls *)
}

let ledger t =
  let self = self_times t in
  let per = Array.make t.n_names 0. in
  let units = ref 0 and unit_s = ref 0. and uncovered = ref 0. in
  for i = 0 to t.n - 1 do
    let nm = t.name.(i) in
    per.(nm) <- per.(nm) +. self.(i);
    match t.kinds.(nm) with
    | Layer -> ()
    | Bench -> unit_s := !unit_s -. (t.stop.(i) -. t.start.(i))
    | Call -> uncovered := !uncovered +. self.(i)
    | Unit ->
        incr units;
        unit_s := !unit_s +. (t.stop.(i) -. t.start.(i));
        uncovered := !uncovered +. self.(i)
  done;
  let layer_s =
    List.filter_map
      (fun i -> if t.kinds.(i) = Layer then Some (t.names.(i), per.(i)) else None)
      (List.init t.n_names Fun.id)
  in
  { layer_s; units = !units; unit_s = !unit_s; uncovered_s = !uncovered }

(* Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
   event per span, with its group id and parent index as arguments. *)
let write_chrome t path =
  let oc = open_out path in
  let t0 = if t.n = 0 then 0. else t.start.(0) in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to t.n - 1 do
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"id\":%d}}"
      t.names.(t.name.(i))
      ((t.start.(i) -. t0) *. 1e6)
      ((t.stop.(i) -. t.start.(i)) *. 1e6)
      i t.parent.(i) t.group.(i)
  done;
  output_string oc "\n]}\n";
  close_out oc
