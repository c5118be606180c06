(* Sample summaries and result printing. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an already sorted array. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (p /. 100. *. float n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 50.
let mean xs = Array.fold_left ( +. ) 0. xs /. float (Array.length xs)

(* The highest whole percentile that still leaves at least ten samples
   above it, or [None] when there are fewer than twenty samples (the
   median itself would have fewer than ten beyond it). *)
let tail_percentile n =
  if n < 20 then None
  else Some (int_of_float (floor (100. *. (1. -. (10. /. float n)))))

(* Samples grouped by key, in first-seen key order. *)
let by_key keyed =
  let h = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (k, x) ->
      match Hashtbl.find_opt h k with
      | Some l -> Hashtbl.replace h k (x :: l)
      | None ->
          order := k :: !order;
          Hashtbl.add h k [ x ])
    keyed;
  List.rev_map (fun k -> (k, Array.of_list (Hashtbl.find h k))) !order

let geomean xs =
  exp (Array.fold_left (fun a x -> a +. log x) 0. xs /. float (Array.length xs))

(* A named end-to-end figure as printed in the table: its value, unit and
   the number of samples behind it. *)
type metric = {
  name : string;
  unit_ : string;
  value : float;
  n : int;
  tail : (int * float) option;  (** (percentile, value) *)
}

let scalar ?(n = 1) name unit_ value = { name; unit_; value; n; tail = None }

(* Median of a timing series, with its tail percentile. *)
let timing name unit_ samples =
  let a = sorted samples in
  let n = Array.length a in
  {
    name;
    unit_;
    value = percentile_sorted a 50.;
    n;
    tail = Option.map (fun p -> (p, percentile_sorted a (float p))) (tail_percentile n);
  }

let print_table oc metrics =
  Printf.fprintf oc "%-24s %16s  %-6s %6s  %s\n" "metric" "value" "unit" "n" "tail";
  List.iter
    (fun m ->
      Printf.fprintf oc "%-24s %16.6g  %-6s %6d  %s\n" m.name m.value m.unit_ m.n
        (match m.tail with
        | Some (p, v) -> Printf.sprintf "p%d=%.6g" p v
        | None -> "-"))
    metrics

(* JSON number with every digit; non-finite values have no JSON form. *)
let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else invalid_arg "Stats.json_float: non-finite value"
