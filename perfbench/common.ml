(* What every workload hands back to main.ml. *)

type outcome = {
  setup_s : float array;  (** one sample per repeated set-up *)
  latency_ms : Stats.metric;  (** the gated latency, in CPU ms *)
  named : Stats.metric list;  (** every figure printed in the table *)
  attempted : int;
  failed : int;
  determinism : (string * string) list;
      (** facts that must repeat exactly for the same seed *)
  layers : (string * float) list;  (** per-layer metrics (traced runs) *)
  trace : Trace.t option;  (** the traced run's spans *)
}

(* Per-layer metrics, in report order, with their units. A traced run
   reports every one; a layer a workload never calls reads 0. Times are
   self time per unit of the workload (a training step, a plan-churn
   sweep, a service pass over the trace). *)
let layer_metrics =
  [
    ("comm.marshal_in_ms", "ms");
    ("comm.marshal_out_ms", "ms");
    ("semantics.kernel_ms", "ms");
    ("engine.timing_ms", "ms");
    ("blink.lookup_ms", "ms");
    ("treegen.create_ms", "ms");
    ("chunking.miad_ms", "ms");
    ("codegen.build_ms", "ms");
    ("replan.fail_link_ms", "ms");
    ("replan.keys_ms", "ms");
    ("fingerprint.make_ms", "ms");
    ("store.create_ms", "ms");
    ("semantics.kernel_calls", "count");
    ("engine.ops", "count");
    ("comm.minor_words", "words");
    ("comm.major_words", "words");
    ("treegen.trees", "count");
    ("codegen.program_ops", "count");
    ("blink.invalidations", "count");
    ("store.hits", "count");
    ("store.misses", "count");
    ("store.evictions", "count");
    ("store.hit_rate", "ratio");
    ("store.fingerprints", "count");
    ("scheduler.admitted", "count");
    ("scheduler.rejected", "count");
    ("scheduler.verify_mismatches", "count");
    ("analysis.bound_pct.all_reduce", "%");
    ("analysis.bound_pct.broadcast", "%");
    ("analysis.bound_pct.reduce", "%");
    ("analysis.bound_pct.gather", "%");
    ("analysis.bound_pct.all_gather", "%");
    ("analysis.bound_pct.reduce_scatter", "%");
    ("ledger.uncovered_frac", "ratio");
    ("ledger.tracing_overhead_frac", "ratio");
    ("ledger.units", "count");
  ]

(* The span id for a timed layer (its metric name without "_ms"). *)
let layer_span t name = Trace.name t Trace.Layer name

(* Turn a trace ledger into layer times (ms) per [per] units (default:
   per unit span) plus the two ledger shares. [overhead] is the
   traced/untraced latency gap. *)
let ledger_metrics ?per tr ~overhead =
  let l = Trace.ledger tr in
  let per = Option.value per ~default:l.Trace.units in
  let per_unit s = 1e3 *. s /. float (max 1 per) in
  List.map (fun (name, s) -> (name ^ "_ms", per_unit s)) l.Trace.layer_s
  @ [
      ("ledger.uncovered_frac", l.Trace.uncovered_s /. l.Trace.unit_s);
      ("ledger.tracing_overhead_frac", overhead);
      ("ledger.units", float l.Trace.units);
    ]

(* Process CPU time (user + system), in seconds. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [f ()] with its wall and CPU seconds. *)
let timed f =
  let c0 = cpu_now () and t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  (x, t1 -. t0, cpu_now () -. c0)

let wall f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* Repeat [f] at least [min_reps] times and until [seconds] have passed. *)
let repeat_for ~seconds ~min_reps f =
  let t0 = Unix.gettimeofday () in
  let rec go i =
    if i < min_reps || Unix.gettimeofday () -. t0 < seconds then begin
      f i;
      go (i + 1)
    end
  in
  go 0

let collectives =
  Blink_core.Plan.
    [ All_reduce; Broadcast; Reduce; Gather; All_gather; Reduce_scatter ]

(* Digest of deterministic facts: floats with every bit. *)
let fact_float x = Printf.sprintf "%h" x
let fact_int = string_of_int
