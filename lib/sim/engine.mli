(** Discrete-event timing simulation of a {!Program} on a set of resources.

    Every resource is a multi-lane FIFO server: a directed link (one lane per
    physical NVLink/PCIe channel) or a GPU compute engine. An op becomes
    ready when its dependencies and its stream predecessor have finished;
    after a [latency] pipeline delay it waits for a free lane and occupies
    it for [max (bytes / (bandwidth * bw_scale)) gap] seconds; its data is
    available [bytes / (bandwidth * bw_scale)] after service starts.

    The queueing policy models the CUDA behaviour discussed in paper
    section 4.2.2: [`Fair] serves waiting ops by readiness time (the
    behaviour Blink obtains through stream reuse), while [`Stream_priority]
    serves whole streams in stream-id order, starving late streams the way
    unmanaged CUDA scheduling can. *)

type resource = {
  bandwidth : float;  (** bytes/second per lane *)
  latency : float;
      (** pipeline delay: an op starts service no earlier than
          [ready + latency], but the wait does not occupy a lane — queued
          work hides it, like an asynchronous DMA queue *)
  lanes : int;  (** concurrent ops served *)
  gap : float;
      (** minimum lane occupancy per op (seconds): the cost of issuing the
          copy/sync commands, which caps how many tiny chunks a lane can
          push per second (paper section 4.2.1) *)
}

type policy = [ `Fair | `Stream_priority ]

type result = {
  makespan : float;  (** completion time of the last op (seconds) *)
  finish : float array;  (** per-op completion times *)
  start : float array;  (** per-op start-of-service times *)
  busy : float array;  (** per-resource total busy time (lane-seconds) *)
}

(** {2 Prepared schedules}

    The replay split: {!prepare} lowers a program once into an immutable
    schedule (flat per-op resource/duration/latency arrays, CSR
    dependents adjacency, initial pending counts), and {!run_prepared}
    executes it against a reusable {!arena} whose working arrays and
    heaps are reset in place — the steady-state path allocates (almost)
    nothing per run. {!run} is the thin prepare-then-run wrapper and
    produces bit-identical results. *)

type prepared
(** An immutable lowered schedule: safe to share across domains and to
    replay any number of times. *)

val prepare :
  ?telemetry:Blink_telemetry.Telemetry.t ->
  ?fuse:bool ->
  resources:resource array ->
  Program.t ->
  prepared
(** Validate and lower the program. Raises [Invalid_argument] if an op
    names an unknown resource or a resource spec is invalid
    (non-positive lanes, negative latency) — the same errors {!run}
    raised at the same point. Counts ["engine.prepares"] when telemetry
    is enabled.

    [fuse] (default [true]) enables prepare-time op fusion: maximal runs
    of back-to-back same-resource, same-stream ops whose interior
    members are gated only by their stream predecessor are dispatched as
    single fused schedule entries — interior members skip the event heap
    and the lane bookkeeping entirely. Fusion is applied only when a
    static contention analysis proves no op can ever wait for a lane
    (every resource's summed per-stream lane demand fits its lane
    count), which makes fused replay bit-identical — timing and data —
    to unfused; otherwise the schedule runs unfused even with
    [fuse:true]. Pass [~fuse:false] to force the unfused path (used by
    equivalence tests). *)

val prepared_program : prepared -> Program.t
val prepared_ops : prepared -> int

val fusion_enabled : prepared -> bool
(** Whether fusion was requested {e and} the contention analysis proved
    it exact. [false] means the schedule dispatches one op per event. *)

val fused_chains : prepared -> int
(** Number of fused chains (each replaces [length] heap events with 1). *)

val fused_ops : prepared -> int
(** Total ops covered by fused chains, heads included. *)

val fused_head : prepared -> int -> int
(** [fused_head p id] is the chain head the op is dispatched under — the
    fused→original attribution map. Returns [id] itself for unfused ops
    (and for chain heads). {!Recorder} and {!Critical_path} stay in
    original-op granularity: fused dispatch still emits one begin/end
    recorder pair and one start/finish entry per original op. *)

val fused_members : prepared -> int -> int list
(** [fused_members p head] lists a chain's member op ids in dispatch
    order ([[id]] if [id] heads no chain). *)

(** {2 Faulted runs}

    A fault table is the input of a faulted run: per-resource fault state
    plus the retry policy. {!Fault.run} builds it from injected events
    and is the intended producer; its documentation gives the fault
    model. *)

exception
  Unrecoverable of { op : int; resource : int; attempts : int }
    (** An op exhausted its retry budget in a faulted run; the resource is
        effectively lost and the caller must replan around it. *)

type faults = {
  fail_at : float array;
      (** per resource: time it stops serving ([infinity] = never) *)
  flaky : (float * float) list array;
      (** per resource: [\[from_s, until_s)] windows in which starting
          attempts fail, sorted by start *)
  degr_t : float array array;
      (** per resource: ascending times at which its rate changes *)
  degr_m : float array array;
      (** per resource: cumulative rate multiplier in force from
          [degr_t.(r).(i)] on *)
  timeout_s : float;  (** stall time before a failed attempt is detected *)
  backoff_s : float;  (** re-attempt k is issued [backoff_s *. 2. ** k]
                          after detection *)
  max_attempts : int;  (** total attempts per op, including the first *)
  attempts : int array;
      (** per op: failed attempts. Reset at the start of each run and
          written by it, so it holds the run's counts afterwards. *)
}

type arena
(** The engine's mutable working set (start/finish/busy/pending/ready
    arrays, event and waiting heaps), reset in place by each
    {!run_prepared}. Not safe to share across concurrent runs:
    {!run_prepared} atomically marks the arena in use for the duration
    of the run and raises [Invalid_argument] on a concurrent or
    reentrant run over the same arena instead of corrupting state. *)

val arena : unit -> arena
(** A fresh empty arena; its arrays are sized lazily to the first
    schedule it runs and resized only when the schedule shape changes. *)

val run_prepared :
  ?policy:policy ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  ?arena:arena ->
  ?recorder:Recorder.t ->
  ?faults:faults ->
  prepared ->
  result
(** Execute a prepared schedule. The result's [start]/[finish]/[busy]
    arrays {e alias the arena}: they are valid until the arena's next
    run. Copy them out to keep results across runs, or use a dedicated
    arena per result. When [arena] is omitted a domain-local scratch
    arena is used (each domain has its own, so concurrent planners don't
    race; successive runs on one domain overwrite each other's results).
    Raises [Invalid_argument] — without touching the arena — when the
    arena is already mid-run in this or another domain (see {!arena}),
    or when [faults] was built for a different shape of schedule.

    [faults] (default: none) makes the run a faulted one, through the
    same event loop. Each attempt's service is stretched by the
    resource's rate multiplier, and an attempt that fails holds its lane
    until it is detected, then re-enters the ready queue after its
    backoff. Faulted runs dispatch one op per event even on a fused
    schedule (fusion is exact only at nominal rates), [start]/[finish]
    are those of each op's successful attempt, and [busy] is summed at
    dispatch, failed attempts included. Counts ["engine.retries"] per
    re-issued attempt and, when [recorder] is on, writes a retry event
    per failed attempt. Raises {!Unrecoverable} when an op exhausts
    [max_attempts]; the arena is released either way. Without faults a
    run pays a single branch per op for this.

    Telemetry matches {!run}: counts ["engine.runs"]/["engine.ops_executed"],
    observes ["engine.makespan_s"], and when tracing records the
    ["engine.run"] span plus one simulated-time slice per op.

    [recorder] (default {!Recorder.none}, inert) receives a begin and an
    end event per dispatched op via inline preallocated-array stores:
    zero minor allocation on the steady-state path, so recording can
    stay always-on. The ring keeps the most recent window and is dumped
    on demand with {!Recorder.to_json} / {!Recorder.dump_slices}. *)

val run :
  ?policy:policy ->
  ?telemetry:Blink_telemetry.Telemetry.t ->
  ?fuse:bool ->
  resources:resource array ->
  Program.t ->
  result
(** [prepare] + [run_prepared] on a fresh arena: results are independent
    across calls. Raises [Invalid_argument] as {!prepare} does.
    [fuse] is passed through to {!prepare} (default on; bit-identical
    either way).

    [telemetry] (default {!Blink_telemetry.Telemetry.disabled} — a no-op
    fast path that costs one match) counts runs/ops and observes the
    makespan; when tracing it additionally records a wall-clock
    ["engine.run"] span and one simulated-time slice per op, which the
    Chrome exporter merges with the planning spans. *)

val throughput : bytes:float -> result -> float
(** [bytes /. makespan], in GB/s when [bytes] is in bytes and times in
    seconds scaled accordingly (the code base uses bytes and seconds, so
    divide by 1e9 upstream; this helper returns bytes per second). *)
