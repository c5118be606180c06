(** Flight recorder: a preallocated fixed-size ring buffer of op
    begin/end/retry events, written by the engine's dispatch hot path.

    The recorder exists to answer "what was the engine doing just before
    this run misbehaved?" without paying for it when nothing misbehaves:
    every write is a handful of array stores into preallocated int/float
    arrays (zero minor allocation, arena-style), so it stays on even in
    the cluster service's steady state. When the ring is full, new events
    overwrite the oldest — a crash or retry always finds the most recent
    window of activity.

    The representation is exposed so {!Engine.run_prepared} can inline
    its stores (an [record] call taking a [float] argument would box it;
    direct float-array stores do not). Treat the fields as private
    outside [lib/sim]. *)

type t = {
  mutable head : int;
      (** total events ever written; the ring holds the last
          [capacity] of them *)
  mask : int;  (** capacity - 1 (capacity is a power of two) *)
  ev_kind : int array;  (** 0 = begin, 1 = end, 2 = retry *)
  ev_op : int array;  (** op id within the recorded program *)
  ev_res : int array;  (** resource id; -1 for delay/unresourced ops *)
  ev_time : float array;  (** simulated seconds *)
}

val create : ?capacity:int -> unit -> t
(** A fresh recorder holding the last [capacity] events (default 4096,
    rounded up to a power of two; an op contributes a begin and an end
    event, so the default windows the last ~2k ops). All memory is
    allocated here, none per event. *)

val none : t
(** Shared inert sentinel (capacity 1): lets the engine hoist a single
    physical-equality check out of its dispatch loop instead of matching
    an option per op. Never written through. *)

val capacity : t -> int

val recorded : t -> int
(** Total events written since the last {!clear} (monotone; exceeds
    [capacity] once the ring wraps). *)

val length : t -> int
(** Events currently held: [min (recorded t) (capacity t)]. *)

val dropped : t -> int
(** Events overwritten by wrap-around: [max 0 (recorded - capacity)]. *)

val clear : t -> unit

type kind = Begin | End | Retry

type event = { kind : kind; op : int; res : int; time : float }

val record : t -> kind -> op:int -> res:int -> time:float -> unit
(** Append one event (cold-path convenience: the engine writes retry
    events through it and inlines its begin/end stores). *)

val events : t -> event list
(** Surviving events, oldest first. Begin/end pairs are written together
    at dispatch (the simulator fixes an op's finish when it starts
    service), so a pair is either wholly present or its begin has been
    overwritten by wrap-around. *)

val to_json : t -> Blink_telemetry.Json.t
(** Dump the ring:
    [{"capacity", "recorded", "dropped", "events": [{"kind", "op",
    "res", "t"}...]}] — round-trips through
    {!Blink_telemetry.Json.parse_result}. *)

val dump_slices : t -> Blink_telemetry.Telemetry.t -> int
(** Emit the surviving window into the Chrome-trace exporter: one
    simulated-time slice per matched begin/end pair (track = resource)
    and one zero-width ["retry op#n"] slice per retry event. No-op
    (returning 0) unless the telemetry handle is tracing. Returns the
    number of slices emitted. *)
