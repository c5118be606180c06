(** Domain-safe, fingerprint-keyed value store with FIFO capacity
    eviction — the shared home of compiled plans.

    Entries live in per-fingerprint buckets (see {!Fingerprint}): two
    handles share entries iff their fingerprint ids are equal, which
    guarantees bit-identical construction inputs. A single mutex guards
    every operation; builds run {e outside} the lock with a double-checked
    insert (first writer wins), so concurrent tenants never block on each
    other's compilation.

    Two entry classes: counted, evictable entries ({!find_or_build},
    {!insert_built} — compiled plans) participate in the hit/miss
    counters and the global FIFO capacity bound; uncounted, non-evictable
    entries ({!memo}, {!add} — topology packings, tuned chunks) do
    neither, so [max_plans] bounds exactly the number of cached plans.
    FIFO records carry per-bucket insertion epochs: migration and
    re-insertion leave stale records behind, which eviction skips without
    counting; once stale records outnumber live ones the queue is
    compacted in place, so it stays linear in the live entry count even
    on unbounded stores under migration churn. *)

type stats = {
  entries : int;  (** live evictable (plan) entries *)
  fingerprints : int;  (** non-empty buckets = unique fingerprint ids *)
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;  (** entries dropped by {!migrate} classification *)
  contingency_hits : int;
      (** fault replans answered by a prewarmed contingency bucket *)
  contingency_misses : int;  (** fault replans that had to plan live *)
}

type ('k, 'v) t

val create : ?max_plans:int -> unit -> ('k, 'v) t
(** [max_plans] bounds the evictable entries across {e all} buckets
    (unbounded by default; raises [Invalid_argument] if non-positive).
    When at capacity, inserts first evict the FIFO-oldest live entry. *)

val find_or_build :
  ('k, 'v) t -> fp:string -> 'k -> build:(unit -> 'v) -> [ `Hit | `Miss of int ] * 'v
(** Counted lookup. On a miss, [build] runs outside the lock and the
    result is inserted as an evictable entry; [`Miss n] reports the [n]
    entries evicted to make room. If a concurrent builder inserted first,
    its value wins (the miss is still counted). *)

val insert_built : ('k, 'v) t -> fp:string -> 'k -> 'v -> int option
(** Insert an externally built value as a counted miss (prewarm path),
    returning [Some] of the evictions performed. [None] when the key is
    already present: the existing entry is kept and nothing is counted. *)

val memo : ('k, 'v) t -> fp:string -> 'k -> build:(unit -> 'v) -> 'v
(** Uncounted, non-evictable memoization: build outside the lock,
    first writer wins. For topology packings and other per-fingerprint
    derived state that must not count against [max_plans]. *)

val find_opt : ('k, 'v) t -> fp:string -> 'k -> 'v option
(** Uncounted lookup. *)

val add : ('k, 'v) t -> fp:string -> 'k -> 'v -> unit
(** Uncounted, non-evictable insert; no-op when the key is present. *)

val migrate :
  ('k, 'v) t ->
  from_:string ->
  to_:string ->
  classify:('k -> 'v -> [ `Copy | `Drop | `Skip ]) ->
  drop_source:bool ->
  int * int
(** Move a handle's view from one fingerprint to another after a topology
    mutation, returning [(copied, dropped)]. Per source entry, [classify]
    decides: [`Copy] re-inserts it under [to_] (same class, original
    epoch order, capacity enforced); [`Drop] counts an invalidation;
    [`Skip] copies nothing and counts nothing. With [drop_source] (a
    handle-private store) the source bucket is emptied and removed —
    its FIFO records go stale; without it (a shared store) the source
    bucket is left intact, so one tenant's fault never poisons an
    isomorphic-but-healthy tenant's entries, and [`Drop] only expresses
    that the migrating handle no longer sees the entry. *)

val fifo_records : ('k, 'v) t -> int
(** Current FIFO queue length (live + stale records) — observability for
    the compaction bound; [stats.entries] counts only live ones. *)

val note_contingency : ('k, 'v) t -> hit:bool -> unit
(** Count a fault-driven replan against the contingency counters: [hit]
    when a prewarmed post-fault bucket answered it, miss when the handle
    had to replan live (see [Blink.prewarm ~contingencies]). *)

val stats : ('k, 'v) t -> stats
