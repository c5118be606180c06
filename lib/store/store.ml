type stats = {
  entries : int;
  fingerprints : int;
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  contingency_hits : int;
  contingency_misses : int;
}

type ('k, 'v) entry = { value : 'v; epoch : int; evictable : bool }

type ('k, 'v) t = {
  mutex : Mutex.t;
  buckets : (string, ('k, ('k, 'v) entry) Hashtbl.t) Hashtbl.t;
  (* Global FIFO over evictable entries. Records carry the insertion
     epoch: migrations drop or move entries without draining the queue,
     and a key can re-enter under a fresh epoch, so the queue holds stale
     records — eviction pops until a (fingerprint, key, epoch) still
     matches a live entry, and only those count as evictions. Every live
     evictable entry has exactly one matching record, so the loop always
     makes progress while over capacity. *)
  fifo : (string * 'k * int) Queue.t;
  mutable next_epoch : int;
  mutable evictable_count : int;
  (* Records in [fifo] whose entry a migration already removed: eviction
     pops them lazily, but an unbounded (or large-cap) store may never
     evict, so [compact_fifo] rebuilds the queue once stale records
     outnumber live ones. Invariant:
     [Queue.length fifo = evictable_count + stale_records]. *)
  mutable stale_records : int;
  max_plans : int option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable contingency_hits : int;
  mutable contingency_misses : int;
}

let create ?max_plans () =
  (match max_plans with
  | Some n when n <= 0 -> invalid_arg "Store.create: max_plans must be positive"
  | _ -> ());
  {
    mutex = Mutex.create ();
    buckets = Hashtbl.create 32;
    fifo = Queue.create ();
    next_epoch = 0;
    evictable_count = 0;
    stale_records = 0;
    max_plans;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    contingency_hits = 0;
    contingency_misses = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* All helpers below run under the lock. *)

let bucket t fp =
  match Hashtbl.find_opt t.buckets fp with
  | Some b -> b
  | None ->
      let b = Hashtbl.create 8 in
      Hashtbl.add t.buckets fp b;
      b

let find_entry t fp key =
  match Hashtbl.find_opt t.buckets fp with
  | None -> None
  | Some b -> Hashtbl.find_opt b key

(* Pop stale records silently; evict live FIFO-oldest entries while at or
   over capacity — matching the evict-before-insert discipline of the
   old per-handle cache, so a full cache holds exactly [max_plans]
   entries after every insert. *)
let evict_over_cap t =
  match t.max_plans with
  | None -> 0
  | Some cap ->
      let n = ref 0 in
      while t.evictable_count >= cap do
        let fp, key, epoch = Queue.pop t.fifo in
        match find_entry t fp key with
        | Some e when e.epoch = epoch && e.evictable ->
            let b = Hashtbl.find t.buckets fp in
            Hashtbl.remove b key;
            if Hashtbl.length b = 0 then Hashtbl.remove t.buckets fp;
            t.evictable_count <- t.evictable_count - 1;
            t.evictions <- t.evictions + 1;
            incr n
        | _ -> t.stale_records <- t.stale_records - 1
      done;
      !n

(* Rebuild the FIFO keeping only records that still name a live evictable
   entry (order preserved), once stale records dominate — O(live) per
   O(stale) removals, so churn-heavy unbounded stores stay linear in
   their live size instead of growing a queue forever. *)
let compact_fifo t =
  if t.stale_records > 64 && t.stale_records > t.evictable_count then begin
    let live = Queue.create () in
    Queue.iter
      (fun ((fp, key, epoch) as r) ->
        match find_entry t fp key with
        | Some e when e.epoch = epoch && e.evictable -> Queue.push r live
        | _ -> ())
      t.fifo;
    Queue.clear t.fifo;
    Queue.transfer live t.fifo;
    t.stale_records <- 0
  end

let push t fp key value ~evictable =
  let epoch = t.next_epoch in
  t.next_epoch <- epoch + 1;
  Hashtbl.replace (bucket t fp) key { value; epoch; evictable };
  if evictable then begin
    t.evictable_count <- t.evictable_count + 1;
    Queue.push (fp, key, epoch) t.fifo
  end

(* ------------------------------------------------------------------ *)

let find_opt t ~fp key =
  with_lock t (fun () -> Option.map (fun e -> e.value) (find_entry t fp key))

let add t ~fp key value =
  with_lock t (fun () ->
      if find_entry t fp key = None then push t fp key value ~evictable:false)

let memo t ~fp key ~build =
  let existing = find_opt t ~fp key in
  match existing with
  | Some v -> v
  | None ->
      let v = build () in
      with_lock t (fun () ->
          match find_entry t fp key with
          | Some e -> e.value
          | None ->
              push t fp key v ~evictable:false;
              v)

let find_or_build t ~fp key ~build =
  let existing =
    with_lock t (fun () ->
        match find_entry t fp key with
        | Some e ->
            t.hits <- t.hits + 1;
            Some e.value
        | None ->
            t.misses <- t.misses + 1;
            None)
  in
  match existing with
  | Some v -> (`Hit, v)
  | None ->
      let v = build () in
      with_lock t (fun () ->
          match find_entry t fp key with
          | Some e -> (`Miss 0, e.value)
          | None ->
              let evicted = evict_over_cap t in
              push t fp key v ~evictable:true;
              (`Miss evicted, v))

let insert_built t ~fp key value =
  with_lock t (fun () ->
      match find_entry t fp key with
      | Some _ -> None
      | None ->
          t.misses <- t.misses + 1;
          let evicted = evict_over_cap t in
          push t fp key value ~evictable:true;
          Some evicted)

let migrate t ~from_ ~to_ ~classify ~drop_source =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.buckets from_ with
      | None -> (0, 0)
      | Some src ->
          (* Source-FIFO order (by insertion epoch) keeps the copies'
             eviction order deterministic. *)
          let items =
            Hashtbl.fold (fun k e acc -> (k, e) :: acc) src []
            |> List.sort (fun (_, a) (_, b) -> compare a.epoch b.epoch)
          in
          let copied = ref 0 and dropped = ref 0 in
          let remove_from_source k (e : ('k, 'v) entry) =
            if drop_source && to_ <> from_ then begin
              Hashtbl.remove src k;
              if e.evictable then begin
                t.evictable_count <- t.evictable_count - 1;
                t.stale_records <- t.stale_records + 1
              end
            end
          in
          List.iter
            (fun (k, e) ->
              (* An earlier copy's eviction can have removed this entry
                 already (tight caps); never resurrect it. *)
              match Hashtbl.find_opt src k with
              | Some live when live.epoch = e.epoch -> (
                  match classify k e.value with
              | `Drop ->
                  incr dropped;
                  t.invalidations <- t.invalidations + 1;
                  if drop_source then begin
                    Hashtbl.remove src k;
                    if e.evictable then begin
                      t.evictable_count <- t.evictable_count - 1;
                      t.stale_records <- t.stale_records + 1
                    end
                  end
              | `Copy ->
                  if to_ <> from_ && find_entry t to_ k = None then begin
                    incr copied;
                    if e.evictable then ignore (evict_over_cap t);
                    push t to_ k e.value ~evictable:e.evictable
                  end;
                  remove_from_source k e
                  | `Skip -> remove_from_source k e)
              | _ -> ())
            items;
          if drop_source && Hashtbl.length src = 0 then
            Hashtbl.remove t.buckets from_;
          compact_fifo t;
          (!copied, !dropped))

let fifo_records t = with_lock t (fun () -> Queue.length t.fifo)

let note_contingency t ~hit =
  with_lock t (fun () ->
      if hit then t.contingency_hits <- t.contingency_hits + 1
      else t.contingency_misses <- t.contingency_misses + 1)

let stats t =
  with_lock t (fun () ->
      {
        entries = t.evictable_count;
        fingerprints = Hashtbl.length t.buckets;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        invalidations = t.invalidations;
        contingency_hits = t.contingency_hits;
        contingency_misses = t.contingency_misses;
      })
