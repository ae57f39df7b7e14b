(** Sharded LRU cache for cross-query solver results, keyed by the
    digest of the canonical (hash-consed, similarity-normalized) form
    of the query — see [Worker.cache_key].

    The cache is split into a power-of-two number of {e shards}, each
    an independently mutex-guarded LRU: a key hashes to exactly one
    shard, so concurrent workers hitting different keys never contend
    on a lock, and the hot head of a Zipfian workload spreads across
    shards instead of serializing on one global mutex (the old design;
    DESIGN.md §17).  Hit/miss/eviction counts are kept exactly per
    shard (under that shard's mutex) and mirrored into the global
    [service.cache.*] Obs counters; {!stats} surfaces both the
    aggregate and the per-shard gauges.

    Within a shard, recency is tracked with a lazy queue: every touch
    pushes a (key, stamp) pair and bumps the entry's stamp; eviction
    pops until it finds a pair whose stamp is current.  Amortized
    O(1), no doubly-linked list to get wrong. *)

module Obs = Sbd_obs.Obs

let c_hit = Obs.Counter.make "service.cache.hit"
let c_miss = Obs.Counter.make "service.cache.miss"
let c_evict = Obs.Counter.make "service.cache.evict"

type 'v shard = {
  mutex : Mutex.t;
  cap : int;
  table : (string, 'v * int ref) Hashtbl.t;  (** value, recency stamp *)
  order : (string * int) Queue.t;  (** touch log: key, stamp at touch *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type 'v t = { shards : 'v shard array; mask : int }

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

(** [create ~shards ~cap]: [cap] is the {e total} entry budget, split
    evenly across [shards] (rounded up to a power of two, default 1 —
    the single-lock behavior the unit tests pin down).  The concurrent
    server passes an explicit shard count sized to its worker pool. *)
let create ?(shards = 1) ~cap () =
  let shards = pow2_at_least (max 1 shards) 1 in
  let per_cap = max 1 ((max 1 cap + shards - 1) / shards) in
  {
    shards =
      Array.init shards (fun _ ->
          {
            mutex = Mutex.create ();
            cap = per_cap;
            table = Hashtbl.create (max 16 per_cap);
            order = Queue.create ();
            clock = 0;
            hits = 0;
            misses = 0;
            evictions = 0;
          });
    mask = shards - 1;
  }

let shard_of t key = t.shards.(Hashtbl.hash key land t.mask)
let num_shards t = Array.length t.shards
let shard_cap t = t.shards.(0).cap

let touch s key stamp =
  s.clock <- s.clock + 1;
  stamp := s.clock;
  Queue.push (key, s.clock) s.order

(* Drop touch-log entries that no longer reflect an entry's current
   recency; compact wholesale when the log outgrows the table. *)
let rec evict_one s =
  match Queue.take_opt s.order with
  | None -> ()
  | Some (key, st) -> (
    match Hashtbl.find_opt s.table key with
    | Some (_, stamp) when !stamp = st ->
      Hashtbl.remove s.table key;
      s.evictions <- s.evictions + 1;
      Obs.Counter.incr c_evict
    | _ -> evict_one s (* stale log entry *))

let compact s =
  if Queue.length s.order > (8 * s.cap) + 64 then begin
    let live = Queue.create () in
    Queue.iter
      (fun (key, st) ->
        match Hashtbl.find_opt s.table key with
        | Some (_, stamp) when !stamp = st -> Queue.push (key, st) live
        | _ -> ())
      s.order;
    Queue.clear s.order;
    Queue.transfer live s.order
  end

let find t key =
  let s = shard_of t key in
  Mutex.protect s.mutex (fun () ->
      match Hashtbl.find_opt s.table key with
      | Some (v, stamp) ->
        touch s key stamp;
        s.hits <- s.hits + 1;
        Obs.Counter.incr c_hit;
        Some v
      | None ->
        s.misses <- s.misses + 1;
        Obs.Counter.incr c_miss;
        None)

let put t key v =
  let s = shard_of t key in
  Mutex.protect s.mutex (fun () ->
      (match Hashtbl.find_opt s.table key with
      | Some (_, stamp) ->
        Hashtbl.replace s.table key (v, stamp);
        touch s key stamp
      | None ->
        while Hashtbl.length s.table >= s.cap do
          evict_one s
        done;
        let stamp = ref 0 in
        Hashtbl.add s.table key (v, stamp);
        touch s key stamp);
      compact s)

let sum_over t f =
  Array.fold_left (fun acc s -> acc + Mutex.protect s.mutex (fun () -> f s)) 0 t.shards

let size t = sum_over t (fun s -> Hashtbl.length s.table)
let hits t = sum_over t (fun s -> s.hits)
let misses t = sum_over t (fun s -> s.misses)
let evictions t = sum_over t (fun s -> s.evictions)

let hit_rate t =
  let h = float_of_int (hits t) and m = float_of_int (misses t) in
  h /. Float.max (h +. m) 1.0

(** Per-shard (size, hits, misses, evictions) snapshot, shard order. *)
let shard_rows t : (int * int * int * int) list =
  Array.to_list
    (Array.map
       (fun s ->
         Mutex.protect s.mutex (fun () ->
             (Hashtbl.length s.table, s.hits, s.misses, s.evictions)))
       t.shards)

let stats t : (string * float) list =
  let rows = shard_rows t in
  let agg f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let aggregate =
    [
      ("service.cache.size", float_of_int (agg (fun (s, _, _, _) -> s)));
      ( "service.cache.cap",
        float_of_int (num_shards t * shard_cap t) );
      ("service.cache.shards", float_of_int (num_shards t));
      ("service.cache.hits", float_of_int (agg (fun (_, h, _, _) -> h)));
      ("service.cache.misses", float_of_int (agg (fun (_, _, m, _) -> m)));
      ("service.cache.evictions", float_of_int (agg (fun (_, _, _, e) -> e)));
    ]
  in
  let per_shard =
    if num_shards t = 1 then []
    else
      List.concat
        (List.mapi
           (fun i (sz, h, m, e) ->
             let name fld = Printf.sprintf "service.cache.shard%d.%s" i fld in
             [
               (name "size", float_of_int sz);
               (name "hits", float_of_int h);
               (name "misses", float_of_int m);
               (name "evictions", float_of_int e);
             ])
           rows)
  in
  aggregate @ per_shard
