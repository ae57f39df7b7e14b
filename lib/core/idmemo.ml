(** Dense memo tables keyed by hash-cons ids.

    The regex and transition-regex layers assign ids densely from 0 in
    construction order, so a memo table keyed by id can be a growable
    array instead of a hash table: a lookup is one bounds check and one
    load -- no hashing, no bucket scan, no allocation.  This is the
    backing store for the hottest per-node caches ([Deriv.delta],
    [Tr.neg], [Tr.dnf], ...), where the hash-table lookup itself was a
    measurable share of cold derivation time.

    Not thread-safe; like the id spaces themselves, a table belongs to
    one solver worker (see the per-worker-instantiation invariant in
    tregex.mli). *)

type 'a t = { mutable arr : 'a option array; mutable count : int }

let create n = { arr = Array.make (max n 1) None; count = 0 }

(** [find m i]: the cached value for id [i], if any.  O(1); returns the
    [Some] cell written by {!set} (no allocation). *)
let find m i = if i < Array.length m.arr then Array.unsafe_get m.arr i else None

(** [set m i v]: cache [v] for id [i], growing the array geometrically
    (ids are dense, so the array stays within a small constant factor of
    the id space actually in use). *)
let set m i v =
  let n = Array.length m.arr in
  if i >= n then begin
    let arr' = Array.make (max (i + 1) (2 * n)) None in
    Array.blit m.arr 0 arr' 0 n;
    m.arr <- arr'
  end;
  (match Array.unsafe_get m.arr i with
  | None -> m.count <- m.count + 1
  | Some _ -> ());
  Array.unsafe_set m.arr i (Some v)

(** Number of cached entries.  O(1): {!set} counts the cells it fills,
    so the cache-pressure gauges that every service request reads cost
    a constant, not a scan of the id space. *)
let count m = m.count

(** Drop every entry, keeping the backing store's capacity. *)
let clear m =
  Array.fill m.arr 0 (Array.length m.arr) None;
  m.count <- 0
