(** Bounded single-table LRU map with string keys: the reference model
    for {!Serve.Shard_lru}, which replaced it as the serving layer's
    plan and sub-plan cache. The tests replay one operation stream
    through both and require the same keys, recency and statistics.

    Single-domain by design: the serving layer performs every cache
    operation on the coordinating domain, in request order, so the
    cache's evolution — and in particular which entries a bounded
    cache evicts — is a pure function of the request stream,
    independent of how many domains execute the work in between (the
    determinism the differential serve tests rely on).

    Recency is an intrusive doubly-linked list threaded through the
    hash-table entries (head = most recent, tail = victim), so find,
    insert, refresh and eviction are all O(1) — a cache pinned at
    capacity under overload pays constant time per insert, where a
    stamp-scan implementation would pay a full-table walk. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val capacity : _ t -> int
val length : _ t -> int

val find : 'a t -> string -> 'a option
(** Refreshes the entry's recency and counts a hit or a miss. *)

val mem : _ t -> string -> bool
(** Pure probe: no recency refresh, no stats. *)

val peek : 'a t -> string -> 'a option
(** Pure lookup: no recency refresh, no stats, no mutation. Because it
    touches nothing, concurrent [peek]s from several domains are safe
    as long as no mutating operation runs in parallel — the serving
    layer's exec phase reads the sub-plan cache this way against a
    frozen snapshot, deferring the [find]/[add] replay to the
    coordinator. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or replace, making the entry most recent; evicts the least
    recently used entry when the cache is over capacity. *)

val remap : 'a t -> (string -> 'a -> (string * 'a) option) -> int
(** [remap t f] rewrites every binding in place: [f key value] returns
    [None] to drop the entry or [Some (key', value')] to rebind it —
    the entry keeps its position in the recency list, so migration
    does not disturb LRU order (the stamp-preservation contract of the
    original implementation). Bindings are visited most recently used
    first. Returns the number of entries dropped. No statistics are
    recorded (this is maintenance, not traffic). When two bindings map
    to the same new key, the later one visited wins; callers rebinding
    under an injective key transformation (the serve layer's
    environment-fingerprint rekeying) never collide. *)

val keys : _ t -> string list
(** All keys, most recently used first — the cache's observable state,
    compared across job counts by the differential tests. *)

val clear : 'a t -> unit
(** Drop every entry (statistics are kept). *)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
}

val stats : _ t -> stats
