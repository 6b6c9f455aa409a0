(** Bounded LRU map split into N lock-guarded shards.

    The shape the multi-tenant server needs is concurrency on the read
    path and determinism on the write path, and those pull in opposite
    directions for a classic sharded cache (N independent LRUs make the
    eviction victim a function of the shard count). This implementation
    splits only what concurrency needs and keeps global what
    determinism needs:

    - {b Sharded:} the key → entry hashtable, one per shard, each
      guarded by its own mutex. A key lives in the shard selected by
      hashing its {e shard key} [skey] — the caller passes the
      structural fingerprint (query fingerprint for the plan cache,
      sub-tree fingerprint for the sub-plan cache), so rekeying an
      entry under a new environment fingerprint never migrates it
      across shards. Worker domains probe different shards without
      contending, and a worker probing shard [i] never waits on the
      coordinator mutating shard [j].
    - {b Global:} the recency list and the capacity. Both are owned by
      the coordinating (loop) thread, which is the only caller of the
      mutating operations — per-shard mutexes grant workers safe
      concurrent {!peek}s, they do not grant anyone else mutation
      rights. Because eviction walks one global tail under one global
      capacity, the cache's evolution is a pure function of the
      operation sequence: the surviving key set is identical at 1, 4
      or 16 shards (the shard-determinism differential test), exactly
      as a single-table LRU's is (the tests keep one, [test/lru.ml], as
      the reference model).

    Every operation takes the entry's shard key explicitly ([~skey])
    rather than re-deriving it, because the full cache key is an
    opaque length-prefixed composite the cache cannot parse. *)

type 'a t

val create : capacity:int -> shards:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1] or [shards < 1]. *)

val capacity : _ t -> int
val shards : _ t -> int
val length : _ t -> int

val shard_of : _ t -> skey:string -> int
(** The shard index [skey] hashes to (FNV-1a, stable across runs and
    platforms) — exposed for diagnostics and shard-occupancy stats. *)

val find : 'a t -> skey:string -> string -> 'a option
(** Refreshes the entry's recency and counts a hit or a miss.
    Coordinator-only: touches the global recency list. *)

val mem : _ t -> skey:string -> string -> bool
(** Pure probe: no recency refresh, no stats. *)

val peek : 'a t -> skey:string -> string -> 'a option
(** Lock-guarded pure lookup: takes the entry's shard mutex around the
    table read, touches no recency state and no statistics (a per-shard
    probe counter aside). This is the one operation worker domains may
    call, concurrently with each other and with coordinator mutations
    of {e other} shards. *)

val add : 'a t -> skey:string -> string -> 'a -> unit
(** Insert or replace, making the entry most recent; evicts the
    globally least recently used entry (whatever shard it lives in)
    when the cache is over capacity. Coordinator-only. *)

val remap : 'a t -> (string -> 'a -> (string * 'a) option) -> int
(** [remap t f] rewrites every binding in place, most recently used
    first, keeping each entry's recency position and shard ([f] may
    change the full key but not the shard key — the serve layer rekeys
    by environment fingerprint, which leaves the structural component
    alone). [None] drops the entry; on a new-key collision the later
    binding visited wins, as in the single-table reference model.
    Returns the number of
    entries dropped. Coordinator-only. *)

val keys : _ t -> string list
(** All keys, most recently used first — the global recency order, by
    construction independent of the shard count. *)

val clear : 'a t -> unit
(** Drop every entry (statistics are kept). *)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
}

val stats : _ t -> stats

val probes : _ t -> int array
(** Per-shard {!peek} counts, index = shard — the worker-side traffic
    distribution (the load-bench reports it as shard occupancy). *)
