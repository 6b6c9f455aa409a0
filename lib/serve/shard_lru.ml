(* Sharded only where concurrency needs it, global where determinism
   needs it: per-shard hashtables + mutexes let worker domains probe
   concurrently, while one global recency list under one global
   capacity — owned by the coordinator, the sole mutator — keeps the
   eviction sequence a pure function of the op sequence, independent of
   the shard count. A per-shard capacity split would make the victim
   depend on how keys happened to hash, breaking the differential
   shard-determinism guarantee. *)

type 'a node = {
  mutable key : string;
  skey : string;  (* shard key: fixed for the node's lifetime *)
  mutable value : 'a;
  mutable prev : 'a node option;  (* toward the head (more recent) *)
  mutable next : 'a node option;  (* toward the tail (less recent) *)
}

type 'a shard = {
  table : (string, 'a node) Hashtbl.t;
  lock : Mutex.t;
  mutable probes : int;  (* worker peeks landing here *)
}

type 'a t = {
  cap : int;
  shards : 'a shard array;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
}

let create ~capacity ~shards =
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Shard_lru.create: capacity %d < 1" capacity);
  if shards < 1 then
    invalid_arg (Printf.sprintf "Shard_lru.create: shards %d < 1" shards);
  {
    cap = capacity;
    shards =
      Array.init shards (fun _ ->
          { table = Hashtbl.create (2 * ((capacity / shards) + 1));
            lock = Mutex.create (); probes = 0 });
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
  }

let capacity t = t.cap
let shards t = Array.length t.shards

(* FNV-1a over the shard key: stable across runs (no Hashtbl.hash seed
   dependence), so shard placement — and the per-shard probe counters
   the bench reports — are reproducible. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
             0x100000001b3L)
    s;
  !h

let shard_index t skey =
  Int64.to_int (fnv1a skey) land max_int mod Array.length t.shards

let shard_of t ~skey = shard_index t skey
let shard t skey = t.shards.(shard_index t skey)

let length t =
  Array.fold_left (fun acc s -> acc + Hashtbl.length s.table) 0 t.shards

let locked s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

(* list surgery: coordinator-only, so no lock — workers never follow
   prev/next pointers *)
let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match n.prev with
  | None -> ()  (* already the head *)
  | Some _ ->
      unlink t n;
      push_front t n

let find t ~skey key =
  let s = shard t skey in
  match locked s (fun () -> Hashtbl.find_opt s.table key) with
  | Some n ->
      t.hits <- t.hits + 1;
      touch t n;
      Some n.value
  | None ->
      t.misses <- t.misses + 1;
      None

let mem t ~skey key =
  let s = shard t skey in
  locked s (fun () -> Hashtbl.mem s.table key)

let peek t ~skey key =
  let s = shard t skey in
  locked s (fun () ->
      s.probes <- s.probes + 1;
      match Hashtbl.find_opt s.table key with
      | Some n -> Some n.value
      | None -> None)

let evict_oldest t =
  match t.tail with
  | Some n ->
      unlink t n;
      let s = shard t n.skey in
      locked s (fun () -> Hashtbl.remove s.table n.key);
      t.evictions <- t.evictions + 1
  | None -> ()

let add t ~skey key value =
  let s = shard t skey in
  match locked s (fun () -> Hashtbl.find_opt s.table key) with
  | Some n ->
      n.value <- value;
      touch t n
  | None ->
      t.insertions <- t.insertions + 1;
      let n = { key; skey; value; prev = None; next = None } in
      locked s (fun () -> Hashtbl.replace s.table key n);
      push_front t n;
      if length t > t.cap then evict_oldest t

let remap t f =
  (* walk the global recency list MRU-first, as the single-table
     reference model (test/lru.ml) does; each
     node's shard is fixed (skey never changes), so the rewrite only
     ever touches one shard's table per node *)
  let dropped = ref 0 in
  let rec walk = function
    | None -> ()
    | Some n ->
        let next = ref n.next in
        let s = shard t n.skey in
        (match f n.key n.value with
        | None ->
            locked s (fun () -> Hashtbl.remove s.table n.key);
            unlink t n;
            incr dropped
        | Some (k', v') ->
            n.value <- v';
            if not (String.equal k' n.key) then
              locked s (fun () ->
                  Hashtbl.remove s.table n.key;
                  (match Hashtbl.find_opt s.table k' with
                  | Some clash when clash != n ->
                      (match !next with
                      | Some m when m == clash -> next := clash.next
                      | _ -> ());
                      unlink t clash;
                      incr dropped
                  | _ -> ());
                  n.key <- k';
                  Hashtbl.replace s.table k' n));
        walk !next
  in
  walk t.head;
  !dropped

let keys t =
  let rec collect acc = function
    | None -> List.rev acc
    | Some n -> collect (n.key :: acc) n.next
  in
  collect [] t.head

let clear t =
  Array.iter (fun s -> locked s (fun () -> Hashtbl.reset s.table)) t.shards;
  t.head <- None;
  t.tail <- None

let stats (t : _ t) =
  { hits = t.hits; misses = t.misses; insertions = t.insertions;
    evictions = t.evictions }

let probes t = Array.map (fun s -> s.probes) t.shards
