open Relalg

(* Hash-consed plan DAGs (ROADMAP item 2, after the
   jstolarek/algebra-dag idiom: an algebra over shared-node DAGs).

   Plans enter the system as trees with globally unique node ids; the
   store interns them bottom-up by canonical structural fingerprint
   (Fingerprint.of_plan encodings — collision-free, so equal
   fingerprints mean equal shapes by construction). Structurally
   identical subtrees — across the queries of a serve batch, across
   the cached TPC-H shapes, and even within one query — collapse onto
   one representative node, turning the forest of cached executable
   plans into a DAG whose shared nodes can be planned, verified and
   executed once.

   The store never rewrites a plan's semantics: [intern] returns a
   plan [equal_shape]-identical to its input, with physically shared
   subtrees. Consumers that label nodes per occurrence (the executor's
   position-derived encryption randomness) must therefore thread
   positions through their traversal (Plan.child_positions) rather
   than keying tables by node id — see Exec. *)

type info = {
  rep : Plan.t;  (* canonical representative (children interned) *)
  size : int;
  crypto_free : bool;
  mutable occurrences : int;
}

type t = {
  store : (string, info) Hashtbl.t;  (* structural fingerprint -> node *)
  reps : (int, info) Hashtbl.t;  (* representative's id -> its node *)
  fps : (int, string) Hashtbl.t;  (* physical node id -> fp memo *)
  mutable interned : int;  (* plans interned (root-level calls) *)
}

let create () =
  { store = Hashtbl.create 256; reps = Hashtbl.create 256;
    fps = Hashtbl.create 1024; interned = 0 }

(* Bottom-up memoized structural fingerprint: one Fingerprint.of_plan_via
   level per physical node, children read from the memo — linear total
   work over a batch even though subtree fingerprints nest. Byte-identical
   to Fingerprint.of_plan, so DAG keys line up with plan-cache keys. *)
let rec fingerprint t p =
  match Hashtbl.find_opt t.fps (Plan.id p) with
  | Some fp -> fp
  | None ->
      let fp = Fingerprint.of_plan_via (fingerprint t) p in
      Hashtbl.add t.fps (Plan.id p) fp;
      fp

(* A subtree is crypto-free when it produces no ciphertext: no
   Encrypt/Decrypt operation and no outsourced (encrypted-at-rest) base
   relation. Its result table is then a pure function of structure and
   stored data — independent of the subtree's preorder position in the
   enclosing plan — so results may be shared across occurrences at
   different positions. Anything touching ciphertext is position-bound:
   encryption randomness derives from preorder positions. *)
let rec crypto_free p =
  (match Plan.node p with
  | Plan.Encrypt _ | Plan.Decrypt _ -> false
  | Plan.Base s -> Attr.Set.is_empty (Schema.stored_encrypted s)
  | _ -> true)
  && List.for_all crypto_free (Plan.children p)

let rec intern_node t p =
  let children = Plan.children p in
  let interned = List.map (intern_node t) children in
  let p =
    if List.for_all2 ( == ) children interned then p
    else Plan.with_children p interned
  in
  let fp = fingerprint t p in
  match Hashtbl.find_opt t.store fp with
  | Some info ->
      info.occurrences <- info.occurrences + 1;
      info.rep
  | None ->
      let info =
        { rep = p; size = Plan.size p; crypto_free = crypto_free p;
          occurrences = 1 }
      in
      Hashtbl.add t.store fp info;
      Hashtbl.add t.reps (Plan.id p) info;
      p

let intern t p =
  t.interned <- t.interned + 1;
  intern_node t p

let rep_info t p = Hashtbl.find_opt t.reps (Plan.id p)

let find t p = Hashtbl.find_opt t.store (fingerprint t p)

(* A bound plan (Plan.bind over an interned one) against the store, as
   [intern] would see it but without inserting: every subtree occurrence
   whose shape the store holds counts one occurrence and is replaced by
   its representative, exactly as interning would; the rest — the nodes
   carrying values no resident plan has — stay as they are and never
   enter the store or the per-id memo. Their fingerprints live in a
   table local to the call, read through the returned function.
   Subtrees kept from the interned plan are representatives already:
   they are recognized by id and counted without fingerprinting. *)
let touch t p =
  let local = Hashtbl.create 16 in
  let rec fp p =
    match Hashtbl.find_opt t.fps (Plan.id p) with
    | Some f -> f
    | None -> (
        match Hashtbl.find_opt local (Plan.id p) with
        | Some f -> f
        | None ->
            let f = Fingerprint.of_plan_via fp p in
            Hashtbl.replace local (Plan.id p) f;
            f)
  in
  let rec count p =
    (match rep_info t p with
    | Some info -> info.occurrences <- info.occurrences + 1
    | None -> ());
    List.iter count (Plan.children p)
  in
  let rec go p =
    match rep_info t p with
    | Some info ->
        count p;
        info.rep
    | None -> (
        let children = Plan.children p in
        let touched = List.map go children in
        let p =
          if List.for_all2 ( == ) children touched then p
          else Plan.with_children p touched
        in
        match Hashtbl.find_opt t.store (fp p) with
        | Some info ->
            info.occurrences <- info.occurrences + 1;
            info.rep
        | None -> p)
  in
  let p = go p in
  (p, fp)

let occurrences t p =
  match find t p with Some i -> i.occurrences | None -> 0

let is_shared t p =
  match find t p with Some i -> i.occurrences > 1 | None -> false

type stats = {
  plans : int;  (* intern calls *)
  nodes : int;  (* distinct nodes in the store *)
  occurrences : int;  (* total occurrences across interned plans *)
  shared_nodes : int;  (* distinct nodes with > 1 occurrence *)
  shared_occurrences : int;
      (* occurrences beyond the first of each shared node: the count of
         subtrees the DAG representation did not have to materialize *)
  memoized : int;  (* node ids in the fingerprint memo *)
}

let stats t =
  let nodes = Hashtbl.length t.store in
  let occurrences, shared_nodes, shared_occurrences =
    Hashtbl.fold
      (fun _ (info : info) (occ, sn, so) ->
        ( occ + info.occurrences,
          (if info.occurrences > 1 then sn + 1 else sn),
          if info.occurrences > 1 then so + info.occurrences - 1 else so ))
      t.store (0, 0, 0)
  in
  { plans = t.interned; nodes; occurrences; shared_nodes;
    shared_occurrences; memoized = Hashtbl.length t.fps }

let clear t =
  Hashtbl.reset t.store;
  Hashtbl.reset t.reps;
  Hashtbl.reset t.fps;
  t.interned <- 0
