(** Independent re-derivation of relation profiles (Def. 3.1, Fig. 2).

    This is the verifier's own implementation of the profile propagation
    rules, written from the paper and deliberately sharing no derivation
    code with [Authz.Profile.of_node] (or with [Extend]): a bug in the
    production propagation cannot hide from the checker by also living in
    it. Profiles are re-built bottom-up by direct record construction;
    only the plain data structures ([Profile.t], [Partition.t]) are
    shared. *)

open Relalg
open Authz

exception Not_derivable of int * string
(** Raised by {!strict} when an operator's precondition fails: node id
    and reason. *)

val strict : ?drop:int * Attr.t -> Plan.t -> (int, Profile.t) Hashtbl.t
(** Re-derive the profile of every node. [drop (id, a)] simulates the
    removal of attribute [a] from the [Encrypt] node [id] — used by the
    minimality checker: downstream decryptions of [a] become no-ops, and
    every other precondition stays strict. Raises {!Not_derivable}. *)

type memo
(** Cross-plan derivation sharing: a table of preorder profile vectors
    keyed by structural fingerprint. Two structurally identical
    subtrees — across the queries of a serve batch, or a hash-consed
    DAG node reached from several parents — derive identical profiles,
    so the second derivation replays the stored vector instead of
    re-running the Fig. 2 set computations. Only subtrees whose
    derivation raised no diagnostic are stored (a diagnostic names one
    plan's node id and does not transfer). Not synchronized: share a
    memo only among derivations run on one domain at a time. *)

val memo : fp:(Plan.t -> string) -> unit -> memo
(** [fp] must be a {e collision-free} structural fingerprint
    ({!Planner.Fingerprint.of_plan} or an equivalent memoized form):
    profile replay trusts it completely. *)

val memo_hits : memo -> int
(** Subtree derivations answered from the memo (tests/bench). *)

val memo_size : memo -> int
(** Stored subtree derivations. *)

val memo_clear : memo -> unit

val lenient :
  ?paths:(int, string) Hashtbl.t ->
  ?memo:memo ->
  Plan.t ->
  (int, Profile.t) Hashtbl.t * Diag.t list
(** Like {!strict} without [drop], but precondition violations are
    reported as [MPQ002] diagnostics and propagation continues on a
    best-effort profile (non-visible operands are skipped, crypto
    operations move only the attributes actually in the expected
    state). With [?memo], clean subtree derivations are shared across
    calls (byte-identical profiles either way). *)
