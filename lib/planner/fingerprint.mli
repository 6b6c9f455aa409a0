(** Canonical, collision-free fingerprints of planner inputs.

    The plan cache ([lib/serve]) keys entries by the planner's full
    input — query shape ({!of_plan_shape}), policy,
    operation-requirement config, prices, network — so distinct inputs
    {e must} never serialize to the same string. Every atomic field is therefore emitted
    length-prefixed ([<len>:<bytes>]) and every composite carries a
    constructor tag and an element count: no concatenation of fields
    can collide with a different field split, unlike naive
    [String.concat] keys (see the regression tests in
    [test/test_serve.ml]).

    Fingerprints are structural: plan node ids (fresh per parse) never
    appear, so re-parsing the same query yields the same fingerprint.
    They are not cryptographic hashes — equal fingerprints mean equal
    inputs by construction, and keys stay inspectable in debug
    output. *)

open Relalg

val field : Buffer.t -> string -> unit
(** Append one length-prefixed field: [<len>:<bytes>]. *)

val int_field : Buffer.t -> int -> unit
val float_field : Buffer.t -> float -> unit
(** Exact (bit-pattern) encoding, so [0.1 +. 0.2] and [0.3] differ. *)

val list_field : Buffer.t -> ('a -> string) -> 'a list -> unit
(** Count prefix followed by one field per element. *)

val of_value : Value.t -> string
val of_predicate : Predicate.t -> string

val of_plan : Plan.t -> string
(** Structural fingerprint of a query plan, independent of node ids:
    two plans have equal fingerprints iff {!Plan.equal_shape} holds. *)

val of_plan_via : (Plan.t -> string) -> Plan.t -> string
(** One node level of {!of_plan}, with child fingerprints delegated to
    the given function. [of_plan_via of_plan] ≡ [of_plan]; the
    hash-consed DAG store ({!Dag}) passes a memoized child function so
    a batch's subtree fingerprints are computed bottom-up in linear
    total time while staying byte-identical to {!of_plan}. *)

(** {2 Shape keys}

    A selection [a op x] moves only [a] into the operand's profile
    (Def. 3.1, Fig. 2): the constant [x] never reaches authorization,
    candidates, the minimal extension or the key clusters, and the
    cost model reads comparators, not values. Everything the planner
    decides is therefore a function of the query's {e shape}: the
    structural fingerprint with the values of [Cmp_const] and
    [In_list] atoms abstracted to their type tags (lists keep their
    length). LIKE patterns, comparators, attributes, [LIMIT] counts
    and UDF names stay exact. *)

type shape = {
  key : string;  (** the shape fingerprint *)
  literals : Value.t list;
      (** the abstracted values, in preorder: a node's own predicate
          (clause, then atom, then list element order) before its
          children, left to right — the order {!Relalg.Plan.bind}
          consumes *)
  literals_key : string;
      (** collision-free, bit-exact encoding of [literals] *)
}

val of_plan_shape : Plan.t -> shape
(** One traversal computing the shape key and the literal vector.
    [Plan.equal_shape a b] holds iff their shape keys and literal keys
    are both equal. *)

val exact_key : shape -> string
(** The shape key with the literal vector folded back in: equal iff
    the plans are {!Plan.equal_shape} — the key for callers that must
    not share work across literals. *)

val of_subject : Authz.Subject.t -> string
(** Role and name (two subjects may share a name across roles). *)

val of_policy : Authz.Authorization.t -> string
(** Schemas (sorted by relation name: name, owner, storage, typed
    columns in declaration order) plus rules (canonically sorted), so
    any grant or revocation of a single permission rotates the
    fingerprint. *)

val of_config : Authz.Opreq.config -> string
(** Capability flags, encryption-capable udfs (order-insensitive) and
    per-node forced-plaintext overrides. Note that [forced_plaintext]
    is keyed by plan-node ids, which are instance-specific: cache keys
    should be built from the {e input} config, before
    {!Authz.Opreq.resolve_conflicts} specializes it to a plan. *)
