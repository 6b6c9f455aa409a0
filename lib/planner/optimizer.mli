(** End-to-end authorization-aware planning (Sec. 6's five steps).

    Given a query plan, a policy, the participating subjects, prices and
    network: resolve scheme conflicts, compute candidates (step 1),
    choose a minimum-cost assignment (step 2, DP), inject minimal
    encryption/decryption (step 3), derive the plan keys (step 4), and
    build the dispatch requests (step 5). *)

open Relalg

type result = {
  config : Authz.Opreq.config;  (** after conflict resolution *)
  candidates : Authz.Candidates.t;
  assignment : Authz.Subject.t Authz.Imap.t;
  extended : Authz.Extend.t;
  clusters : Authz.Plan_keys.cluster list;
  requests : Authz.Dispatch.request list;
  cost : Cost.breakdown;
  scheme_of : Attr.t -> Mpq_crypto.Scheme.t;
}

exception No_candidate of string
(** Raised when some operation admits no authorized executor — the query
    cannot run under the policy. *)

exception User_not_authorized of string
(** Raised when [deliver_to] is given but that subject is not authorized
    for some base relation the query reads (Sec. 6: "a user requesting
    query execution is required to be authorized to access all data that
    are input to the query"). *)

exception Verification_failed of string
(** Raised by the post-planning self-check when the independent static
    verifier ([Verify.Verifier]) finds an [Error]-severity diagnostic in
    the produced plan. Indicates a planner bug, never a policy problem. *)

val fingerprint : Authz.Subject.t Authz.Imap.t -> string
(** Canonical key of an assignment (the local-search memo key): node
    ids and subjects, length-prefixed so distinct assignments cannot
    collide by concatenation (see {!Fingerprint}). *)

val environment_fingerprint :
  ?tenant:string ->
  policy:Authz.Authorization.t ->
  subjects:Authz.Subject.t list ->
  ?config:Authz.Opreq.config ->
  ?pricing:Pricing.t ->
  ?network:Network.t ->
  ?deliver_to:Authz.Subject.t ->
  ?max_latency:float ->
  unit ->
  string
(** Fingerprint of every planning input except the query itself. The
    serving layer computes it once per policy/config epoch: any change
    to the policy, the participating subjects, the operation
    requirements, prices, bandwidths, the recipient or the latency
    bound yields a different string, which rotates every cache key
    built from it (explicit invalidation — stale entries become
    unreachable). Defaults mirror {!plan}'s.

    [tenant] (default ["default"]) is folded in as its own field: the
    serving layer's multi-tenant registry names each tenant's planning
    environment, so structurally identical queries planned for
    different tenants — even under byte-identical policies — occupy
    disjoint key spaces in every cache keyed by this fingerprint. *)

val cache_key_of : env:string -> string -> string
(** [cache_key_of ~env qfp] is the plan-cache key for planning a query
    whose fingerprint is [qfp] under the environment fingerprinted as
    [env], each length-prefixed. The serve layer passes the query's
    shape key ({!Fingerprint.of_plan_shape}; node-id independent, so
    equal for any two parses of the same query text), and reuses it to
    rekey surviving cache entries under a new environment fingerprint
    without the query. *)

val self_check : bool ref
(** Whether {!plan} re-verifies its own output before returning it
    (default [true]; initialized to [false] when the [MPQ_SELF_CHECK]
    environment variable is ["0"]). The check is pure and adds one
    verifier pass per planned query. *)

val plan :
  policy:Authz.Authorization.t ->
  subjects:Authz.Subject.t list ->
  ?config:Authz.Opreq.config ->
  ?pricing:Pricing.t ->
  ?network:Network.t ->
  ?base:Estimate.base_stats ->
  ?deliver_to:Authz.Subject.t ->
  ?max_latency:float ->
  ?memoize:bool ->
  Plan.t ->
  result
(** [max_latency] (seconds) is the paper's performance threshold: among
    the explored assignments, the cheapest whose critical-path latency
    stays under the bound wins; when none qualifies, the lowest-latency
    one is returned (cost is secondary at that point).

    [memoize] (default [true]) caches the exact re-costing of the local
    search by assignment fingerprint: the two polish sweeps (and the DP
    round seeds) revisit many identical assignments, whose extension and
    costing are deterministic in the assignment. Planning output is
    identical either way — [false] exists for benchmarking the
    unmemoized baseline (see [bench/planner_bench.ml]). *)

val report : result -> string
(** Human-readable planning report: annotated plan, keys, requests,
    cost. *)
