(* The system under test and everything both benchmark runs share:
   options, the served service and its set-up, response comparison
   against the oracle, policy writes, the host guard, the workloads'
   request streams and report output. *)

open Relalg
module S = Serve.Service

let now = Unix.gettimeofday

(* ---------------------------------------------------------------- *)
(* options                                                           *)

type workload = Param | Churn

let workload_name = function
  | Param -> "tpch-param"
  | Churn -> "policy-churn"

type opts = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;
  flip : bool;  (* self-test: corrupt one response byte before checking *)
  trace_ops : int;  (* traced replay length; 0 = the workload's default *)
  rev : string;
}

let usage () =
  prerr_endline
    "usage: mpqbench --workload tpch-param|policy-churn --seed N \
     --seconds S --trace 0|1 [--out DIR] [--rev REV] [--trace-ops N] \
     [--flip-byte]";
  exit 1

let parse_args () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false in
  let out = ref "perfbench/out" and flip = ref false in
  let rev = ref "unknown" and trace_ops = ref 0 in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: r ->
        workload :=
          Some
            (match w with
            | "tpch-param" -> Param
            | "policy-churn" -> Churn
            | _ -> usage ());
        go r
    | "--seed" :: n :: r -> seed := int_of_string n; go r
    | "--seconds" :: n :: r -> seconds := float_of_string n; go r
    | "--trace" :: n :: r -> trace := n = "1"; go r
    | "--out" :: d :: r -> out := d; go r
    | "--rev" :: d :: r -> rev := d; go r
    | "--flip-byte" :: r -> flip := true; go r
    | "--trace-ops" :: n :: r -> trace_ops := int_of_string n; go r
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match !workload with
  | Some workload ->
      { workload; seed = !seed; seconds = !seconds; trace = !trace;
        out = !out; flip = !flip; trace_ops = !trace_ops; rev = !rev }
  | None -> usage ()

(* ---------------------------------------------------------------- *)
(* small statistics                                                  *)

let sorted_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* nearest-rank percentile of a sorted array *)
let pct a q =
  match Array.length a with
  | 0 -> nan
  | n -> a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l =
  let a = sorted_of l in
  match Array.length a with
  | 0 -> nan
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean l =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let ms dt = dt *. 1000.0

(* ---------------------------------------------------------------- *)
(* the system under test                                             *)

let subjects = Tpch.Scenarios.subjects
let user = Tpch.Scenarios.user
let base_policy tenant = Tpch.Scenarios.policy (Gen.scenario_of tenant)

(* TPC-H scale factor of the served tables (lineitem: ~600 rows). A
   miss costs ~10 ms here, mostly planning and OPE encryption, which
   lets tpch-param collect 1000 open-loop samples at a third of
   saturation within one run; at sf 0.001 a miss costs ~25 ms. *)
let sf = 0.0001

let make_tables () =
  let data = Tpch.Tpch_data.generate ~sf () in
  List.map
    (fun (s : Schema.t) ->
      (s.Schema.name, Engine.Table.of_schema s (List.assoc s.Schema.name data)))
    Tpch.Tpch_schema.all

let service_create ?pool ?(sharing = true) ~tables policy =
  S.create ?pool ~sharing ~pricing:Tpch.Scenarios.pricing
    ~base:(Tpch.Tpch_schema.base_stats ~sf)
    ~deliver_to:user ~udfs:Tpch.Tpch_queries.udf_impls ~policy ~subjects
    ~tables ()

(* the served service: one tenant per Sec. 7 scenario *)
let serving_service ?pool ~tables () =
  let svc = service_create ?pool ~tables (base_policy "UA") in
  Array.iter
    (fun id -> S.add_tenant svc ~id ~policy:(base_policy id) ())
    Gen.tenants;
  svc

(* Set-up as the measured run pays it: data generation, table build,
   service and tenant creation. *)
let setup () = serving_service ~tables:(make_tables ()) ()

(* ---------------------------------------------------------------- *)
(* responses, as compared                                            *)

type answer =
  | Tbl of string  (* the CSV block *)
  | Rej of string  (* a policy rejection, one line *)
  | Refused of string  (* shed / expired / parse error / ... *)
  | Missing  (* no reply at all *)

(* the server's one-line rendering of a multi-line refusal *)
let one_line msg =
  String.concat " | "
    (List.filter (fun x -> x <> "")
       (List.map String.trim (String.split_on_char '\n' msg)))

let answer_of_outcome = function
  | S.Table t -> Tbl (Engine.Csv.to_string t)
  | S.Rejected m -> Rej (one_line m)
  | S.Expired m -> Refused ("expired: " ^ m)

(* an in-process read as the server performs it: parse, serve, render;
   an exception is refused, as the server refuses it *)
let serve_read svc (inst : Gen.instance) =
  match
    let q = S.parse ~tenant:inst.Gen.tenant svc inst.Gen.sql in
    answer_of_outcome
      (S.submit_request svc (S.request ~tenant:inst.Gen.tenant q)).S.outcome
  with
  | a -> a
  | exception e -> Refused ("internal error: " ^ Printexc.to_string e)

(* one measured request *)
type rcd = {
  inst : Gen.instance;
  ver : int;  (* policy version of the UAPmix tenant when served *)
  due : float;
  mutable sent : float;
  mutable fin : float;
  mutable got : answer;
}

let rcd inst ver due =
  { inst; ver; due; sent = nan; fin = nan; got = Missing }

(* ---------------------------------------------------------------- *)
(* the oracle                                                        *)

(* Expected bytes come from an isolated (~sharing:false) single-tenant
   service per (tenant, policy version), memoized per instance: the
   served multi-tenant, shared, cached service must answer every
   request exactly as a fresh planner under the then-current policy
   would. [cost] is the paper's C_q of the oracle's plan. *)
type expected = { ans : answer; cost : float option }

type oracle = {
  o_tables : (string * Engine.Table.t) list;
  versions : Authz.Authorization.t array;  (* UAPmix policy versions *)
  services : (string * int, S.t) Hashtbl.t;
  memo : (string * int * string, expected) Hashtbl.t;
}

let oracle ~tables versions =
  { o_tables = tables; versions; services = Hashtbl.create 8;
    memo = Hashtbl.create 1024 }

let policy_of o tenant ver =
  if tenant = "UAPmix" then o.versions.(ver) else base_policy tenant

let key_of (inst : Gen.instance) ver =
  (inst.Gen.tenant, (if inst.Gen.tenant = "UAPmix" then ver else 0), inst.Gen.sql)

let compute o (inst : Gen.instance) ver =
  let tenant, ver, _ = key_of inst ver in
  let svc =
    match Hashtbl.find_opt o.services (tenant, ver) with
    | Some s -> s
    | None ->
        let s =
          service_create ~sharing:false ~tables:o.o_tables
            (policy_of o tenant ver)
        in
        Hashtbl.add o.services (tenant, ver) s;
        s
  in
  match S.submit_sql svc inst.Gen.sql with
  | r ->
      { ans = answer_of_outcome r.S.outcome;
        cost =
          Option.map
            (fun (p : Planner.Optimizer.result) ->
              Planner.Cost.total p.Planner.Optimizer.cost)
            r.S.planned }
  | exception e ->
      (* a crash is never an acceptable answer *)
      { ans = Refused ("oracle error: " ^ Printexc.to_string e); cost = None }

let expected o inst ver =
  let k = key_of inst ver in
  match Hashtbl.find_opt o.memo k with
  | Some e -> e
  | None ->
      let e = compute o inst ver in
      Hashtbl.add o.memo k e;
      e

(* Fill the memo for every record on [domains] domains — the load
   generator and the server have stopped, so the cores are free. Each
   domain runs oracle services of its own over the shared, immutable
   tables. *)
let prefetch o ~domains recs =
  let seen = Hashtbl.create 1024 in
  let todo =
    List.filter_map
      (fun r ->
        let k = key_of r.inst r.ver in
        if Hashtbl.mem o.memo k || Hashtbl.mem seen k then None
        else begin
          Hashtbl.add seen k ();
          Some (r.inst, r.ver)
        end)
      recs
  in
  let chunks = Array.make (max 1 domains) [] in
  List.iteri (fun i x -> chunks.(i mod Array.length chunks) <- x :: chunks.(i mod Array.length chunks)) todo;
  let work chunk () =
    let local = { o with services = Hashtbl.create 8; memo = Hashtbl.create 16 } in
    List.map (fun (inst, ver) -> (key_of inst ver, compute local inst ver)) chunk
  in
  let others =
    List.map (fun c -> Domain.spawn (work c)) (List.tl (Array.to_list chunks))
  in
  let mine = work chunks.(0) () in
  List.iter
    (fun (k, e) -> Hashtbl.replace o.memo k e)
    (mine @ List.concat_map Domain.join others)

type verdict = {
  mismatches : int;
  unanswered : int;
  refused : int;  (* shed, expired, parse/protocol errors *)
  correct_in_limit : int;
}

(* Compare every record with the oracle, outside any timed window.
   [flip] corrupts the first byte of the first table answer before the
   comparison — the self-test proving the gate fires. *)
let check o ~limit_ms ~flip recs =
  let flipped = ref (not flip) in
  let mism = ref 0 and unans = ref 0 and refd = ref 0 and ok = ref 0 in
  List.iter
    (fun r ->
      let got =
        match r.got with
        | Tbl s when (not !flipped) && String.length s > 0 ->
            flipped := true;
            let b = Bytes.of_string s in
            Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
            Tbl (Bytes.to_string b)
        | a -> a
      in
      let e = expected o r.inst r.ver in
      match got with
      | Missing -> incr unans
      | Refused _ -> incr refd
      | a ->
          if a <> e.ans then begin
            incr mism;
            if !mism <= 3 then
              Printf.eprintf "MISMATCH [%s v%d] %s\n  got:  %S\n  want: %S\n%!"
                r.inst.Gen.tenant r.ver r.inst.Gen.sql
                (match a with Tbl s | Rej s -> s | _ -> "")
                (match e.ans with
                | Tbl s | Rej s | Refused s -> s
                | Missing -> "")
          end
          else if ms (r.fin -. r.due) <= limit_ms then incr ok)
    recs;
  { mismatches = !mism; unanswered = !unans; refused = !refd;
    correct_in_limit = !ok }

(* ---------------------------------------------------------------- *)
(* policy writes                                                     *)

(* A single-fact revocation of [base]: the fact's subject loses the
   attribute at that level in the rule that grants it. *)
let revoke base (f : Analysis.Fact.t) =
  Authz.Authorization.make
    ~schemas:(Authz.Authorization.schemas base)
    (List.map
       (fun (r : Authz.Authorization.rule) ->
         match r.Authz.Authorization.grantee with
         | Authz.Authorization.To s
           when Authz.Subject.equal s f.Analysis.Fact.subject ->
             let drop set = Attr.Set.remove f.Analysis.Fact.attr set in
             (match f.Analysis.Fact.level with
             | Analysis.Fact.Plain ->
                 { r with Authz.Authorization.plain = drop r.Authz.Authorization.plain }
             | Analysis.Fact.Enc ->
                 { r with Authz.Authorization.enc = drop r.Authz.Authorization.enc })
         | _ -> r)
       (Authz.Authorization.rules base))

(* Revocations drawn from the dependency facts of resident plans, so
   each write really drops or re-verifies cached entries (random
   revocations of UAPmix are almost always no-ops for the cache). The
   provider facts most plans consumed come first: plans re-made under
   the revocation consume them again, so every later revocation of
   the same fact drops them again and the mix stays stationary. (A
   fact few plans consumed stops biting after one round: the re-made
   plans route around it.) Version 0 is the base. *)
let policy_versions ~k planned =
  let base = base_policy "UAPmix" in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (query, (r : Planner.Optimizer.result)) ->
      Analysis.Fact.Set.iter
        (fun f ->
          if f.Analysis.Fact.subject.Authz.Subject.role = Authz.Subject.Provider
          then
            Hashtbl.replace counts f
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts f)))
        (Analysis.Deps.of_extended ~deliver_to:user ~original:query
           ~extended:r.Planner.Optimizer.extended
           ~clusters:r.Planner.Optimizer.clusters ()))
    planned;
  let ranked =
    List.sort
      (fun (f1, c1) (f2, c2) ->
        if c1 <> c2 then compare c2 c1 else Analysis.Fact.compare f1 f2)
      (Hashtbl.fold (fun f c acc -> (f, c) :: acc) counts [])
  in
  let changed p =
    match Analysis.Delta.diff ~subjects ~old_policy:base ~new_policy:p () with
    | `Delta d -> not (Analysis.Delta.is_empty d)
    | `Incompatible -> false
  in
  let revs =
    List.filter changed (List.map (fun (f, _) -> revoke base f) ranked)
  in
  Array.of_list (base :: List.filteri (fun i _ -> i < k) revs)

(* writes alternate revoke / restore, so the policy never drifts: the
   w-th write installs this version *)
let write_version ~nrev w = if w mod 2 = 0 then 1 + (w / 2 mod nrev) else 0

type write_obs = {
  w_ver : int;  (* the policy version it installed *)
  w_at : float;  (* when it started *)
  w_ms : float;
  w_dropped : int;  (* plan + sub-plan entries invalidated *)
  w_reverified : int;
}

let timed_write svc versions ver =
  let b = S.stats svc in
  let t0 = now () in
  S.set_policy ~tenant:"UAPmix" svc versions.(ver);
  let dt = now () -. t0 in
  let a = S.stats svc in
  { w_ver = ver; w_at = t0; w_ms = ms dt;
    w_dropped =
      a.S.invalidated - b.S.invalidated
      + (a.S.subplan_invalidated - b.S.subplan_invalidated);
    w_reverified = a.S.reverified - b.S.reverified }

(* update_p50_ms: median over revoke + restore pairs of the pair's mean
   set_policy latency (a plain median over a two-cost mix is unstable) *)
let update_p50 writes =
  let rec pairs acc = function
    | a :: b :: rest -> pairs (((a.w_ms +. b.w_ms) /. 2.0) :: acc) rest
    | _ -> acc
  in
  median (pairs [] writes)

let planned_of svc (inst : Gen.instance) =
  let q = S.parse ~tenant:inst.Gen.tenant svc inst.Gen.sql in
  match (S.submit_request svc (S.request ~tenant:inst.Gen.tenant q)).S.planned with
  | Some r -> Some (q, r)
  | None -> None

(* reference units timed before each probe cycle and each set-up
   sample (see Hostref) *)
let probe_burst = 400

(* Update probe of the workloads without writes of their own (run
   after the traffic has stopped, on the state it left behind):
   revoke/restore cycles on the UAPmix tenant, re-reading [probe]
   instances between cycles so every write meets resident entries.
   Each write starts from a collected heap: without that, the major
   collector's work left over from the traffic, which depends on where
   the traffic happened to stop, moved a write's time by 2x within a
   run. *)
let update_probe svc probe ~cycles =
  let planned = List.filter_map (planned_of svc) probe in
  let versions = policy_versions ~k:3 planned in
  let nrev = Array.length versions - 1 in
  let writes = ref [] in
  let write v =
    Gc.full_major ();
    writes := timed_write svc versions v :: !writes
  in
  for c = 0 to cycles - 1 do
    Hostref.burst probe_burst;
    List.iter (fun i -> ignore (planned_of svc i)) probe;
    write (write_version ~nrev (2 * c));
    write 0
  done;
  List.rev !writes

(* ---------------------------------------------------------------- *)
(* host guard                                                        *)

let host_cores = Domain.recommended_domain_count ()
let jobs = max 1 (host_cores - 1)
let generator_threads = 1

let host_json o ~connections =
  Json.Obj
    [ ("host_cores", Json.Int host_cores);
      ("jobs", Json.Int jobs);
      ("generator_threads", Json.Int generator_threads);
      ("connections", Json.Int connections);
      ("ocaml", Json.String Sys.ocaml_version);
      ("rev", Json.String o.rev);
      ("seed", Json.Int o.seed);
      ("sf", Json.Float sf) ]

(* ROADMAP's core bound: the service's domains (the server loop runs
   on the pool's submitting domain) plus the generator must fit *)
let guard () =
  if jobs + generator_threads > host_cores then begin
    Printf.eprintf
      "mpqbench: refusing to run: %d service domain(s) + %d generator \
       thread(s) exceed %d core(s)\n"
      jobs generator_threads host_cores;
    exit 3
  end

(* ---------------------------------------------------------------- *)
(* workloads                                                         *)

let churn_population seed = Gen.population ~seed ~tenants:[ "UAPmix" ] ~per_pair:3
(* often enough that the open loop's p99 lies inside the population of
   reads that miss after a revocation, not on its edge *)
let churn_write_every = 50
let churn_revocations = 4
let cache_capacity = 128
let subcache_capacity = 256

type op = Read of Gen.instance | Write of int  (* write number *)

let churn_op pick k =
  if k mod churn_write_every = churn_write_every - 1 then
    Write (k / churn_write_every)
  else Read (pick k)

(* the measured read stream and the untimed warm-up of each workload *)
let streams o =
  match o.workload with
  | Param ->
      ( Gen.param ~seed:o.seed,
        List.init 21 (Gen.param ~seed:(o.seed + 1_000_003)) )
  | Churn ->
      let pop = churn_population o.seed in
      (Gen.skewed ~seed:o.seed pop, Array.to_list pop)

let pool_of_jobs () = if jobs > 1 then Some (Par.create ~name:"serve" jobs) else None

let setup_reps = 16
let setup_batch = 20

(* One set-up takes a few ms, about as long as a scheduling hiccup on
   a shared host. So each sample times [setup_batch] set-ups back to
   back, from a compacted heap; [setup_s] is the median of the
   samples' means. A run takes [setup_reps] samples before its traffic
   and as many after it (see E2e.run): the host's speed drifts over
   seconds, and the figure should not hang on the second a run
   started in. *)
let setup_samples () =
  List.init setup_reps (fun _ ->
      Gc.compact ();
      Hostref.burst probe_burst;
      let t0 = now () in
      for _ = 1 to setup_batch do
        ignore (Sys.opaque_identity (setup ()))
      done;
      let t1 = now () in
      Hostref.scale_time ~at:((t0 +. t1) /. 2.0) (t1 -. t0)
      /. float_of_int setup_batch)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The open-loop rate (requests, or ops with writes, per second) and
   the SLO's latency limit of each workload. BENCHMARK.json's why
   lines record them. *)
let rate o = match o.workload with Param -> 30.0 | Churn -> 50.0
let limit_ms o = match o.workload with Param -> 250.0 | Churn -> 500.0

(* share of the run spent in the open loop (the rest in closed-loop
   windows): tpch-param needs the larger share for >= 1000 latency
   samples *)
let open_fraction o = match o.workload with Param -> 0.85 | Churn -> 0.6

(* ops per closed-loop window: whole periods of the stream, so every
   window serves the same mix — three template x tenant cycles
   (~0.6 s), ten write periods (~0.7 s) *)
let window_ops o =
  match o.workload with
  | Param -> 3 * Gen.n_templates * Array.length Gen.tenants
  | Churn -> 10 * churn_write_every

(* open-loop stretches, each followed by one closed-loop window; the
   windows fill the rest of the run: 10 in 40 s on tpch-param, 24 on
   policy-churn *)
let segments o =
  let per_s = match o.workload with Param -> 0.25 | Churn -> 0.6 in
  max 2 (int_of_float (Float.round (per_s *. o.seconds)))

(* The data the process holds live after a full major collection:
   the served service's tables and caches, plus the run's own request
   records. It depends on the seed's requests, not on when the
   collector ran, as the top heap size does. *)
let live_heap_mb () =
  Gc.full_major ();
  let s = Gc.stat () in
  float_of_int (s.Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

(* ---------------------------------------------------------------- *)
(* reporting                                                         *)

let metric name unit v = (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ])

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let report_path o suffix =
  mkdir_p o.out;
  Filename.concat o.out
    (Printf.sprintf "%s-seed%d-%s" (workload_name o.workload) o.seed suffix)

let finish o ~correct ~attempted ~failed ~metrics ~report =
  let path = report_path o (if o.trace then "trace.json" else "e2e.json") in
  write_file path (Json.to_string report ^ "\n");
  Printf.printf "report: %s\n" path;
  print_endline
    (Json.to_string ~pretty:false
       (Json.Obj
          [ ("correct", Json.Bool correct); ("attempted", Json.Int attempted);
            ("failed", Json.Int failed); ("metrics", Json.Obj metrics) ]));
  exit (if correct then 0 else 2)

