(* The traced run (--trace 1): per-layer numbers, never end-to-end
   ones. It replays a fixed prefix of the workload's request sequence
   single-threaded and in-process, recording spans from this file
   around the calls into each layer's public functions:

     request ─┬ sql.parse            Service.parse
              ├ planner.fingerprint  Fingerprint.of_plan + cache_key_of
              ├ serve.submit         Service.submit_request (+ stats deltas)
              └ engine.csv           Engine.Csv.to_string
     write ─── serve.set_policy      Service.set_policy   (policy-churn)
     rerun ─┬─ planner.plan          Optimizer.plan, self-check off
            ├─ verify.run            Verifier.run
            ├─ analysis.deps         Deps.of_extended
            └─ engine.exec           Exec.run, fresh keyring

   Every miss is re-run through those public functions; operator and
   crypto-scheme splits come from the engine's existing Obs metrics
   (exec.op_s.<op>, enc_exec.<scheme>) of one more, instrumented
   execution. The
   spans of one request share its id; all spans stay in memory and are
   written out (JSON lines) when the run ends.

   Three more replays of the same sequence, on fresh services, give the
   remaining numbers: an untraced in-process one (the tracing overhead
   is the difference in wall time), a single-connection closed-loop
   socket one, paired request by request with the untraced in-process
   times — server.self_ms — and one in rounds of [batch_round] reads
   through Service.submit_batch_requests — serve.shared_execs. The
   responses of the traced, batched and socket replays are all checked
   against the oracle. *)

open Relalg
open Sut
module S = Serve.Service

type span = {
  req : int;
  id : int;
  parent : int;
  name : string;
  start : float;
  dur : float;
}

let spans = ref []
let next_id = ref 0
let spans_start = ref 0.0

(* per-name totals (seconds, calls), kept live as spans close *)
let live = Hashtbl.create 32

let total name = fst (Option.value ~default:(0.0, 0) (Hashtbl.find_opt live name))
let calls name = snd (Option.value ~default:(0.0, 0) (Hashtbl.find_opt live name))

(* [f] receives its own span id, to parent the spans it opens *)
let span ~req ~parent name f =
  let id = !next_id in
  incr next_id;
  let t0 = now () in
  let record () =
    let dur = now () -. t0 in
    spans := { req; id; parent; name; start = t0; dur } :: !spans;
    Hashtbl.replace live name (total name +. dur, calls name + 1)
  in
  match f id with
  | r ->
      record ();
      r
  | exception e ->
      record ();
      raise e

(* self time: a span's duration minus what its child spans cover *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.dur +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let own = s.dur -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      Hashtbl.replace self s.name
        (own +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    !spans;
  self

(* the flat Obs metrics as (name, total) — the engine's own
   per-operator and per-scheme timers *)
let obs_metrics () =
  match Obs.render_json () with
  | Json.Obj fields -> (
      match List.assoc_opt "metrics" fields with
      | Some (Json.Obj metrics) ->
          List.filter_map
            (fun (name, v) ->
              match v with
              | Json.Obj mf -> (
                  match List.assoc_opt "total" mf with
                  | Some (Json.Float t) -> Some (name, t)
                  | Some (Json.Int t) -> Some (name, float_of_int t)
                  | _ -> None)
              | _ -> None)
            metrics
      | _ -> [])
  | _ -> []

let op_tags =
  [ ("scan", "base"); ("select", "select"); ("project", "project");
    ("join", "join"); ("group", "group_by"); ("encrypt", "encrypt");
    ("decrypt", "decrypt") ]

let schemes = [ "det"; "rnd"; "ope"; "phe" ]

(* the workload's replayed sequence: untimed warm-up, then ops *)
let sequence o =
  let stream, warm = streams o in
  let n =
    if o.trace_ops > 0 then o.trace_ops
    else
      match o.workload with Param -> 210 | Churn -> 640
  in
  let ops =
    match o.workload with
    | Churn -> List.init n (churn_op stream)
    | Param -> List.init n (fun k -> Read (stream k))
  in
  (warm, ops)

let warm_up svc warm = List.filter_map (planned_of svc) warm

let versions_for o planned =
  match o.workload with
  | Churn -> policy_versions ~k:churn_revocations planned
  | Param -> [| base_policy "UAPmix" |]

(* untraced in-process replay: per-read times and total wall *)
let untraced o ~warm ~ops =
  let tables = make_tables () in
  let svc = serving_service ~tables () in
  let versions = versions_for o (warm_up svc warm) in
  let nrev = Array.length versions - 1 in
  let times = ref [] in
  let t0 = now () in
  List.iter
    (function
      | Read inst ->
          let t = now () in
          ignore (serve_read svc inst);
          times := (now () -. t) :: !times
      | Write w ->
          S.set_policy ~tenant:"UAPmix" svc versions.(write_version ~nrev w))
    ops;
  (Array.of_list (List.rev !times), now () -. t0)

(* The same ops in rounds of [batch_round] reads through
   Service.submit_batch_requests, as the server batches requests that
   arrive together; a write closes the round. Its responses, and how
   many executions the rounds shared. *)
let batch_round = 8

let batched o ~warm ~ops =
  let svc = serving_service ~tables:(make_tables ()) () in
  let versions = versions_for o (warm_up svc warm) in
  let nrev = Array.length versions - 1 in
  let ver = ref 0 and round = ref [] and recs = ref [] in
  let flush () =
    let reads = List.rev !round in
    round := [];
    let answers =
      match
        S.submit_batch_requests svc
          (List.map
             (fun (i : Gen.instance) ->
               S.request ~tenant:i.Gen.tenant
                 (S.parse ~tenant:i.Gen.tenant svc i.Gen.sql))
             reads)
      with
      | resps -> List.map (fun (p : S.response) -> answer_of_outcome p.S.outcome) resps
      | exception e ->
          (* refused, as the server refuses a failed round *)
          List.map (fun _ -> Refused ("internal error: " ^ Printexc.to_string e)) reads
    in
    List.iter2
      (fun inst got ->
        let r = rcd inst !ver 0.0 in
        r.got <- got;
        recs := r :: !recs)
      reads answers
  in
  List.iter
    (function
      | Read inst ->
          round := inst :: !round;
          if List.length !round = batch_round then flush ()
      | Write w ->
          flush ();
          ver := write_version ~nrev w;
          S.set_policy ~tenant:"UAPmix" svc versions.(!ver))
    ops;
  flush ();
  (List.rev !recs, (S.stats svc).S.shared_execs)

(* A separate generator process. The server process then holds no
   domain but the server loop's, and no garbage of the generator's.
   OCaml 5 forbids [fork] once any domain has been spawned, so the
   child is forked first and waits: it learns the server's port through
   a pipe, connects one session, runs [gen] on it, and hands the result
   back through a file in [out]. Its exit stops the server. *)
type 'a generator = { pid : int; port_out : Unix.file_descr; file : string;
                      current : Serve.Server.t option ref }

let spawn_generator ~out (gen : Net.conn -> 'a) : 'a generator =
  mkdir_p out;
  let file = Filename.concat out (Printf.sprintf "gen-%d.bin" (Unix.getpid ())) in
  let current = ref None in
  Sys.set_signal Sys.sigchld
    (Sys.Signal_handle (fun _ -> Option.iter Serve.Server.stop !current));
  let rd, wr = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close wr;
      let code =
        try
          let port = int_of_string (input_line (Unix.in_channel_of_descr rd)) in
          let c = Net.connect (Serve.Server.Tcp port) in
          let r = gen c in
          Net.close c;
          let oc = open_out_bin file in
          Marshal.to_channel oc r [];
          close_out oc;
          0
        with e ->
          prerr_endline ("mpqbench generator: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid ->
      Unix.close rd;
      { pid; port_out = wr; file; current }

(* Serve the generator until it exits; its result *)
let serve_generator (g : 'a generator) server : 'a =
  g.current := Some server;
  let port =
    match Serve.Server.bound_addr server with
    | Serve.Server.Tcp p -> p
    | Serve.Server.Unix_path _ -> invalid_arg "serve_generator: TCP only"
  in
  let oc = Unix.out_channel_of_descr g.port_out in
  output_string oc (string_of_int port ^ "\n");
  close_out oc;
  (* a child gone before [current] was set sent its SIGCHLD early *)
  let status =
    match Unix.waitpid [ Unix.WNOHANG ] g.pid with
    | 0, _ ->
        Serve.Server.run server;
        snd (Unix.waitpid [] g.pid)
    | _, st -> st
  in
  Sys.set_signal Sys.sigchld Sys.Signal_default;
  if status <> Unix.WEXITED 0 || not (Sys.file_exists g.file) then
    failwith "the generator process failed";
  let ic = open_in_bin g.file in
  let r : 'a = Marshal.from_channel ic in
  close_in ic;
  Sys.remove g.file;
  r

(* Single-connection closed-loop socket replay of the reads, run by a
   generator process. A tenant switch is its own round trip, outside
   the timed request: the server does not set TCP_NODELAY, so a
   response written right behind the switch acknowledgement would be
   held by Nagle's algorithm until the client's delayed ACK. *)
let socket_replay ~warm ~reads c =
  let wait_for line =
    let got = ref None in
    while !got = None do
      if not (Net.poll c ~timeout:5.0 (fun r -> if r.Net.line = line then got := Some r))
      then failwith "server closed the replay connection"
    done;
    Option.get !got
  in
  let roundtrip (inst : Gen.instance) =
    if c.Net.tenant <> inst.Gen.tenant then begin
      Net.switch c inst.Gen.tenant;
      ignore (wait_for c.Net.line_no)
    end;
    let t0 = now () in
    let r = wait_for (Net.send c inst.Gen.sql) in
    (now () -. t0, r)
  in
  List.iter (fun i -> ignore (roundtrip i)) warm;
  Array.of_list (List.map roundtrip reads)

(* a server reply, as compared *)
let answer_of_reply (r : Net.reply) =
  match r.Net.tag with
  | "hit" | "miss" -> Tbl r.Net.body
  | "rejected" -> Rej r.Net.info
  | tag -> Refused tag

let main o =
  let warm, ops = sequence o in
  let read_insts = List.filter_map (function Read i -> Some i | Write _ -> None) ops in
  (* forked before anything could spawn a domain *)
  let replay = spawn_generator ~out:o.out (socket_replay ~warm ~reads:read_insts) in
  spans_start := now ();
  let tables = make_tables () in
  let base = Tpch.Tpch_schema.base_stats ~sf in
  let svc = serving_service ~tables () in
  let versions = versions_for o (warm_up svc warm) in
  let nrev = Array.length versions - 1 in
  let ver = ref 0 in
  let recs = ref [] in
  (* counters *)
  let c = Hashtbl.create 32 in
  let add name v =
    Hashtbl.replace c name (v +. Option.value ~default:0.0 (Hashtbl.find_opt c name))
  in
  let get name = Option.value ~default:0.0 (Hashtbl.find_opt c name) in
  let stat_deltas (b : S.stats) (a : S.stats) =
    let d name f = add name (float_of_int (f a - f b)) in
    d "hits" (fun s -> s.S.hits);
    d "misses" (fun s -> s.S.misses);
    d "subplan_hits" (fun s -> s.S.subplan_hits);
    d "subplan_stores" (fun s -> s.S.subplan_stores);
    d "evictions" (fun s -> s.S.evictions);
    d "invalidated" (fun s -> s.S.invalidated);
    d "reverified" (fun s -> s.S.reverified);
    d "retained" (fun s -> s.S.retained);
    d "subplan_invalidated" (fun s -> s.S.subplan_invalidated)
  in
  (* the miss path again, one public function at a time *)
  let rerun ~req (inst : Gen.instance) q =
    let policy =
      if inst.Gen.tenant = "UAPmix" then versions.(!ver) else base_policy inst.Gen.tenant
    in
    span ~req ~parent:(-1) "rerun" @@ fun rid ->
    match
      Planner.Optimizer.self_check := false;
      Fun.protect
        ~finally:(fun () -> Planner.Optimizer.self_check := true)
        (fun () ->
          span ~req ~parent:rid "planner.plan" (fun _ ->
              Planner.Optimizer.plan ~policy ~subjects
                ~pricing:Tpch.Scenarios.pricing ~base ~deliver_to:user q))
    with
    | exception
        ( Planner.Optimizer.No_candidate _
        | Planner.Optimizer.User_not_authorized _ ) ->
        add "plans" 1.0
    | r ->
        add "plans" 1.0;
        ignore
          (span ~req ~parent:rid "verify.run" (fun _ ->
               Verify.Verifier.run
                 { Verify.Verifier.policy; config = r.Planner.Optimizer.config;
                   extended = r.Planner.Optimizer.extended;
                   clusters = r.Planner.Optimizer.clusters;
                   requests = r.Planner.Optimizer.requests }));
        add "verify_runs" 1.0;
        let deps =
          span ~req ~parent:rid "analysis.deps" (fun _ ->
              Analysis.Deps.of_extended ~deliver_to:user ~original:q
                ~extended:r.Planner.Optimizer.extended
                ~clusters:r.Planner.Optimizer.clusters ())
        in
        add "deps_facts" (float_of_int (Analysis.Fact.Set.cardinal deps));
        let plan = r.Planner.Optimizer.extended.Authz.Extend.plan in
        let ctx () =
          let keyring = Mpq_crypto.Keyring.create ~seed:42L () in
          let crypto = Engine.Enc_exec.make keyring r.Planner.Optimizer.clusters in
          Engine.Exec.context ~udfs:Tpch.Tpch_queries.udf_impls ~crypto tables
        in
        let table =
          span ~req ~parent:rid "engine.exec" (fun _ -> Engine.Exec.run (ctx ()) plan)
        in
        add "rows_out" (float_of_int (Engine.Table.cardinality table));
        (* untimed instrumented execution: operator / scheme splits *)
        Obs.set_enabled true;
        Obs.reset ();
        ignore (Engine.Exec.run (ctx ()) plan);
        let m = obs_metrics () in
        Obs.set_enabled false;
        List.iter
          (fun (name, v) ->
            List.iter
              (fun (tag, raw) -> if name = "exec.op_s." ^ raw then add ("op." ^ tag) v)
              op_tags;
            List.iter
              (fun sc ->
                if name = "enc_exec.enc_s." ^ sc then add ("enc." ^ sc) v;
                if name = "enc_exec.dec_s." ^ sc then add ("dec." ^ sc) v)
              schemes;
            if name = "enc_exec.pool_s" then add "pool" v)
          m
  in
  let miss_submit = ref 0.0 and miss_rerun = ref 0.0 in
  let reads = ref 0 and writes = ref 0 in
  List.iteri
    (fun req op ->
      match op with
      | Write w ->
          incr writes;
          let v = write_version ~nrev w in
          let b = S.stats svc in
          span ~req ~parent:(-1) "write" (fun wid ->
              span ~req ~parent:wid "serve.set_policy" (fun _ ->
                  S.set_policy ~tenant:"UAPmix" svc versions.(v)));
          stat_deltas b (S.stats svc);
          ver := v
      | Read inst -> (
          incr reads;
          let tenant = inst.Gen.tenant in
          match
            span ~req ~parent:(-1) "request" @@ fun rid ->
            let q =
              span ~req ~parent:rid "sql.parse" (fun _ ->
                  S.parse ~tenant svc inst.Gen.sql)
            in
            ignore
              (span ~req ~parent:rid "planner.fingerprint" (fun _ ->
                   Planner.Optimizer.cache_key_of
                     ~env:(S.environment ~tenant svc)
                     (Planner.Fingerprint.of_plan q)));
            let b = S.stats svc in
            let t0 = now () in
            let resp =
              span ~req ~parent:rid "serve.submit" (fun _ ->
                  S.submit_request svc (S.request ~tenant q))
            in
            let submit_s = now () -. t0 in
            stat_deltas b (S.stats svc);
            add "plan_phase_ms" resp.S.plan_ms;
            add "exec_phase_ms" resp.S.exec_ms;
            let got =
              match resp.S.outcome with
              | S.Table t ->
                  Tbl
                    (span ~req ~parent:rid "engine.csv" (fun _ ->
                         Engine.Csv.to_string t))
              | other -> answer_of_outcome other
            in
            let r = rcd inst !ver 0.0 in
            r.got <- got;
            r.fin <- 0.0;
            recs := r :: !recs;
            (q, resp, submit_s)
          with
          | q, resp, submit_s ->
              if resp.S.status = S.Miss then begin
                let path () =
                  total "planner.plan" +. total "verify.run"
                  +. total "analysis.deps" +. total "engine.exec"
                in
                let before = path () in
                rerun ~req inst q;
                miss_submit := !miss_submit +. submit_s;
                miss_rerun := !miss_rerun +. (path () -. before)
              end
          | exception e ->
              (* refused, as the server refuses it *)
              let r = rcd inst !ver 0.0 in
              r.got <- Refused ("internal error: " ^ Printexc.to_string e);
              recs := r :: !recs))
    ops;
  let dag = S.dag_stats svc in
  (* correctness of the traced responses *)
  let orc = oracle ~tables versions in
  let v = check orc ~limit_ms:infinity ~flip:o.flip (List.rev !recs) in
  (* the other three replays *)
  let batch_recs, shared_execs = batched o ~warm ~ops in
  let vb = check orc ~limit_ms:infinity ~flip:false batch_recs in
  let untraced_times, untraced_wall = untraced o ~warm ~ops in
  let paired_inproc =
    match o.workload with
    | Churn ->
        (* the socket cannot carry writes: pair reads-only replays *)
        fst (untraced o ~warm ~ops:(List.map (fun i -> Read i) read_insts))
    | Param -> untraced_times
  in
  let socket =
    let svc = serving_service ~tables:(make_tables ()) () in
    serve_generator replay (Serve.Server.create ~service:svc (Serve.Server.Tcp 0))
  in
  let socket_times = Array.map fst socket in
  (* the server's replies, under the base policies it was created with *)
  let socket_recs =
    List.mapi
      (fun i inst ->
        let r = rcd inst 0 0.0 in
        r.got <- answer_of_reply (snd socket.(i));
        r)
      read_insts
  in
  let vs = check orc ~limit_ms:infinity ~flip:false socket_recs in
  (* median of the per-request differences: robust to the odd GC
     pause landing in one replay but not the other *)
  let self_server =
    median
      (List.init
         (min (Array.length socket_times) (Array.length paired_inproc))
         (fun i -> socket_times.(i) -. paired_inproc.(i)))
  in
  (* report *)
  let self = self_times () in
  let nreads = float_of_int (max 1 !reads) in
  let per_read s = ms s /. nreads in
  let request_s = total "sql.parse" +. total "serve.submit" +. total "engine.csv" in
  let traced_wall = total "request" +. total "write" in
  let ratio = if !miss_submit > 0.0 then !miss_rerun /. !miss_submit else nan in
  let reconciled = !miss_submit = 0.0 || (ratio >= 0.5 && ratio <= 3.0) in
  let hits = get "hits" and misses = get "misses" in
  let sub_h = get "subplan_hits" and sub_s = get "subplan_stores" in
  let div a b = if b > 0.0 then a /. b else 0.0 in
  let metric_ms name s = metric name "ms" (per_read s) in
  let count name v = metric name "count" v in
  let metrics =
    [ metric "server.self_ms" "ms" (ms self_server);
      metric_ms "sql.parse_ms" (total "sql.parse");
      metric_ms "planner.fingerprint_ms" (total "planner.fingerprint");
      metric_ms "planner.plan_ms" (total "planner.plan");
      count "planner.plans" (get "plans");
      count "planner.dag_shared" (float_of_int dag.Planner.Dag.shared_nodes);
      metric_ms "verify.run_ms" (total "verify.run");
      count "verify.runs" (get "verify_runs");
      metric_ms "analysis.deps_ms" (total "analysis.deps");
      count "analysis.deps_facts" (div (get "deps_facts") (get "verify_runs"));
      metric_ms "serve.request_ms" request_s;
      metric "serve.plan_hit_rate" "ratio" (div hits (hits +. misses));
      metric "serve.subplan_hit_rate" "ratio" (div sub_h (sub_h +. sub_s));
      count "serve.evictions" (get "evictions");
      count "serve.shared_execs" (float_of_int shared_execs);
      metric "serve.plan_phase_ms" "ms" (get "plan_phase_ms" /. nreads);
      metric "serve.exec_phase_ms" "ms" (get "exec_phase_ms" /. nreads);
      metric "serve.set_policy_ms" "ms"
        (div (ms (total "serve.set_policy")) (float_of_int !writes));
      count "serve.invalidated" (get "invalidated");
      count "serve.reverified" (get "reverified");
      count "serve.retained" (get "retained");
      count "serve.subplan_invalidated" (get "subplan_invalidated");
      metric_ms "engine.exec_ms" (total "engine.exec") ]
    @ List.map (fun (tag, _) -> metric_ms ("engine.op_ms." ^ tag) (get ("op." ^ tag))) op_tags
    @ [ count "engine.rows_out" (get "rows_out");
        metric_ms "engine.csv_ms" (total "engine.csv") ]
    @ List.map (fun sc -> metric_ms ("crypto.enc_ms." ^ sc) (get ("enc." ^ sc))) schemes
    @ List.map (fun sc -> metric_ms ("crypto.dec_ms." ^ sc) (get ("dec." ^ sc))) schemes
    @ [ metric_ms "crypto.pool_ms" (get "pool") ]
  in
  (* the per-layer table *)
  Printf.printf
    "traced %s seed %d: %d reads, %d writes, %d misses re-run; in-process \
     request time %.2f ms/read\n"
    (workload_name o.workload) o.seed !reads !writes (int_of_float misses)
    (per_read request_s);
  Printf.printf "  %-22s %10s %10s %8s %10s %8s\n" "span" "total ms" "self ms"
    "calls" "ms/read" "share";
  List.iter
    (fun name ->
      if calls name > 0 then
        Printf.printf "  %-22s %10.2f %10.2f %8d %10.4f %7.1f%%\n" name
          (ms (total name))
          (ms (Option.value ~default:0.0 (Hashtbl.find_opt self name)))
          (calls name) (per_read (total name))
          (100.0 *. div (total name) request_s))
    [ "request"; "sql.parse"; "planner.fingerprint"; "serve.submit";
      "engine.csv"; "write"; "serve.set_policy"; "rerun"; "planner.plan";
      "verify.run"; "analysis.deps"; "engine.exec" ];
  let pve =
    total "planner.plan" +. total "verify.run" +. total "engine.exec"
  in
  (* shares of the socket request: in-process time plus the server's own *)
  let socket_s = request_s +. (self_server *. nreads) in
  Printf.printf
    "  planner.plan + verify.run + engine.exec = %.1f%% of request time; \
     server + sql.parse + planner.fingerprint + engine.csv = %.1f%% of \
     socket request time\n"
    (100.0 *. div pve request_s)
    (100.0
    *. div
         ((self_server *. nreads) +. total "sql.parse"
         +. total "planner.fingerprint" +. total "engine.csv")
         socket_s);
  Printf.printf
    "  serve: plan-hit rate %.3f, sub-plan-hit rate %.3f, evictions %.0f, \
     invalidated %.0f, re-verified %.0f, retained %.0f, sub-plan invalidated \
     %.0f; shared executions in rounds of %d: %d\n"
    (div hits (hits +. misses))
    (div sub_h (sub_h +. sub_s))
    (get "evictions") (get "invalidated") (get "reverified") (get "retained")
    (get "subplan_invalidated") batch_round shared_execs;
  Printf.printf
    "  reconciliation on misses: re-run plan+verify+deps+exec %.1f ms vs \
     Service.submit_request %.1f ms (ratio %.2f, bound [0.5, 3.0]: %s)\n"
    (ms !miss_rerun) (ms !miss_submit) ratio
    (if reconciled then "ok" else "VIOLATED");
  Printf.printf
    "  wall: traced %.1f ms vs untraced in-process replay %.1f ms (tracing \
     overhead %.1f%%); server.self_ms %.4f over %d paired reads\n"
    (ms traced_wall) (ms untraced_wall)
    (100.0 *. div (traced_wall -. untraced_wall) untraced_wall)
    (ms self_server) (Array.length socket_times);
  (* spans out *)
  let spans_path = report_path o "spans.jsonl" in
  let oc = open_out spans_path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string ~pretty:false
           (Json.Obj
              [ ("req", Json.Int s.req); ("span", Json.Int s.id);
                ("parent", Json.Int s.parent); ("name", Json.String s.name);
                ("start_us", Json.Float ((s.start -. !spans_start) *. 1e6));
                ("dur_us", Json.Float (s.dur *. 1e6)) ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc;
  Printf.printf "spans: %s\n" spans_path;
  let failed =
    List.fold_left
      (fun n c -> n + c.mismatches + c.unanswered + c.refused)
      0 [ v; vb; vs ]
  in
  let report =
    Json.Obj
      [ ("workload", Json.String (workload_name o.workload));
        ("host", host_json o ~connections:1);
        ("reads", Json.Int !reads);
        ("writes", Json.Int !writes);
        ("metrics", Json.Obj metrics);
        ("reconciliation_ratio", Json.Float ratio);
        ("reconciled", Json.Bool reconciled);
        ("traced_wall_ms", Json.Float (ms traced_wall));
        ("untraced_wall_ms", Json.Float (ms untraced_wall));
        ("batched_reads", Json.Int (List.length batch_recs));
        ("socket_reads", Json.Int (List.length socket_recs));
        ( "mismatches",
          Json.Int (v.mismatches + vb.mismatches + vs.mismatches) ) ]
  in
  finish o ~correct:(failed = 0 && reconciled)
    ~attempted:
      (!reads + !writes + List.length batch_recs + List.length socket_recs)
    ~failed ~metrics
    ~report
