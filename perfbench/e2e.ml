(* The end-to-end run (--trace 0): open- and closed-loop load at the
   Service API, then every response checked against the oracle outside
   the timed windows. Time metrics are scaled to the nominal host speed
   measured beside the traffic (see Hostref). *)

open Relalg
open Sut
module S = Serve.Service

type e2e = {
  recs_open : rcd list;  (* latency sample *)
  recs_all : rcd list;  (* everything sent in the measured window *)
  sat_qps : float;  (* at nominal host speed *)
  sat_qps_raw : float;
  window_rates : float list;  (* closed-loop windows, scaled *)
  writes : write_obs list;
  late_ms : float list;
  svc_stats : S.stats;
  setup_s : float;
  heap_mb : float;
  distinct : int;
  versions : Authz.Authorization.t array;  (* UAPmix policy versions *)
}

(* A latency quantile per consecutive block of at least [block_min]
   open-loop samples (in due order), then the median across blocks:
   each block keeps >= 10 samples beyond its p99, and a disturbed
   stretch of the run moves one block, not the figure. *)
let block_min = 1000

let block_quantile lats q =
  let a = Array.of_list lats in
  let n = Array.length a in
  let nb = max 1 (n / block_min) in
  let size = n / nb in
  median
    (List.init nb (fun b ->
         let len = if b = nb - 1 then n - (b * size) else size in
         let blk = Array.sub a (b * size) len in
         Array.sort compare blk;
         pct blk q))

let lateness recs = List.map (fun r -> ms (r.sent -. r.due)) recs

let distinct_instances recs =
  let h = Hashtbl.create 1024 in
  List.iter (fun r -> Hashtbl.replace h (r.inst.Gen.tenant, r.inst.Gen.sql) ()) recs;
  Hashtbl.length h

(* the latest UAPmix instance of each template among [recs] *)
let probe_set recs =
  let last = Hashtbl.create 8 in
  List.iter
    (fun r ->
      if r.inst.Gen.tenant = "UAPmix" then
        Hashtbl.replace last r.inst.Gen.template r.inst)
    recs;
  List.sort compare (Hashtbl.fold (fun _ i acc -> i :: acc) last [])

(* reference time after each closed-loop op, as a share of the op's *)
let reference_share = 0.05

(* The workloads run in-process, at the Service API. For policy-churn
   it is the only way: no wire input may mutate a tenant. For
   tpch-param it is what made the figures steady on a small shared
   host: over the socket, the server and generator processes
   time-share whenever the host takes CPU away, and an idle server
   vCPU wakes slowly, which moved p50 and p99 by a quarter or more
   from run to run (the traced run's server.self_ms measures the
   socket's own cost). Reads are timed from their due time. *)
let run o =
  let stream, warm = streams o in
  Hostref.reset ();
  let setup_early = setup_samples () in
  let pool = pool_of_jobs () in
  let svc = serving_service ?pool ~tables:(make_tables ()) () in
  let warm_planned = List.filter_map (planned_of svc) warm in
  let versions =
    match o.workload with
    | Churn -> policy_versions ~k:churn_revocations warm_planned
    | Param -> [| base_policy "UAPmix" |]
  in
  let nrev = Array.length versions - 1 in
  let ver = ref 0 and writes = ref [] in
  let serve_op k ~due =
    match
      match o.workload with
      | Churn -> churn_op stream k
      | Param -> Read (stream k)
    with
    | Write w ->
        let v = write_version ~nrev w in
        writes := timed_write svc versions v :: !writes;
        ver := v;
        None
    | Read inst ->
        let r = rcd inst !ver due in
        r.sent <- now ();
        r.got <- serve_read svc inst;
        r.fin <- now ();
        Some r
  in
  (* The traffic alternates [segments o] open-loop stretches with one
     closed-loop window each, so both loops sample the whole run: the
     host's speed drifts over tens of seconds, and a closed loop held
     at the end of the run caught one state of it.

     Open loop: reference units run until each op is due. The core
     never idles: an idle vCPU of a shared host wakes slowly, and with
     sleeps between requests the open-loop latency moved with the
     host's idle behaviour rather than with the program. The schedule
     pauses while a closed window runs.

     Closed window: [window_ops] ops back to back, whole periods of the
     stream. After each op, reference units run for a twentieth of its
     time; the window's rate counts op time only. sat_qps is the median
     over windows: a stretch of lost CPU spoils one window, not the
     figure. *)
  let n = max 1 (int_of_float (rate o *. o.seconds *. open_fraction o)) in
  let nseg = segments o in
  let k = ref 0 and recs_open = ref [] and recs_closed = ref [] in
  let windows = ref [] in
  let closed_op () =
    let t = now () in
    Option.iter
      (fun r -> recs_closed := r :: !recs_closed)
      (serve_op !k ~due:t);
    incr k;
    let t' = now () in
    let until = t' +. ((t' -. t) *. reference_share) in
    Hostref.tick ();
    while now () < until do Hostref.tick () done;
    t' -. t
  in
  for seg = 0 to nseg - 1 do
    let t0 = now () +. 0.002 in
    for j = 0 to ((seg + 1) * n / nseg) - (seg * n / nseg) - 1 do
      let due = t0 +. (float_of_int j /. rate o) in
      while now () < due do Hostref.tick () done;
      Option.iter (fun r -> recs_open := r :: !recs_open) (serve_op !k ~due);
      incr k
    done;
    let t1 = now () and busy = ref 0.0 in
    for _ = 1 to window_ops o do
      busy := !busy +. closed_op ()
    done;
    windows :=
      ((t1 +. now ()) /. 2.0, float_of_int (window_ops o) /. !busy) :: !windows
  done;
  let heap_mb = live_heap_mb () in
  let sat_qps_raw = median (List.map snd !windows) in
  let window_rates = List.rev_map (fun (at, r) -> Hostref.scale_rate ~at r) !windows in
  let sat_qps = median window_rates in
  let recs_open = List.rev !recs_open and recs_closed = List.rev !recs_closed in
  let svc_stats = S.stats svc in
  let writes =
    match o.workload with
    | Churn -> List.rev !writes
    | Param -> update_probe svc (probe_set recs_closed) ~cycles:32
  in
  Option.iter Par.shutdown pool;
  (* the served service is garbage from here on *)
  let setup_s = median (setup_early @ setup_samples ()) in
  let recs_all = recs_open @ recs_closed in
  { recs_open; recs_all; sat_qps; sat_qps_raw; window_rates; writes;
    late_ms = lateness recs_open; svc_stats; setup_s;
    heap_mb; distinct = distinct_instances recs_all; versions }

let main o =
  let r = run o in
  (* correctness, outside every timed window *)
  let tables = make_tables () in
  let orc = oracle ~tables r.versions in
  prefetch orc ~domains:host_cores r.recs_all;
  let limit_ms = limit_ms o in
  let v = check orc ~limit_ms ~flip:o.flip r.recs_all in
  let sent = List.length r.recs_all in
  let v_open = check orc ~limit_ms ~flip:false r.recs_open in
  let answered = List.filter (fun r -> not (Float.is_nan r.fin)) r.recs_open in
  let raw_in_order = List.map (fun r -> ms (r.fin -. r.due)) answered in
  (* latencies and write times at nominal host speed (see Hostref) *)
  let lat_in_order =
    List.map (fun r -> ms (Hostref.scale_time ~at:r.due (r.fin -. r.due))) answered
  in
  let writes =
    List.map
      (fun w -> { w with w_ms = Hostref.scale_time ~at:w.w_at w.w_ms })
      r.writes
  in
  let lat = sorted_of lat_in_order in
  let n_open = List.length r.recs_open in
  let failed = v.mismatches + v.unanswered + v.refused in
  (* tpch-param: over the open loop's distinct instances, a fixed
     number per run. policy-churn: over its whole population under
     every policy version — which of the rarer pairs the Zipf draws
     happened to reach moved the mean by 3% from seed to seed. *)
  let costs =
    let h = Hashtbl.create 1024 in
    let add inst ver =
      let key = (inst.Gen.tenant, ver, inst.Gen.sql) in
      if not (Hashtbl.mem h key) then
        Hashtbl.add h key (expected orc inst ver).cost
    in
    (match o.workload with
    | Param -> List.iter (fun rc -> add rc.inst rc.ver) r.recs_open
    | Churn ->
        Array.iter
          (fun inst -> Array.iteri (fun ver _ -> add inst ver) r.versions)
          (churn_population o.seed));
    Hashtbl.fold (fun _ c acc -> match c with Some c -> c :: acc | None -> acc) h []
  in
  let st = r.svc_stats in
  let write_effect =
    match r.writes with
    | [] -> 0.0
    | ws ->
        float_of_int
          (List.length (List.filter (fun w -> w.w_dropped + w.w_reverified > 0) ws))
        /. float_of_int (List.length ws)
  in
  let p50 = block_quantile lat_in_order 0.50
  and p99 = block_quantile lat_in_order 0.99 in
  let slo_met = float_of_int v_open.correct_in_limit /. float_of_int (max 1 n_open) in
  let fail_share = float_of_int failed /. float_of_int (max 1 sent) in
  let metrics =
    [ metric "setup_s" "s" r.setup_s;
      metric "p50_ms" "ms" p50;
      metric "p99_ms" "ms" p99;
      metric "slo_met_share" "ratio" slo_met;
      metric "sat_qps" "req/s" r.sat_qps;
      metric "cost_per_query" "USD" (mean costs);
      metric "live_heap_mb" "MB" r.heap_mb;
      metric "update_p50_ms" "ms" (update_p50 writes) ]
  in
  Printf.printf "workload %s seed %d: %d sent (%d open-loop at %.0f req/s), %d distinct instances\n"
    (workload_name o.workload) o.seed sent n_open (rate o) r.distinct;
  List.iter
    (fun (name, m) ->
      match m with
      | Json.Obj [ ("value", Json.Float x); ("unit", Json.String u) ] ->
          Printf.printf "  %-16s %12.6g %s\n" name x u
      | _ -> ())
    metrics;
  Printf.printf
    "  fail_share %.4f (%d mismatches, %d unanswered, %d refused); \
     latency limit %.0f ms; samples %d (%d beyond p99)\n"
    fail_share v.mismatches v.unanswered v.refused limit_ms
    (Array.length lat)
    (Array.length lat - int_of_float (Float.ceil (0.99 *. float_of_int (Array.length lat))));
  let unscaled =
    [ ("p50_ms", block_quantile raw_in_order 0.50);
      ("p99_ms", block_quantile raw_in_order 0.99);
      ("sat_qps", r.sat_qps_raw);
      ("update_p50_ms", update_p50 r.writes) ]
  in
  Printf.printf "  host reference unit %.2f us (nominal %.1f); unscaled:%s\n"
    (Hostref.overall_us ()) Hostref.nominal_us
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf " %s %.6g" k v) unscaled));
  Printf.printf
    "  generator lateness: median %.3f ms, max %.3f ms\n"
    (median r.late_ms)
    (List.fold_left Float.max 0.0 r.late_ms);
  Printf.printf
    "  workload properties: plan-hit share %.3f, sub-plan-hit share %.3f, \
     %d distinct instances vs plan cache %d / sub-plan cache %d, evictions \
     %d, writes dropping or re-verifying entries %.2f of %d\n"
    (S.hit_rate st) (S.subplan_hit_rate st) r.distinct cache_capacity
    subcache_capacity st.S.evictions write_effect (List.length r.writes);
  let report =
    Json.Obj
      [ ("workload", Json.String (workload_name o.workload));
        ("host", host_json o ~connections:0);
        ("rate_qps", Json.Float (rate o));
        ("limit_ms", Json.Float limit_ms);
        ("seconds", Json.Float o.seconds);
        ("metrics", Json.Obj metrics);
        ("reference_unit_us", Json.Float (Hostref.overall_us ()));
        ( "reference_unit_us_per_s",
          Json.List (List.map (fun x -> Json.Float x) (Hostref.per_second ())) );
        ("unscaled", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) unscaled));
        ("fail_share", Json.Float fail_share);
        ("sent", Json.Int sent);
        ("open_loop_samples", Json.Int (Array.length lat));
        ( "open_loop_latencies_ms",
          Json.List (List.map (fun x -> Json.Float x) lat_in_order) );
        ( "open_loop_latencies_unscaled_ms",
          Json.List (List.map (fun x -> Json.Float x) raw_in_order) );
        ( "writes",
          Json.List
            (List.map2
               (fun raw w ->
                 Json.Obj
                   [ ("version", Json.Int w.w_ver);
                     ("ms", Json.Float w.w_ms);
                     ("unscaled_ms", Json.Float raw.w_ms);
                     ("dropped", Json.Int w.w_dropped);
                     ("reverified", Json.Int w.w_reverified) ])
               r.writes writes) );
        ( "closed_loop_window_qps",
          Json.List (List.map (fun x -> Json.Float x) r.window_rates) );
        ("mismatches", Json.Int v.mismatches);
        ("unanswered", Json.Int v.unanswered);
        ("refused", Json.Int v.refused);
        ("generator_late_ms_median", Json.Float (median r.late_ms));
        ("generator_late_ms_max", Json.Float (List.fold_left Float.max 0.0 r.late_ms));
        ( "properties",
          Json.Obj
            [ ("plan_hit_share", Json.Float (S.hit_rate st));
              ("subplan_hit_share", Json.Float (S.subplan_hit_rate st));
              ("distinct_instances", Json.Int r.distinct);
              ("plan_cache_capacity", Json.Int cache_capacity);
              ("subplan_cache_capacity", Json.Int subcache_capacity);
              ("evictions", Json.Int st.S.evictions);
              ("writes", Json.Int (List.length r.writes));
              ("write_effect_share", Json.Float write_effect) ] );
        ("service", S.stats_json st) ]
  in
  finish o ~correct:(failed = 0) ~attempted:sent ~failed ~metrics ~report
