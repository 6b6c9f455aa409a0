(* serve_bench — wall-clock effect of the serving layer's verified plan
   cache, measured over the TPC-H workload.

   For every scenario the full query set is submitted twice through one
   {!Serve.Service}: a cold pass (every submission misses, plans and
   verifies) and a warm pass (every submission must hit). The warm pass
   rebuilds each query from scratch — fresh plan-node ids — so a hit
   certifies that the cache key is structural. Each warm response is
   checked against its cold counterpart: structurally identical plan,
   byte-identical result table. Any divergence (a warm miss, a plan
   mismatch, a result mismatch) makes the bench exit 2.

   A third phase replays a generated query stream (duplicate queries at
   a controlled repeat rate — the same generator the differential tests
   replay) in admission-bounded batches, optionally on a domain pool,
   and reports the hit rate and throughput.

     dune exec bench/serve_bench.exe              # full 22 x 3 suite
     dune exec bench/serve_bench.exe -- --quick   # 4-query smoke subset
     dune exec bench/serve_bench.exe -- --jobs 4 --stream 300 -o out.json

   The report is one JSON document (default [BENCH_serve.json]) with
   aggregate and per-(query, scenario) cold/warm numbers plus the
   per-scenario stream statistics. *)

open Relalg

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

let byte_identical a b =
  List.equal Attr.equal (Engine.Table.attrs a) (Engine.Table.attrs b)
  && List.equal
       (fun (r1 : Value.t array) r2 -> r1 = r2)
       (Engine.Table.rows a) (Engine.Table.rows b)

let plan_of (r : Serve.Service.response) =
  Option.map
    (fun p -> p.Planner.Optimizer.extended.Authz.Extend.plan)
    r.Serve.Service.planned

let () =
  let quick = ref false in
  let out = ref "BENCH_serve.json" in
  let sf = ref 0.001 in
  let jobs = ref 1 in
  let stream_len = ref 200 in
  let batch = ref 16 in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "-o" :: file :: rest ->
        out := file;
        parse rest
    | "--sf" :: f :: rest ->
        sf := float_of_string f;
        parse rest
    | "--jobs" :: n :: rest ->
        jobs := int_of_string n;
        parse rest
    | "--stream" :: n :: rest ->
        stream_len := int_of_string n;
        parse rest
    | "--batch" :: n :: rest ->
        batch := int_of_string n;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "serve_bench: unknown argument %s\n\
           usage: serve_bench [--quick] [--sf F] [--jobs N] [--stream N] \
           [--batch N] [-o FILE]\n"
          arg;
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  let queries =
    if !quick then [ 1; 3; 5; 10 ]
    else List.map (fun (q, _, _) -> q) Tpch.Tpch_queries.all
  in
  let data = Tpch.Tpch_data.generate ~sf:!sf () in
  let tables =
    List.map
      (fun (s : Schema.t) ->
        (s.Schema.name, Engine.Table.of_schema s (List.assoc s.Schema.name data)))
      Tpch.Tpch_schema.all
  in
  let divergences = ref 0 in
  let diverge fmt =
    Printf.ksprintf
      (fun msg ->
        incr divergences;
        Printf.eprintf "serve_bench: DIVERGENCE: %s\n%!" msg)
      fmt
  in
  Par.with_pool ~name:"serve" !jobs @@ fun pool ->
  let results =
    List.map
      (fun sc ->
        let service =
          Serve.Service.create ?pool ~max_batch:!batch
            ~policy:(Tpch.Scenarios.policy sc)
            ~subjects:Tpch.Scenarios.subjects ~pricing:Tpch.Scenarios.pricing
            ~base:(Tpch.Tpch_schema.base_stats ~sf:!sf)
            ~deliver_to:Tpch.Scenarios.user ~udfs:Tpch.Tpch_queries.udf_impls
            ~tables ()
        in
        let scn = Tpch.Scenarios.name sc in
        (* cold pass: every query planned, verified, executed, cached *)
        let cold =
          List.map
            (fun q ->
              (q, Serve.Service.submit service (Tpch.Tpch_queries.query q)))
            queries
        in
        List.iter
          (fun (q, (r : Serve.Service.response)) ->
            if r.Serve.Service.status <> Serve.Service.Miss then
              diverge "q%d %s: cold submission did not miss" q scn)
          cold;
        (* warm pass: rebuilt queries, so only structure can match *)
        let warm =
          List.map
            (fun q ->
              (q, Serve.Service.submit service (Tpch.Tpch_queries.query q)))
            queries
        in
        List.iter2
          (fun (q, (c : Serve.Service.response))
               (_, (w : Serve.Service.response)) ->
            if w.Serve.Service.status <> Serve.Service.Hit then
              diverge "q%d %s: warm submission did not hit" q scn;
            (match (plan_of c, plan_of w) with
            | Some pc, Some pw when not (Plan.equal_shape pc pw) ->
                diverge "q%d %s: warm plan differs from cold plan" q scn
            | Some _, Some _ -> ()
            | _ -> diverge "q%d %s: query was rejected" q scn);
            match (c.Serve.Service.outcome, w.Serve.Service.outcome) with
            | Serve.Service.Table tc, Serve.Service.Table tw ->
                if not (byte_identical tc tw) then
                  diverge "q%d %s: warm result differs from cold result" q scn
            | _ -> diverge "q%d %s: non-table outcome" q scn)
          cold warm;
        let cold_ms (_, (r : Serve.Service.response)) = r.Serve.Service.plan_ms in
        let sum l f = List.fold_left (fun acc x -> acc +. f x) 0.0 l in
        let cold_plan_ms = sum cold cold_ms in
        let warm_plan_ms = sum warm cold_ms in
        (* stream phase: duplicate-heavy workload in bounded batches;
           every event rebuilds its query, as a client would *)
        let events =
          Gen.gen_stream ~repeat_rate:0.6 ~mutation_rate:0.0
            ~pool:(Array.of_list queries) !stream_len
            (Random.State.make [| 0x5e1; !stream_len |])
        in
        let stream_queries =
          List.filter_map
            (function
              | Gen.Squery q -> Some (Tpch.Tpch_queries.query q)
              | Gen.Smutate -> None)
            events
        in
        let before = Serve.Service.stats service in
        let _, stream_ms =
          time_ms (fun () ->
              ignore (Serve.Service.submit_batch service stream_queries))
        in
        let after = Serve.Service.stats service in
        let stream_hits = after.Serve.Service.hits - before.Serve.Service.hits in
        let stream_lookups =
          stream_hits
          + (after.Serve.Service.misses - before.Serve.Service.misses)
        in
        let per_query =
          List.map2
            (fun (q, (c : Serve.Service.response))
                 (_, (w : Serve.Service.response)) ->
              Json.Obj
                [ ("query", Json.Int q);
                  ("scenario", Json.String scn);
                  ("cold_plan_ms", Json.Float c.Serve.Service.plan_ms);
                  ("warm_plan_ms", Json.Float w.Serve.Service.plan_ms);
                  ("cold_exec_ms", Json.Float c.Serve.Service.exec_ms);
                  ("warm_exec_ms", Json.Float w.Serve.Service.exec_ms) ])
            cold warm
        in
        Printf.printf
          "%-7s cold plan %8.2f ms, warm plan %8.2f ms (%6.1fx); stream \
           %d queries %8.2f ms, %d/%d hits\n%!"
          scn cold_plan_ms warm_plan_ms
          (cold_plan_ms /. Float.max warm_plan_ms 1e-6)
          (List.length stream_queries)
          stream_ms stream_hits stream_lookups;
        ( scn, cold_plan_ms, warm_plan_ms, per_query,
          (List.length stream_queries, stream_ms, stream_hits, stream_lookups)
        ))
      Tpch.Scenarios.all
  in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 results in
  let cold_total = total (fun (_, c, _, _, _) -> c) in
  let warm_total = total (fun (_, _, w, _, _) -> w) in
  let stream_queries_total =
    List.fold_left (fun acc (_, _, _, _, (n, _, _, _)) -> acc + n) 0 results
  in
  let stream_hits_total =
    List.fold_left (fun acc (_, _, _, _, (_, _, h, _)) -> acc + h) 0 results
  in
  let stream_lookups_total =
    List.fold_left (fun acc (_, _, _, _, (_, _, _, l)) -> acc + l) 0 results
  in
  let stream_ms_total = total (fun (_, _, _, _, (_, ms, _, _)) -> ms) in
  let doc =
    Json.Obj
      [ ("suite", Json.String "serve");
        ("host", Bench_host.json ~jobs:!jobs);
        ("workload",
         Json.String (if !quick then "tpch-quick" else "tpch-22x3"));
        ("sf", Json.Float !sf);
        ("jobs", Json.Int !jobs);
        ("batch", Json.Int !batch);
        ("cold_plan_ms", Json.Float cold_total);
        ("warm_plan_ms", Json.Float warm_total);
        ("warm_speedup", Json.Float (cold_total /. Float.max warm_total 1e-6));
        ("divergences", Json.Int !divergences);
        ("stream",
         Json.Obj
           [ ("length", Json.Int !stream_len);
             ("repeat_rate", Json.Float 0.6);
             ("queries", Json.Int stream_queries_total);
             ("hits", Json.Int stream_hits_total);
             ("lookups", Json.Int stream_lookups_total);
             ("hit_rate",
              Json.Float
                (if stream_lookups_total = 0 then 0.0
                 else
                   float_of_int stream_hits_total
                   /. float_of_int stream_lookups_total));
             ("wall_ms", Json.Float stream_ms_total);
             ("throughput_qps",
              Json.Float
                (if stream_ms_total <= 0.0 then 0.0
                 else
                   1000.0
                   *. float_of_int stream_queries_total
                   /. stream_ms_total)) ]);
        ("per_scenario",
         Json.List
           (List.map
              (fun (scn, c, w, _, (n, ms, h, l)) ->
                Json.Obj
                  [ ("scenario", Json.String scn);
                    ("cold_plan_ms", Json.Float c);
                    ("warm_plan_ms", Json.Float w);
                    ("warm_speedup",
                     Json.Float (c /. Float.max w 1e-6));
                    ("stream_queries", Json.Int n);
                    ("stream_wall_ms", Json.Float ms);
                    ("stream_hits", Json.Int h);
                    ("stream_lookups", Json.Int l) ])
              results));
        ("per_query",
         Json.List (List.concat_map (fun (_, _, _, pq, _) -> pq) results)) ]
  in
  let oc = open_out !out in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "\ntotal plan: cold %.2f ms, warm %.2f ms (%.1fx); stream hit rate \
     %d/%d; report: %s\n"
    cold_total warm_total
    (cold_total /. Float.max warm_total 1e-6)
    stream_hits_total stream_lookups_total !out;
  if !divergences > 0 then exit 2
