(* mqo_bench — what multi-query optimization buys, measured against the
   isolated baseline it must be indistinguishable from.

   Two workloads drive one sharing {!Serve.Service} (plan DAG, batch
   grouping, sub-plan result memoization, shared derivations) and an
   isolated oracle — an independent, fresh, [~sharing:false] service
   per query occurrence, planning and verifying its tree from scratch:

   - the TPC-H shapes, replayed as a duplicate-heavy stream in
     admission-bounded batches per scenario (cross-query and
     cross-batch sharing of whole plans and their subtrees);
   - random overlapping batches ([Gen.gen_batch]): a few shared cores
     under fresh single-operator tops, the within-batch sharing case.

   Every shared response is byte-compared against its isolated oracle
   response — ciphertext included. Any divergence makes the bench
   exit 2: the speedup numbers are meaningless unless sharing is
   invisible in the bytes.

     dune exec bench/mqo_bench.exe               # full suite
     dune exec bench/mqo_bench.exe -- --quick    # CI smoke subset
     dune exec bench/mqo_bench.exe -- --jobs 4 -o out.json

   The report is one JSON document (default [BENCH_mqo.json]) with
   shared vs isolated planning+verification and execution totals, the
   sub-plan cache hit rate, DAG sharing statistics, and the divergence
   count (always 0 on a successful exit).

   Jobs default to 1: per-response [plan_ms] is wall-clock measured
   inside each parallel planning task, so running the shared side's
   plan phase on N domains inflates every task with CPU contention the
   one-query-at-a-time isolated oracle never sees. At [--jobs 1] both
   sides time the same uncontended work; higher job counts are for
   exercising the parallel exec path, not for the speedup headline. *)

open Relalg

let byte_identical a b =
  List.equal Attr.equal (Engine.Table.attrs a) (Engine.Table.attrs b)
  && List.equal
       (fun (r1 : Value.t array) r2 -> r1 = r2)
       (Engine.Table.rows a) (Engine.Table.rows b)

let outcome_equal a b =
  match (a, b) with
  | Serve.Service.Table x, Serve.Service.Table y -> byte_identical x y
  | Serve.Service.Rejected x, Serve.Service.Rejected y -> x = y
  | _ -> false

(* the random-catalog fixtures the differential tests use *)
let gen_catalog_tables () =
  let mk schema n row =
    (schema.Schema.name, Engine.Table.of_schema schema (List.init n row))
  in
  let strs = [| "ga"; "bu"; "zo"; "meu" |] in
  [ mk Gen.rel1 17 (fun i ->
        [| Value.Int (i mod 7); Value.Int (i * 3 mod 11);
           Value.Str strs.(i mod 4); Value.Int (i mod 5) |]);
    mk Gen.rel2 13 (fun i ->
        [| Value.Int (i mod 7); Value.Int (i mod 9); Value.Str strs.(i mod 4) |]);
    mk Gen.rel3 11 (fun i -> [| Value.Int (i mod 6); Value.Int (i mod 4) |]) ]

let udf_impls =
  [ ( "f",
      fun vals ->
        let total =
          List.fold_left
            (fun acc v ->
              match Value.to_float v with Some f -> acc +. f | None -> acc)
            0.0 vals
        in
        Value.Int (int_of_float total mod 97) ) ]

type side = { mutable plan_ms : float; mutable exec_ms : float }

let add side (r : Serve.Service.response) =
  side.plan_ms <- side.plan_ms +. r.Serve.Service.plan_ms;
  side.exec_ms <- side.exec_ms +. r.Serve.Service.exec_ms

type sharing_totals = {
  mutable subplan_hits : int;
  mutable subplan_stores : int;
  mutable shared_execs : int;
  mutable derivations : int;
  mutable dag_nodes : int;
  mutable dag_occurrences : int;
  mutable dag_shared_nodes : int;
  mutable dag_shared_occurrences : int;
}

let absorb totals service =
  let s = Serve.Service.stats service in
  let d = Serve.Service.dag_stats service in
  totals.subplan_hits <- totals.subplan_hits + s.Serve.Service.subplan_hits;
  totals.subplan_stores <-
    totals.subplan_stores + s.Serve.Service.subplan_stores;
  totals.shared_execs <- totals.shared_execs + s.Serve.Service.shared_execs;
  totals.derivations <-
    totals.derivations + Serve.Service.derivations_shared service;
  totals.dag_nodes <- totals.dag_nodes + d.Planner.Dag.nodes;
  totals.dag_occurrences <- totals.dag_occurrences + d.Planner.Dag.occurrences;
  totals.dag_shared_nodes <-
    totals.dag_shared_nodes + d.Planner.Dag.shared_nodes;
  totals.dag_shared_occurrences <-
    totals.dag_shared_occurrences + d.Planner.Dag.shared_occurrences

let () =
  let quick = ref false in
  let out = ref "BENCH_mqo.json" in
  let sf = ref 0.001 in
  let jobs = ref 1 in
  let stream_len = ref 0 in
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
          "mqo_bench: unknown argument %s\n\
           usage: mqo_bench [--quick] [--sf F] [--jobs N] [--stream N] \
           [--batch N] [-o FILE]\n"
          arg;
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  let stream_len = if !stream_len > 0 then !stream_len else if !quick then 24 else 132 in
  let queries =
    if !quick then [ 1; 3; 5; 10 ]
    else List.map (fun (q, _, _) -> q) Tpch.Tpch_queries.all
  in
  let scenarios =
    if !quick then [ List.hd Tpch.Scenarios.all ] else Tpch.Scenarios.all
  in
  let divergences = ref 0 in
  let diverge fmt =
    Printf.ksprintf
      (fun msg ->
        incr divergences;
        Printf.eprintf "mqo_bench: DIVERGENCE: %s\n%!" msg)
      fmt
  in
  let shared_side = { plan_ms = 0.0; exec_ms = 0.0 } in
  let isolated_side = { plan_ms = 0.0; exec_ms = 0.0 } in
  let totals =
    { subplan_hits = 0; subplan_stores = 0; shared_execs = 0; derivations = 0;
      dag_nodes = 0; dag_occurrences = 0; dag_shared_nodes = 0;
      dag_shared_occurrences = 0 }
  in
  let chunks n l =
    let rec go acc cur k = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
          if k = n then go (List.rev cur :: acc) [ x ] 1 rest
          else go acc (x :: cur) (k + 1) rest
    in
    go [] [] 0 l
  in
  Par.with_pool ~name:"mqo" !jobs @@ fun pool ->
  (* --- workload 1: TPC-H shapes as a duplicate-heavy stream --- *)
  let data = Tpch.Tpch_data.generate ~sf:!sf () in
  let tables =
    List.map
      (fun (s : Schema.t) ->
        (s.Schema.name, Engine.Table.of_schema s (List.assoc s.Schema.name data)))
      Tpch.Tpch_schema.all
  in
  let per_scenario =
    List.map
      (fun sc ->
        let scn = Tpch.Scenarios.name sc in
        let mk_service ?(sharing = true) () =
          Serve.Service.create ?pool ~sharing ~max_batch:!batch
            ~policy:(Tpch.Scenarios.policy sc)
            ~subjects:Tpch.Scenarios.subjects ~pricing:Tpch.Scenarios.pricing
            ~base:(Tpch.Tpch_schema.base_stats ~sf:!sf)
            ~deliver_to:Tpch.Scenarios.user ~udfs:Tpch.Tpch_queries.udf_impls
            ~tables ()
        in
        let shared = mk_service () in
        let events =
          Gen.gen_stream ~repeat_rate:0.7 ~mutation_rate:0.0
            ~pool:(Array.of_list queries) stream_len
            (Random.State.make [| 0x3c0; stream_len |])
        in
        let stream =
          List.filter_map
            (function Gen.Squery q -> Some q | Gen.Smutate -> None)
            events
        in
        let s_plan0 = shared_side.plan_ms and s_exec0 = shared_side.exec_ms in
        let i_plan0 = isolated_side.plan_ms in
        (* shared side: the stream in admission-bounded batches, every
           event rebuilding its query as a client would *)
        let responses =
          List.concat_map
            (fun round ->
              let rs =
                Serve.Service.submit_batch shared
                  (List.map Tpch.Tpch_queries.query round)
              in
              List.iter (add shared_side) rs;
              List.combine round rs)
            (chunks !batch stream)
        in
        (* isolated oracle: one fresh tree-planned service per event *)
        List.iter
          (fun (q, (r : Serve.Service.response)) ->
            let fresh = mk_service ~sharing:false () in
            let f = Serve.Service.submit fresh (Tpch.Tpch_queries.query q) in
            add isolated_side f;
            if not (outcome_equal f.Serve.Service.outcome r.Serve.Service.outcome)
            then diverge "q%d %s: shared bytes differ from isolated oracle" q scn)
          responses;
        absorb totals shared;
        let st = Serve.Service.stats shared in
        let shared_plan = shared_side.plan_ms -. s_plan0 in
        let isolated_plan = isolated_side.plan_ms -. i_plan0 in
        Printf.printf
          "%-7s %3d queries: plan+verify shared %8.2f ms, isolated %8.2f ms \
           (%5.1fx); sub-plan hit rate %.2f\n%!"
          scn (List.length stream) shared_plan isolated_plan
          (isolated_plan /. Float.max shared_plan 1e-6)
          (Serve.Service.subplan_hit_rate st);
        Json.Obj
          [ ("scenario", Json.String scn);
            ("stream_queries", Json.Int (List.length stream));
            ("shared_plan_ms", Json.Float shared_plan);
            ("isolated_plan_ms", Json.Float isolated_plan);
            ("plan_speedup",
             Json.Float (isolated_plan /. Float.max shared_plan 1e-6));
            ("shared_exec_ms", Json.Float (shared_side.exec_ms -. s_exec0));
            ("subplan_hit_rate",
             Json.Float (Serve.Service.subplan_hit_rate st)) ])
      scenarios
  in
  (* --- workload 2: random overlapping batches (within-batch cores) --- *)
  let rand = Random.State.make [| 0xA11; 9 |] in
  let policy = Gen.gen_policy rand in
  let rounds = if !quick then 4 else 12 in
  let per_round = if !quick then 6 else 8 in
  let shared_rand =
    Serve.Service.create ?pool ~policy ~subjects:Gen.subjects
      ~tables:(gen_catalog_tables ()) ~udfs:udf_impls ~deliver_to:Gen.user ()
  in
  let rb_shared0 = shared_side.plan_ms and rb_isolated0 = isolated_side.plan_ms in
  let rb_planned = ref 0 and rb_queries = ref 0 in
  for _ = 1 to rounds do
    let batch_qs = Gen.gen_batch ~overlap:0.8 per_round rand in
    let rs = Serve.Service.submit_batch shared_rand batch_qs in
    List.iter (add shared_side) rs;
    List.iter2
      (fun q (r : Serve.Service.response) ->
        incr rb_queries;
        (match r.Serve.Service.outcome with
        | Serve.Service.Table _ -> incr rb_planned
        | _ -> ());
        let fresh =
          Serve.Service.create ?pool ~sharing:false ~policy
            ~subjects:Gen.subjects ~tables:(gen_catalog_tables ())
            ~udfs:udf_impls ~deliver_to:Gen.user ()
        in
        let f = Serve.Service.submit fresh q in
        add isolated_side f;
        if not (outcome_equal f.Serve.Service.outcome r.Serve.Service.outcome)
        then diverge "random batch query: shared bytes differ from oracle")
      batch_qs rs
  done;
  absorb totals shared_rand;
  let rb_shared = shared_side.plan_ms -. rb_shared0 in
  let rb_isolated = isolated_side.plan_ms -. rb_isolated0 in
  Printf.printf
    "random  %3d queries (%d planned): plan+verify shared %8.2f ms, isolated \
     %8.2f ms (%5.1fx); sub-plan hit rate %.2f\n%!"
    !rb_queries !rb_planned rb_shared rb_isolated
    (rb_isolated /. Float.max rb_shared 1e-6)
    (Serve.Service.subplan_hit_rate (Serve.Service.stats shared_rand));
  (* --- report --- *)
  let plan_speedup =
    isolated_side.plan_ms /. Float.max shared_side.plan_ms 1e-6
  in
  let hit_rate =
    let h = totals.subplan_hits and s = totals.subplan_stores in
    if h + s = 0 then 0.0 else float_of_int h /. float_of_int (h + s)
  in
  let doc =
    Json.Obj
      [ ("suite", Json.String "mqo");
        ("host", Bench_host.json ~jobs:!jobs);
        ("workload",
         Json.String (if !quick then "tpch-quick+random" else "tpch-22x3+random"));
        ("sf", Json.Float !sf);
        ("jobs", Json.Int !jobs);
        ("batch", Json.Int !batch);
        ("stream_len", Json.Int stream_len);
        ("shared_plan_ms", Json.Float shared_side.plan_ms);
        ("isolated_plan_ms", Json.Float isolated_side.plan_ms);
        ("plan_speedup", Json.Float plan_speedup);
        ("shared_exec_ms", Json.Float shared_side.exec_ms);
        ("isolated_exec_ms", Json.Float isolated_side.exec_ms);
        ("exec_speedup",
         Json.Float (isolated_side.exec_ms /. Float.max shared_side.exec_ms 1e-6));
        ("subplan_hits", Json.Int totals.subplan_hits);
        ("subplan_stores", Json.Int totals.subplan_stores);
        ("subplan_hit_rate", Json.Float hit_rate);
        ("shared_execs", Json.Int totals.shared_execs);
        ("derivations_shared", Json.Int totals.derivations);
        ("dag",
         Json.Obj
           [ ("nodes", Json.Int totals.dag_nodes);
             ("occurrences", Json.Int totals.dag_occurrences);
             ("shared_nodes", Json.Int totals.dag_shared_nodes);
             ("shared_occurrences", Json.Int totals.dag_shared_occurrences) ]);
        ("divergences", Json.Int !divergences);
        ("per_scenario", Json.List per_scenario) ]
  in
  let oc = open_out !out in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "\ntotal plan+verify: shared %.2f ms, isolated %.2f ms (%.1fx); sub-plan \
     hit rate %.2f; %d divergences; report: %s\n"
    shared_side.plan_ms isolated_side.plan_ms plan_speedup hit_rate
    !divergences !out;
  if !divergences > 0 then exit 2
