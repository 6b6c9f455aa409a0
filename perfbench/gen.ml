(* Request generation: seeded TPC-H-shaped SQL over the three Sec. 7
   tenants. The program under test only ever sees the SQL text.

   Seven templates, each with fresh literals drawn from a per-request
   PRNG state derived from (seed, index), so a stream is a pure
   function of the seed and any prefix of it can be replayed exactly
   (the traced run relies on this). *)

let tenants = [| "UA"; "UAPenc"; "UAPmix" |]

let scenario_of = function
  | "UA" -> Tpch.Scenarios.UA
  | "UAPenc" -> Tpch.Scenarios.UAPenc
  | "UAPmix" -> Tpch.Scenarios.UAPmix
  | t -> invalid_arg ("unknown tenant " ^ t)

type instance = { tenant : string; template : int; sql : string }

let template_names =
  [| "q1-scan-agg"; "q4-date-range"; "q3-join3"; "q5-join5"; "q6-ranges";
     "join2-ol"; "join2-co" |]

let n_templates = Array.length template_names

let segments = [| "AUTOMOBILE"; "BUILDING"; "FURNITURE"; "MACHINERY"; "HOUSEHOLD" |]
let ship_modes = [| "REG AIR"; "AIR"; "RAIL"; "SHIP"; "TRUCK"; "MAIL"; "FOB" |]

(* dates stay on days 1..28 so month arithmetic never needs a calendar *)
type date = { y : int; m : int; d : int }

let date_str { y; m; d } = Printf.sprintf "date '%04d-%02d-%02d'" y m d

let add_months dt k =
  let mm = dt.m - 1 + k in
  { dt with y = dt.y + (mm / 12); m = (mm mod 12) + 1 }

let rand_date st ~y0 ~y1 =
  { y = y0 + Random.State.int st (y1 - y0 + 1);
    m = 1 + Random.State.int st 12;
    d = 1 + Random.State.int st 28 }

let pick st a = a.(Random.State.int st (Array.length a))

(* One instance of [template] with literals drawn from [st]. The
   ranges follow the TPC-H substitution rules where the template has a
   TPC-H counterpart, so instances of one template cost about the same
   and the mix, not the draw, sets the load. *)
let sql_of template st =
  match template with
  | 0 ->
      (* TPC-H Q1: 60-120 days before 1998-12-01 *)
      Printf.sprintf
        "select l_returnflag, l_linestatus, sum(l_quantity), \
         avg(l_extendedprice), count(*) from lineitem where l_shipdate <= %s \
         group by l_returnflag, l_linestatus order by l_returnflag, \
         l_linestatus"
        (date_str
           { y = 1998; m = 8 + Random.State.int st 2; d = 1 + Random.State.int st 28 })
  | 1 ->
      let d = rand_date st ~y0:1992 ~y1:1997 in
      Printf.sprintf
        "select o_orderpriority, count(*) from orders where o_orderdate >= %s \
         and o_orderdate < %s group by o_orderpriority order by \
         o_orderpriority"
        (date_str d)
        (date_str (add_months d 3))
  | 2 ->
      (* TPC-H Q3: a day of March 1995 *)
      let d = { y = 1995; m = 3; d = 1 + Random.State.int st 28 } in
      Printf.sprintf
        "select o_orderkey, sum(l_extendedprice) from customer join orders \
         on c_custkey = o_custkey join lineitem on o_orderkey = l_orderkey \
         where c_mktsegment = '%s' and o_orderdate < %s and l_shipdate > %s \
         group by o_orderkey order by l_extendedprice desc limit 10"
        (pick st segments) (date_str d) (date_str d)
  | 3 ->
      let d = rand_date st ~y0:1992 ~y1:1997 in
      Printf.sprintf
        "select n_name, sum(l_extendedprice) from customer join orders on \
         c_custkey = o_custkey join lineitem on o_orderkey = l_orderkey join \
         supplier on l_suppkey = s_suppkey join nation on s_nationkey = \
         n_nationkey where o_orderdate >= %s and o_orderdate < %s group by \
         n_name"
        (date_str d)
        (date_str (add_months d 12))
  | 4 ->
      let d = rand_date st ~y0:1993 ~y1:1997 in
      let disc = 2 + Random.State.int st 8 in
      Printf.sprintf
        "select sum(l_extendedprice) from lineitem where l_shipdate >= %s \
         and l_shipdate < %s and l_discount between 0.%02d and 0.%02d and \
         l_quantity < %d"
        (date_str d)
        (date_str (add_months d 12))
        (disc - 1) (disc + 1)
        (24 + Random.State.int st 2)
  | 5 ->
      let d = rand_date st ~y0:1992 ~y1:1997 in
      let n = Array.length ship_modes in
      let i1 = Random.State.int st n in
      let i2 = (i1 + 1 + Random.State.int st (n - 1)) mod n in
      Printf.sprintf
        "select l_shipmode, count(*) from orders join lineitem on o_orderkey \
         = l_orderkey where l_shipmode in ('%s', '%s') and l_receiptdate >= \
         %s and l_receiptdate < %s group by l_shipmode order by l_shipmode"
        ship_modes.(i1) ship_modes.(i2) (date_str d)
        (date_str (add_months d 12))
  | _ ->
      let d = rand_date st ~y0:1992 ~y1:1997 in
      Printf.sprintf
        "select c_mktsegment, sum(o_totalprice) from customer join orders on \
         c_custkey = o_custkey where o_orderdate >= %s and o_orderdate < %s \
         and c_acctbal > %d group by c_mktsegment order by c_mktsegment"
        (date_str d)
        (date_str (add_months d 6))
        (Random.State.int st 1000)

let state seed i = Random.State.make [| 0x6d7071; seed; i |]

(* tpch-param: request [i] cycles templates fastest, then tenants, so
   every 21 consecutive requests cover each (template, tenant) pair
   once; literals are fresh per request. The template order puts the
   costliest request of a cycle, the Q3 join, and the requests that
   queue behind it (2-way join, Q5 join) above the latency median, and
   the cheap scans that sit near the median behind cheap requests. So
   the median is a request's own cost, not its wait behind an earlier
   one: with Q4 right behind Q3 under UAPenc and UAPmix, Q4 waited
   0-25 ms in some cycles and not in others, sat at the median, and
   moved it by 10% from run to run. *)
let param_order = [| 0; 4; 1; 2; 6; 3; 5 |]

let param ~seed i =
  let template = param_order.(i mod n_templates) in
  { tenant = tenants.(i / n_templates mod 3); template;
    sql = sql_of template (state seed i) }

(* A fixed population, stratified so every (template, tenant) pair
   holds [per_pair] instances: the population's mix — and with it the
   mean plan cost — does not swing with the seed. *)
let population ~seed ~tenants ~per_pair =
  let tenants = Array.of_list tenants in
  let nt = Array.length tenants in
  Array.init (n_templates * nt * per_pair) (fun k ->
      let tenant = tenants.(k mod nt) in
      let template = k / nt mod n_templates in
      { tenant; template; sql = sql_of template (state (seed + 7919) k) })

(* Zipf(s = 1) rank sampler over [n] items via the inverse CDF *)
let zipf_cdf n =
  let w = Array.init n (fun k -> 1.0 /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf st =
  let u = Random.State.float st 1.0 in
  let n = Array.length cdf in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then go (mid + 1) hi else go lo mid
  in
  min (n - 1) (go 0 (n - 1))

(* Zipf-skewed picks over a population built by [population]. Rank
   [k] is member [k] — tenant [k mod 3], then template, then variant —
   so every seed puts the same (template, tenant) pair at every rank;
   the seed changes only the literals and the order of the picks. *)
let skewed ~seed pop =
  let cdf = zipf_cdf (Array.length pop) in
  fun i -> pop.(zipf_draw cdf (state seed i))
