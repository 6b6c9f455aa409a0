type node =
  | Base of Schema.t
  | Project of Attr.Set.t * t
  | Select of Predicate.t * t
  | Product of t * t
  | Join of Predicate.t * t * t
  | Group_by of Attr.Set.t * Aggregate.t list * t
  | Udf of string * Attr.Set.t * Attr.t * t
  | Order_by of (Attr.t * sort_dir) list * t
  | Limit of int * t
  | Encrypt of Attr.Set.t * t
  | Decrypt of Attr.Set.t * t

and sort_dir = Asc | Desc

and t = { id : int; node : node }

(* Atomic: plans are built concurrently (parallel planning sweeps run
   one query per domain), and ids must stay unique across domains. *)
let counter = Atomic.make 0

let fresh node = { id = Atomic.fetch_and_add counter 1 + 1; node }

let id t = t.id
let node t = t.node

let children t =
  match t.node with
  | Base _ -> []
  | Project (_, c)
  | Select (_, c)
  | Group_by (_, _, c)
  | Udf (_, _, _, c)
  | Order_by (_, c)
  | Limit (_, c)
  | Encrypt (_, c)
  | Decrypt (_, c) ->
      [ c ]
  | Product (l, r) | Join (_, l, r) -> [ l; r ]

let rec schema t =
  match t.node with
  | Base s -> Schema.attrs s
  | Project (attrs, _) -> attrs
  | Select (_, c) -> schema c
  | Product (l, r) | Join (_, l, r) -> Attr.Set.union (schema l) (schema r)
  | Group_by (keys, aggs, _) ->
      List.fold_left
        (fun acc (agg : Aggregate.t) -> Attr.Set.add agg.output acc)
        keys aggs
  | Udf (_, inputs, output, c) ->
      Attr.Set.add output
        (Attr.Set.diff (schema c) (Attr.Set.remove output inputs))
  | Order_by (_, c) | Limit (_, c) -> schema c
  | Encrypt (_, c) | Decrypt (_, c) -> schema c

let check_subset ~what needed available =
  if not (Attr.Set.subset needed available) then
    invalid_arg
      (Printf.sprintf "Plan.%s: attributes %s not in operand schema %s" what
         (Attr.Set.to_string (Attr.Set.diff needed available))
         (Attr.Set.to_string available))

let base s = fresh (Base s)

let project attrs child =
  check_subset ~what:"project" attrs (schema child);
  if Attr.Set.is_empty attrs then invalid_arg "Plan.project: empty projection";
  fresh (Project (attrs, child))

let select pred child =
  check_subset ~what:"select" (Predicate.attrs pred) (schema child);
  fresh (Select (pred, child))

let check_disjoint_operands ~what l r =
  let common = Attr.Set.inter (schema l) (schema r) in
  if not (Attr.Set.is_empty common) then
    invalid_arg
      (Printf.sprintf "Plan.%s: operand schemas share attributes %s" what
         (Attr.Set.to_string common))

let product l r =
  check_disjoint_operands ~what:"product" l r;
  fresh (Product (l, r))

let join pred l r =
  check_disjoint_operands ~what:"join" l r;
  check_subset ~what:"join" (Predicate.attrs pred)
    (Attr.Set.union (schema l) (schema r));
  if Predicate.attr_pairs pred = [] then
    invalid_arg "Plan.join: condition compares no attribute pair";
  fresh (Join (pred, l, r))

let group_by keys aggs child =
  let sch = schema child in
  check_subset ~what:"group_by" keys sch;
  List.iter
    (fun (agg : Aggregate.t) ->
      match Aggregate.operand agg with
      | Some a -> check_subset ~what:"group_by aggregate" (Attr.Set.singleton a) sch
      | None -> ())
    aggs;
  fresh (Group_by (keys, aggs, child))

let udf name inputs output child =
  check_subset ~what:"udf" inputs (schema child);
  if Attr.Set.is_empty inputs then invalid_arg "Plan.udf: no input attributes";
  if not (Attr.Set.mem output inputs) then
    invalid_arg "Plan.udf: output must be named after one of the inputs";
  fresh (Udf (name, inputs, output, child))

let order_by keys child =
  if keys = [] then invalid_arg "Plan.order_by: no sort keys";
  check_subset ~what:"order_by"
    (Attr.Set.of_list (List.map fst keys))
    (schema child);
  fresh (Order_by (keys, child))

let limit n child =
  if n < 0 then invalid_arg "Plan.limit: negative";
  fresh (Limit (n, child))

let encrypt attrs child =
  check_subset ~what:"encrypt" attrs (schema child);
  if Attr.Set.is_empty attrs then child
  else fresh (Encrypt (attrs, child))

let decrypt attrs child =
  check_subset ~what:"decrypt" attrs (schema child);
  if Attr.Set.is_empty attrs then child
  else fresh (Decrypt (attrs, child))

let is_leaf t = match t.node with Base _ -> true | _ -> false

(* Rebuild one node over replacement children (through the smart
   constructors, so schema/arity invariants are re-checked and a fresh
   id is allocated). The hash-consing DAG store uses this to splice
   canonical shared subtrees under existing operators. *)
let with_children t cs =
  match (t.node, cs) with
  | Base _, [] -> t
  | Project (a, _), [ c ] -> project a c
  | Select (p, _), [ c ] -> select p c
  | Product _, [ l; r ] -> product l r
  | Join (p, _, _), [ l; r ] -> join p l r
  | Group_by (k, ag, _), [ c ] -> group_by k ag c
  | Udf (n, i, o, _), [ c ] -> udf n i o c
  | Order_by (k, _), [ c ] -> order_by k c
  | Limit (n, _), [ c ] -> limit n c
  | Encrypt (a, _), [ c ] -> encrypt a c
  | Decrypt (a, _), [ c ] -> decrypt a c
  | _ ->
      invalid_arg
        (Printf.sprintf "Plan.with_children: %s given %d children"
           (match t.node with Base s -> s.Schema.name | _ -> "operator")
           (List.length cs))

(* ---- literal binding ----

   A plan's literal slots are the values of its [Cmp_const] atoms and
   the elements of its [In_list] atoms, in preorder: a node's own
   predicate (clause, atom, list-element order) before its children,
   left to right. The plan-cache shape key abstracts exactly these
   slots (Planner.Fingerprint.of_plan_shape), so a cached plan serves
   any query of its shape once the query's values are bound in. *)

let pred_has_literals pred =
  List.exists
    (List.exists (function
      | Predicate.Cmp_const _ | Predicate.In_list _ -> true
      | Predicate.Cmp_attr _ | Predicate.Like _ -> false))
    pred

(* List.map applies its function in list order, so [next] is drawn in
   slot order *)
let bind_pred next pred =
  List.map
    (List.map (function
      | Predicate.Cmp_const (a, op, _) -> Predicate.Cmp_const (a, op, next ())
      | Predicate.In_list (a, vs) ->
          Predicate.In_list (a, List.map (fun _ -> next ()) vs)
      | atom -> atom))
    pred

let bind t lits =
  let n = Array.length lits and i = ref 0 in
  let next () =
    if !i >= n then invalid_arg "Plan.bind: fewer values than literal slots";
    let v = lits.(!i) in
    incr i;
    v
  in
  let renamed = ref [] in
  let rec go t =
    let pred =
      match t.node with
      | (Select (p, _) | Join (p, _, _)) when pred_has_literals p ->
          Some (bind_pred next p)
      | _ -> None
    in
    let cs = children t in
    let cs' = List.map go cs in
    if Option.is_none pred && List.for_all2 ( == ) cs cs' then t
    else begin
      (* same shape as [t] with new values: the smart constructors'
         schema checks already held for [t] and would only recompute
         schemas down the whole subtree *)
      let pick p = Option.value pred ~default:p in
      let node =
        match (t.node, cs') with
        | Select (p, _), [ c ] -> Select (pick p, c)
        | Join (p, _, _), [ l; r ] -> Join (pick p, l, r)
        | Project (a, _), [ c ] -> Project (a, c)
        | Product _, [ l; r ] -> Product (l, r)
        | Group_by (k, ag, _), [ c ] -> Group_by (k, ag, c)
        | Udf (nm, ins, o, _), [ c ] -> Udf (nm, ins, o, c)
        | Order_by (k, _), [ c ] -> Order_by (k, c)
        | Limit (k, _), [ c ] -> Limit (k, c)
        | Encrypt (a, _), [ c ] -> Encrypt (a, c)
        | Decrypt (a, _), [ c ] -> Decrypt (a, c)
        | _ -> assert false
      in
      let t' = fresh node in
      renamed := (t.id, t'.id) :: !renamed;
      t'
    end
  in
  let t' = go t in
  if !i <> n then invalid_arg "Plan.bind: more values than literal slots";
  (t', List.rev !renamed)

let rec fold f acc t = List.fold_left (fold f) (f acc t) (children t)
let iter f t = fold (fun () n -> f n) () t
let size t = fold (fun n _ -> n + 1) 0 t

let rec height t =
  match children t with
  | [] -> 1
  | cs -> 1 + List.fold_left (fun m c -> max m (height c)) 0 cs

let nodes t =
  (* post-order: children first *)
  let rec go acc t = t :: List.fold_left go acc (List.rev (children t)) in
  List.rev (go [] t)

let find t i = fold (fun acc n -> if n.id = i then Some n else acc) None t
let descendants t n = fold (fun acc m -> acc || m.id = n.id) false t

let base_relations t =
  List.filter_map
    (fun n -> match n.node with Base s -> Some s | _ -> None)
    (nodes t)

let operator_name t =
  match t.node with
  | Base s -> s.Schema.name
  | Project _ -> "project"
  | Select _ -> "select"
  | Product _ -> "product"
  | Join _ -> "join"
  | Group_by _ -> "group_by"
  | Udf (name, _, _, _) -> "udf:" ^ name
  | Order_by _ -> "order_by"
  | Limit _ -> "limit"
  | Encrypt _ -> "encrypt"
  | Decrypt _ -> "decrypt"

let rec strip_crypto t =
  match t.node with
  | Base s -> base s
  | Project (a, c) -> project a (strip_crypto c)
  | Select (p, c) -> select p (strip_crypto c)
  | Product (l, r) -> product (strip_crypto l) (strip_crypto r)
  | Join (p, l, r) -> join p (strip_crypto l) (strip_crypto r)
  | Group_by (k, ag, c) -> group_by k ag (strip_crypto c)
  | Udf (n, i, o, c) -> udf n i o (strip_crypto c)
  | Order_by (k, c) -> order_by k (strip_crypto c)
  | Limit (n, c) -> limit n (strip_crypto c)
  | Encrypt (_, c) | Decrypt (_, c) -> strip_crypto c

let rec equal_shape a b =
  match (a.node, b.node) with
  | Base s1, Base s2 -> s1 = s2
  | Project (x, c1), Project (y, c2) -> Attr.Set.equal x y && equal_shape c1 c2
  | Select (p1, c1), Select (p2, c2) -> p1 = p2 && equal_shape c1 c2
  | Product (l1, r1), Product (l2, r2) ->
      equal_shape l1 l2 && equal_shape r1 r2
  | Join (p1, l1, r1), Join (p2, l2, r2) ->
      p1 = p2 && equal_shape l1 l2 && equal_shape r1 r2
  | Group_by (k1, a1, c1), Group_by (k2, a2, c2) ->
      Attr.Set.equal k1 k2 && a1 = a2 && equal_shape c1 c2
  | Udf (n1, i1, o1, c1), Udf (n2, i2, o2, c2) ->
      n1 = n2 && Attr.Set.equal i1 i2 && Attr.equal o1 o2 && equal_shape c1 c2
  | Order_by (k1, c1), Order_by (k2, c2) -> k1 = k2 && equal_shape c1 c2
  | Limit (n1, c1), Limit (n2, c2) -> n1 = n2 && equal_shape c1 c2
  | Encrypt (x, c1), Encrypt (y, c2) | Decrypt (x, c1), Decrypt (y, c2) ->
      Attr.Set.equal x y && equal_shape c1 c2
  | _ -> false

(* Raw node ids come from a global allocation counter, so two builds of
   the same query carry different ids. Consumers that must be stable
   across rebuilds (the executor's ciphertext randomness, the verifier's
   diagnostics) key on the node's preorder position instead. *)
let preorder_positions t =
  let tbl = Hashtbl.create 64 in
  let next = ref 0 in
  let rec visit p =
    (* First visit wins. On trees every id is visited once; on a
       hash-consed DAG a shared node is reached once per parent, and
       an id-keyed table can only record one of its occurrence
       positions — so consumers that must label every {e occurrence}
       (the executor's ciphertext randomness) thread positions through
       their own traversal instead ({!child_positions}). Keeping the first
       (leftmost) occurrence makes the one recorded position stable
       rather than traversal-order dependent. *)
    if not (Hashtbl.mem tbl p.id) then begin
      Hashtbl.add tbl p.id !next;
      incr next;
      List.iter visit (children p)
    end
    else
      (* the subtree below a shared node still advances the counter
         once per occurrence, as in the equivalent tree *)
      next := !next + size p
  in
  visit t;
  tbl

(* Per-occurrence preorder arithmetic: the position of child [i] is its
   parent's position + 1 + the (occurrence-counting) sizes of the
   earlier siblings' subtrees. A pure function of structure, valid on
   DAGs — the caller supplies the occurrence's own position. *)
let child_positions t pos =
  let _, rev =
    List.fold_left
      (fun (p, acc) c -> (p + size c, (c, p) :: acc))
      (pos + 1, []) (children t)
  in
  List.rev rev
