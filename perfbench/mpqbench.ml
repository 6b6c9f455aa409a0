(* mpqbench — the repository benchmark: serving of
   TPC-H-shaped queries under the paper's three Sec. 7 authorization
   scenarios (tenants UA, UAPenc, UAPmix of one Serve.Service), with
   every response checked against an isolated oracle.

     mpqbench --workload tpch-param|policy-churn --seed N --seconds S
              --trace 0|1 [--out DIR] [--rev REV] [--trace-ops N]
              [--flip-byte]

   --trace 0 measures the end-to-end metrics (E2e); --trace 1 is the
   separate traced replay that reports per-layer metrics (Traced). The
   last line of stdout is one JSON object
   {correct, attempted, failed, metrics}. Exit codes: 0 ok, 2 an
   oracle mismatch (the repo's divergence convention), 3 host guard
   refusal, 1 usage. perfbench/run.py builds and drives this. *)

let () =
  let o = Sut.parse_args () in
  Sut.guard ();
  if o.Sut.trace then Traced.main o else E2e.main o
