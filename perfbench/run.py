#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tpch-param --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is built from source with
dune into the checkout's own _build; the last line of stdout is the
result object {correct, attempted, failed, metrics}. Exit codes: 0 ok,
1 build or usage failure, 2 an oracle mismatch, 3 host guard refusal.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "mpqbench.exe")
RUN_TIMEOUT_S = 170


def env():
    e = dict(os.environ)
    e["DUNE_CACHE"] = "disabled"  # keep every build artifact in the checkout
    return e


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.exit("run.py: no dune-project and lib/ beside perfbench/: "
                 "run from a full checkout of the repository")
    r = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/mpqbench.exe"],
                       cwd=ROOT, env=env(), stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.exit("run.py: build failed")


def revision():
    """git revision when available, else a digest of the sources."""
    try:
        # never look above the checkout for a repository
        e = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, env=e,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(dirpath, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def bench_args(workload, seed, seconds, trace, extra=()):
    return [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--rev", revision(), *extra]


def run(args, capture):
    """Run the benchmark binary; its stdout passes through unless captured.
    It runs in a session of its own, so a timeout kills its generator
    process too."""
    p = subprocess.Popen(args, cwd=ROOT, env=env(), start_new_session=True,
                         stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, ""
    return p.returncode, (out or "")


def self_test():
    """Tiny-length runs: every workload reports exactly the declared
    metrics in both modes, and the oracle gate fires on one flipped
    response byte (injected into the comparison, not the program)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    for w in [x["name"] for x in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run(bench_args(w, 7, 1, trace, ["--trace-ops", "30"]), True)
            try:
                res = json.loads(out.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failures.append(f"{w} trace {trace}: no result line (exit {code})")
                continue
            if code != 0 or set(res) != {"correct", "attempted", "failed", "metrics"} \
                    or res["correct"] is not True:
                failures.append(f"{w} trace {trace}: exit {code}, result {res}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want:
                failures.append(f"{w} trace {trace}: metrics {sorted(got)} != {sorted(want)}")
            print(f"self-test: {w} trace {trace}: {len(got)} metrics, exit {code}")
    code, out = run(bench_args("policy-churn", 7, 1, 0, ["--flip-byte"]), True)
    res = json.loads(out.strip().splitlines()[-1])
    if code != 2 or res["correct"] is not False or res["failed"] < 1:
        failures.append(f"flipped byte not caught: exit {code}, result {res}")
    print(f"self-test: flipped response byte -> exit {code}, failed {res['failed']}")
    for f in failures:
        print("SELF-TEST FAILURE: " + f, file=sys.stderr)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload not in ("tpch-param", "policy-churn"):
        ap.error("--workload must be tpch-param or policy-churn")
    build()
    if a.self_test:
        return self_test()
    code, _ = run(bench_args(a.workload, a.seed, a.seconds, a.trace), False)
    return code


if __name__ == "__main__":
    sys.exit(main())
