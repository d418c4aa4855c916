#!/usr/bin/env python3
"""Self-test of the serving benchmark.

    python3 perfbench/test_bench.py

For every workload it runs a short version at SEA_THREADS=1 and at the
benchmark's thread count and asserts that both pass their checks and give
identical answer digests (the thread-invariance promise). It asserts that
an off-by-one count injected into one answer fails the run, and that the
metric names each mode prints are exactly the ones BENCHMARK.json lists.
Exits non-zero on the first failed assertion.
"""
import json
import os
import subprocess
import sys

import run

# Short runs: enough requests to leave set-up and reach every path.
SHORT_REQUESTS = {"hot_dashboard": 40, "adhoc_scan": 120, "ingest_mix": 300}


def bench(workload, threads, *extra, seed=3):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0",
           "--requests", str(SHORT_REQUESTS[workload]), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=run.bench_env(threads), timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    digest = None
    for line in lines:
        for field in line.split():
            if field.startswith("digest="):
                digest = field.split("=", 1)[1]
    return proc, result, digest


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {msg}")


def main():
    run.build()
    spec_path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}

    for w in SHORT_REQUESTS:
        serial, r1, d1 = bench(w, 1)
        check(serial.returncode == 0 and r1["correct"],
              f"{w}: passes its checks at SEA_THREADS=1")
        parallel, rn, dn = bench(w, run.THREADS)
        check(parallel.returncode == 0 and rn["correct"],
              f"{w}: passes its checks at SEA_THREADS={run.THREADS}")
        check(d1 is not None and d1 == dn,
              f"{w}: answer digest {d1} identical at 1 and {run.THREADS} "
              "threads")
        check(r1["failed"] == 0 and r1["attempted"] == rn["attempted"],
              f"{w}: no failed operations, same attempted count")
        check(set(rn["metrics"]) == e2e,
              f"{w}: prints exactly the end-to-end metrics")

    proc, result, _ = bench("adhoc_scan", run.THREADS, "--inject-off-by-one")
    check(proc.returncode != 0 and result is not None
          and not result["correct"] and "exact answer" in proc.stderr,
          "an off-by-one count answer fails the run")

    cmd = [run.BINARY, "--workload", "ingest_mix", "--seed", "3",
           "--seconds", "1", "--trace", "1", "--requests", "300"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=run.bench_env(), timeout=600)
    traced = json.loads(proc.stdout.strip().splitlines()[-1])
    check(proc.returncode == 0 and traced["correct"],
          "traced run passes its checks (incl. traced == untraced digest)")
    check(set(traced["metrics"]) == layer,
          "traced run prints exactly the per-layer metrics")
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()
