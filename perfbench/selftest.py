"""Self-test of the benchmark at tiny sizes (about ten seconds).

    python3 perfbench/selftest.py

Run from the root of a checkout.  It shows that

1. an operation whose expected verdict is deliberately flipped is
   reported as a failed (and wrong) operation, in a library round and
   in an in-process CLI round;
2. the metric names printed end to end and traced are exactly those of
   ``BENCHMARK.json``;
3. two traced runs of the same inputs give identical counts;
4. without the program beside it the benchmark exits non-zero and
   prints no result.

It is not part of the repository's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads


def tiny_spec(flip: bool = False) -> str:
    """Round 0 of isometry-stream seed 1, cut down to its slots over Q of rank <= 4."""
    ops = [op for op in workloads.isometry_round(1, 0)
           if op["slot"].split(":")[1] == "Q" and int(op["slot"].split(":")[2]) <= 4]
    if flip:
        op = next(op for op in ops if op["op"] == "hermitian_isometric")
        op["expect"]["verdict"] = not op["expect"]["verdict"]
    path = run.OUT / f"selftest-{'flipped' if flip else 'plain'}.json"
    path.write_text(json.dumps({"workload": "isometry-stream", "round0": ops}))
    return str(path)


def fixed(spec: str, traced: bool, env: dict) -> dict:
    spans = str(run.OUT / "selftest-spans.bin")
    argv = run.worker("fixed", spec, "1" if traced else "0", spans)
    return run.child_report(argv, env, "worker")


def main() -> int:
    env = run.child_env()
    run.OUT.mkdir(exist_ok=True)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    flipped = fixed(tiny_spec(flip=True), False, env)
    if (flipped["failed"], flipped["wrong"]) != (1, 1):
        problems.append(f"flipped library verdict gave failed={flipped['failed']}")
    cli_ops = [op for op in workloads.cli_round(1, 0) if op["label"].endswith("reference")]
    cli_ops[1]["expect"]["ramified"] = ["inf"]
    spec = run.OUT / "selftest-cli.json"
    spec.write_text(json.dumps({"round": cli_ops}))
    cli = run.child_report(run.worker("cli", str(spec), "0", "-"), env, "cli worker")
    if (cli["failed"], cli["wrong"]) != (1, 1):
        problems.append(f"flipped CLI expectation gave failed={cli['failed']}")

    plain = fixed(tiny_spec(), False, env)
    traced = [run.traced_report(fixed(tiny_spec(), True, env), plain, env) for _ in range(2)]
    e2e = run.end_to_end(plain, 0.1, plain["peak_rss_mb"])
    if plain["failed"] or sorted(e2e) != sorted(m["name"] for m in bench["end_to_end"]):
        problems.append(f"end-to-end names {sorted(e2e)} (failed={plain['failed']})")
    names = sorted(traced[0]["metrics"])
    if names != sorted(m["name"] for m in bench["per_layer"]):
        problems.append(f"per-layer names {names}")
    counts = [{k: v["value"] for k, v in t["metrics"].items() if not k.endswith(("_ms", "_s"))}
              for t in traced]
    if counts[0] != counts[1]:
        problems.append(f"traced counts differ: {counts}")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "isometry-stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without the program: exit {proc.returncode}, output {proc.stdout!r}")

    for p in problems:
        print(f"FAIL: {p}")
    print("self-test", "failed" if problems else "passed",
          f"({plain['ops']} tiny operations, {len(counts[0])} repeated counts)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
