"""quathyp benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("isometry-stream", "catalogue-scan", "cli-oneshot")

#: fresh interpreters started to time set-up, half before and half after
#: the timed phase; setup_s is their median
SETUP_PROBES = {"isometry-stream": 16, "catalogue-scan": 12, "cli-oneshot": 12}

#: no child may outlive this (seconds); a run must end within 180 s
CHILD_TIMEOUT = 150

#: personality(2) flag that turns off address-space randomization
ADDR_NO_RANDOMIZE = 0x0040000

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    """Environment of every process the benchmark starts: the program on
    the path, one BLAS thread (numpy starts a pool on import otherwise),
    and fixed string hashing so traced counts repeat exactly."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def fixed_layout() -> None:
    """Run in each child before exec: no address-space randomization.

    Python 3.11 hashes None by its address, so a place of Q hashes
    differently in every process, and with it the iteration order of the
    program's sets of places, where decisions stop early.  With a fixed
    layout, traced counts repeat exactly from run to run."""
    ctypes.CDLL(None).personality(ADDR_NO_RANDOMIZE)


class Child:
    """One child process: wall time, output and peak RSS (from wait4)."""

    def __init__(self, argv: list[str], env: dict, stdin=subprocess.DEVNULL):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, preexec_fn=fixed_layout,
        )
        self.killer = threading.Timer(CHILD_TIMEOUT, self.proc.kill)
        self.killer.start()

    def readline(self) -> str:
        return self.proc.stdout.readline()

    def finish(self) -> tuple[str, str, float, float, int]:
        """(stdout, stderr, wall seconds, peak RSS in MB, exit code)."""
        try:
            out, err = self.proc.stdout.read(), self.proc.stderr.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            self.killer.cancel()
        wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for stream in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()
        return out, err, wall, usage.ru_maxrss / 1024, self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.killer.cancel()


def run_child(argv: list[str], env: dict, what: str):
    child = Child(argv, env)
    try:
        out, err, wall, rss, code = child.finish()
    finally:
        child.kill()
    if code != 0:
        raise RuntimeError(f"{what} exited with {code}: {err.strip()[-2000:]}")
    return out, wall, rss


def child_report(argv: list[str], env: dict, what: str) -> dict:
    """Run a worker and parse the JSON report on its last output line."""
    return json.loads(run_child(argv, env, what)[0].splitlines()[-1])


def ready_time(argv: list[str], env: dict) -> float:
    """Seconds from spawning a fresh interpreter to its "ready" line."""
    child = Child(argv, env)
    try:
        line = child.readline()
        ready = time.perf_counter() - child.start
        _, err, _, _, code = child.finish()
    finally:
        child.kill()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({code}): {err.strip()[-2000:]}")
    return ready


def worker(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *args]


def setup_probes(argv: list[str], env: dict, probes: int, warm: bool) -> list[float]:
    if warm:
        run_child(argv, env, "warm-up")  # bytecode compiled, file cache warm
    return [ready_time(argv, env) for _ in range(probes)]


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(report: dict, setup: float, rss: float) -> dict:
    lat_ms = [x * 1000 for x in report["lat_s"]]
    return {
        "ops_per_s": {"value": report["ops"] / report["wall_s"], "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_p90_ms": {"value": percentile(lat_ms, 90), "unit": "ms"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


# ---------------------------------------------------------------------------
# library workloads


def library_spec(workload: str, seed: int) -> Path:
    import workloads

    if workload == "catalogue-scan":
        spec = workloads.catalogue(seed)
    else:
        spec = {"workload": workload, "round0": workloads.isometry_round(seed, 0)}
    path = OUT / f"spec-{workload}.json"
    path.write_text(json.dumps(spec))
    return path


def timed_worker(spec: str, seed: int, seconds: int, env: dict) -> dict:
    """Run the timed worker, answering each "round K" it prints with
    isometry-stream round K as one JSON line on its stdin; the rounds are
    generated here, between the worker's timed rounds."""
    import workloads

    child = Child(worker("run", spec, str(seconds)), env, stdin=subprocess.PIPE)
    try:
        while (line := child.readline()).startswith("round "):
            ops = workloads.isometry_round(seed, int(line.split()[1]))
            child.proc.stdin.write(json.dumps(ops) + "\n")
            child.proc.stdin.flush()
        out, err, _, _, code = child.finish()
    finally:
        child.kill()
    if code != 0:
        raise RuntimeError(f"timed worker exited with {code}: {err.strip()[-2000:]}")
    return json.loads((line + out).splitlines()[-1])


def library_run(workload: str, seed: int, seconds: int, trace: bool, env: dict) -> dict:
    spec = str(library_spec(workload, seed))
    if not trace:
        probe, half = worker("probe", spec), SETUP_PROBES[workload] // 2
        before = setup_probes(probe, env, half, warm=True)
        report = timed_worker(spec, seed, seconds, env)
        setup = statistics.median(before + setup_probes(probe, env, half, warm=False))
        report["metrics"] = end_to_end(report, setup, report["peak_rss_mb"])
        return report
    spans = str(OUT / f"spans-{workload}.bin")
    plain = child_report(worker("fixed", spec, "0", "-"), env, "untraced worker")
    traced = child_report(worker("fixed", spec, "1", spans), env, "traced worker")
    return traced_report(traced, plain, env)


def traced_report(report: dict, plain: dict, env: dict) -> dict:
    import tracer

    layers = report.pop("layers")
    times = tracer.import_module_times(env)
    layers["cli.import_ms"] = times["quathyp.cli"]
    layers["geometry.import_ms"] = times["quathyp.geometry"]
    layers["trace.overhead_s"] = report["wall_s"] - plain["wall_s"]
    report["failed"] = max(report["failed"], plain["failed"])
    report["wrong"] = max(report.get("wrong", 0), plain.get("wrong", 0))
    report["metrics"] = {
        name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()
    }
    return report


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "1"


# ---------------------------------------------------------------------------
# cli-oneshot


def cli_run(seed: int, seconds: int, trace: bool, env: dict) -> dict:
    import workloads
    from worker import check_cli

    if trace:
        spec = OUT / "spec-cli-oneshot.json"
        spec.write_text(json.dumps({"round": workloads.cli_round(seed, 0)}))
        spans = str(OUT / "spans-cli-oneshot.bin")
        plain = child_report(worker("cli", str(spec), "0", "-"), env, "untraced cli worker")
        traced = child_report(worker("cli", str(spec), "1", spans), env, "traced cli worker")
        return traced_report(traced, plain, env)
    probe = [sys.executable, "-c", "import quathyp.cli; print('ready', flush=True)"]
    half = SETUP_PROBES["cli-oneshot"] // 2
    before = setup_probes(probe, env, half, warm=True)
    lat, ops_run, outputs, rss, wall, k = [], [], [], 0.0, 0.0, 0
    while wall < seconds:
        ops = workloads.cli_round(seed, k)
        start = time.perf_counter()
        for op in ops:
            child = Child([sys.executable, "-m", "quathyp.cli", *op["argv"]], env)
            try:
                out, err, op_wall, op_rss, code = child.finish()
            finally:
                child.kill()
            lat.append(op_wall)
            rss = max(rss, op_rss)
            ops_run.append(op)
            outputs.append((code, out))
        wall += time.perf_counter() - start
        k += 1
    setup = statistics.median(before + setup_probes(probe, env, half, warm=False))
    failures = []
    failed, wrong = check_cli(ops_run, outputs, failures)
    report = {"ops": len(lat), "failed": failed, "wrong": wrong, "rounds": k, "wall_s": wall,
              "lat_s": lat, "failures": failures}
    report["metrics"] = end_to_end(report, setup, rss)
    return report


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quathyp" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'quathyp'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    env = child_env()
    if args.workload == "cli-oneshot":
        report = cli_run(args.seed, args.seconds, bool(args.trace), env)
    else:
        report = library_run(args.workload, args.seed, args.seconds, bool(args.trace), env)
    for line in report.get("failures", []):
        print(f"failed: {line}", file=sys.stderr)
    result = {
        "correct": report.get("wrong", 0) == 0,
        "attempted": report["ops"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
