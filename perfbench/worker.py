"""Child process that runs the program for the benchmark.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path:

    worker.py probe  SPEC            import quathyp, parse the inputs, print "ready"
    worker.py run    SPEC SECONDS    time whole rounds for SECONDS, print a JSON report
    worker.py fixed  SPEC TRACE SPANS
                                     run one round (traced when TRACE is 1) and print
                                     a JSON report with the per-layer figures
    worker.py cli    SPEC TRACE SPANS
                                     run one cli-oneshot round in process through
                                     quathyp.cli.main(argv)

SPEC is a JSON file written by run.py.  In ``run`` mode, isometry-stream
asks for each round after the first by printing "round K" and reads it
from stdin as one JSON line, so the input generators stay in run.py and
out of this process's memory.  Reports go to stdout as one JSON line.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

MODES = ("probe", "run", "fixed", "cli")


def load_spec(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# turning JSON operations into calls and checks


def _pair(x):
    return Fraction(x.a0), Fraction(x.a1)


def _expected_pair(j):
    if isinstance(j, dict):
        return Fraction(j["a0"]), Fraction(j.get("a1", 0))
    return Fraction(j), Fraction(0)


def _check_witness(witness, expect: dict, d) -> str:
    """Empty when the witness has the expected coefficients and the
    expected signatures at the real places, else a description."""
    import oracle

    got = [_pair(c) for c in witness.coeffs]
    want = [_expected_pair(c) for c in expect["coeffs"]]
    if got != want:
        return f"witness coefficients {got} != {want}"
    names = ("inf",) if d is None else ("inf_0", "inf_1")
    for e, name in enumerate(names):
        sig = list(oracle.signature(got, d, e))
        if sig != expect["signatures"][name]:
            return f"witness signature {sig} at {name}, expected {expect['signatures'][name]}"
    return ""


def prepare(op: dict, qh, classes=None, triples=None):
    """(call, check) for one operation: call() runs the public API
    decision; check(result) returns "" when the result is right."""
    from quathyp import serialize

    kind = op["op"]
    expect = op["expect"]
    if kind == "hermitian_isometric":
        h1 = serialize.parse_hermitian_form(op["h1"])
        h2 = serialize.parse_hermitian_form(op["h2"])
        fn = qh.hermitian_isometric
        return (lambda: fn(h1, h2)), (
            lambda r: "" if r is expect["verdict"] else f"verdict {r}, expected {expect['verdict']}"
        )
    if kind in ("embeds_real", "embeds_complex"):
        ambient = serialize.parse_ambient(op["ambient"])
        d = ambient.field.d
        if kind == "embeds_real":
            arg = serialize.parse_quadratic_form(op["q"])
            fn = qh.embeds_real
        else:
            arg = serialize.parse_restriction_data(op["data"])
            fn = qh.embeds_complex

        def check(v):
            if v.embeds is not expect["embeds"]:
                return f"embeds {v.embeds} ({v.failed_condition}), expected {expect['embeds']}"
            if v.embeds:
                return _check_witness(v.witness, expect["witness"], d)
            if v.failed_condition != expect["failed_condition"]:
                return f"failed condition {v.failed_condition}"
            return ""

        return (lambda: fn(arg, ambient)), check
    if kind in ("quaternionic_commensurable", "general_cn_commensurable"):
        fn = getattr(qh, kind)
        left, right = classes[op["i"]], classes[op["j"]]
        return (lambda: fn(left, right)), (
            lambda r: "" if r is expect else f"verdict {r}, expected {expect}"
        )
    if kind == "is_admissible":
        t = triples[op["t"]]
        fn = qh.is_admissible
        return (lambda: fn(t)), (lambda r: "" if r is expect else f"verdict {r}, expected {expect}")
    if kind == "ramification_set":
        algebra = classes[op["i"]].form.algebra
        fn = qh.ramification_set

        def check_ram(r):
            got = sorted(place_name(v) for v in r)
            return "" if got == expect else f"ramified at {got}, expected {expect}"

        return (lambda: fn(algebra)), check_ram
    raise ValueError(f"unknown operation {kind!r}")


def place_name(v) -> str:
    """A place in the CLI's naming: inf, inf_0, inf_1, p, p#1, p#2."""
    if v.kind == "real":
        return "inf" if v.field.d is None else f"inf_{v.embedding}"
    suffix = {"split-first": "#1", "split-second": "#2"}.get(v.position, "")
    return f"{v.p}{suffix}"


class Rounds:
    """The rounds of a library workload, parsed into calls.

    catalogue-scan repeats one round over the parsed catalogue, so each
    descriptor object recurs in every pair it belongs to; isometry-stream
    parses round 0 from the spec and asks run.py for the later ones."""

    def __init__(self, spec: dict, qh):
        from quathyp import serialize

        self.spec, self.qh = spec, qh
        if spec["workload"] == "catalogue-scan":
            classes = [serialize.parse_ambient(c) for c in spec["classes"]]
            triples = [serialize.parse_triple(t) for t in spec["triples"]]
            self.first = [prepare(op, qh, classes, triples) for op in spec["ops"]]
        else:
            self.first = [prepare(op, qh) for op in spec["round0"]]
        self.labels = [op.get("slot", op["op"]) for op in spec.get("round0", spec.get("ops"))]

    def get(self, k: int):
        if k == 0 or self.spec["workload"] == "catalogue-scan":
            return self.first
        print(f"round {k}", flush=True)
        return [prepare(op, self.qh) for op in json.loads(sys.stdin.readline())]


def run_round(calls) -> tuple[list[float], list, float]:
    """Run one round; returns per-op seconds, results and the round's wall time."""
    lat, results = [], []
    clock = time.perf_counter
    start = clock()
    for call, _ in calls:
        t0 = clock()
        try:
            r = call()
        except Exception as exc:  # a raising operation is a failed operation
            r = exc
        lat.append(clock() - t0)
        results.append(r)
    return lat, results, clock() - start


def tally(outcomes, failures: list) -> tuple[int, int]:
    """(failed, wrong) over (label, message, answered) outcomes: a
    non-empty message is a failed operation, and a wrong one when the
    program answered (did not raise or exit non-zero).  The first five
    messages are kept in ``failures``."""
    failed = wrong = 0
    for label, msg, answered in outcomes:
        if msg:
            failed += 1
            wrong += answered
            if len(failures) < 5:
                failures.append(f"{label}: {msg}")
    return failed, wrong


def check_round(calls, results, labels, failures: list) -> tuple[int, int]:
    """tally() over one library round."""
    outcomes = (
        (label, f"raised {type(r).__name__}: {r}", False) if isinstance(r, Exception)
        else (label, check(r), True)
        for (_, check), r, label in zip(calls, results, labels)
    )
    return tally(outcomes, failures)


def check_cli(ops, outputs, failures: list) -> tuple[int, int]:
    """tally() over cli-oneshot operations and their (exit code, stdout)."""
    import clicheck

    outcomes = (
        (op["label"], clicheck.check(op, code, out), code == 0)
        for op, (code, out) in zip(ops, outputs)
    )
    return tally(outcomes, failures)


def lib_worker(mode: str, spec: dict, argv: list[str]) -> dict:
    tracer = None
    if mode == "fixed" and argv[0] == "1":
        import tracer as tracing

        import quathyp.serialize  # noqa: F401  (loaded, so that it is wrapped)

        tracer = tracing.Tracer()
        tracer.install()
    import quathyp as qh

    rounds = Rounds(spec, qh)
    if mode == "probe":
        print("ready", flush=True)
        return {}
    lat_all, failed, wrong, walls, failures = [], 0, 0, [], []
    k = 0
    while True:
        calls = rounds.get(k)
        lat, results, wall = run_round(calls)
        f, w = check_round(calls, results, rounds.labels, failures)
        failed, wrong = failed + f, wrong + w
        lat_all.extend(lat)
        walls.append(wall)
        k += 1
        if mode == "fixed" or sum(walls) >= float(argv[0]):
            break
    report = {
        "ops": len(lat_all),
        "failed": failed,
        "wrong": wrong,
        "rounds": k,
        "wall_s": sum(walls),
        "lat_s": lat_all,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.layer_metrics()
        tracer.write_spans(argv[1])
    return report


def cli_worker(spec: dict, argv: list[str]) -> dict:
    """One cli-oneshot round in process: main(argv) per operation, with
    stdout captured and checked as the fresh-process runs are."""
    import contextlib
    import io

    tracer = None
    if argv[0] == "1":
        import tracer as tracing

        import quathyp.cli  # noqa: F401

        tracer = tracing.Tracer()
        tracer.install()
    import quathyp.cli as cli

    lat = []
    start = time.perf_counter()
    outputs = []
    for op in spec["round"]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(op["argv"])
        lat.append(time.perf_counter() - t0)
        outputs.append((code, buf.getvalue()))
    wall = time.perf_counter() - start
    failures = []
    failed, wrong = check_cli(spec["round"], outputs, failures)
    report = {"ops": len(lat), "failed": failed, "wrong": wrong, "rounds": 1, "wall_s": wall,
              "lat_s": lat, "failures": failures}
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.layer_metrics()
        tracer.write_spans(argv[1])
    return report


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    VmHWM, not ru_maxrss: on Linux a child's ru_maxrss starts from the
    resident size of the parent that spawned it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in MODES:
        print(__doc__, file=sys.stderr)
        return 2
    mode, spec = argv[0], load_spec(argv[1])
    if mode == "cli":
        report = cli_worker(spec, argv[2:])
    else:
        report = lib_worker(mode, spec, argv[2:])
    if report:
        print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
