"""Re-measure the reference figures of ROADMAP item 1 (about a minute).

    python3 perfbench/reference.py

Run from the root of a checkout.  Each figure is timed in a fresh
worker-style process (src on the path, one BLAS thread) on inputs from
this benchmark's generators with seed 1, and printed as one line of text.
"""

from __future__ import annotations

import json
import statistics
import sys

import run

SNIPPET = r"""
import json, random, sys, time
sys.path.insert(0, "perfbench")
import quathyp, tracer, workloads
from quathyp import serialize
from quathyp.hermitian import trace_form
out = {}
for d, name in ((None, "Q"), (5, "Q(sqrt5)"), (3, "Q(sqrt3)")):
    times = []
    for k in range(5):
        rng = random.Random(f"reference:1:{d}:{k}")
        op = workloads.iso_pair(rng, d, 8, "adm", True)
        h1 = serialize.parse_hermitian_form(op["h1"]); h2 = serialize.parse_hermitian_form(op["h2"])
        t = time.perf_counter()
        assert quathyp.hermitian_isometric(h1, h2)
        times.append(time.perf_counter() - t)
    out[f"hermitian_isometric rank 8 over {name}, ms"] = 1000 * sorted(times)[2]
    if d == 5:
        t = time.perf_counter(); quathyp.forms_isometric(trace_form(h1), trace_form(h2))
        out["forms_isometric dim 32 over Q(sqrt5), ms"] = 1000 * (time.perf_counter() - t)
        tr = tracer.Tracer(); tr.install(); quathyp.hermitian_isometric(h1, h2); tr.uninstall()
        m = tr.layer_metrics()
        out["rank-8 isometry over Q(sqrt5): hilbert symbols"] = m["symbols.hilbert_calls"]
        supports = tr.calls[tr.names.index("symbols.symbol_support")]
        out["rank-8 isometry over Q(sqrt5): symbol_support calls"] = supports
a = -(201338971 * 2147484433 * 8589934609)
D = quathyp.quaternion_algebra(quathyp.QQ, a, -3)
t = time.perf_counter(); quathyp.ramification_set(D)
bits = abs(a).bit_length()
out[f"ramification_set, {bits}-bit composite parameter, ms"] = 1000 * (time.perf_counter() - t)
print(json.dumps(out))
"""

GRAM = "import sys, time; from quathyp import geometry as g; m = int(sys.argv[1]); " \
       "X = g.X_element(m, 1, g.QUAT_ONE); t = time.perf_counter(); g.killing_value(X, X, m); " \
       "print(time.perf_counter() - t)"


def main() -> int:
    env = run.child_env()
    snippet = [sys.executable, "-c", SNIPPET]
    out, _, _ = run.run_child(snippet, env, "library figures")
    figures = json.loads(out.splitlines()[-1])
    symbol = [sys.executable, "-m", "quathyp.cli", "symbol", "--", "-1", "-1"]
    run.run_child(symbol, env, "warm-up")
    figures["CLI symbol -- -1 -1 wall, ms"] = 1000 * statistics.median(
        run.run_child(symbol, env, "cli")[1] for _ in range(5)
    )
    import tracer

    times = tracer.import_module_times(env)
    figures["import of quathyp.geometry within quathyp.cli, ms"] = times["quathyp.geometry"]
    for m in (4, 6):
        out, _, _ = run.run_child([sys.executable, "-c", GRAM, str(m)], env, "Killing Gram")
        figures[f"Killing Gram matrix at m = {m}, ms"] = 1000 * float(out)
    for name, value in figures.items():
        print(f"{name}: {value:.0f}" if isinstance(value, float) else f"{name}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
