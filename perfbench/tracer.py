"""Spans around the public functions of every quathyp module.

The tracer wraps each public function of each loaded quathyp module and
installs the wrapper under every name that binds it in any quathyp
module namespace.  The modules import names directly (``from .symbols
import hilbert_symbol``), so replacing only the defining attribute would
miss most calls.  Nothing in the program changes; the wrappers live
only in the traced process.

Each call is one span (function, parent span, start, end) kept in
memory and written out by :meth:`Tracer.write_spans`; calls of the
innermost numtheory helpers (``UNRECORDED``) are counted and timed
but keep no span.  A layer's self
time is the duration of its spans minus the time covered by their child
spans.  Work in private helpers and in methods (``FieldElement``
arithmetic, for instance) counts as self time of the public function
that called it.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

#: the quathyp modules, bottom of the stack first
MODULES = (
    "numtheory", "fields", "symbols", "quadratic", "algebras", "hermitian",
    "commensurability", "subspaces", "serialize", "geometry", "cli",
)

COUNTS = {
    "numtheory.factor_calls": ("numtheory.factor",),
    "fields.local_square_calls": ("fields.is_local_square",),
    "fields.support_prime_calls": ("fields.element_support_primes",),
    "symbols.hilbert_calls": ("symbols.hilbert_symbol",),
    "symbols.support_calls": ("symbols.symbol_support", "symbols.support_with"),
    "quadratic.hasse_calls": ("quadratic.hasse_invariant",),
    "quadratic.isometric_calls": ("quadratic.forms_isometric",),
    "algebras.ramification_calls": ("algebras.ramification_set",),
    "hermitian.isometric_calls": ("hermitian.hermitian_isometric",),
    "hermitian.trace_form_calls": ("hermitian.trace_form",),
}

#: time inside one function, children included
INCLUSIVE = {
    "numtheory.factor_ms": "numtheory.factor",
    "geometry.killing_ms": "geometry.killing_value",
    "geometry.closure_ms": "geometry.lie_triple_closure",
}

#: numtheory helpers called in the innermost loops: wrapped for counts
#: and self time, but their spans are not kept (they would be most of
#: the spans and most of the memory)
UNRECORDED = (
    "numtheory.val", "numtheory.val_fraction", "numtheory.legendre", "numtheory.unit_mod",
    "numtheory.is_prime", "numtheory.sqrt_mod_prime", "numtheory.sqrt_mod_prime_power",
    "numtheory.is_square_int", "numtheory.is_square_fraction",
)

SELF_TIMES = (
    "fields", "symbols", "quadratic", "algebras", "hermitian", "commensurability",
    "subspaces", "serialize", "geometry", "cli",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.inclusive_ns: list[int] = []
        self.active: list[int] = []
        # one span = (function id, parent span index, start ns, end ns)
        self.spans = array("q")
        self.stack: list[list[int]] = []  # [span index, child ns]
        self.factor_bits_max = 0
        self.hilbert_dyadic = 0
        self.hilbert_nested = 0
        self._installed: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.inclusive_ns.append(0)
        self.active.append(0)
        spans, stack = self.spans, self.stack
        calls, self_ns, inclusive, active = self.calls, self.self_ns, self.inclusive_ns, self.active
        clock = time.perf_counter_ns
        if name == "symbols.hilbert_symbol":
            self._hilbert_fid = fid
        hook = {
            "numtheory.factor": self._factor_hook,
            "symbols.hilbert_symbol": self._hilbert_hook,
        }.get(name)

        record = name not in UNRECORDED

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            parent = stack[-1][0] if stack else -1
            if record:
                index = len(spans) // 4
                spans.extend((fid, parent, 0, 0))
            else:
                index = parent  # children, if any, hang off the caller
            frame = [index, 0]
            stack.append(frame)
            active[fid] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[fid] -= 1
                duration = end - start
                if record:
                    spans[4 * index + 2] = start
                    spans[4 * index + 3] = end
                calls[fid] += 1
                self_ns[fid] += duration - frame[1]
                if not active[fid]:
                    inclusive[fid] += duration
                if stack:
                    stack[-1][1] += duration

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _factor_hook(self, args):
        bits = abs(int(args[0])).bit_length()
        if bits > self.factor_bits_max:
            self.factor_bits_max = bits

    def _hilbert_hook(self, args):
        place = args[2]
        if place.is_finite and place.p == 2 and not place.field.is_rational:
            self.hilbert_dyadic += 1
        if self.active[self._hilbert_fid]:
            self.hilbert_nested += 1

    def install(self) -> None:
        """Wrap the public functions of every loaded quathyp module."""
        loaded = [sys.modules[f"quathyp.{m}"] for m in MODULES if f"quathyp.{m}" in sys.modules]
        namespaces = [sys.modules["quathyp"], *loaded]
        for mod in loaded:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            self._installed.append((ns, bound, obj))
                            setattr(ns, bound, wrapper)

    def uninstall(self) -> None:
        for ns, bound, obj in reversed(self._installed):
            setattr(ns, bound, obj)
        self._installed.clear()

    # -- results --------------------------------------------------------

    def _fid(self, name: str):
        return self.names.index(name) if name in self.names else None

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for metric, names in COUNTS.items():
            out[metric] = sum(self.calls[f] for f in map(self._fid, names) if f is not None)
        for metric, name in INCLUSIVE.items():
            f = self._fid(name)
            out[metric] = self.inclusive_ns[f] / 1e6 if f is not None else 0.0
        out["numtheory.factor_bits_max"] = self.factor_bits_max
        out["symbols.hilbert_dyadic_calls"] = self.hilbert_dyadic
        out["symbols.hilbert_nested_calls"] = self.hilbert_nested
        for layer in SELF_TIMES:
            out[f"{layer}.self_ms"] = sum(
                ns for name, ns in zip(self.names, self.self_ns) if name.startswith(layer + ".")
            ) / 1e6
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans: a JSON header line with the function names,
        then one little-endian int64 record (function, parent, start ns,
        end ns) per span."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "record": "<qqqq", "spans": len(self.spans) // 4}
            fh.write(json.dumps(header).encode() + b"\n")
            if sys.byteorder != "little":  # pragma: no cover
                self.spans.byteswap()
            self.spans.tofile(fh)


#: fresh ``-X importtime`` interpreters behind cli.import_ms
IMPORT_PROBES = 5


def import_module_times(env: dict) -> dict[str, float]:
    """Median cumulative -X importtime (ms) per module in ``import
    quathyp.cli``, over IMPORT_PROBES fresh interpreters."""
    import statistics
    import subprocess

    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import quathyp.cli"],
            env=env, capture_output=True, text=True, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                samples.setdefault(parts[2].strip(), []).append(int(parts[1]) / 1000)
    return {name: statistics.median(v) for name, v in samples.items()}

