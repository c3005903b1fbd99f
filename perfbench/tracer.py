"""Per-layer tracing of cstates from outside the package.

``Tracer.install`` replaces each traced public function at every module
binding that refers to it (``state.power_sums``, ``observables.power_sums``,
the ``cstates`` namespace, ...) and on the ``Spectrum`` class, so calls made
inside the package are traced too.  Each call records a span
``[layer, start, end, parent, request_id]`` in memory.  Counters are updated
by hooks that run just before and after a span, so their small cost lands in
the parent's self time (the failure hook runs inside the span).
``uninstall`` puts the original objects back.

Self time of a span is its duration minus the part of it that its child
spans cover, so the self times of all spans partition the time spent inside
root spans.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

REDUCE_THRESHOLD = 1.0e8  # |x| above which cstates.phase reduces in extended precision
BYTES_PER_ENTRY = 16  # a weight table holds float64 log_rho and float64 levels

# layer -> (module, attribute) pairs of the originals to wrap
LAYERS = {
    "spectrum": [
        ("spectrum", "make_builtin"),
        ("spectrum", "from_rule"),
        ("spectrum", "from_levels"),
        ("spectrum", "load_spectrum"),
        ("spectrum", "power_gap_spectrum"),
        ("spectrum", "validate"),
        ("spectrum", "Spectrum.e"),
        ("spectrum", "Spectrum.e_array"),
        ("spectrum", "Spectrum.gap_array"),
        ("spectrum", "Spectrum.energy"),
    ],
    "weights.build": [("weights", "compute_weights")],
    "weights.series": [("weights", "power_sums"), ("weights", "normalization")],
    "phase": [("phase", "phase_factor")],
    "state": [("state", "coefficients"), ("state", "overlap"), ("state", "norm_deficit")],
    "dynamics": [
        ("dynamics", "evolve_coefficients"),
        ("dynamics", "evolve_label"),
        ("dynamics", "temporal_stability_residual"),
        ("dynamics", "kinematic_representation_check"),
    ],
    "observables": [
        ("observables", "energy_mean"),
        ("observables", "variance"),
        ("observables", "variance_curve"),
        ("observables", "moments_from_state"),
        ("observables", "near_jstar_coefficient"),
    ],
    "observables.fit": [
        ("observables", "small_j_slope"),
        ("observables", "near_jstar_exponent"),
    ],
    "observables.cross_check": [("observables", "_double_sum_variance")],
    "resolution": [
        ("resolution", "builtin_measure"),
        ("resolution", "load_measure"),
        ("resolution", "moment_check"),
        ("resolution", "unity_check"),
        ("resolution", "gamma_averaged_projector"),
    ],
    "verify": [("verify", "run_suite")],
    "cli": [("cli", "main")],
}

COUNTERS = (
    "weights.build.entries",
    "weights.build.bytes_computed",
    "weights.series.terms_used",
    "weights.series.terms_swept",
    "weights.series.failed",
    "phase.args",
    "phase.reduced_args",
    "observables.cross_check.pairs",
    "observables.variance.unchecked",
)


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    ``spans`` is a sequence of ``(layer, start, end, parent, ...)`` where
    ``parent`` is the index of the enclosing span or -1.
    """
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            children[sp[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Spans and counters for one traced run; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.request_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _hooks(self, layer: str, attr: str):
        """(before, after, on_error) counter hooks for one traced function."""
        c = self.counters
        if layer == "weights.build":
            def after(args, kwargs, out):
                c["weights.build.entries"] += out.n_max + 1
                c["weights.build.bytes_computed"] += BYTES_PER_ENTRY * (out.n_max + 1)
            return None, after, None
        if layer == "weights.series":
            from cstates.errors import CertificationError, TruncationError

            def before(args, kwargs):
                c["weights.series.terms_swept"] += args[0].n_max + 1

            def after(args, kwargs, out):
                c["weights.series.terms_used"] += out.terms_used

            def on_error(exc):
                if isinstance(exc, (TruncationError, CertificationError)):
                    c["weights.series.failed"] += 1
            return before, after, on_error
        if layer == "phase":
            import numpy as np

            def before(args, kwargs):
                x = np.asarray(args[0], dtype=float)
                c["phase.args"] += x.size
                c["phase.reduced_args"] += int(np.count_nonzero(np.abs(x) > REDUCE_THRESHOLD))
            return before, None, None
        if layer == "observables.cross_check":
            def before(args, kwargs):
                k = args[2]
                c["observables.cross_check.pairs"] += k * k
            return before, None, None
        if attr == "variance":
            def after(args, kwargs, out):
                if out.double_sum is None:
                    c["observables.variance.unchecked"] += 1
            return None, after, None
        return None, None, None

    def _wrap(self, layer: str, fn, attr: str):
        spans, stack = self.spans, self._stack
        before, after, on_error = self._hooks(layer, attr)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.request_id]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced function at every binding inside the cstates modules."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        import cstates.cli  # noqa: F401  (the CLI module binds traced names too)
        from cstates import spectrum

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cstates" or name.startswith("cstates."))]
        wrappers = {}  # id of an original function -> its wrapper
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                if attr.startswith("Spectrum."):
                    name = attr.split(".", 1)[1]
                    original = vars(spectrum.Spectrum)[name]
                    self._undo.append((spectrum.Spectrum, name, original))
                    setattr(spectrum.Spectrum, name, self._wrap(layer, original, name))
                else:
                    original = getattr(sys.modules[f"cstates.{mod_name}"], attr)
                    wrappers[id(original)] = self._wrap(layer, original, attr)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrappers[id(value)])

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._undo):
            setattr(obj, name, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """<layer>.calls and <layer>.self_s for every layer, plus the counters."""
        out: dict[str, float] = {}
        selfs = self_times(self.spans)
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for sp, st in zip(self.spans, selfs):
            out[f"{sp[0]}.calls"] += 1
            out[f"{sp[0]}.self_s"] += st
        out.update(self.counters)
        swept = self.counters["weights.series.terms_swept"]
        out["weights.series.useful_ratio"] = (
            self.counters["weights.series.terms_used"] / swept if swept else 0.0
        )
        return out

    def write_spans(self, path, origin: float) -> None:
        """One CSV line per span: layer,start_s,end_s,parent,request_id (times from origin)."""
        with open(path, "w") as fh:
            fh.write("layer,start_s,end_s,parent,request_id\n")
            for layer, start, end, parent, rid in self.spans:
                fh.write(f"{layer},{start - origin!r},{end - origin!r},{parent},{rid}\n")
