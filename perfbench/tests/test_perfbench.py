"""Tests of the benchmark itself: generators, oracles, tracing arithmetic.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
import math

import mpmath
import numpy as np
import pytest

import cstates as cs
import workloads as wl
from tracer import LAYERS, Tracer, self_times


@pytest.fixture(scope="module")
def hydrogen():
    s = cs.make_builtin("hydrogen_like", 1.0)
    return s, cs.compute_weights(s, wl.STATE_NMAX)


@pytest.fixture(scope="module")
def harmonic():
    s = cs.make_builtin("harmonic", 1.0)
    return s, cs.compute_weights(s, wl.STATE_NMAX)


# -- generators -----------------------------------------------------------------


@pytest.mark.parametrize("cls", [wl.StateRequests, wl.VarianceNearJstar])
def test_blocks_are_deterministic_per_seed(cls, tmp_path):
    a, b, other = cls(7, tmp_path), cls(7, tmp_path), cls(8, tmp_path)
    for block in (0, 5):
        assert a.block(block) == b.block(block)
        assert a.block(block) != other.block(block)
    assert a.block(0) != a.block(1)


def test_verify_inputs_are_deterministic_per_seed(tmp_path):
    a, b = wl.VerifySuite(7, tmp_path / "a"), wl.VerifySuite(7, tmp_path / "b")
    a.setup()
    b.setup()
    assert [open(p).read() for p in a.paths] == [open(p).read() for p in b.paths]
    assert a.block(3)[:2] == b.block(3)[:2]  # the --model requests; the third names a file
    assert a.spectrum_document(0) != wl.VerifySuite(8, tmp_path).spectrum_document(0)


def test_inputs_cover_the_stated_ranges(tmp_path):
    reqs = wl.StateRequests(3, tmp_path).block(0)
    for model, (lo, hi) in wl.J_RANGE.items():
        js = [r[2] for r in reqs if r[0] == model]
        assert lo <= min(js) and max(js) <= hi
    ts = [abs(r[4]) for r in reqs]
    assert wl.T_RANGE[0] <= min(ts) and max(ts) <= wl.T_RANGE[1]
    assert 0.2 < sum(t > 1e8 for t in ts) / len(ts) < 0.5
    grid = [J for g, _ in wl.VarianceNearJstar(3, tmp_path).block(0) for J in g]
    assert 1 - 10**-0.5 <= min(grid) and max(grid) <= 1 - 10**-3.0
    sizes = [len(wl.VerifySuite(seed, tmp_path).spectrum_document(0)["levels"]) for seed in range(20)]
    assert min(sizes) >= 40 and max(sizes) <= 400


# -- oracles --------------------------------------------------------------------


def test_decimal_two_pi_matches_mpmath():
    with mpmath.workdps(wl.DECIMAL_PREC):
        assert str(wl.TWO_PI)[:55] == mpmath.nstr(2 * mpmath.pi, 60)[:55]


def test_energy_mean_oracle(hydrogen):
    s, w = hydrogen
    mean = cs.energy_mean(s, w, 0.3)
    assert wl.check_energy_mean(0.3, mean) is None
    assert wl.check_energy_mean(0.3, mean * (1 + 1e-7)) is not None


@pytest.mark.parametrize("model,J", [("hydrogen_like", 0.9), ("hydrogen_like", 1e-3), ("harmonic", 50.0)])
def test_normalization_oracle(model, J, hydrogen, harmonic):
    s, w = hydrogen if model == "hydrogen_like" else harmonic
    sv = cs.normalization(w, s, J)
    assert wl.check_normalization(model, J, sv.value, sv.tail_bound) is None
    assert wl.check_normalization(model, J, sv.value * (1 + 1e-9), sv.tail_bound) is not None


def test_norm_deficit_oracle(harmonic):
    s, w = harmonic
    st = cs.coefficients(s, w, cs.StateLabel(20.0, 0.4))
    assert wl.check_norm_deficit(st.c, st.tail_mass_bound) is None
    assert wl.check_norm_deficit(st.c * (1 + 1e-9), st.tail_mass_bound) is not None


@pytest.mark.parametrize("t", [3.7, -2.5e9, 7.0e11])
def test_evolved_oracle(t, harmonic):
    s, w = harmonic
    st = cs.coefficients(s, w, cs.StateLabel(60.0, 0.2))
    ev = cs.evolve_coefficients(st, s, t).c
    assert wl.check_evolved("harmonic", 1.0, t, st.c, ev) is None
    bad = ev.copy()
    n = int(np.argmax(np.abs(bad)))
    bad[n] *= np.exp(1j * 1e-9)
    assert wl.check_evolved("harmonic", 1.0, t, st.c, bad) is not None
    small = ev.copy()
    small[-1] *= np.exp(1j * 1e-6)  # a tiny amplitude, wrong in its phase
    assert wl.check_evolved("harmonic", 1.0, t, st.c, small) is not None
    assert wl.check_evolved("harmonic", 1.0, t, st.c, ev[:-1]) is not None


def test_reduce_phase_is_exact_for_float_arguments():
    for x in (0.5, 1e8 + 0.25, 3.0e14, -7.0e11):
        with mpmath.workdps(50):
            ref = float(mpmath.fmod(mpmath.mpf(x), 2 * mpmath.pi))
        assert abs(wl.reduce_phase(x)) < 2 * math.pi
        assert math.remainder(wl.reduce_phase(x) - ref, 2 * math.pi) == pytest.approx(0, abs=1e-15)


def test_hydrogen_variance_reference_matches_package(hydrogen):
    s, w = hydrogen
    for J in (0.3, 0.9):
        assert wl.hydrogen_variance(J) == pytest.approx(cs.variance(s, w, J).variance, rel=1e-10)


def _variance_run(grid):
    from cstates import cli

    argv = ["variance", "--model", "hydrogen_like", "--nmax", "40000",
            "--grid", ",".join(repr(J) for J in grid)]
    return wl.run_cli(cli, argv)


def test_variance_oracle():
    grid = [1 - 10**-0.7, 1 - 10**-1.9, 1 - 10**-2.8]
    rc, out, _ = _variance_run(grid)
    assert wl.check_variance_output(grid, rc, out) is None
    lines = out.splitlines()
    head = lines[0].split(",")
    row = lines[2].split(",")
    row[head.index("variance")] = repr(float(row[head.index("variance")]) * (1 + 1e-6))
    perturbed = "\n".join([lines[0], lines[1], ",".join(row), lines[3]]) + "\n"
    assert wl.check_variance_output(grid, rc, perturbed) is not None
    assert wl.check_variance_output(grid, 2, out) is not None
    assert wl.check_variance_output(grid, rc, "\n".join(lines[:-1])) is not None
    errored = lines[-1].rsplit(",", 1)[0] + ",TruncationError: no"
    assert wl.check_variance_output(grid, rc, "\n".join(lines[:-1] + [errored])) is not None


def test_verify_oracle():
    good = "check,status,detail\na,pass,x\nb,skipped,y\n"
    assert wl.check_verify_output(0, good) is None
    assert wl.check_verify_output(0, good + "c,fail,z\n") is not None
    assert wl.check_verify_output(3, good) is not None
    assert wl.check_verify_output(0, "check,status,detail\n") is not None


# -- tracing --------------------------------------------------------------------


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("other", 20.0, 21.0, -1),
        ("c", 8.0, 9.5, 0),
        ("c.overlap", 9.0, 12.0, 0),  # clipped to the parent, overlap with c counted once
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 1 - 2, 2.0, 1.0, 1.0, 1.0, 1.5, 3.0])


def test_tracer_wraps_every_binding_and_restores_it(harmonic):
    import sys

    import cstates.cli  # noqa: F401

    def bindings():
        return {(name, attr): value for name, mod in sys.modules.items()
                if name.startswith("cstates") for attr, value in vars(mod).items() if callable(value)}

    before = bindings()
    originals = {id(getattr(sys.modules[f"cstates.{m}"], a))
                 for targets in LAYERS.values() for m, a in targets if "." not in a}
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = bindings()
        assert not originals & {id(v) for v in wrapped.values()}
        changed = {key for key in before if before[key] is not wrapped[key]}
        assert ("cstates.state", "power_sums") in changed
        assert ("cstates.observables", "power_sums") in changed
        assert ("cstates", "coefficients") in changed
        s, w = harmonic
        tracer.request_id = 5
        cs.evolve_coefficients(cs.coefficients(s, w, cs.StateLabel(4.0, 0.0)), s, 2e8)
    finally:
        tracer.uninstall()
    assert bindings() == before
    names = [sp[0] for sp in tracer.spans]
    assert names == ["state", "weights.series", "phase", "dynamics", "spectrum", "phase"]
    assert [sp[3] for sp in tracer.spans] == [-1, 0, 0, -1, 3, 3]
    assert {sp[4] for sp in tracer.spans} == {5}
    m = tracer.layer_metrics()
    assert m["weights.series.calls"] == 1 and m["phase.calls"] == 2
    assert m["weights.series.terms_swept"] == wl.STATE_NMAX + 1
    assert 0 < m["weights.series.useful_ratio"] < 0.01
    assert m["phase.reduced_args"] > 0 and m["phase.args"] == 2 * m["weights.series.terms_used"]
