import dataclasses
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from cstates import (
    SpectrumMismatchError,
    builtin_measure,
    compute_weights,
    dynamics,
    from_levels,
    make_builtin,
    state,
    weights,
)
from cstates.verify import _probe_usable_j, run_suite


@pytest.mark.parametrize("model, cap", [("hydrogen_like", 240), ("harmonic", 225)])
def test_run_suite_series_calls_capped(model, cap, series_calls):
    # same-J states share one certified series (403 and 375 calls when each
    # state summed its own), and variance-bound reuses the agreement points
    s = make_builtin(model, 1.0)
    results = run_suite(s, compute_weights(s), builtin_measure(model))
    assert [r.name for r in results if r.status == "fail"] == []
    assert len(series_calls) <= cap


def test_run_suite_builds_no_near_jstar_table(table_builds):
    # the near-J* row reads the command's own table and the exact v(J)
    s = make_builtin("hydrogen_like", 1.0)
    w = compute_weights(s, 20_000)
    results = run_suite(s, w, builtin_measure("hydrogen_like"))
    assert {r.name: r.status for r in results}["near-jstar-exponent"] == "pass"
    assert table_builds == []


def test_run_suite_sums_every_series_on_the_commands_table(series_calls):
    s = make_builtin("hydrogen_like", 1.0)
    w = compute_weights(s, 20_000)
    run_suite(s, w, builtin_measure("hydrogen_like"))
    assert series_calls and all(table is w for table, _, _ in series_calls)


def near_jstar_row(s, w):
    return {r.name: r for r in run_suite(s, w, builtin_measure(s.model.name))}["near-jstar-exponent"]


def test_near_jstar_row_passes_on_the_default_table():
    # J = 1 - 10^-1.5 .. 1 - 10^-2.75 certify on 20,001 entries (860 to 15,524 terms)
    s = make_builtin("hydrogen_like", 1.0)
    row = near_jstar_row(s, compute_weights(s))
    assert row.status == "pass"
    assert "at 6 of 13 window points (J <= 0.998222)" in row.detail


@pytest.mark.parametrize("n", [1, 100, 1_000])
def test_near_jstar_row_fails_on_one_perturbed_rho(n):
    # rho_n 1e-4 high, where the certified window points' terms are large:
    # some point's series leaves the exact v by more than its tail bound
    s = make_builtin("hydrogen_like", 1.0)
    w = compute_weights(s, 20_000)
    w.log_rho[n] += math.log1p(1e-4)  # the complete array, which the table reads
    row = near_jstar_row(s, w)
    assert row.status == "fail"
    assert "from the exact form, past its tail bound" in row.detail


@pytest.mark.parametrize("n_max", [8, 500])
def test_near_jstar_row_without_a_certified_point_names_n_max(table_builds, n_max):
    # J = 1 - 10^-1.5 needs at least 860 terms
    s = make_builtin("hydrogen_like", 1.0)
    w = compute_weights(s, n_max)
    table_builds.clear()
    row = near_jstar_row(s, w)
    assert row.status == "fail"
    assert row.detail.startswith("TruncationError: no near-J* window point certifies within "
                                 f"n_max={n_max};")
    assert table_builds == []


def test_hydrogen_verify_runs_without_mpmath():
    # the polylogarithms of the exact v(J) are the standard library's
    code = ("import sys; sys.modules['mpmath'] = None; from cstates import cli; "
            "sys.exit(cli.main(['verify', '--model', 'hydrogen_like']))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert "\nnear-jstar-exponent,pass," in done.stdout


STEPS = from_levels("steps", 1.0, [0.0, 2.0, 5.0, 9.0])


def test_probe_ladder_stops_at_the_first_certification_error(series_calls):
    # without e_star no second-moment tail bound exists at any J
    w = compute_weights(STEPS, 3)
    assert _probe_usable_j(w, 9.5, 1e-12, need_second=True) == 0.0
    assert [ok for _, _, ok in series_calls] == [False]


STEPS_BOUNDED = from_levels("steps", 1.0, [0.0, 2.0, 5.0, 9.0], e_star=12.0)


@pytest.mark.parametrize("start, rungs", [(1e-13, 0), (1.0, 78), (9.5, 80)])
def test_probe_ladder_gives_zero_when_no_rung_certifies(series_calls, start, rungs):
    # no J certifies a 1e-300 relative tail on a four-level list: the ladder
    # ends at J <= 1e-12 (at once from 1e-13, after 78 rungs from 1.0) or
    # after its 80 rungs (from verify's start 0.95 * 10), with 0 either way
    w = compute_weights(STEPS_BOUNDED, 3)
    assert _probe_usable_j(w, start, 1e-300, need_second=True) == 0.0
    assert [ok for _, _, ok in series_calls] == [False] * rungs


def test_run_suite_refused_series_calls_capped(series_calls):
    # 27 refused calls: 26 first-order TruncationErrors down the J ladder and
    # one CertificationError, which ends the second-moment probe at once
    results = run_suite(STEPS, compute_weights(STEPS, 3), None)
    assert [r.name for r in results if r.status == "fail"] == []
    assert {r.name: r.status for r in results}["small-j-slope"] == "skipped"
    assert len([J for _, J, ok in series_calls if not ok]) <= 30


def drifting_labels(labels, ts, omega, evolved=state._evolved_gammas):
    """An evolution defect: the evolved labels' gamma + omega t (1 + 1e-6),
    which puts a phase e_n omega t 1e-6 on level n of the evolved state."""
    return evolved(labels, [t * (1.0 + 1e-6) for t in ts], omega)


def backward_phases(x, phase=dynamics.phase_factor):
    """A psi-evolution defect: dynamics' phases exp(+i x), so each psi is
    evolved with t of the wrong sign."""
    return phase(-np.asarray(x))


@pytest.mark.parametrize("model", ["harmonic", "hydrogen_like"])
@pytest.mark.parametrize("module, name, defect, failing", [
    (None, None, None, []),
    (state, "_evolved_gammas", drifting_labels, ["temporal-stability", "dynamics-as-kinematics"]),
    (dynamics, "phase_factor", backward_phases, ["dynamics-as-kinematics"]),
], ids=["clean", "evolved-label-drift", "psi-evolved-backward"])
def test_evolution_rows_fail_under_evolution_defects(monkeypatch, model, module, name, defect, failing):
    # temporal-stability and dynamics-as-kinematics build their states as one
    # LabelBatch's amplitude rows times phases; each fails when the evolution
    # it checks is wrong
    if defect:
        monkeypatch.setattr(module, name, defect)
    s = make_builtin(model)
    results = run_suite(s, compute_weights(s), builtin_measure(model))
    assert [r.name for r in results if r.status == "fail"] == failing
    details = {r.name: r.detail for r in results}
    if "temporal-stability" in failing:
        assert details["temporal-stability"].startswith("max residual ")
    if failing:
        assert details["dynamics-as-kinematics"].startswith("max |lhs - rhs| ")


def test_run_suite_refuses_another_spectrums_table(series_calls):
    w = compute_weights(make_builtin("hydrogen_like"), 200)
    with pytest.raises(SpectrumMismatchError):
        run_suite(make_builtin("harmonic"), w, builtin_measure("harmonic"))
    assert series_calls == []


def benchmark_like_list(seed):
    """Explicit levels with random count (40 to 400), gaps, offset and omega,
    e_star declared or not, drawn as the benchmark's verify documents are."""
    rng = random.Random(seed)
    energies = [rng.uniform(-5.0, 5.0)]
    for _ in range(rng.randint(40, 400) - 1):
        energies.append(energies[-1] + rng.uniform(0.5, 1.5))
    omega = rng.uniform(0.5, 2.0)
    e_star = None
    if rng.random() < 0.5:
        e_star = (energies[-1] - energies[0]) / omega + rng.uniform(0.5, 5.0)
    return from_levels(f"explicit-{seed}", omega, energies, e_star=e_star)


def per_j_sums(w, Js, tol, order):
    """The batch entry as one kernel call per distinct J, in order, so the
    first refused J raises, written into the batch's columns."""
    columns = weights._SumColumns(Js)
    for J in columns.at:
        columns.put(J, weights._certified_sums(w, J, tol, order))
    return columns


def patch_batch(monkeypatch, entry):
    """Replace ``_batch_sums`` with entry in every module that binds it."""
    batch = weights._batch_sums
    for name, module in list(sys.modules.items()):
        if name.startswith("cstates.") and getattr(module, "_batch_sums", None) is batch:
            monkeypatch.setattr(module, "_batch_sums", entry)


@pytest.mark.parametrize("s, seed", [
    *((make_builtin(model), seed) for model in ("hydrogen_like", "harmonic") for seed in (1234, 7)),
    (STEPS, 1234),
    (from_levels("steps", 1.0, [0.0, 2.0, 5.0, 9.0], e_star=12.0), 1234),
    *((benchmark_like_list(seed), 1234) for seed in (1, 2, 3)),
], ids=lambda v: getattr(v, "name", v))
def test_run_suite_rows_match_the_per_j_path(monkeypatch, s, seed):
    # every row's name, status and detail are the same when the batch entry
    # is replaced by one kernel call per distinct J
    w = compute_weights(s, s.max_index or 20_000)
    measure = builtin_measure(s.model.name) if s.model else None
    batched = run_suite(s, w, measure, seed=seed)
    calls = []
    patch_batch(monkeypatch, lambda *a: calls.append(a) or per_j_sums(*a))
    assert run_suite(s, w, measure, seed=seed) == batched
    # the stand-in summed the J of all the sampled checks: 100 + 50 + 20 at least
    assert calls and max(len(set(Js)) for _, Js, _, _ in calls) >= 170
    # the explicit lists pass nine rows, the built-in models more
    assert [r.status for r in batched].count("pass") >= 9


@pytest.mark.parametrize("s", [make_builtin("hydrogen_like"), make_builtin("harmonic"),
                               *(benchmark_like_list(seed) for seed in (1, 2))],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("tol", [1e-12, 1e-6])
def test_sampled_checks_share_one_batch_per_tolerance(monkeypatch, s, tol):
    # action-identity's grid (at the default tolerance), temporal-stability,
    # dynamics-as-kinematics, gamma-independence and label-continuity sum
    # their J in one batch at tol; canonical-reduction builds its ten states
    # in one at 1e-26; any other batch holds a single distinct J
    w = compute_weights(s, s.max_index or 20_000)
    measure = builtin_measure(s.model.name) if s.model else None
    calls, batch = [], weights._batch_sums
    patch_batch(monkeypatch, lambda w, Js, tol, order: calls.append((tol, len(set(Js))))
                or batch(w, Js, tol, order))
    results = run_suite(s, w, measure, tol=tol)
    assert [r.name for r in results if r.status == "fail"] == []
    many = sorted((tol, k) for tol, k in calls if k > 1)
    expected = [1e-12, 1e-6] if tol == 1e-6 else [1e-12]
    if s.name == "harmonic":
        expected.insert(0, 1e-26)
    assert [tol for tol, _ in many] == expected
    shared = dict(many)[tol]
    assert shared >= (190 if tol == 1e-12 else 170)
    if s.name == "harmonic":
        assert dict(many)[1e-26] == 10
    if tol == 1e-6:
        assert dict(many)[1e-12] == 20


@pytest.mark.parametrize("s, n_max, tol, failing", [
    (STEPS_BOUNDED, 3, 1e-26, [
        ("label-continuity", "TruncationError: tail bound not reached within n_max=3 for "
         "J=1.0004219795285313e-05 (best relative tail 1.237e-23 at n=3)")]),
    (STEPS_BOUNDED, 3, 1e-300, [
        ("label-continuity", "TruncationError: tail bound not reached within n_max=3 for "
         "J=1e-05 (best relative tail 1.235e-23 at n=3)")]),
    (make_builtin("hydrogen_like"), 8, 1e-12, [
        ("normalization-closed-form", "TruncationError: tail bound not reached within n_max=8 "
         "for J=0.05 (best relative tail 3.493e-12 at n=8)"),
        ("variance-route-agreement", "TruncationError: tail bound not reached within n_max=8 "
         "for J=0.1 (best relative tail 1.758e-09 at n=8)"),
        ("variance-bound", "TruncationError: tail bound not reached within n_max=8 "
         "for J=0.1 (best relative tail 1.758e-09 at n=8)"),
        ("projector-offdiagonal-decay", "TruncationError: tail bound not reached within n_max=8 "
         "for J=0.5 (best relative tail 2.931e-03 at n=8)"),
        ("near-jstar-exponent", "TruncationError: no near-J* window point certifies within "
         "n_max=8; the first, J = 0.968377, needs more terms")]),
    (make_builtin("harmonic"), 8, 1e-12, [
        ("normalization-closed-form", "TruncationError: tail bound not reached within n_max=8 "
         "for J=0.5 (best relative tail 3.457e-09 at n=8)"),
        ("canonical-reduction", "TruncationError: tail bound not reached within n_max=8 "
         "for J=5.860198600188853 (best relative tail 2.131e-01 at n=8)"),
        ("variance-route-agreement", "TruncationError: tail bound not reached within n_max=8 "
         "for J=0.5 (best relative tail 3.457e-09 at n=8)")]),
], ids=["steps-1e-26", "steps-1e-300", "hydrogen_like-nmax8", "harmonic-nmax8"])
def test_refused_rows_fail_as_each_check_alone(s, n_max, tol, failing):
    # where the shared batch refuses, each check sums its own J: the rows
    # that fail, and their texts, are those of one batch per check
    measure = builtin_measure(s.model.name) if s.model else None
    results = run_suite(s, compute_weights(s, n_max), measure, tol=tol)
    assert [(r.name, r.detail) for r in results if r.status == "fail"] == failing
    status = {r.name: r.status for r in results}
    assert status["temporal-stability"] == status["dynamics-as-kinematics"] == "pass"
