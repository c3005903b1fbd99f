import json

import numpy as np
import pytest

from cstates.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = [ln for ln in out.strip().splitlines() if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def test_spectrum_hydrogen_count5(capsys):
    code, out, _ = run(capsys, ["spectrum", "--model", "hydrogen_like", "--count", "5"])
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "e_n", "E_n"]
    values = [float(r[1]) for r in rows]
    np.testing.assert_allclose(values, [0.0, 0.75, 8.0 / 9.0, 0.9375, 0.96], atol=0)


def test_spectrum_harmonic_count3(capsys):
    code, out, _ = run(capsys, ["spectrum", "--model", "harmonic", "--count", "3"])
    assert code == 0
    _, rows = csv_rows(out)
    assert [float(r[1]) for r in rows] == [0.0, 1.0, 2.0]


def test_spectrum_bad_file_exits_nonzero(tmp_path, capsys):
    doc = {"name": "bad", "omega": 1.0, "kind": "explicit", "levels": [0, 2, 1]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["spectrum", "--file", str(path)])
    assert code == 1
    assert "decreasing" in err or "invalid" in err


@pytest.mark.parametrize("command", ["verify", "variance", "spectrum"])
def test_file_with_nan_e_star_is_refused(tmp_path, capsys, command):
    path = tmp_path / "nan.json"
    path.write_text('{"kind": "explicit", "omega": 1.0, "levels": [0, 2, 5, 9], "e_star": NaN}')
    code, out, err = run(capsys, [command, "--file", str(path)])
    assert code == 1 and out == ""
    assert "declared e_star=nan must exceed the last level" in err


@pytest.mark.parametrize("command", ["spectrum", "weights", "verify"])
def test_file_with_one_nan_level_is_refused_on_load(tmp_path, capsys, command):
    # one level is validated like any other list, before a row is written
    path = tmp_path / "one.json"
    path.write_text('{"name": "one", "omega": 1.0, "kind": "explicit", "levels": [NaN]}')
    code, out, err = run(capsys, [command, "--file", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid explicit levels: n=0: e_0 must be 0")


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--file", "DOC", "--omega", "2"],
        ["spectrum", "--file", "DOC"],
        ["resolution", "--model", "hydrogen_like", "--measure", "DOC"],
    ],
)
def test_json_list_documents_are_refused(tmp_path, capsys, argv):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, out, err = run(capsys, [str(path) if a == "DOC" else a for a in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_spectrum_json_format(capsys):
    code, out, _ = run(capsys, ["spectrum", "--model", "hydrogen_like", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["validation"]["ok"] is True
    assert doc["levels"][1]["e_n"] == 0.75
    assert doc["e_star"] == 1.0


def test_weights_harmonic_are_factorials(capsys):
    code, out, _ = run(capsys, ["weights", "--model", "harmonic", "--count", "6"])
    assert code == 0
    _, rows = csv_rows(out)
    rho = [float(r[2]) for r in rows]
    assert rho == pytest.approx([1, 1, 2, 6, 24, 120], rel=1e-12)


def test_weights_with_normalization(capsys):
    code, out, err = run(
        capsys, ["weights", "--model", "hydrogen_like", "--J", "0.5", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["normalization"]["value"] == pytest.approx(2.4548225555204377, rel=1e-10)
    assert doc["j_star"] == 1.0


def test_state_json_pairs(capsys):
    code, out, _ = run(
        capsys,
        ["state", "--model", "hydrogen_like", "--J", "0.5", "--gamma", "0", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    pairs = doc["coefficients"]
    assert pairs[0][0] == pytest.approx(0.63824871261826, rel=1e-10)
    assert all(p[1] == 0.0 for p in pairs)
    assert doc["tail_mass_bound"] <= 1e-12


def test_variance_grid_respects_bound(capsys):
    code, out, _ = run(
        capsys, ["variance", "--model", "hydrogen_like", "--range", "0.1", "0.9", "9"]
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["J", "mean", "variance", "bound", "tail_bound", "error"]
    assert len(rows) == 9
    for r in rows:
        assert float(r[2]) <= float(r[3]) + 1e-9
        assert r[5] == ""


def test_variance_failed_rows_have_no_bound(capsys):
    code, out, _ = run(capsys, ["variance", "--model", "hydrogen_like", "--grid", "0.5,1.5"])
    assert code == 0
    _, rows = csv_rows(out)
    assert float(rows[0][3]) == 0.1875
    assert rows[1][1:5] == ["nan", "nan", "nan", "nan"]
    assert rows[1][5].startswith("LabelRangeError")


def test_variance_json_is_strict(capsys):
    code, out, _ = run(
        capsys, ["variance", "--model", "hydrogen_like", "--grid", "0.5,1.5", "--format", "json"]
    )
    assert code == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    rows = json.loads(out, parse_constant=refuse)
    assert rows[0]["bound"] == 0.1875
    assert [rows[1][k] for k in ("mean", "variance", "bound", "tail_bound")] == [None] * 4
    assert rows[1]["error"].startswith("LabelRangeError")


def test_variance_honours_tol(capsys):
    argv = ["variance", "--model", "hydrogen_like", "--grid", "0.5", "--format", "json"]
    tails = []
    for extra in ([], ["--tol", "1e-4"]):
        code, out, _ = run(capsys, argv + extra)
        assert code == 0
        tails.append(json.loads(out)[0]["tail_bound"])
    assert tails[0] <= 1e-11 < tails[1] <= 1e-4


def test_variance_single_point_harmonic(capsys):
    code, out, _ = run(capsys, ["variance", "--model", "harmonic", "--grid", "1.0"])
    assert code == 0
    _, rows = csv_rows(out)
    assert float(rows[0][2]) == pytest.approx(1.0, rel=1e-11)


def test_variance_empty_grid(capsys):
    code, out, _ = run(capsys, ["variance", "--model", "harmonic", "--grid", ""])
    assert code == 0
    header, rows = csv_rows(out)
    assert rows == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--grid", "0.5", "--range", "0.1", "0.9", "3"], "give either --grid or --range, not both"),
        ([], "a J grid is required: pass --grid or --range"),
    ],
    ids=["both", "neither"],
)
def test_variance_needs_exactly_one_grid(capsys, flags, message):
    code, out, err = run(capsys, ["variance", "--model", "harmonic", *flags])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_variance_deterministic_output(capsys):
    argv = ["variance", "--model", "hydrogen_like", "--range", "0.1", "0.9", "5"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_usage_error_between_commands_leaves_the_parser_reusable(capsys):
    # main builds its parser on the first call and reuses it after a usage error
    argv = ["variance", "--model", "hydrogen_like", "--grid", "0.3,0.9"]
    _, first, _ = run(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        main(["variance", "--nmax", "many"])
    assert exc.value.code == 2 and "invalid int value" in capsys.readouterr().err
    _, second, _ = run(capsys, argv)
    assert first == second


@pytest.mark.parametrize("argv", [
    ["spectrum"], ["weights"], ["state", "--J", "0.5"], ["variance", "--grid", "0.5"],
    ["evolve", "--J", "0.5", "--t", "1"], ["resolution"],
])
def test_seed_is_a_verify_option_only(capsys, argv):
    # only verify draws samples; every other command refuses --seed as a usage error
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--model", "harmonic", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_spectrum_reports_each_violation_and_still_prints_levels(capsys, monkeypatch):
    # every spectrum the CLI builds is validated on construction, so a failing
    # report is injected: exit 1, one stderr line per violation, levels on stdout
    import cstates.cli as cli_mod
    from cstates.spectrum import ValidationReport

    violations = ((2, "level not above its predecessor"), (4, "level is not finite"))
    report = ValidationReport(ok=False, violations=violations, shift_applied=0.0)
    monkeypatch.setattr(cli_mod, "validate", lambda s, n_max: report)
    code, out, err = run(capsys, ["spectrum", "--model", "harmonic", "--count", "3"])
    assert code == 1
    assert err == (
        "validation violation at n=2: level not above its predecessor\n"
        "validation violation at n=4: level is not finite\n"
    )
    _, rows = csv_rows(out)
    assert [float(r[1]) for r in rows] == [0.0, 1.0, 2.0]


def test_evolve_reports_residual(capsys):
    code, out, _ = run(
        capsys, ["evolve", "--model", "hydrogen_like", "--J", "0.5", "--gamma", "0", "--t", "3.7"]
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert float(rows[0][3]) <= 1e-10


def test_evolve_builds_its_state_once(capsys, series_calls):
    code, _, _ = run(
        capsys, ["evolve", "--model", "hydrogen_like", "--J", "0.5", "--gamma", "0", "--t", "3.7"]
    )
    assert code == 0
    assert [J for _, J, _ in series_calls] == [0.5]


def test_evolve_zero_time(capsys):
    code, out, _ = run(
        capsys, ["evolve", "--model", "hydrogen_like", "--J", "0.5", "--t", "0"]
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert float(rows[0][3]) == 0.0


@pytest.mark.parametrize(
    "model, J, gamma, t",
    [
        ("harmonic", "100", "0.3", "1e9"),
        ("harmonic", "100", "0.3", "1e10"),
        ("hydrogen_like", "0.9", "0.3", "-1e12"),
    ],
)
def test_evolve_bound_covers_phase_rounding_at_large_times(capsys, model, J, gamma, t):
    # residuals of 7e-6 to 9e-5 here come from rounding the phase arguments,
    # not from truncation
    code, out, _ = run(
        capsys, ["evolve", "--model", model, "--J", J, "--gamma", gamma, f"--t={t}"]
    )
    assert code == 0
    _, rows = csv_rows(out)
    residual, bound = float(rows[0][3]), float(rows[0][4])
    assert residual > 1e-6
    assert residual <= bound


def test_evolve_out_of_range(capsys):
    code, _, err = run(capsys, ["evolve", "--model", "hydrogen_like", "--J", "2.0", "--t", "1"])
    assert code == 1
    assert "J" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--model", "harmonic", "--J", "1", "--t", "inf"],
        ["evolve", "--model", "harmonic", "--J", "1", "--t", "nan"],
        ["evolve", "--model", "hydrogen_like", "--J", "0.5", "--gamma=-inf", "--t", "1"],
        ["state", "--model", "harmonic", "--J", "1", "--gamma", "nan"],
        ["state", "--model", "hydrogen_like", "--J", "0.5", "--gamma", "inf"],
        # finite, but the phase argument e_n gamma or omega e_n t overflows
        ["state", "--model", "harmonic", "--J", "1", "--gamma", "1e308"],
        ["evolve", "--model", "harmonic", "--J", "1", "--gamma", "1e308", "--t", "1"],
        ["evolve", "--model", "harmonic", "--J", "1", "--t", "1e308"],
    ],
)
def test_nonfinite_label_or_time_is_refused(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_resolution_builtin(capsys):
    code, out, err = run(capsys, ["resolution", "--model", "hydrogen_like", "--ncheck", "20"])
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 21
    for r in rows:
        assert float(r[3]) == pytest.approx(1.0, abs=1e-9)


def test_resolution_refuses_malformed_measure_number(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"U": "inf", "density": {"kind": "exponential", "rate": [1]}}))
    code, out, err = run(capsys, ["resolution", "--model", "harmonic", "--measure", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("doc", [
    {"U": 1, "density": {"kind": "table", "u": [1, 0], "rho": [1, 1]}},
    {"U": 1, "density": {"kind": "constant", "value": 0.5}, "atoms": [{"u": "1", "w": "0.5"}]},
])
def test_resolution_refuses_unordered_table_and_string_atoms(tmp_path, capsys, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["resolution", "--model", "hydrogen_like", "--measure", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_resolution_stops_laguerre_doubling_at_its_limit(tmp_path, capsys):
    path = tmp_path / "rate5.json"
    path.write_text(json.dumps({"U": "inf", "density": {"kind": "exponential", "rate": 5}}))
    code, out, err = run(capsys, ["resolution", "--model", "harmonic", "--measure", str(path)])
    assert code == 2 and out == ""
    assert err == ("numerical failure: moment quadrature did not converge at 128 nodes, "
                   "the limit of numpy's Gauss-Laguerre rule\n")


def test_resolution_custom_needs_measure(tmp_path, capsys):
    doc = {"name": "c", "omega": 1.0, "kind": "explicit", "levels": [0, 1, 2.5]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["resolution", "--file", str(path)])
    assert code == 1
    assert "measure" in err


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "levels.csv"
    code, out, _ = run(
        capsys,
        ["spectrum", "--model", "harmonic", "--count", "4", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    header, rows = csv_rows(target.read_text())
    assert len(rows) == 4


def test_omega_override(capsys):
    code, out, _ = run(
        capsys, ["spectrum", "--model", "harmonic", "--omega", "2.0", "--count", "3"]
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert [float(r[2]) for r in rows] == [0.0, 2.0, 4.0]


def test_omega_override_reaches_a_file_document(tmp_path, capsys):
    # the document's energies are divided by the overriding omega, not by its
    # own; e_star is dimensionless and stays as declared
    path = tmp_path / "steps.json"
    path.write_text(json.dumps({**STEPS, "e_star": 12.0}))
    code, out, _ = run(capsys, ["spectrum", "--file", str(path), "--omega", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["omega"], doc["e_star"]) == (2.0, 12.0)
    assert [(r["e_n"], r["E_n"]) for r in doc["levels"]] == [
        (0.0, 0.0), (1.0, 2.0), (2.5, 5.0), (4.5, 9.0)
    ]


def test_nmax_floor_rejected(capsys):
    code, _, err = run(
        capsys, ["spectrum", "--model", "harmonic", "--nmax", "4"]
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum"],
        ["weights"],
        ["state", "--J", "0.5"],
        ["variance", "--grid", "0.5"],
        ["evolve", "--J", "0.5", "--t", "1.0"],
        ["resolution"],
        ["verify"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tol", "0"], "tolerance must be positive"),
        (["--nmax", "4"], "n_max must be at least 8"),
        (["--nmax", "4", "--tol", "0"], "tolerance must be positive"),
    ],
    ids=["tol", "nmax", "both"],
)
def test_every_command_checks_tol_then_nmax_first(capsys, argv, flags, message):
    # the shared checks come before the spectrum source is looked at
    for source in (["--model", "harmonic"], []):
        code, out, err = run(capsys, argv + source + flags)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--count", "0"],
        ["spectrum", "--count", "-3"],
        ["weights", "--count", "0"],
        ["weights", "--count", "-3", "--J", "1.0"],
        ["resolution", "--ncheck", "-1"],
    ],
    ids=lambda argv: "".join(argv[:3]),
)
def test_counts_below_their_least_are_refused(capsys, argv):
    # an empty --count table, or --ncheck -1, is refused by name with the
    # shared checks, before the spectrum source is looked at
    option, value = argv[1], argv[2]
    least = {"--count": 1, "--ncheck": 0}[option]
    for source in (["--model", "harmonic"], []):
        code, out, err = run(capsys, argv + source)
        assert (code, out) == (1, "")
        assert err == f"error: {option} must be at least {least}, got {value}\n"


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--count", "1"], ["weights", "--count", "1"], ["resolution", "--ncheck", "0"]],
    ids=lambda argv: argv[0],
)
def test_least_counts_are_served(capsys, argv):
    # one row each: n = 0
    code, out, _ = run(capsys, argv + ["--model", "harmonic"])
    assert code == 0
    assert len(csv_rows(out)[1]) == 1


def test_file_with_boolean_omega_is_refused(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"name": "b", "omega": True, "kind": "explicit", "levels": [0, 2, 5]}))
    code, out, err = run(capsys, ["spectrum", "--file", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: omega must be")


def test_unreachable_tail_exits_with_numerical_code(capsys):
    code, _, err = run(
        capsys,
        ["weights", "--model", "hydrogen_like", "--nmax", "16", "--J", "0.9"],
    )
    assert code == 2
    assert "tail" in err


def test_file_spectrum_variance(tmp_path, capsys):
    # triangle-number levels: long enough for certified tails at J = 0.2
    doc = {
        "name": "triangle",
        "omega": 1.0,
        "kind": "explicit",
        "levels": [n * (n + 1) / 2 for n in range(13)],
        "e_star": 100.0,
    }
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["variance", "--file", str(path), "--grid", "0.2"])
    assert code == 0
    header, rows = csv_rows(out)
    assert "bound" not in header
    assert float(rows[0][1]) == pytest.approx(0.2, abs=1e-9)
    assert rows[0][4] == ""


def test_file_spectrum_variance_flags_unresolvable_points(tmp_path, capsys):
    # four levels cannot certify a 1e-12 relative tail at J = 0.2
    doc = {
        "name": "steps",
        "omega": 1.0,
        "kind": "explicit",
        "levels": [0.0, 2.0, 5.0, 9.0],
        "e_star": 12.0,
    }
    path = tmp_path / "steps.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["variance", "--file", str(path), "--grid", "0.2"])
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0][4] != ""


def test_verify_builtins_pass(capsys):
    for model in ("harmonic", "hydrogen_like"):
        code, out, err = run(capsys, ["verify", "--model", model])
        assert code == 0, f"{model} verify failed:\n{out}\n{err}"
        header, rows = csv_rows(out)
        statuses = {r[0]: r[1] for r in rows}
        assert all(v in ("pass", "skipped") for v in statuses.values())
        assert statuses["action-identity"] == "pass"
        assert statuses["temporal-stability"] == "pass"


VERIFY_CHECKS = (
    "action-identity", "normalization-closed-form", "canonical-reduction", "norm-deficit",
    "temporal-stability", "dynamics-as-kinematics", "variance-route-agreement",
    "gamma-independence", "variance-bound", "projector-offdiagonal-decay", "small-j-slope",
    "near-jstar-exponent", "measure-moments", "unity-diagonals", "projector-trace",
    "projector-psd", "label-continuity", "evolution-norm",
)
CUSTOM_SKIPS = {
    "normalization-closed-form", "canonical-reduction", "variance-bound",
    "projector-offdiagonal-decay", "near-jstar-exponent", "measure-moments", "unity-diagonals",
}
STEPS = {"name": "steps", "omega": 1.0, "kind": "explicit", "levels": [0.0, 2.0, 5.0, 9.0]}


@pytest.mark.parametrize(
    "source, skipped",
    [
        (["--model", "harmonic"],
         {"variance-bound", "projector-offdiagonal-decay", "near-jstar-exponent"}),
        (["--model", "hydrogen_like"], {"canonical-reduction"}),
        ({**STEPS, "e_star": 12.0}, CUSTOM_SKIPS),
        (STEPS, CUSTOM_SKIPS | {"variance-route-agreement", "small-j-slope"}),
    ],
    ids=["harmonic", "hydrogen_like", "explicit-e_star", "explicit"],
)
def test_verify_check_sequence(tmp_path, capsys, source, skipped):
    if isinstance(source, dict):
        path = tmp_path / "spectrum.json"
        path.write_text(json.dumps(source))
        source = ["--file", str(path)]
    code, out, err = run(capsys, ["verify", *source, "--format", "json"])
    assert code == 0, err
    got = [(c["name"], c["status"]) for c in json.loads(out)["checks"]]
    assert got == [(name, "skipped" if name in skipped else "pass") for name in VERIFY_CHECKS]


@pytest.mark.parametrize("tol", ["1e-12", "1e-9", "1e-6", "1e-4"])
def test_verify_tol_fails_no_check_it_does_not_loosen(tmp_path, capsys, tol):
    # energy_mean, variance and the projector certify at the default 1e-12,
    # so a looser --tol must not sample J where they cannot
    path = tmp_path / "steps.json"
    path.write_text(json.dumps({**STEPS, "e_star": 12.0}))
    code, out, _ = run(capsys, ["verify", "--file", str(path), "--tol", tol, "--format", "json"])
    assert code == 0, out
    got = [(c["name"], c["status"]) for c in json.loads(out)["checks"]]
    assert got == [(name, "skipped" if name in CUSTOM_SKIPS else "pass") for name in VERIFY_CHECKS]


@pytest.mark.parametrize("model, nmax", [("hydrogen_like", "8"), ("hydrogen_like", "25"),
                                         ("harmonic", "10")])
def test_verify_small_nmax_reports_every_check(capsys, model, nmax):
    # the projector and measure checks clamp their sizes to the table, so a
    # short table fails the checks it cannot certify, each in its own row
    code, out, err = run(capsys, ["verify", "--model", model, "--nmax", nmax, "--format", "json"])
    assert code == 3, err
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == list(VERIFY_CHECKS)
    status = {c["name"]: c["status"] for c in checks}
    assert status["measure-moments"] == status["unity-diagonals"] == "pass"
    assert not any("weight table range" in c["detail"] for c in checks)


def test_verify_hydrogen_specifics(capsys):
    code, out, _ = run(capsys, ["verify", "--model", "hydrogen_like", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    status = {c["name"]: c["status"] for c in doc["checks"]}
    assert status["normalization-closed-form"] == "pass"
    assert status["variance-bound"] == "pass"
    assert status["measure-moments"] == "pass"
    assert status["near-jstar-exponent"] == "pass"
    assert status["canonical-reduction"] == "skipped"
    assert doc["ok"] is True


def test_verify_harmonic_specifics(capsys):
    code, out, _ = run(capsys, ["verify", "--model", "harmonic", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    status = {c["name"]: c["status"] for c in doc["checks"]}
    assert status["canonical-reduction"] == "pass"
    assert status["measure-moments"] == "pass"
    assert status["variance-bound"] == "skipped"


def test_verify_custom_file_skips_measure_checks(tmp_path, capsys):
    doc = {
        "name": "steps",
        "omega": 1.0,
        "kind": "explicit",
        "levels": [0.0, 2.0, 5.0, 9.0, 14.0, 20.0, 27.0, 35.0],
        "e_star": 50.0,
    }
    path = tmp_path / "steps.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["verify", "--file", str(path), "--format", "json"])
    doc_out = json.loads(out)
    status = {c["name"]: c["status"] for c in doc_out["checks"]}
    assert status["measure-moments"] == "skipped"
    assert status["unity-diagonals"] == "skipped"
    assert code == 0, f"custom verify failed: {out}\n{err}"


def test_model_and_file_conflict(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"omega": 1.0, "kind": "builtin", "model": "harmonic"}))
    code, _, err = run(capsys, ["spectrum", "--model", "harmonic", "--file", str(path)])
    assert code == 1


def test_missing_spectrum_source(capsys):
    code, _, err = run(capsys, ["variance", "--grid", "0.1"])
    assert code == 1


def test_verify_failed_assertion_is_a_fail_row(capsys, monkeypatch):
    # a check that fails by its own assertion reports that assertion's message:
    # action-identity reads omega s1/s0 from one batched series, here with s1/s0 = J + 1
    import cstates.verify as verify_mod

    batch = verify_mod._batch_sums

    def shifted(w, Js, tol, order):
        columns = batch(w, Js, tol, order)
        columns.s[1] = (np.array(list(columns.at)) + 1.0) * columns.s[0]
        return columns

    monkeypatch.setattr(verify_mod, "_batch_sums", shifted)
    code, out, err = run(capsys, ["verify", "--model", "harmonic", "--format", "json"])
    assert code == 3
    detail = "max |mean/omega - J| = 1.000e+00 > 1e-8"
    checks = json.loads(out)["checks"]
    assert [c for c in checks if c["status"] == "fail"] == [
        {"name": "action-identity", "status": "fail", "detail": detail}
    ]
    assert err == f"FAIL action-identity: {detail}\n"


def test_verify_failure_exits_3(capsys, monkeypatch):
    import cstates.cli as cli_mod
    from cstates.verify import CheckResult

    def fake_suite(s, w, measure, *, seed, tol):
        return [CheckResult("doomed", "fail", "synthetic failure for exit-code test")]

    monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
    code, out, err = run(capsys, ["verify", "--model", "harmonic"])
    assert code == 3
    assert "doomed" in err


def _extra_passes(suite):
    return f"j_mid = {suite.j_mid:g}"


def _extra_fails(suite):
    assert suite.j_mid < 0, f"j_mid = {suite.j_mid:g} is not negative"


@pytest.mark.parametrize("row, status, detail, code", [
    (_extra_passes, "pass", "j_mid = 0.5", 0),
    (_extra_fails, "fail", "j_mid = 0.5 is not negative", 3),
])
def test_verify_row_is_one_checks_entry(capsys, monkeypatch, row, status, detail, code):
    # a row added to verify.CHECKS runs last, on the suite the other rows share
    import cstates.verify as verify_mod

    monkeypatch.setattr(verify_mod, "CHECKS", (*verify_mod.CHECKS, ("extra", row, None, None)))
    got, out, err = run(capsys, ["verify", "--model", "harmonic", "--format", "json"])
    assert got == code
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == [*VERIFY_CHECKS, "extra"]
    assert [c["name"] for c in checks if c["status"] == "fail"] == (["extra"] if code else [])
    # pytest rewrites the assertion in this module, so the detail goes on past its message
    assert checks[-1]["status"] == status and checks[-1]["detail"].startswith(detail)
    assert err.startswith(f"FAIL extra: {detail}") if code else err == ""


@pytest.mark.parametrize("model", ["harmonic", "hydrogen_like"])
def test_verify_passes_at_large_omega(capsys, model):
    # rounding alone, which grows with omega, crosses no row's bound at omega = 1e3
    code, out, err = run(capsys, ["verify", "--model", model, "--omega", "1e3"])
    assert code == 0, err
    _, rows = csv_rows(out)
    assert [r for r in rows if r[1] == "fail"] == []


def test_gamma_independence_is_unit_free(capsys):
    # mean/omega and variance/omega^2 are compared, so rounding in the
    # omega-scaled moments does not fail the row at omega = 1e4
    code, out, err = run(capsys, ["verify", "--model", "hydrogen_like", "--omega", "1e4"])
    assert code == 0, err
    _, rows = csv_rows(out)
    assert [r for r in rows if r[1] == "fail"] == []
    assert [r[1] for r in rows if r[0] == "gamma-independence"] == ["pass"]


def test_nmax_caps_what_a_sum_reads(capsys):
    # a 20,000,001-entry cap fills the blocks the sums read, and prints what
    # the 40,001-entry table prints
    outs = []
    for n_max in ("40000", "20000000"):
        code, out, err = run(capsys, ["variance", "--model", "hydrogen_like", "--nmax", n_max,
                                      "--grid", "0.5,0.9"])
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
