"""End-to-end command line tests, run in process."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from macroq import catalog, phasespace
from macroq.cli import STATES, main
from macroq.measure import measure_operator


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_measure_fock(capsys):
    rc, out, err = run(capsys, "measure", "--state", "fock", "--n", "3")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["value"] == 3.0
    assert payload["route"] == "operator"
    assert payload["purity"] == 1.0


def test_measure_prints_twelve_significant_digits(capsys):
    rc, out, _ = run(capsys, "measure", "--state", "scs", "--alpha", "1.5")
    payload = json.loads(out)
    ref = measure_operator(catalog.make_scs(1.5)).value
    assert payload["value"] == float(f"{ref:.12g}")


def test_measure_closed_form_route_matches_operator(capsys):
    _, out_op, _ = run(capsys, "measure", "--state", "scs", "--alpha", "1.2",
                       "--route", "operator")
    _, out_cf, _ = run(capsys, "measure", "--state", "scs", "--alpha", "1.2",
                       "--route", "closed-form")
    v_op = json.loads(out_op)["value"]
    v_cf = json.loads(out_cf)["value"]
    assert v_op == pytest.approx(v_cf, abs=1e-9)
    assert json.loads(out_cf)["route"] == "closed-form"


# every --state with small parameters and the route it takes by default; the
# default is table data in the CLI (scs has a closed form yet defaults to operator)
DEFAULT_ROUTES = {
    "fock": (["--n", "2"], "operator"),
    "coherent": (["--alpha", "0.8"], "operator"),
    "scs": (["--alpha", "1.2"], "operator"),
    "mixture-scs": (["--alpha", "1"], "closed-form"),
    "decohered-scs": (["--alpha", "1", "--tau", "0.3"], "closed-form"),
    "squeezed": (["--s", "0.5"], "operator"),
    "gaussian": (["--A", "3", "--B", "3"], "closed-form"),
    "thermal": (["--nbar", "0.5"], "closed-form"),
    "thermal-scs": (["--V", "2", "--d", "1"], "closed-form"),
    "ghz": (["--n-modes", "8"], "low-rank"),
    "noon": (["--n", "2"], "low-rank"),
    "dur": (["--n-modes", "4", "--epsilon", "0.3"], "low-rank"),
    "maximally-mixed": (["--dim", "4"], "operator"),
}


def test_measure_default_routes(capsys):
    assert set(DEFAULT_ROUTES) == set(STATES)
    for name, (flags, route) in DEFAULT_ROUTES.items():
        rc, out, err = run(capsys, "measure", "--state", name, *flags)
        assert rc == 0 and err == "", name
        assert json.loads(out)["route"] == route, name
    rc, out, _ = run(capsys, "measure", "--state", "ghz", "--n-modes", "8")
    assert json.loads(out)["value"] == 4.0


def test_measure_dur_routes_agree(capsys):
    _, out_lr, _ = run(capsys, "measure", "--state", "dur", "--n-modes", "40",
                       "--epsilon", "0.2")
    _, out_cf, _ = run(capsys, "measure", "--state", "dur", "--n-modes", "40",
                       "--epsilon", "0.2", "--route", "closed-form")
    assert json.loads(out_lr)["value"] == pytest.approx(json.loads(out_cf)["value"],
                                                        abs=1e-10)


def test_measure_missing_param_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--state", "scs"])
    assert exc.value.code == 2


def test_measure_unknown_state_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--state", "bogus"])
    assert exc.value.code == 2


def test_measure_route_without_dense_form_fails_cleanly(capsys):
    rc, out, err = run(capsys, "measure", "--state", "gaussian", "--A", "2",
                       "--B", "0.5", "--route", "operator")
    assert rc == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "Fock" in payload["message"]


@pytest.mark.parametrize("argv, code", [
    (["--state", "fock", "--n", "2", "--route", "low-rank"], 1),
    (["--state", "gaussian", "--A", "2", "--B", "0.5", "--route", "low-rank"], 1),
    (["--state", "fock", "--n", "2", "--route", "closed-form"], 1),
    (["--state", "noon", "--n", "2", "--route", "closed-form"], 1),
    (["--state", "ghz", "--n-modes", "3", "--route", "char-quadrature"], 1),
    (["--state", "gaussian", "--A", "2", "--B", "0.5", "--route", "operator"], 1),
    (["--state", "fock", "--n", "2", "--route", "monte-carlo"], 2),
    (["--state", "noon"], 2),
], ids=["lowrank-dense", "lowrank-char", "closed-fock", "closed-noon",
        "quadrature-multimode", "operator-char", "unknown-route", "missing-flag"])
def test_route_state_mismatch_exits_1_and_usage_errors_exit_2(capsys, argv, code):
    try:
        rc, out, err = run(capsys, "measure", *argv)
    except SystemExit as exc:
        rc, out, err = exc.code, "", ""
    assert rc == code
    if code == 1:
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert argv[-1] in payload["message"]  # names the route


@pytest.mark.parametrize("argv", [
    ["--state", "ghz", "--n-modes", "3"],
    ["--state", "noon", "--n", "2"],
    ["--state", "dur", "--n-modes", "3", "--epsilon", "0.4"],
], ids=["ghz", "noon", "dur"])
def test_emit_wigner_multimode_exits_1(capsys, tmp_path, argv):
    out_file = tmp_path / "g.wig"
    rc, out, err = run(capsys, "emit-wigner", *argv, "--output", str(out_file))
    assert rc == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "single-mode" in payload["message"]
    assert not out_file.exists()


def test_readme_quick_start_commands_run(tmp_path, monkeypatch, capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("macroq ")]
    assert len(commands) >= 7
    monkeypatch.chdir(tmp_path)  # the examples write and read files in place
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_cutoff_env_var_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("MACROQ_DEFAULT_CUTOFF", "3")
    rc, out, err = run(capsys, "measure", "--state", "fock", "--n", "3")
    assert rc == 1
    assert json.loads(err)["error"] == "TruncationLeakError"
    # an explicit flag wins over the environment
    rc, out, err = run(capsys, "measure", "--state", "fock", "--n", "3",
                       "--cutoff", "6")
    assert rc == 0


def test_cutoff_env_var_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("MACROQ_DEFAULT_CUTOFF", "many")
    rc, _, err = run(capsys, "measure", "--state", "fock", "--n", "1")
    assert rc == 1
    assert "not an integer" in json.loads(err)["message"]


def test_sweep_fig1a_shape_and_endpoints(capsys):
    rc, out, _ = run(capsys, "sweep", "--preset", "fig1a", "--samples", "11")
    lines = out.strip().splitlines()
    assert lines[0] == "param,axis_value,I,mean_n,purity"
    assert len(lines) == 1 + 4 * 11
    first = lines[1].split(",")
    assert first[0] == "alpha=2"
    assert float(first[2]) == pytest.approx(4 * np.tanh(4.0), rel=1e-10)
    # the trajectory ends in the vacuum
    last_alpha2 = lines[11].split(",")
    assert float(last_alpha2[1]) == 1.0
    assert float(last_alpha2[2]) == 0.0


def test_sweep_fig1b_starts_at_squeezing_size(capsys):
    rc, out, _ = run(capsys, "sweep", "--preset", "fig1b", "--samples", "5")
    first = out.strip().splitlines()[1].split(",")
    assert first[0] == "s=1.5"
    assert float(first[2]) == pytest.approx(np.sinh(1.5) ** 2, rel=1e-10)


def test_sweep_thermal_limit_approaches_half(capsys):
    rc, out, _ = run(capsys, "sweep", "--preset", "thermal-limit", "--samples", "9")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-12)
    assert float(rows[-1][2]) == pytest.approx(0.5, abs=1e-2)


def test_sweep_writes_output_file(tmp_path, capsys):
    target = tmp_path / "curves.csv"
    rc, out, _ = run(capsys, "sweep", "--preset", "fig1a", "--samples", "3",
                     "--output", str(target))
    assert rc == 0 and out == ""
    assert target.read_text().startswith("param,axis_value,I,mean_n,purity\n")


def test_emit_and_score_wigner_round_trip(tmp_path, capsys):
    path = tmp_path / "cat.wig"
    rc, _, _ = run(capsys, "emit-wigner", "--state", "scs", "--alpha", "1.5",
                   "--output", str(path))
    assert rc == 0
    head = path.read_text().splitlines()[0]
    assert head == "WIGNER-GRID v1"
    rc, out, _ = run(capsys, "score-wigner", "--input", str(path))
    assert rc == 0
    payload = json.loads(out)
    ref = measure_operator(catalog.make_scs(1.5)).value
    assert payload["value"] == pytest.approx(ref, abs=1e-6)
    assert payload["route"] == "wigner-grid"


def test_emit_wigner_default_points_follow_state(tmp_path, capsys):
    rho = catalog.make_scs(3.0)
    hw = 4.3 * np.sqrt(2 * rho.mean_number() + 1)
    path = tmp_path / "cat.wig"
    rc, _, _ = run(capsys, "emit-wigner", "--state", "scs", "--alpha", "3",
                   "--output", str(path))
    assert rc == 0
    assert phasespace.load_wigner(path).x.n == phasespace.default_points(rho, hw) > 201
    rc, _, _ = run(capsys, "emit-wigner", "--state", "scs", "--alpha", "3",
                   "--half-width", "8", "--output", str(path))
    assert rc == 0
    grid = phasespace.load_wigner(path)
    assert (grid.x.start, grid.x.stop) == (-8.0, 8.0)
    assert grid.x.n == phasespace.default_points(rho, 8.0)


def test_measure_squeezed_wigner_grid_within_its_error_bar(capsys):
    rc, out, _ = run(capsys, "measure", "--state", "squeezed", "--s", "1.5",
                     "--route", "wigner-grid")
    assert rc == 0
    payload = json.loads(out)
    # the operator route on the same truncated state (dim 224): 4.53383099222
    exact = measure_operator(catalog.make_squeezed(1.5)).value
    assert abs(payload["value"] - exact) <= payload["err_estimate"] < 1e-3


def test_score_wigner_normalization_modes(tmp_path, capsys):
    from macroq import phasespace

    path = tmp_path / "skew.wig"
    grid = phasespace.wigner_of(catalog.make_coherent(0.8, 20), points=64)
    skew = phasespace.WignerGrid(grid.x, grid.p, grid.values * 1.05)
    phasespace.save_wigner(skew, path)
    # the norm slips past the loader with a warning but the scorer rejects it
    rc, out, err = run(capsys, "score-wigner", "--input", str(path))
    assert rc == 1
    assert "deviates" in json.loads(err)["message"]
    rc, _, err = run(capsys, "score-wigner", "--input", str(path),
                     "--strict-normalization")
    assert rc == 1


def test_score_wigner_missing_file(capsys):
    rc, out, err = run(capsys, "score-wigner", "--input", "/nonexistent/g.wig")
    assert rc == 1
    assert json.loads(err)["error"] in ("FileNotFoundError", "OSError")


def test_evolve_csv(capsys):
    rc, out, _ = run(capsys, "evolve", "--state", "scs", "--alpha", "1.0",
                     "--t-max", "0.4", "--samples", "5", "--cutoff", "30")
    lines = out.strip().splitlines()
    assert lines[0] == "tau,I,purity,mean_n"
    assert len(lines) == 6
    row0 = [float(c) for c in lines[1].split(",")]
    assert row0[0] == 0.0
    assert row0[1] == pytest.approx(catalog.closed_form_scs(1.0).value, abs=1e-8)
    taus = [float(line.split(",")[0]) for line in lines[1:]]
    assert taus == pytest.approx(list(np.linspace(0, 0.4, 5)))


def test_evolve_output_file(tmp_path, capsys):
    target = tmp_path / "traj.csv"
    rc, out, _ = run(capsys, "evolve", "--state", "fock", "--n", "1",
                     "--cutoff", "8", "--samples", "3", "--output", str(target))
    assert rc == 0 and out == ""
    assert target.read_text().startswith("tau,I,purity,mean_n\n")


def test_check_passes_clean(capsys):
    rc, out, _ = run(capsys, "check", "--ensemble", "20")
    assert rc == 0
    assert "8/8 properties hold" in out
    assert "FAIL" not in out


def test_check_detects_injected_fault(capsys):
    rc, out, _ = run(capsys, "check", "--ensemble", "20", "--inject-fault")
    assert rc == 1
    assert "FAIL occupation-bound" in out


def test_convergence_error_reports_partial(capsys):
    # force a hopeless radial cut through the quadrature route by hand
    from macroq.measure import ConvergenceError, measure_char_quadrature
    from macroq import phasespace

    chi = phasespace.char_of(catalog.make_scs(2.0, 40))
    with pytest.raises(ConvergenceError):
        measure_char_quadrature(chi, radial_cut=0.8, tol=1e-12)
