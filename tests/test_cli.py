import json
import subprocess
import sys

import pytest

from fracflow.cli import main

DOMAIN = {"shape": "rectangle", "width": 60.0, "height": 48.0,
          "fracture_length": 8.0, "aperture": 1.0, "resolution": 2.0,
          "grading": 1.3}
PARAMS = {"alpha_f": 0.05, "beta": 1e-3, "k_p": 1.0}


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=1))
    return str(path)


def test_solve_command(tmp_path):
    cfg = write_cfg(tmp_path, {
        "command": "solve", "domain": DOMAIN, "params": PARAMS,
        "solve": {"q": 500.0}, "output": {"write_vtk": True}})
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["Q"] == 500.0
    assert summary["PDD"] > 0
    assert (tmp_path / "out" / "pressure.vtk").exists()


def test_inverse_command_uses_baseline_when_no_target(tmp_path):
    cfg = write_cfg(tmp_path, {
        "command": "inverse", "domain": DOMAIN, "params": PARAMS,
        "inverse": {"q_baseline": 1000.0}})
    rc = main(["inverse", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    result = json.loads((tmp_path / "out" / "inverse_result.json").read_text())
    assert abs(result["PDD"] - result["target_PDD"]) <= 1e-6 * result["target_PDD"]
    assert result["Q"] > 1000.0  # fracture raises capacity at equal drawdown
    assert len(result["history"]) == result["outer_iterations"]


def test_sweep_command_emits_table_and_diagnostics(tmp_path):
    cfg = write_cfg(tmp_path, {
        "command": "sweep", "domain": dict(DOMAIN, fracture_length=12.0),
        "params": dict(PARAMS, beta=0.0),
        "sweep": {"lengths": [4.0, 8.0, 12.0], "betas": [1e-5, 1e-3, 1e-1]}})
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    trend = json.loads((tmp_path / "out" / "trend_check.json").read_text())
    assert trend["passed"]
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_reruns_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, {
        "command": "sweep", "domain": dict(DOMAIN, fracture_length=12.0),
        "params": dict(PARAMS, beta=0.0),
        "sweep": {"lengths": [4.0, 8.0, 12.0], "betas": [1e-4, 1e-2]}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "sweep.csv").read_bytes()
            == (tmp_path / "b" / "sweep.csv").read_bytes())


def test_validate_anisotropic_passes(tmp_path):
    cfg = write_cfg(tmp_path, {
        "command": "validate",
        "domain": dict(DOMAIN, fracture_length=1.0, resolution=0.03125),
        "params": {"alpha_f": 1.0, "beta": 1.0},
        "validate": {"flavor": "anisotropic", "apertures": [0.2, 0.1, 0.05],
                     "q0": 2.0}})
    rc = main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    text = (tmp_path / "out" / "reduction.csv").read_text()
    assert text.count("anisotropic") == 3


def test_validate_isotropic_gate_fails_in_deep_drag_regime(tmp_path):
    # strong data in a strongly nonlinear regime: the empirical stability
    # constant drifts far beyond the factor-4 gate
    cfg = write_cfg(tmp_path, {
        "command": "validate",
        "domain": dict(DOMAIN, fracture_length=1.0, resolution=0.03125),
        "params": {"alpha_f": 1.0, "beta": 1.0},
        "validate": {"flavor": "isotropic", "apertures": [0.1],
                     "q0": 2.0, "scalings": [1.0, 2.0, 4.0]}})
    rc = main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 4


def test_config_errors_exit_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["solve", "--config", missing]) == 2
    bad = write_cfg(tmp_path, {"command": "solve",
                               "domain": dict(DOMAIN, shape="hexagon")})
    assert main(["solve", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    mismatch = write_cfg(tmp_path, {"command": "solve", "domain": DOMAIN},
                         name="m.json")
    assert main(["sweep", "--config", mismatch, "--out", str(tmp_path / "o")]) == 2


def test_threads_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "command": "sweep", "domain": DOMAIN, "params": PARAMS,
        "sweep": {"lengths": [4.0, 8.0], "betas": [1e-3]}, "threads": 2})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'threads'" in capsys.readouterr().err


def test_theta_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "command": "solve", "domain": DOMAIN, "params": PARAMS,
        "solver": {"theta": 0.5}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'theta'" in capsys.readouterr().err


def test_k_f_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "command": "solve", "domain": DOMAIN,
        "params": dict(PARAMS, k_f=20.0)})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'k_f' in section 'params'" in capsys.readouterr().err


@pytest.mark.parametrize("command, section", [
    ("inverse", {"inverse": {"q_baseline": 1000.0}}),
    ("sweep", {"sweep": {"lengths": [4.0, 8.0], "betas": [1e-3]}}),
])
def test_max_picard_reaches_the_setpoint(tmp_path, capsys, command, section):
    # beta > 0 needs more than one Newton step, so a budget of 1 must fail
    cfg = write_cfg(tmp_path, dict({
        "command": command, "domain": DOMAIN, "params": PARAMS,
        "solver": {"max_picard": 1}}, **section))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err


def test_threads_flag_rejected_by_argparse(tmp_path):
    cfg = write_cfg(tmp_path, {
        "command": "sweep", "domain": DOMAIN, "params": PARAMS,
        "sweep": {"lengths": [4.0, 8.0], "betas": [1e-3]}})
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
              "--threads", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_bad_sweep_and_validate_settings_exit_2(tmp_path):
    sweep = {"lengths": [4.0, 8.0], "betas": [1e-3]}
    bad = [("sweep", {"sweep": dict(sweep, max_outer=0)}),
           ("sweep", {"sweep": dict(sweep, betas=[-1e-3])}),
           ("validate", {"validate": {"flavor": "isotropic", "scalings": []}}),
           ("validate", {"validate": {"resolution": 0.0}}),
           ("validate", {"validate": {"resolution": -1.0}}),
           ("validate", {"params": dict(PARAMS, beta=0.0)}),
           ("validate", {"validate": {"q0": float("inf")}}),
           ("validate", {"validate": {"apertures": [float("inf")]}}),
           ("validate", {"validate": {"q_over_v": float("nan")}}),
           ("inverse", {"inverse": {"q_baseline": -5.0}}),
           ("sweep", {"sweep": dict(sweep, q_baseline=0.0)}),
           ("solve", {"solve": {"q": float("nan")}})]
    for k, (command, section) in enumerate(bad):
        cfg = write_cfg(tmp_path, dict({"command": command, "domain": DOMAIN,
                                        "params": PARAMS}, **section),
                        name=f"bad{k}.json")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_solver_failure_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, {
        "command": "inverse", "domain": DOMAIN,
        "params": dict(PARAMS, beta=0.1),
        "inverse": {"q_baseline": 1000.0, "max_outer": 1}})
    assert main(["inverse", "--config", cfg, "--out", str(tmp_path / "out")]) == 3


def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, {"command": "solve", "domain": DOMAIN,
                               "params": PARAMS})
    proc = subprocess.run(
        [sys.executable, "-m", "fracflow.cli", "solve", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
