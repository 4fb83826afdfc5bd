import json
import re
import subprocess
import sys

import pytest

from fracflow import DomainSpec, FlowParams, build_reservoir_mesh, solve_pss
from fracflow.cli import main
from fracflow.io import write_field_vtk

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


def test_inverse_vtk_is_the_forward_solve_at_the_rate(tmp_path):
    cfg = write_cfg(tmp_path, {
        "command": "inverse", "domain": DOMAIN, "params": PARAMS,
        "inverse": {"q_baseline": 1000.0}, "output": {"write_vtk": True}})
    assert main(["inverse", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    Q = json.loads((tmp_path / "out" / "inverse_result.json").read_text())["Q"]
    mesh = build_reservoir_mesh(DomainSpec(**DOMAIN))
    field, _ = solve_pss(mesh, FlowParams(**PARAMS), Q)
    write_field_vtk(mesh, field, tmp_path / "forward.vtk")
    assert ((tmp_path / "out" / "pressure.vtk").read_bytes()
            == (tmp_path / "forward.vtk").read_bytes())


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


@pytest.mark.parametrize("aperture, code", [(0.002, 0), (0.0002, 4)])
def test_validate_thin_anisotropic_slab(tmp_path, aperture, code):
    # the full slab starts at the line of its own load and converges at
    # both apertures.  At 2e-4 the bound itself fails (exit 4): the reduced
    # line's trapezoid load differs from the slab's consistent one by
    # O(dx^2) against a W_x that grows like 1/h
    cfg = write_cfg(tmp_path, {
        "command": "validate",
        "domain": dict(DOMAIN, fracture_length=1.0, resolution=0.03125),
        "params": {"alpha_f": 1.0, "beta": 1.0},
        "validate": {"flavor": "anisotropic", "apertures": [aperture],
                     "q0": 2.0}})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == code
    text = (tmp_path / "out" / "reduction.csv").read_text()
    assert text.count("anisotropic") == 1


def test_validate_names_the_row_a_reordered_factor_moved(tmp_path, capsys):
    # the anisotropic slab at h = 3e-5 and q0 = 1e5 fails in its first
    # factorization, which SuperLU reorders; the error says where
    cfg = write_cfg(tmp_path, {
        "command": "validate",
        "domain": dict(DOMAIN, fracture_length=1.0, resolution=0.03125),
        "params": {"alpha_f": 1.0, "beta": 1.0},
        "validate": {"flavor": "anisotropic", "apertures": [3e-5],
                     "q0": 1e5}})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert re.search(r"reordered its rows or columns, first row \d+ of 288 "
                     r"\(diagonal \S+, largest in its column \S+, pivot \S+\)", err)


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


def test_validate_isotropic_strong_drag_exits_0(tmp_path):
    # the reduced slab's |W| reaches 8e11, whose rounding alone leaves a
    # nodal residual of 8.3e-10 in its line equations: no Newton solve of
    # it meets the study's 1e-10 tolerance, the closed form needs none
    cfg = write_cfg(tmp_path, {
        "command": "validate",
        "domain": dict(DOMAIN, fracture_length=1.0, resolution=0.03125),
        "params": {"alpha_f": 1.0, "beta": 1.0},
        "validate": {"flavor": "isotropic", "apertures": [0.05], "q0": 1e5,
                     "q_over_v": 1.0, "scalings": [1.0]}})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "reduction.csv").read_text()
    assert text.count("isotropic,0.05,100000,") == 2


def test_validate_isotropic_reuses_the_unit_scaling_report(tmp_path, monkeypatch):
    # the s = 1 row is the study's report of apertures[0] at q0: one full
    # and one reduced slab solve per distinct report, and the row kept
    import fracflow.reduction as reduction
    calls = []
    solve_slab = reduction.solve_slab

    def counting(*args, **kwargs):
        calls.append(kwargs.get("reduced", False))
        return solve_slab(*args, **kwargs)

    monkeypatch.setattr(reduction, "solve_slab", counting)
    cfg = write_cfg(tmp_path, {
        "command": "validate",
        "domain": dict(DOMAIN, fracture_length=1.0, resolution=0.03125),
        "params": {"alpha_f": 1.0, "beta": 0.1},
        "validate": {"flavor": "isotropic", "apertures": [0.1],
                     "q0": 0.1, "scalings": [1.0, 2.0, 4.0]}})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert sorted(calls) == [False] * 3 + [True] * 3
    rows = [line for line in (tmp_path / "out" / "reduction.csv").read_text()
            .splitlines() if line.startswith("isotropic,")]
    assert len(rows) == 4 and rows[0] == rows[1]


@pytest.mark.parametrize("sweep", [
    {"lengths": [4.0, 8.0], "betas": [1e-3, 1e-2]},
    {"lengths": [4.0, 6.0, 8.0], "betas": [1e-3]},
    {"lengths": [], "betas": [1e-3, 1e-2]},
    {"lengths": [4.0, 6.0, 8.0], "betas": []},
    {"lengths": [4.0, 4.0, 8.0], "betas": [0.0, 1e-3]},
    {"lengths": [4.0, 6.0, 8.0], "betas": [1e-3, 1e-3]},
], ids=["two-lengths", "one-beta", "no-lengths", "no-betas", "duplicate-lengths",
        "duplicate-betas"])
def test_sweep_too_small_for_the_trend_check_exits_2(tmp_path, capsys,
                                                     monkeypatch, sweep):
    import fracflow.cli as cli

    def no_meshing(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_meshing)
    cfg = write_cfg(tmp_path, {"command": "sweep", "domain": DOMAIN,
                               "params": PARAMS, "sweep": sweep})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "trend check" in err
    assert "distinct" in err
    assert not (tmp_path / "o").exists()


# the 20 x 16 rectangle at resolution 1 of the fit rules
SMALL = dict(DOMAIN, width=20.0, height=16.0, fracture_length=4.0, resolution=1.0)


@pytest.mark.parametrize("command, domain, section", [
    ("sweep", SMALL, {"sweep": {"lengths": [2, 4, 60], "betas": [0, 1e-3]}}),
    ("solve", dict(SMALL, well=[-10, 0]), {}),
    ("inverse", dict(SMALL, fracture_length=12.0), {}),
    ("solve", dict(SMALL, fracture_length=0.4), {}),
    ("solve", {"shape": "disk", "radius": 8.0, "fracture_length": 4.0,
               "well": [1.0, 0.0]}, {}),
    ("sweep", {"shape": "disk", "radius": 8.0, "fracture_length": 4.0},
     {"sweep": {"lengths": [2, 4, 9], "betas": [0, 1e-3]}}),
], ids=["sweep-length", "solve-well", "inverse-length", "too-coarse",
        "disk-offcenter", "disk-sweep-length"])
def test_fracture_that_cannot_be_meshed_exits_2(tmp_path, capsys, monkeypatch,
                                                 command, domain, section):
    import fracflow.cli as cli

    def no_meshing(*args, **kwargs):
        raise AssertionError("the reservoir was meshed")

    monkeypatch.setattr(cli, "build_reservoir_mesh", no_meshing)
    monkeypatch.setattr(cli, "run_sweep", no_meshing)
    cfg = write_cfg(tmp_path, dict({"command": command, "domain": domain,
                                    "params": PARAMS}, **section))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot mesh the reservoir:")
    assert not (tmp_path / "o").exists()


def test_config_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["solve", "--config", missing]) == 2
    bad = write_cfg(tmp_path, {"command": "solve",
                               "domain": dict(DOMAIN, shape="hexagon")})
    assert main(["solve", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    mismatch = write_cfg(tmp_path, {"command": "solve", "domain": DOMAIN},
                         name="m.json")
    assert main(["sweep", "--config", mismatch, "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"command": "solve", "domain": {"shape": "r\xe9ctangle"}}')
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    # an output path that names an existing file, given by --out or output.dir
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    good = {"command": "solve", "domain": DOMAIN, "params": PARAMS}
    out_dir = write_cfg(tmp_path, dict(good, output={"dir": str(taken)}),
                        name="out_dir.json")
    for argv, message in [
            ([str(latin1), "--out", str(tmp_path / "o")], "is not UTF-8 text"),
            ([str(nested), "--out", str(tmp_path / "o")], "nested too deeply"),
            ([write_cfg(tmp_path, good), "--out", str(taken)], "File exists"),
            ([out_dir], "File exists")]:
        assert main(["solve", "--config"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize("command", ["solve", "inverse", "sweep", "validate"])
def test_mesh_too_fine_to_allocate_exits_2(tmp_path, capsys, command):
    # petabytes for the fracture offsets (or the slab's nodes): no
    # allocator can grant it, so it fails at once; at 1e-300 the node
    # count is past what one NumPy array can hold, refused before asking
    sections = {"sweep": {"sweep": {"lengths": [4.0, 6.0, 8.0],
                                    "betas": [0.0, 1e-3]}},
                "validate": {"params": {"alpha_f": 1.0, "beta": 1.0}}}
    for resolution in (1e-15, 1e-300):
        data = dict({"command": command,
                     "domain": dict(DOMAIN, resolution=resolution), "params": PARAMS},
                    **sections.get(command, {}))
        if command == "validate":
            data["domain"]["fracture_length"] = 1.0
        cfg = write_cfg(tmp_path, data)
        out = tmp_path / "o" / "nested"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"configuration error: cannot mesh at resolution {resolution:g}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()  # nor the parent it made


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


def test_aniso_k_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "command": "validate", "domain": dict(DOMAIN, fracture_length=1.0),
        "params": {"alpha_f": 1.0, "beta": 1.0, "aniso_k": 1.0}})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'aniso_k' in section 'params'" in capsys.readouterr().err


@pytest.mark.parametrize("command, section", [
    ("inverse", {"inverse": {"q_baseline": 1000.0, "tol": 1e-6}}),
    ("sweep", {"sweep": {"lengths": [4.0, 6.0, 8.0], "betas": [1e-3, 1e-2],
                         "tol": 1e-6}}),
])
def test_setpoint_tol_key_exits_2(tmp_path, capsys, command, section):
    # the set-point's drawdown meets its target by construction
    cfg = write_cfg(tmp_path, dict({"command": command, "domain": DOMAIN,
                                    "params": PARAMS}, **section))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert (f"unknown key 'tol' in section '{command}' ({command}.tol is not a setting)"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_validate_resolution_key_exits_2(tmp_path, capsys):
    # the slabs are meshed at the domain's resolution
    cfg = write_cfg(tmp_path, {
        "command": "validate", "domain": dict(DOMAIN, fracture_length=1.0),
        "params": {"alpha_f": 1.0, "beta": 1.0},
        "validate": {"resolution": 0.125}})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert ("unknown key 'resolution' in section 'validate'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("domain", [
    dict(DOMAIN, resolution=float("nan")),
    dict(DOMAIN, fracture_length=float("nan")),
    dict(DOMAIN, shape="disk", radius=float("inf")),
    dict(DOMAIN, grading=float("nan")),
    dict(DOMAIN, aperture=float("inf")),
    dict(DOMAIN, width=float("inf")),
], ids=["resolution-nan", "fracture_length-nan", "radius-inf", "grading-nan",
        "aperture-inf", "width-inf"])
def test_non_finite_domain_value_exits_2(tmp_path, capsys, domain):
    # Python's json reads NaN and Infinity, so the domain itself must
    # reject them before anything is meshed or solved
    cfg = write_cfg(tmp_path, {"command": "solve", "domain": domain,
                               "params": PARAMS})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "must be finite" in err
    assert not (tmp_path / "o").exists()


# fine enough that a length read as 1 is meshed and solved
SMALL = dict(DOMAIN, width=12.0, height=8.0, fracture_length=3.0, resolution=0.5)


@pytest.mark.parametrize("command, section, key", [
    ("solve", {"solver": {"tol": True}}, "solver.tol"),
    ("solve", {"params": dict(PARAMS, beta=True)}, "params.beta"),
    ("solve", {"solve": {"q": True}}, "solve.q"),
    ("validate", {"validate": {"apertures": [True]}}, "validate.apertures"),
    ("sweep", {"domain": SMALL,
               "sweep": {"lengths": [True, 2.0, 3.0], "betas": [1e-5, 1e-3]}},
     "sweep.lengths"),
    ("solve", {"domain": dict(SMALL, fracture_length=True)}, "domain.fracture_length"),
], ids=["solver-tol", "params-beta", "solve-q", "validate-apertures",
        "sweep-lengths", "domain-fracture_length"])
def test_boolean_number_exits_2(tmp_path, capsys, command, section, key):
    # bool is an int subclass: true passed every numeric check as 1
    cfg = write_cfg(tmp_path, dict({"command": command, "domain": DOMAIN,
                                    "params": PARAMS}, **section))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert f"{key} must not be true or false" in err
    assert not (tmp_path / "o").exists()


def test_zero_rate_summary_is_strict_json(tmp_path):
    # there is no drawdown at q = 0, so J_p = q / PDD is undefined; NaN is
    # not JSON (RFC 8259)
    cfg = write_cfg(tmp_path, {"command": "solve", "domain": DOMAIN,
                               "params": PARAMS, "solve": {"q": 0.0}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text(),
                         parse_constant=reject)
    assert summary["Q"] == 0.0 and summary["PDD"] == 0.0
    assert summary["J_p"] is None


@pytest.mark.parametrize("command, section", [
    ("inverse", {"inverse": {"q_baseline": 1000.0}}),
    ("sweep", {"sweep": {"lengths": [4.0, 6.0, 8.0], "betas": [1e-3, 1e-2]}}),
])
def test_max_picard_bounds_only_forward_solves(tmp_path, capsys, command, section):
    # beta > 0 needs more than one Newton step; the set-point's steps are
    # bounded by its own max_outer, not by solver.max_picard
    cfg = write_cfg(tmp_path, dict({
        "command": command, "domain": DOMAIN, "params": PARAMS,
        "solver": {"max_picard": 1}}, **section))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


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
    sweep = {"lengths": [4.0, 6.0, 8.0], "betas": [1e-3, 1e-2]}
    bad = [("sweep", {"sweep": dict(sweep, max_outer=0)}),
           ("sweep", {"sweep": dict(sweep, betas=[-1e-3])}),
           ("validate", {"validate": {"flavor": "isotropic", "scalings": []}}),
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


SWEEP = {"lengths": [4.0, 6.0, 8.0], "betas": [1e-3, 1e-2]}


@pytest.mark.parametrize("command, section", [
    ("solve", {"solver": {"max_picard": 2.5}}),
    ("solve", {"solver": {"max_picard": True}}),
    ("inverse", {"inverse": {"max_outer": 2.5}}),
    ("inverse", {"inverse": {"max_outer": True}}),
    ("sweep", {"sweep": dict(SWEEP, max_outer=2.5)}),
    ("solve", {"domain": dict(DOMAIN, well=["a", 0])}),
    ("solve", {"domain": dict(DOMAIN, well=["1", 0])}),
    ("solve", {"domain": dict(DOMAIN, well=[True, 0])}),
    ("solve", {"output": {"dir": 5}}),
    ("solve", {"output": {"write_vtk": "yes"}}),
    ("validate", {"validate": {"apertures": [0.1, 0.2]}}),
    ("validate", {"validate": {"apertures": [0.1, 0.1]}}),
    ("solve", {"solver": {"tol": float("inf")}}),
    ("solve", {"solver": {"tol": 0.0}}),
    ("solve", {"solver": {"tol": 1.0}}),
    # inverse.tol and sweep.tol are retired: any value is an unknown key
    ("inverse", {"inverse": {"tol": float("inf")}}),
    ("inverse", {"inverse": {"tol": 0.0}}),
    ("inverse", {"inverse": {"tol": 1.0}}),
    ("sweep", {"sweep": dict(SWEEP, tol=float("inf"))}),
    ("sweep", {"sweep": dict(SWEEP, tol=0.0)}),
    ("sweep", {"sweep": dict(SWEEP, tol=1.0)}),
], ids=["max_picard-float", "max_picard-bool", "max_outer-float",
        "max_outer-bool", "sweep-max_outer-float", "well-letter",
        "well-string", "well-bool", "dir-int", "write_vtk-string",
        "apertures-increasing", "apertures-repeated",
        "solver-tol-inf", "solver-tol-zero", "solver-tol-one",
        "inverse-tol-inf", "inverse-tol-zero", "inverse-tol-one",
        "sweep-tol-inf", "sweep-tol-zero", "sweep-tol-one"])
def test_malformed_value_exits_2(tmp_path, capsys, monkeypatch, command, section):
    # no --out, so that output.dir is the one in use
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, dict({"command": command, "domain": DOMAIN,
                                    "params": PARAMS}, **section))
    assert main([command, "--config", cfg]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


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
