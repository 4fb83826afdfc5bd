import dataclasses
import json

import numpy as np
import pytest

from fracflow import (
    ConfigError,
    DomainSpec,
    FlowParams,
    ReductionReport,
    SweepTable,
    build_fracture_slab_mesh,
    build_reservoir_mesh,
    parse_config,
    write_field_vtk,
    write_reduction_csv,
    write_sweep_csv,
)
from fracflow.config import parse_config_data, runspec_to_json

MINIMAL = {
    "command": "solve",
    "domain": {"shape": "rectangle", "width": 10.0, "height": 8.0,
               "fracture_length": 2.0},
}


def write_json(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        spec = parse_config(write_json(tmp_path, MINIMAL))
        assert spec.solver.tol == 1e-9
        assert spec.params == FlowParams()
        assert spec.domain.grading == 1.3
        assert spec.output.dir == "out"

    def test_threads_key_rejected(self):
        # a sweep runs serially; the retired thread count is an unknown key
        with pytest.raises(ConfigError, match="unknown key 'threads'"):
            parse_config_data(dict(MINIMAL, threads=1))

    def test_theta_key_rejected(self):
        # Newton's line search picks every step length; the retired
        # damping knob is an unknown key
        with pytest.raises(ConfigError, match="unknown key 'theta' in section 'solver'"):
            parse_config_data(dict(MINIMAL, solver={"theta": 0.5}))

    def test_k_f_key_rejected(self):
        # the linear fracture mobility is 1/alpha_f; the retired k_f
        # surrogate is an unknown key
        with pytest.raises(ConfigError, match="unknown key 'k_f' in section 'params'"):
            parse_config_data(dict(MINIMAL, params={"alpha_f": 0.05, "k_f": 20.0}))

    def test_aniso_k_key_rejected(self):
        # the transverse mobility of the anisotropic slab is 1/alpha_f, the
        # value its error bound is stated for; the retired key is unknown
        with pytest.raises(ConfigError, match="unknown key 'aniso_k' in section 'params'"):
            parse_config_data(dict(MINIMAL, params={"alpha_f": 1.0, "aniso_k": 1.0}))

    def test_validate_resolution_key_rejected(self):
        # the slabs are meshed at the domain's resolution; the retired
        # duplicate is an unknown key
        with pytest.raises(ConfigError,
                           match="unknown key 'resolution' in section 'validate'"):
            parse_config_data(dict(MINIMAL, command="validate",
                                   params={"alpha_f": 1.0, "beta": 1.0},
                                   validate={"resolution": 0.125}))

    @pytest.mark.parametrize("command", ["inverse", "sweep"])
    def test_setpoint_tol_key_rejected(self, command):
        # the set-point meets its target by construction and ends at
        # solver.tol; the retired drawdown tolerance is an unknown key
        with pytest.raises(ConfigError, match=f"unknown key 'tol' in section '{command}' "
                                              rf"\({command}.tol is not a setting\)"):
            parse_config_data(dict(MINIMAL, command=command, **{command: {"tol": 1e-6}}))

    def test_negative_beta_named(self, tmp_path):
        bad = dict(MINIMAL, params={"beta": -1.0})
        with pytest.raises(ConfigError, match="beta must be >= 0"):
            parse_config(write_json(tmp_path, bad))

    def test_unknown_key_named(self, tmp_path):
        bad = dict(MINIMAL, params={"betta": 0.1})
        with pytest.raises(ConfigError, match="betta"):
            parse_config(write_json(tmp_path, bad))
        with pytest.raises(ConfigError, match="oops"):
            parse_config(write_json(tmp_path, dict(MINIMAL, oops=1)))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "command": "solve",\n  !\n}')
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(path)

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config_data({"domain": MINIMAL["domain"]})
        with pytest.raises(ConfigError, match="domain"):
            parse_config_data({"command": "solve"})

    def test_bad_command(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config_data(dict(MINIMAL, command="simulate"))

    @pytest.mark.parametrize("data", [[MINIMAL], "solve", None])
    def test_root_must_be_an_object(self, data):
        with pytest.raises(ConfigError, match="root must be an object"):
            parse_config_data(data)

    @pytest.mark.parametrize("sweep, match", [
        ({"max_outer": 0}, "sweep.max_outer"),
        # sweep.tol is retired: any value is an unknown key, named
        ({"tol": 0.0}, "sweep.tol"),
        ({"betas": [1e-3, -1e-3]}, "sweep.betas"),
        ({"betas": [float("inf")]}, "sweep.betas"),
        ({"betas": [float("nan")]}, "sweep.betas"),
        ({"lengths": [10.0, 0.0]}, "sweep.lengths"),
        ({"lengths": [-5.0]}, "sweep.lengths"),
    ])
    def test_bad_sweep_settings_named(self, sweep, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_data(dict(MINIMAL, command="sweep", sweep=sweep))

    @pytest.mark.parametrize("command, section, match", [
        # validate.resolution is retired: any value is an unknown key, named
        ("validate", {"validate": {"resolution": 0.0}}, "validate.resolution"),
        ("validate", {"validate": {"resolution": -1.0}}, "validate.resolution"),
        ("validate", {"validate": {"resolution": float("inf")}}, "validate.resolution"),
        ("validate", {"validate": {"flavor": "isotropic", "scalings": [1.0, 0.0]}},
         "validate.scalings"),
        ("validate", {"validate": {"flavor": "isotropic", "scalings": [float("nan")]}},
         "validate.scalings"),
        ("validate", {"validate": {"q0": float("inf")}}, "validate.q0"),
        ("validate", {"validate": {"q0": float("nan")}}, "validate.q0"),
        ("validate", {"params": {"beta": 0.0}}, "beta > 0"),
        ("inverse", {"inverse": {"q_baseline": -5.0}}, "inverse.q_baseline"),
        ("inverse", {"inverse": {"q_baseline": float("inf")}}, "inverse.q_baseline"),
        ("inverse", {"inverse": {"target_pdd": float("inf")}}, "inverse.target_pdd"),
        ("sweep", {"sweep": {"q_baseline": 0.0}}, "sweep.q_baseline"),
        ("sweep", {"sweep": {"q_baseline": float("nan")}}, "sweep.q_baseline"),
        ("solve", {"solve": {"q": float("nan")}}, "solve.q"),
        ("solve", {"solve": {"q": float("-inf")}}, "solve.q"),
        ("validate", {"validate": {"apertures": [0.1, 0.2]}}, "validate.apertures"),
        ("validate", {"validate": {"apertures": [0.1, 0.1]}}, "validate.apertures"),
        ("validate", {"validate": {"apertures": [0.2, 0.05, 0.1]}}, "validate.apertures"),
        ("validate", {"validate": {"apertures": []}}, "validate.apertures"),
        ("validate", {"validate": {"flavor": "foo"}}, "validate.flavor"),
        ("solve", {"solver": [1e-9]}, "section 'solver' must be an object"),
    ])
    def test_bad_numbers_named(self, command, section, match):
        data = dict(MINIMAL, command=command, params={"beta": 1.0})
        with pytest.raises(ConfigError, match=match):
            parse_config_data(dict(data, **section))

    @pytest.mark.parametrize("command, section", [
        ("solve", {"domain": dict(MINIMAL["domain"], fracture_length=6.0)}),
        ("inverse", {"domain": dict(MINIMAL["domain"], well=[5.0, 0.0])}),
        ("sweep", {"sweep": {"lengths": [1.0, 2.0, 6.0], "betas": [0.0, 1.0]}}),
    ])
    def test_fracture_that_does_not_fit_named(self, command, section):
        with pytest.raises(ConfigError, match="does not fit inside"):
            parse_config_data(dict(MINIMAL, command=command, **section))

    def test_validate_meshes_no_reservoir(self):
        # the slab study reads the fracture length, not the reservoir around it
        spec = parse_config_data(dict(
            MINIMAL, command="validate", params={"beta": 1.0},
            domain=dict(MINIMAL["domain"], fracture_length=60.0)))
        assert spec.domain.fracture_length == 60.0

    def test_isotropic_validate_needs_scalings(self):
        with pytest.raises(ConfigError, match="scalings"):
            parse_config_data(dict(MINIMAL, command="validate",
                                   validate={"flavor": "isotropic", "scalings": []}))
        # the anisotropic check runs no scaling study, so it does not need any
        spec = parse_config_data(dict(MINIMAL, command="validate", params={"beta": 1.0},
                                      validate={"flavor": "anisotropic", "scalings": []}))
        assert spec.validate.scalings == []

    def test_serialization_round_trip(self, tmp_path):
        spec = parse_config_data(dict(
            MINIMAL, command="sweep",
            params={"alpha_f": 0.05, "beta": 0.01},
            sweep={"lengths": [2.0, 3.0, 4.0], "betas": [1e-4, 1e-2]}))
        text = runspec_to_json(spec)
        again = parse_config_data(json.loads(text))
        assert again == spec
        assert runspec_to_json(again) == text


def sample_table():
    J = np.array([[2.0, 3.0], [1.5, 1.6]])
    return SweepTable([10.0, 20.0], [1e-4, 1e-2], J, J * 500.0,
                      np.array([[3, 4], [5, 6]]), [],
                      {"PDD_star": 500.0, "J_star": 1.25})


class TestSweepCsv:
    def test_single_cell_layout(self, tmp_path):
        J = np.array([[3.074]])
        t = SweepTable([50.0], [1e-5], J, J * 988.06, np.array([[7]]), [],
                       {"PDD_star": 988.06})
        path = tmp_path / "one.csv"
        write_sweep_csv(t, path)
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith("#")]
        assert len(lines) == 3  # header, beta label row, data row
        assert lines[0] == "L,50"
        assert lines[1] == "beta,J"
        assert lines[2] == "1e-05,3.074"

    def test_round_trip_six_digits(self, tmp_path):
        t = sample_table()
        path = tmp_path / "t.csv"
        write_sweep_csv(t, path)
        rows = [ln.split(",") for ln in path.read_text().splitlines()
                if not ln.startswith("#")]
        assert rows[0][0] == "L" and rows[1] == ["beta", "J"]
        assert [float(v) for v in rows[0][1:]] == t.L_values
        assert [float(r[0]) for r in rows[2:]] == t.beta_values
        J = np.array([[float(v) for v in r[1:]] for r in rows[2:]])
        np.testing.assert_allclose(J, t.J, rtol=1e-6)

    def test_metadata_comment_block(self, tmp_path):
        path = tmp_path / "t.csv"
        write_sweep_csv(sample_table(), path)
        text = path.read_text()
        assert "# PDD_star=500" in text
        assert "# Q[beta=0.0001]=" in text
        assert text.endswith("\n") and "\r" not in text

    def test_unwritable_path_raises(self):
        with pytest.raises(OSError):
            write_sweep_csv(sample_table(), "/nonexistent-dir/t.csv")


class TestReductionCsv:
    def test_columns_and_values(self, tmp_path):
        reports = [ReductionReport("anisotropic", 0.2, 0.1, 0.4, 3.0, 2.9, 0.05,
                                   q0=2.0)]
        path = tmp_path / "r.csv"
        write_reduction_csv(reports, path)
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == ("flavor,h,q0,lhs,rhs,empirical_C,"
                            "norm_Wx_full,norm_Wx_reduced,norm_Wy")
        fields = lines[1].split(",")
        assert fields[0] == "anisotropic"
        assert float(fields[1]) == 0.2
        assert float(fields[3]) == 0.1


class TestVtk:
    def test_field_declares_points_and_cells(self, tmp_path):
        m = build_fracture_slab_mesh(1.0, 0.1, 2, 2)
        path = tmp_path / "field.vtk"
        write_field_vtk(m, np.arange(9.0), path)
        text = path.read_text()
        assert "POINTS 9 double" in text
        assert "CELLS 8 32" in text
        assert "SCALARS pressure double 1" in text

    def test_constant_field_lines_equal(self, tmp_path):
        m = build_fracture_slab_mesh(1.0, 0.1, 2, 2)
        path = tmp_path / "const.vtk"
        write_field_vtk(m, np.full(9, 7.5), path)
        lines = path.read_text().splitlines()
        start = lines.index("LOOKUP_TABLE default") + 1
        assert len(set(lines[start:start + 9])) == 1

    def test_length_mismatch_rejected(self, tmp_path):
        m = build_fracture_slab_mesh(1.0, 0.1, 2, 2)
        with pytest.raises(ValueError):
            write_field_vtk(m, np.zeros(5), tmp_path / "bad.vtk")

    def test_field_bytes_match_the_row_by_row_writer(self, tmp_path):
        m = build_reservoir_mesh(DomainSpec(
            shape="disk", fracture_length=3.0, radius=5.0, resolution=1.0))
        values = np.random.default_rng(0).normal(size=m.num_nodes) * 10.0 ** np.arange(
            -150, 150, 300 / m.num_nodes)[:m.num_nodes]
        # reference: the writer iterating over NumPy rows and scalars
        lines = ["# vtk DataFile Version 3.0", "fracflow pressure field", "ASCII",
                 "DATASET UNSTRUCTURED_GRID", f"POINTS {m.num_nodes} double"]
        for x, y in m.nodes:
            lines.append(f"{x:.10g} {y:.10g} 0")
        nt = m.num_triangles
        lines.append(f"CELLS {nt} {4 * nt}")
        for a, b, c in m.triangles:
            lines.append(f"3 {a} {b} {c}")
        lines.append(f"CELL_TYPES {nt}")
        lines.extend(["5"] * nt)
        lines += [f"POINT_DATA {m.num_nodes}", "SCALARS pressure double 1",
                  "LOOKUP_TABLE default"]
        lines.extend(f"{v:.10g}" for v in values)
        path = tmp_path / "field.vtk"
        write_field_vtk(m, values, path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_field_writer_matches_the_point_by_point_writer(self, tmp_path):
        m = build_fracture_slab_mesh(1.0, 0.1, 3, 2)
        values = np.array([-0.0, np.nan, np.inf, -np.inf, 0.0, 1e-300, -2.5e300,
                           1.0 / 3.0, -7.0, 123456789012.0, 5e-324, 0.1])
        # reference: one formatted line per point, cell and value
        field = ["# vtk DataFile Version 3.0", "fracflow pressure field", "ASCII",
                 "DATASET UNSTRUCTURED_GRID", f"POINTS {m.num_nodes} double"]
        field += [f"{x:.10g} {y:.10g} 0" for x, y in m.nodes]
        field.append(f"CELLS {m.num_triangles} {4 * m.num_triangles}")
        field += [f"3 {a} {b} {c}" for a, b, c in m.triangles]
        field.append(f"CELL_TYPES {m.num_triangles}")
        field += ["5"] * m.num_triangles
        field += [f"POINT_DATA {m.num_nodes}", "SCALARS pressure double 1",
                  "LOOKUP_TABLE default"]
        field += [f"{v:.10g}" for v in values]
        assert {"-0", "nan", "inf", "-inf"} <= set(field)
        write_field_vtk(m, values, tmp_path / "field.vtk")
        assert (tmp_path / "field.vtk").read_bytes() == ("\n".join(field) + "\n").encode()

    @pytest.mark.parametrize("mesh", ["rectangle", "disk", "signed-zeros"])
    def test_field_bytes_match_the_one_expression_writer(self, tmp_path, mesh):
        if mesh == "disk":
            m = build_reservoir_mesh(DomainSpec(
                shape="disk", fracture_length=3.0, radius=5.0, resolution=0.5))
        else:
            m = build_reservoir_mesh(DomainSpec(
                shape="rectangle", width=10.0, height=8.0, fracture_length=3.0,
                resolution=0.5, grading=1.2))
        if mesh == "signed-zeros":  # -0.0 and 0.0 print differently
            nodes = m.nodes.copy()
            nodes[::3][nodes[::3] == 0.0] = -0.0
            m = dataclasses.replace(m, nodes=nodes)
            assert np.signbit(m.nodes[m.nodes == 0.0]).any()
            assert not np.signbit(m.nodes[m.nodes == 0.0]).all()
        values = np.cos(m.nodes[:, 0]) * np.exp(m.nodes[:, 1])
        n, nt = m.num_nodes, m.num_triangles
        # reference: the whole file formatted as one expression, which any
        # faster writer must reproduce byte for byte
        text = ("# vtk DataFile Version 3.0\nfracflow pressure field\nASCII\n"
                f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n"
                + ("%.10g %.10g 0\n" * n) % tuple(m.nodes.ravel().tolist())
                + f"CELLS {nt} {4 * nt}\n"
                + ("3 %d %d %d\n" * nt) % tuple(m.triangles.ravel().tolist())
                + f"CELL_TYPES {nt}\n" + "5\n" * nt
                + f"POINT_DATA {n}\nSCALARS pressure double 1\n"
                "LOOKUP_TABLE default\n"
                + ("%.10g\n" * n) % tuple(values.tolist()))
        write_field_vtk(m, values, tmp_path / "field.vtk")
        assert (tmp_path / "field.vtk").read_bytes() == text.encode()
