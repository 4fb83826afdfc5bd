"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.
"""

import json
import time

import numpy as np
import pytest

import fracflow as ff
from fracflow.cli import main as cli_main
from pinned_solve import solve_pinned


def check(num, desc, ok, t0=None, detail=""):
    status = "PASS" if ok else "FAIL"
    timing = f" [{time.time() - t0:.2f}s]" if t0 is not None else ""
    extra = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {status}: {desc}{extra}{timing}", flush=True)
    assert ok, f"criterion {num} failed: {desc}{extra}"


# shared geometry for the production-side criteria
RECT = dict(shape="rectangle", width=100.0, height=80.0, aperture=1.0,
            resolution=2.0, grading=1.3)
ALPHA = 0.05


def l2_norm(m, values):
    area = m.area
    return float(np.sqrt(np.sum(area * (values[m.triangles] ** 2).mean(axis=1))))


def test_criterion_1_kernel_identity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    n = 10_000
    alpha = 10.0 ** rng.uniform(-3, 3, n)
    beta = np.where(rng.uniform(size=n) < 0.1, 0.0,
                    10.0 ** rng.uniform(-9, 3, n))
    zeta = np.where(rng.uniform(size=n) < 0.1, 0.0,
                    10.0 ** rng.uniform(-6, 9, n))
    f = 2.0 / (alpha + np.sqrt(alpha * alpha + 4.0 * beta * zeta))
    for i in rng.choice(n, 64):  # spot-check the kernel against the formula
        p = ff.FlowParams(alpha_f=float(alpha[i]), beta=float(beta[i]))
        assert ff.fbeta_iso(float(zeta[i]), p) == f[i]
    resid = np.abs(beta * zeta * f * f + alpha * f - 1.0)
    ok = bool(np.all(resid <= 1e-12 * (1.0 + alpha * f)))
    elapsed_ok = time.time() - t0 < 1.0
    check(1, "quadratic drag identity beta*z*f^2 + alpha*f - 1 = 0",
          ok and elapsed_ok, t0, f"max residual {resid.max():.2e}")


def test_criterion_2_monotonicity_gap():
    t0 = time.time()
    rng = np.random.default_rng(102)
    p = ff.FlowParams(alpha_f=0.7, beta=2.3)
    e1 = rng.uniform(-1e6, 1e6, 100_000)
    e2 = rng.uniform(-1e6, 1e6, 100_000)
    gap = ff.monotonicity_gap(e1, e2, p)
    floor = -1e-12 * np.maximum(1.0, np.maximum(np.abs(e1), np.abs(e2)))
    ok = bool(np.all(gap >= floor))
    elapsed_ok = time.time() - t0 < 1.0
    check(2, "flux map strict monotonicity gap is nonnegative",
          ok and elapsed_ok, t0, f"min gap {gap.min():.2e}")


def test_criterion_3_sqrt_profile_bounds():
    t0 = time.time()
    rng = np.random.default_rng(103)
    n = 100_000
    u = np.sign(rng.uniform(-1, 1, n)) * 10.0 ** rng.uniform(np.log10(24), 6, n)
    v = rng.uniform(-1, 1, n) * np.abs(u)  # max(|u|,|v|) = |u| >= 24
    swap = rng.uniform(size=n) < 0.5
    u2 = np.where(swap, v, u)
    v2 = np.where(swap, u, v)
    lhs = (ff.g_aux(u2) - ff.g_aux(v2)) ** 2
    rhs = (np.sqrt(0.5 * np.abs(u2)) * np.sign(u2)
           - np.sqrt(0.5 * np.abs(v2)) * np.sign(v2)) ** 2
    ineq_ok = bool(np.all(lhs >= rhs * (1 - 1e-12) - 1e-15))
    a = rng.uniform(-1e6, 1e6, n)
    b = rng.uniform(-1e6, 1e6, n)
    deriv_ok = bool(np.all(np.abs(ff.g_aux(a) - ff.g_aux(b))
                           <= 0.5 * np.abs(a - b) * (1 + 1e-12) + 1e-15))
    elapsed_ok = time.time() - t0 < 1.0
    check(3, "square-root profile inequality and derivative bound",
          ineq_ok and deriv_ok and elapsed_ok, t0)


def test_criterion_4_darcy_limit():
    t0 = time.time()
    spec = ff.DomainSpec(shape="rectangle", width=64.0, height=64.0,
                         fracture_length=20.0, aperture=1.0,
                         well=(-10.0, 0.0), resolution=1.0, grading=1.0)
    m = ff.build_reservoir_mesh(spec)
    assert m.num_nodes == 65 * 65
    Q = 1000.0
    A = ff.assemble_A(m, ff.FlowParams(alpha_f=ALPHA, beta=0.0))
    lin = solve_pinned(A, -ff.assemble_B_in(m) * Q, m.well_node)
    z0, rep0 = ff.solve_pss(m, ff.FlowParams(alpha_f=ALPHA, beta=0.0), Q, tol=1e-12)
    d0 = l2_norm(m, z0.values - lin) / l2_norm(m, lin)
    ze, _ = ff.solve_pss(m, ff.FlowParams(alpha_f=ALPHA, beta=1e-15), Q)
    de = l2_norm(m, ze.values - lin) / l2_norm(m, lin)
    ok = d0 <= 1e-12 and de <= 1e-6 and rep0.converged
    elapsed_ok = time.time() - t0 < 5.0
    check(4, "zero-drag solve matches the linear solve",
          ok and elapsed_ok, t0, f"beta=0: {d0:.1e}, beta=1e-15: {de:.1e}")


def test_criterion_5_manufactured_fracture_profile():
    t0 = time.time()
    # oracle: flux u(x) = c (L - x) with c = -1; the gradient
    # -(alpha u + beta |u| u) integrates in closed form from W(0) = 0
    L, h, alpha, beta = 1.0, 0.5, 1.0, 1.0
    p = ff.FlowParams(alpha_f=alpha, beta=beta)
    zero = lambda x: 0.0

    def exact(x):
        return alpha * (L * x - x * x / 2.0) + beta * (L ** 3 - (L - x) ** 3) / 3.0

    errs = []
    for nx in (4, 8, 16, 32, 64):
        m = ff.build_fracture_slab_mesh(L, h, nx, max(2, nx // 2))
        W, _ = ff.solve_slab(m, p, "isotropic", zero, zero, 1.0,
                             tol=1e-11, reduced=True)
        errs.append(l2_norm(m, W.values - exact(m.nodes[:, 0])))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    ok = bool(np.all(orders >= 1.8))
    elapsed_ok = time.time() - t0 < 10.0
    check(5, "manufactured fracture profile converges at order >= 1.8",
          ok and elapsed_ok, t0, "orders " + np.array2string(orders, precision=3))


def test_criterion_6_baseline_linearity():
    t0 = time.time()
    m = ff.build_reservoir_mesh(ff.DomainSpec(fracture_length=20.0, **RECT))
    p = ff.FlowParams(alpha_f=ALPHA)
    pdd1 = ff.baseline_pdd(m, p, 1000.0)
    pdd2 = ff.baseline_pdd(m, p, 2000.0)
    lin_ok = abs(pdd2 - 2.0 * pdd1) <= 1e-9 * abs(2.0 * pdd1)
    j1, j2 = 1000.0 / pdd1, 2000.0 / pdd2
    j_ok = abs(j1 - j2) <= 1e-9 * abs(j1)
    elapsed_ok = time.time() - t0 < 5.0
    check(6, "unfractured baseline is linear in rate and J* rate-independent",
          lin_ok and j_ok and elapsed_ok, t0, f"PDD*={pdd1:.4g}, J*={j1:.6g}")


def test_criterion_7_setpoint_convergence():
    t0 = time.time()
    m = ff.build_reservoir_mesh(ff.DomainSpec(fracture_length=20.0, **RECT))
    p = ff.FlowParams(alpha_f=ALPHA, beta=1e-3)
    target = ff.baseline_pdd(m, p, 1000.0)
    res = ff.solve_setpoint(m, p, target, max_outer=30)
    nl_ok = (abs(res.PDD - target) <= 1e-6 * target
             and res.outer_iterations <= 30)
    res0 = ff.solve_setpoint(m, ff.FlowParams(alpha_f=ALPHA, beta=0.0), target)
    lin_ok = res0.outer_iterations == 1
    elapsed_ok = time.time() - t0 < 30.0
    check(7, "set-point control hits the drawdown target",
          nl_ok and lin_ok and elapsed_ok, t0,
          f"{res.outer_iterations} outer iterations, beta=0 in {res0.outer_iterations}")


SWEEP_LENGTHS = [10.0, 20.0, 30.0, 40.0, 50.0]
SWEEP_BETAS = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]


@pytest.fixture(scope="module")
def sweep_table():
    spec = ff.DomainSpec(fracture_length=50.0, **RECT)
    p = ff.FlowParams(alpha_f=ALPHA, beta=0.0)
    return ff.run_sweep(spec, SWEEP_LENGTHS, SWEEP_BETAS, 1000.0, p)


def test_criterion_8_capacity_trends(sweep_table):
    t0 = time.time()
    t = sweep_table
    diag = ff.trend_check(t)
    above = bool(np.all(t.J > t.meta["J_star"]))
    ok = diag.passed and above and not t.failed
    elapsed_ok = time.time() - t0 < 300.0
    check(8, "5x5 capacity sweep reproduces the published trends",
          ok and elapsed_ok, t0,
          f"J in [{t.J.min():.3f}, {t.J.max():.3f}] vs J*={t.meta['J_star']:.3f}")


ANISO = dict(L=1.0, resolution=1.0 / 32, q0=2.0)


def test_criterion_9_anisotropic_bound():
    t0 = time.time()
    p = ff.FlowParams(alpha_f=1.0, beta=1.0)
    q = ff.linear_inflow(ANISO["q0"], ANISO["L"])
    reports = ff.divergence_study(ANISO["L"], ANISO["resolution"], p, q, q,
                                  [0.2, 0.1, 0.05])
    bound_ok = all(r.lhs <= r.rhs for r in reports)
    metric_ok = reports[-1].lhs <= 1.1 * reports[0].lhs
    wxr = [r.norm_Wx_reduced for r in reports]
    growth_ok = wxr[0] < wxr[1] < wxr[2]
    elapsed_ok = time.time() - t0 < 120.0
    check(9, "anisotropic reduction bound holds with thickness-free difference",
          bound_ok and metric_ok and growth_ok and elapsed_ok, t0,
          "lhs/rhs " + ", ".join(f"{r.lhs / r.rhs:.3f}" for r in reports))


ISO = dict(L=1.0, h=0.1, resolution=1.0 / 32, q0=0.1, beta=0.1)


def test_criterion_10_isotropic_stability():
    t0 = time.time()
    p = ff.FlowParams(alpha_f=1.0, beta=ISO["beta"])
    q = ff.linear_inflow(ISO["q0"], ISO["L"])
    c_coarse = ff.isotropic_report(ISO["L"], ISO["h"], ISO["resolution"],
                                   p, q, q).empirical_C
    c_fine = ff.isotropic_report(ISO["L"], ISO["h"], ISO["resolution"] / 2,
                                 p, q, q).empirical_C
    refine_ok = max(c_coarse, c_fine) < 2.0 * min(c_coarse, c_fine)
    cs = []
    for s in (1.0, 2.0, 4.0):
        qs = ff.linear_inflow(ISO["q0"] * s, ISO["L"])
        cs.append(ff.isotropic_report(ISO["L"], ISO["h"], ISO["resolution"],
                                      p, qs, qs).empirical_C)
    scale_ok = max(cs) < 4.0 * min(cs)
    elapsed_ok = time.time() - t0 < 120.0
    check(10, "isotropic stability constant stays bounded",
          refine_ok and scale_ok and elapsed_ok, t0,
          f"refinement {max(c_coarse, c_fine) / min(c_coarse, c_fine):.3f}x, "
          f"scalings {max(cs) / min(cs):.3f}x")


def _det_configs(tmp_path):
    rect_domain = dict(RECT, fracture_length=20.0)
    slab_domain = dict(shape="rectangle", width=100.0, height=80.0,
                       fracture_length=ANISO["L"], aperture=1.0,
                       resolution=ANISO["resolution"])
    cases = {
        "inverse": {
            "command": "inverse", "domain": rect_domain,
            "params": {"alpha_f": ALPHA, "beta": 1e-3},
            "inverse": {"q_baseline": 1000.0, "max_outer": 30}},
        "sweep": {
            "command": "sweep", "domain": dict(RECT, fracture_length=50.0),
            "params": {"alpha_f": ALPHA, "beta": 0.0},
            "sweep": {"lengths": SWEEP_LENGTHS, "betas": SWEEP_BETAS,
                      "q_baseline": 1000.0}},
        "validate_aniso": {
            "command": "validate", "domain": slab_domain,
            "params": {"alpha_f": 1.0, "beta": 1.0},
            "validate": {"flavor": "anisotropic",
                         "apertures": [0.2, 0.1, 0.05], "q0": ANISO["q0"]}},
        "validate_iso": {
            "command": "validate", "domain": slab_domain,
            "params": {"alpha_f": 1.0, "beta": ISO["beta"]},
            "validate": {"flavor": "isotropic", "apertures": [ISO["h"]],
                         "q0": ISO["q0"], "scalings": [1.0, 2.0, 4.0]}},
    }
    paths = {}
    for name, cfg in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1))
        paths[name] = path
    return paths


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    identical = True
    mismatches = []
    for name, cfg in _det_configs(tmp_path).items():
        command = json.loads(cfg.read_text())["command"]
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            rc = cli_main([command, "--config", str(cfg), "--out", str(out)])
            assert rc == 0, f"{name} run {run} exited {rc}"
            outs.append(out)
        for produced in sorted(p.name for p in outs[0].iterdir()):
            a = (outs[0] / produced).read_bytes()
            b = (outs[1] / produced).read_bytes()
            if a != b:
                identical = False
                mismatches.append(f"{name}/{produced}")
    check(11, "re-running the inverse/sweep/validate pipelines is byte-identical",
          identical, t0, ", ".join(mismatches) if mismatches else "all outputs match")
