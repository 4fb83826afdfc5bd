"""The bulk condensed onto the fracture trace against the full sparse system.

The reference solves assemble the whole reservoir system and solve it with
`solve_linear`; the condensed solves must reproduce them to rounding, on
rectangles and disks, with the fracture tip inside or on the outer
boundary, at zero aperture and at zero rate.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracflow.solvers
from fracflow import (
    DomainSpec,
    FlowParams,
    LinearSystem,
    SolverError,
    baseline_pdd,
    build_reservoir_mesh,
    build_reservoir_mesh_family,
    run_sweep,
    solve_linear,
    solve_pss,
    solve_setpoint,
    step_response,
)
from fracflow.assembly import (
    _bulk_stiffness,
    _line_stiffness,
    assemble_A,
    assemble_B_in,
    assemble_F_residual,
    fracture_edge_gradients,
    output_C,
)
from fracflow.kernels import fbeta_iso
from fracflow.solvers import condense_bulk

ALPHA = 0.05
RTOL = 1e-9

SPECS = {
    "rectangle": DomainSpec(shape="rectangle", fracture_length=8.0, width=40.0,
                            height=32.0, aperture=1.0, resolution=2.0, grading=1.3),
    "disk": DomainSpec(shape="disk", fracture_length=8.0, radius=16.0,
                       aperture=1.0, resolution=2.0, grading=1.3),
    # the fracture runs from the center to the right edge
    "tip_on_boundary": DomainSpec(shape="rectangle", fracture_length=20.0,
                                  width=40.0, height=32.0, aperture=1.0,
                                  resolution=2.0, grading=1.3),
}


@pytest.fixture(scope="module")
def meshes():
    return {name: build_reservoir_mesh(spec) for name, spec in SPECS.items()}


def rel(a, b):
    # scaled by max|b| first, so that the squared norms cannot underflow
    s = np.abs(b).max()
    return float(np.linalg.norm((a - b) / s)) / float(np.linalg.norm(b / s))


def sparse_frozen_solve(m, p, z, Q, h):
    """Full sparse solve with the line mobility frozen at the state z."""
    A = _bulk_stiffness(m, p.k_p)
    if h != 0.0:
        gx = fracture_edge_gradients(m, z)
        A = A + _line_stiffness(m, h * fbeta_iso(np.abs(gx), p))
    b = -assemble_B_in(m, aperture=h) * Q
    return solve_linear(LinearSystem(A, b, [(m.well_node, 0.0)], m), tol=1e-13)


def check_against_sparse(m, p, Q, aperture=None):
    h = m.aperture if aperture is None else aperture
    z, rep = solve_pss(m, p, Q, tol=1e-12, aperture=aperture)
    assert rep.converged
    if Q == 0.0:
        assert np.abs(z.values).max() == 0.0
        return
    # z is the fixed point of the frozen sparse system ...
    assert rel(z.values, sparse_frozen_solve(m, p, z, Q, h).values) <= RTOL
    # ... and solves the full nonlinear system
    BQ = assemble_B_in(m, aperture=h) * Q
    r = (assemble_A(m, p, aperture=h).matrix @ z.values
         + assemble_F_residual(m, p, z, aperture=h) + BQ)
    r[m.well_node] = 0.0
    s = np.abs(BQ).max()
    assert np.linalg.norm(r / s) <= RTOL * np.linalg.norm(BQ / s)


def check_step_response(m, p):
    X, G = step_response(m, p)
    sys_A = assemble_A(m, p)
    ref = solve_linear(LinearSystem(sys_A.matrix, -assemble_B_in(m),
                                    sys_A.constrained_nodes, m), tol=1e-13)
    assert rel(X.values, ref.values) <= RTOL
    assert G == pytest.approx(output_C(m, ref), rel=RTOL)


@settings(max_examples=20, deadline=None)
@given(shape=st.sampled_from(["rectangle", "disk"]),
       beta=st.floats(0.0, 1.0),
       Q=st.one_of(st.just(0.0), st.floats(1e-280, 1e-6), st.floats(1e-6, 1e4)))
@example(shape="rectangle", beta=0.5, Q=2.9e-285)
def test_condensed_solve_matches_sparse_reference(meshes, shape, beta, Q):
    m = meshes[shape]
    p = FlowParams(alpha_f=ALPHA, beta=beta)
    check_against_sparse(m, p, Q)
    check_step_response(m, p)


@pytest.mark.parametrize("shape", sorted(SPECS))
def test_schur_complement_matches_dense_reference(meshes, shape):
    m = meshes[shape]
    c = condense_bulk(m, 1.0)
    A = _bulk_stiffness(m, 1.0).toarray()
    G = c.trace[1:]  # the well is pinned
    I = np.setdiff1d(np.arange(m.num_nodes), c.trace)
    ref = A[np.ix_(G, G)] - A[np.ix_(G, I)] @ np.linalg.solve(A[np.ix_(I, I)],
                                                             A[np.ix_(I, G)])
    assert np.abs(c.S[1:, 1:] - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(c.S, c.S.T)
    assert not c.S[0].any()


def test_pivoted_bordered_factor_rejected(meshes, monkeypatch):
    # S is the trailing block only if the factor kept the given order
    original = fracflow.solvers.splu

    class Pivoted:
        def __init__(self, lu):
            self.lu = lu
            self.perm_r = lu.perm_r[::-1]

        def __getattr__(self, name):
            return getattr(self.lu, name)

    def pivoting(A, permc_spec=None, **kwargs):
        lu = original(A, permc_spec=permc_spec, **kwargs)
        return Pivoted(lu) if permc_spec == "NATURAL" else lu

    monkeypatch.setattr(fracflow.solvers, "splu", pivoting)
    with pytest.raises(SolverError, match="reordered the trace"):
        condense_bulk(meshes["rectangle"], 1.0)


def test_fracture_tip_on_outer_boundary(meshes):
    m = meshes["tip_on_boundary"]
    tip = m.nodes[m.fracture_edges[-1, 1]]
    assert tip[0] == pytest.approx(SPECS["tip_on_boundary"].width / 2)
    p = FlowParams(alpha_f=ALPHA, beta=0.1)
    check_against_sparse(m, p, 1000.0)
    check_step_response(m, p)


def test_zero_aperture_is_pure_darcy(meshes):
    m = meshes["rectangle"]
    p = FlowParams(alpha_f=ALPHA, beta=0.5)
    check_against_sparse(m, p, 1000.0, aperture=0.0)
    z, rep = solve_pss(m, p, 1000.0, aperture=0.0)
    assert rep.iterations == 1
    ref = solve_linear(LinearSystem(_bulk_stiffness(m, p.k_p),
                                    -assemble_B_in(m, aperture=0.0) * 1000.0,
                                    [(m.well_node, 0.0)], m))
    assert rel(z.values, ref.values) <= RTOL
    assert baseline_pdd(m, p, 1000.0) == pytest.approx(
        output_C(m, ref, aperture=0.0), rel=RTOL)


def test_zero_rate_gives_exactly_zero(meshes):
    for shape in ("rectangle", "disk"):
        m = meshes[shape]
        z, rep = solve_pss(m, FlowParams(alpha_f=ALPHA, beta=1.0), 0.0)
        assert rep.converged and np.abs(z.values).max() == 0.0
        assert baseline_pdd(m, FlowParams(alpha_f=ALPHA), 0.0) == 0.0


def test_family_condensation_matches_per_mesh():
    spec = DomainSpec(shape="rectangle", fracture_length=12.0, width=40.0,
                      height=32.0, aperture=1.0, resolution=2.0, grading=1.3)
    family = build_reservoir_mesh_family(spec, [4.0, 8.0, 12.0])
    shared = condense_bulk(family, 1.0)
    target = baseline_pdd(family[0], FlowParams(alpha_f=ALPHA), 1000.0)
    assert baseline_pdd(family[0], FlowParams(alpha_f=ALPHA), 1000.0,
                        condensation=shared) == pytest.approx(target, rel=1e-12)
    for m in family:
        for beta in (1e-4, 1e-1):
            p = FlowParams(alpha_f=ALPHA, beta=beta)
            own = solve_setpoint(m, p, target)
            fam = solve_setpoint(m, p, target, condensation=shared)
            assert fam.J_p == pytest.approx(own.J_p, rel=1e-10)


def test_condensation_rejects_foreign_mesh_and_mobility(meshes):
    c = condense_bulk(meshes["rectangle"], 1.0)
    with pytest.raises(ValueError, match="node set"):
        solve_pss(meshes["disk"], FlowParams(alpha_f=ALPHA), 1.0, condensation=c)
    with pytest.raises(ValueError, match="k_p"):
        solve_pss(meshes["rectangle"], FlowParams(alpha_f=ALPHA, k_p=2.0), 1.0,
                  condensation=c)
    short, long = build_reservoir_mesh_family(SPECS["rectangle"], [4.0, 8.0])
    with pytest.raises(ValueError, match="outside the condensed trace"):
        solve_pss(long, FlowParams(alpha_f=ALPHA), 1.0,
                  condensation=condense_bulk(short, 1.0))


@pytest.fixture
def factorizations(monkeypatch):
    calls = []
    original = fracflow.solvers.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fracflow.solvers, "splu", counting)
    return calls


class TestFactorizationCounts:
    """As many sparse factorizations as one condensation of the node set
    makes (the ordering and the bordered factor), whatever the cell and
    iteration counts."""

    SPEC = DomainSpec(shape="rectangle", fracture_length=12.0, width=40.0,
                      height=32.0, aperture=1.0, resolution=2.0, grading=1.3)

    @pytest.fixture
    def per_condensation(self, factorizations):
        condense_bulk(build_reservoir_mesh(self.SPEC), 1.0)
        n = len(factorizations)
        factorizations.clear()
        assert n == 2
        return n

    def test_sweep_factorizes_as_one_condensation(self, factorizations,
                                                  per_condensation):
        t = run_sweep(self.SPEC, [4.0, 8.0, 12.0], [1e-5, 1e-3, 1e-1], 1000.0,
                      FlowParams(alpha_f=ALPHA))
        assert not t.failed and t.outer_iterations.sum() > 9
        assert len(factorizations) == per_condensation

    def test_setpoint_factorizes_as_one_condensation(self, factorizations,
                                                     per_condensation):
        m = build_reservoir_mesh(self.SPEC)
        res = solve_setpoint(m, FlowParams(alpha_f=ALPHA, beta=1e-2), 100.0)
        assert res.outer_iterations > 1
        assert len(factorizations) == per_condensation

    def test_pss_factorizes_as_one_condensation(self, factorizations,
                                                per_condensation):
        m = build_reservoir_mesh(self.SPEC)
        _, rep = solve_pss(m, FlowParams(alpha_f=ALPHA, beta=1e-1), 1000.0)
        assert rep.iterations > 1
        assert len(factorizations) == per_condensation
