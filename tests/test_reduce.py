import re

import numpy as np
import pytest

import structdae as sd
from structdae.errors import (
    ConstructionError,
    IllPosedRankError,
    RegularityError,
    StructureError,
    UnsupportedError,
)
from structdae.reduce import AffineInput, _cholesky_with_derivative, _sampled
from structdae.structure import _bT

from oracles import (
    random_poly_congruence,
    reduction_error,
    seeded_multibody,
    seeded_semidefinite_skew_pair,
    solve_constant_index1_dae,
    solve_index1_dae,
    solve_stokes_dae,
)

GRID = sd.TimeGrid.uniform(0.0, 1.0, 401)
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _circuit_reduction(u_amp=1.0):
    m = sd.build_circuit(1.0, 1.0, 1.0, interval=GRID)
    pair = m.lossless_pair()
    u = sd.from_callable(
        lambda t: [[u_amp * np.sin(t)]], GRID, dfn=lambda t: [[u_amp * np.cos(t)]]
    )
    f = sd.mf_matmul(m.G, u)
    return m, sd.semidefinite_skew_reduce(pair, f, GRID)


def test_circuit_reduction_structure():
    m, red = _circuit_reduction()
    assert red.dynamic_dim == 1
    assert red.certificate.kind == "orthogonal"
    assert red.certificate_defect(GRID) <= 1e-10
    assert red.max_f_derivative == 1
    # dynamic equation L Idot = -V2 = 0: zero coefficient and zero input
    assert np.linalg.norm(red.m_fun.eval(0.3)) == 0.0
    assert abs(red.g_fun.eval(0.7)[0, 0]) <= 1e-14


def test_circuit_recovery_values():
    m, red = _circuit_reduction()
    traj = sd.integrate_reduced(red, [0.0], GRID)  # I(0) = 0
    t = GRID.points
    expected = {
        "I": np.zeros_like(t),
        "V1": -np.sin(t),
        "V2": np.zeros_like(t),
        "IG": np.cos(t),
        "IR": np.zeros_like(t),
    }
    for j, lab in enumerate(m.labels):
        assert np.abs(traj.states[:, j] - expected[lab]).max() <= 1e-10, lab


def test_circuit_zero_input_constant_current():
    m = sd.build_circuit(2.0, 1.0, 3.0, interval=GRID)
    red = sd.semidefinite_skew_reduce(m.lossless_pair(), sd.zero(5, 1), GRID)
    x2 = red.dynamic_from_full(0.0, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    traj = sd.integrate_reduced(red, x2, GRID)
    assert np.abs(traj.states[:, 0] - 1.0).max() <= 1e-10
    assert np.abs(traj.hamiltonian - traj.hamiltonian[0]).max() <= 1e-10 * (
        1 + abs(traj.hamiltonian[0])
    )


def test_full_rank_e_passthrough():
    A = sd.constant(J2)
    pair = sd.MatrixPair(sd.identity(2), A, GRID)
    red = sd.semidefinite_skew_reduce(pair, sd.zero(2, 1), GRID)
    assert red.dynamic_dim == 2
    assert red.certificate.kind == "orthogonal"
    assert np.allclose(red.m_fun.eval(0.5), J2, atol=1e-12)
    assert red.max_f_derivative == 0
    assert red.recovery == []


def test_seeded_index1_vs_dense_oracle():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 8001)
    pair, w = seeded_semidefinite_skew_pair(11, grid)
    E = pair.E.value
    A0 = pair.A.value

    def fvec(t):
        return np.array([np.sin(t), np.cos(2 * t), 0.3, t, 0.1 * np.sin(3 * t), 0.0])

    f = sd.from_callable(lambda t: fvec(t)[:, None], grid)
    red = sd.semidefinite_skew_reduce(pair, f, grid)
    assert red.dynamic_dim == 4
    assert red.max_f_derivative == 0
    assert red.certificate_defect(grid) <= 1e-10
    traj = sd.integrate_reduced(red, np.zeros(4), grid)

    # dense oracle eliminates the kernel by hand in the eigenbasis of E
    x2_or = red.dynamic_from_full(0.0, np.zeros(6))
    oracle = solve_index1_dae(E, lambda t: A0, fvec, grid.points)
    # align initial dynamic content: both start from the same full state
    assert np.abs(traj.states - oracle).max() <= 1e-6


def test_recovery_exactness_residual():
    from scipy.interpolate import CubicSpline

    grid = sd.TimeGrid.uniform(0.0, 1.0, 8001)
    pair, _ = seeded_semidefinite_skew_pair(21, grid)
    f = sd.from_callable(
        lambda t: np.array([[np.sin(t)], [0.2], [np.cos(t)], [0.1 * t], [0.0], [0.3]]),
        grid,
    )
    red = sd.semidefinite_skew_reduce(pair, f, grid)
    traj = sd.integrate_reduced(red, np.zeros(red.dynamic_dim), grid)
    # substitute the reconstructed trajectory into the original DAE, with the
    # state derivative taken from a spline through the computed states
    E = pair.E.value
    A0 = pair.A.value
    xdot = CubicSpline(grid.points, traj.states, axis=0).derivative()(grid.points)
    res = xdot @ E.T - traj.states @ A0.T - f.eval_on(grid)[:, :, 0]
    scale = 1.0 + np.abs(traj.states).max()
    assert np.abs(res[2:-2]).max() <= 1e-6 * scale


def test_time_varying_e_index1_vs_mapped_oracle():
    # a constant index-1 pair pushed through a time-varying congruence gives a
    # genuinely time-varying psd E; solutions map back by x = Q y
    grid = sd.TimeGrid.uniform(0.0, 1.0, 2001)
    E0 = np.diag([1.0, 2.0, 0.0, 0.0])
    rng = np.random.default_rng(10)
    S0 = rng.standard_normal((4, 4))
    A0 = 0.5 * (S0 - S0.T)
    A0[2:, 2:] = np.array([[0.0, 0.8], [-0.8, 0.0]])
    pair0 = sd.MatrixPair(sd.constant(E0), sd.constant(A0), grid)
    coeffs = rng.standard_normal((3, 4, 4))
    coeffs *= 0.35 / sum(np.linalg.norm(c, 2) for c in coeffs)
    coeffs[0] += np.eye(4)
    Q = sd.poly(coeffs)
    pair1 = sd.apply_congruence(pair0, sd.CongruenceTransform.from_function(Q))
    assert np.linalg.norm(pair1.E.eval(0.0) - pair1.E.eval(1.0)) > 0.1

    def fvec0(t):
        return np.array([np.sin(t), 0.3, np.cos(2 * t), 0.1 * t])

    f0 = sd.from_callable(lambda t: fvec0(t)[:, None], grid)
    f1 = sd.mf_matmul(sd.mf_transpose(Q), f0)
    red = sd.semidefinite_skew_reduce(pair1, f1, grid)
    assert red.dynamic_dim == 2
    assert red.max_f_derivative == 0
    assert red.certificate_defect(grid) <= 1e-10
    traj = sd.integrate_reduced(red, red.dynamic_from_full(0.0, np.zeros(4)), grid)

    # oracle in the original frame, started from the mapped initial state
    y0_full = traj.states[0]
    x0_full = Q.eval(0.0) @ y0_full
    lam, V = np.linalg.eigh(E0)
    ran = V[:, np.abs(lam) > 1e-10]
    oracle_x = solve_index1_dae(E0, lambda t: A0, fvec0, grid.points,
                                x_dyn0=ran.T @ x0_full)
    mapped = np.stack([
        np.linalg.solve(Q.eval(t), oracle_x[k]) for k, t in enumerate(grid.points)
    ])
    assert np.abs(traj.states - mapped).max() <= 1e-5


def test_forced_index1_flow_is_second_order():
    # a constant dissipative index-1 pair moved by a polynomial congruence and
    # driven by sin t; the full state converges at order 2 to the dense
    # oracle of the unmoved pair mapped back by Q(t)^-1
    E0 = np.diag([1.0, 2.0, 0.0, 0.0])
    A0 = np.array([[-0.3, 1.0, 0.2, 0.0], [-1.0, -0.1, 0.0, 0.5],
                   [0.1, 0.0, -1.0, 0.8], [0.0, -0.4, -0.8, -0.5]])
    b = np.array([1.0, -0.5, 0.3, 0.8])
    T = random_poly_congruence(np.random.default_rng(12), 4, 2)
    errs = []
    for K in (101, 201, 401):
        grid = sd.TimeGrid.uniform(0.0, 2.0, K)
        pair = sd.apply_congruence(sd.MatrixPair(sd.constant(E0), sd.constant(A0), grid), T)
        u = sd.from_callable(lambda t: [[np.sin(t)]], grid, dfn=lambda t: [[np.cos(t)]])
        f = sd.mf_matmul(sd.mf_transpose(T.Q), sd.mf_matmul(sd.constant(b[:, None]), u))
        red = sd.index1_reduce(pair, f, grid)
        oracle = solve_index1_dae(E0, lambda t: A0, lambda t: b * np.sin(t), grid.points,
                                  x_dyn0=[1.0, -0.5])
        mapped = np.linalg.solve(T.Q.eval_on(grid), oracle[:, :, None])[:, :, 0]
        traj = sd.integrate_reduced(red, red.dynamic_from_full(grid.t0, mapped[0]), grid)
        errs.append(np.abs(traj.states - mapped).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 1.9, (errs, orders)


def test_sampled_reduced_data_are_constant_only_when_bitwise_equal():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 11)
    M = np.array([[0.0, 1.5], [-1.5, 0.1]])
    vals = np.broadcast_to(M, (grid.n, 2, 2)).copy()
    # the samples are handed over and frozen: hand a copy, since vals is
    # written below
    handed = vals.copy()
    const = _sampled(grid, handed)
    assert isinstance(const, sd.ConstantMatrixFunction)
    assert np.array_equal(const.value, M)
    assert not handed.flags.writeable
    vals[7, 1, 0] = np.nextafter(vals[7, 1, 0], 0.0)  # one ulp
    assert isinstance(_sampled(grid, vals.copy()), sd.SampledMatrixFunction)
    vals[3, 0, 0] = np.nan
    with pytest.raises(ConstructionError):
        _sampled(grid, vals)
    with pytest.raises(ConstructionError):
        _sampled(grid, np.full((grid.n, 2, 2), np.nan))


def test_constant_pairs_reduce_to_constant_cores():
    _, red = _circuit_reduction()
    for fun in (red.m_fun, red.rx, red.rf, red.rfd, red.projector):
        assert isinstance(fun, sd.ConstantMatrixFunction)
    # g is read at the points asked for, from f and fdot there
    assert isinstance(red.g_fun, AffineInput)
    mids = 0.5 * (GRID.points[:-1] + GRID.points[1:])
    want = (red.g_fun.Gf._eval_at(mids) @ red.f._eval_at(mids)
            + red.g_fun.Gfd._eval_at(mids) @ red.f._derivative_at(mids))
    assert np.array_equal(red.g_fun._eval_at(mids), want)
    with pytest.raises(UnsupportedError):
        red.g_fun.derivative(0.5)


def test_semidefinite_preconditions():
    indef = sd.MatrixPair(sd.constant(np.diag([1.0, -1.0])), sd.zero(2, 2), GRID)
    with pytest.raises(StructureError):
        sd.semidefinite_skew_reduce(indef, sd.zero(2, 1), GRID)

    not_skew = sd.MatrixPair(sd.identity(2), sd.identity(2), GRID)
    with pytest.raises(StructureError):
        sd.semidefinite_skew_reduce(not_skew, sd.zero(2, 1), GRID)

    # kernel variable with no constraint row: irregular
    irregular = sd.MatrixPair(sd.constant(np.diag([1.0, 0.0])), sd.zero(2, 2), GRID)
    with pytest.raises(RegularityError):
        sd.semidefinite_skew_reduce(irregular, sd.zero(2, 1), GRID)


def test_dissipation_on_the_chain_block_is_unsupported():
    # E = diag(1, 1, 0): x3 is the chain variable, x1 its constraint partner;
    # the chain solve needs A[0, 2] = -A[2, 0]
    E = sd.constant(np.diag([1.0, 1.0, 0.0]))
    A = np.array([[-0.2, 0.5, -2.0], [-0.5, 0.0, 0.0], [1.0, 0.0, 0.0]])
    pair = sd.MatrixPair(E, sd.constant(A), GRID)
    with pytest.raises(UnsupportedError, match="constraint/chain block"):
        sd.index1_reduce(pair, sd.zero(3, 1), GRID)
    with pytest.raises(StructureError, match="not skew-adjoint"):
        sd.semidefinite_skew_reduce(pair, sd.zero(3, 1), GRID)

    A[0, 2] = -1.0  # dissipation on x1's own row only
    red = sd.index1_reduce(sd.MatrixPair(E, sd.constant(A), GRID), sd.zero(3, 1), GRID)
    assert red.dynamic_dim == 1 and red.certificate is None
    # x1 = 0 and x2dot = -0.5 x1 = 0: the dynamic state stays put, and the
    # x1-row 0 = 0.5 x2 - x3 recovers x3
    traj = sd.integrate_reduced(red, red.dynamic_from_full(0.0, [0.0, 2.0, 1.0]), GRID)
    assert np.abs(traj.states - [0.0, 2.0, 1.0]).max() <= 1e-12


def test_index1_reduce_takes_every_kernel_block_the_guard_accepts():
    # kernel block diag(-1, -1e-9): relative smallest singular value 1e-9,
    # above 1 / COND_LIMIT, so index 1 with x2 = x1, x3 = 1e9 x1
    A = np.array([[-1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1e-9]])
    pair = sd.MatrixPair(sd.constant(np.diag([1.0, 0.0, 0.0])), sd.constant(A), GRID)
    red = sd.index1_reduce(pair, sd.zero(3, 1), GRID)
    assert red.recovery == [("algebraic variables", 2)]
    assert red.m_fun.eval(0.0)[0, 0] == pytest.approx(1e9, rel=1e-6)


def test_certificate_is_earned_from_the_data():
    # lossless constant pair: the uncertified entry point earns the same
    # orthogonal core as the certified one
    pair, _ = seeded_semidefinite_skew_pair(11, GRID)
    red = sd.index1_reduce(pair, sd.zero(6, 1), GRID)
    strict = sd.semidefinite_skew_reduce(pair, sd.zero(6, 1), GRID)
    assert red.certificate.kind == strict.certificate.kind == "orthogonal"
    assert np.array_equal(red.m_fun.eval_on(GRID), strict.m_fun.eval_on(GRID))

    # a smooth congruence of a lossless pair on a coarse grid: the spline
    # Qdot leaves the scaled core short of skew, so no certificate is earned
    grid = sd.TimeGrid.uniform(0.0, 1.0, 41)
    pair0, _ = seeded_semidefinite_skew_pair(2, grid)
    moved = sd.apply_congruence(pair0, random_poly_congruence(np.random.default_rng(6), 6, 2))
    red = sd.index1_reduce(moved, sd.zero(6, 1), grid)
    assert red.dynamic_dim == 4 and red.certificate is None
    with pytest.raises(StructureError, match="scaled dynamic block is not skew"):
        sd.semidefinite_skew_reduce(moved, sd.zero(6, 1), grid)


def test_index2_derivative_bound():
    for seed in range(20):
        pair, _ = seeded_semidefinite_skew_pair(seed, GRID, index2=True)
        f = sd.from_callable(
            lambda t: np.array([[0.0], [0.0], [0.0], [np.sin(t)], [0.0]]), GRID,
            dfn=lambda t: np.array([[0.0], [0.0], [0.0], [np.cos(t)], [0.0]]),
        )
        red = sd.semidefinite_skew_reduce(pair, f, GRID)
        assert red.max_f_derivative <= 1


# ---------------------------------------------------------------------------
# saddle-point pipeline
# ---------------------------------------------------------------------------

def test_stokes_reduce_identity_blocks():
    M = np.eye(3)
    B = np.array([[1.0], [0.0], [0.0]])
    Jc = np.array([[0.0, 0.5, -0.2], [-0.5, 0.0, 0.7], [0.2, -0.7, 0.0]])
    red = sd.stokes_reduce(M, B, sd.constant(Jc), sd.zero(3, 1), GRID)
    assert red.dynamic_dim == 2
    # with U = I (up to sign) the core is the lower-right 2x2 of J
    assert np.allclose(np.abs(red.m_fun.eval(0.0)), np.abs(Jc[1:, 1:]), atol=1e-12)
    assert red.certificate_defect(GRID) <= 1e-12
    assert red.max_f_derivative == 0
    # v1 = 0 and pressure recovery p = J12 v2 + f1 (M12 = 0, f = 0 here);
    # the pressure itself is gauge-free, so no sign ambiguity
    x2 = np.array([0.3, -0.4])
    full = red.reconstruct(0.0, x2)
    v = full[:3]
    assert abs(v @ B[:, 0]) <= 1e-12
    assert abs(full[3] - Jc[0, 1:] @ v[1:]) <= 1e-12


def test_stokes_reduce_square_b_pure_algebraic():
    M = np.diag([2.0, 3.0])
    B = np.array([[1.0, 0.2], [0.0, 1.0]])
    red = sd.stokes_reduce(M, B, sd.constant(np.zeros((2, 2))), sd.zero(2, 1), GRID)
    assert red.dynamic_dim == 0
    traj = sd.integrate_reduced(red, np.zeros(0), GRID)
    assert np.abs(traj.states[:, :2]).max() == 0.0  # v = 0 everywhere


def test_stokes_seeded_vs_dense_oracle():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 4001)
    s = sd.build_stokes(5, 2, seed=3, interval=grid)
    J0 = s.A_S

    def Jfun_np(t):
        return np.sin(t) * J0

    def ffun_np(t):
        return np.array([np.cos(2 * t), 0.1, np.sin(t), 0.0, 0.2 * t])

    Jfun = sd.from_callable(lambda t: Jfun_np(t), grid, dfn=lambda t: np.cos(t) * J0)
    ffun = sd.from_callable(lambda t: ffun_np(t)[:, None], grid)
    red = sd.stokes_reduce(s.M, s.B, Jfun, ffun, grid)
    assert red.certificate_defect(grid) <= 1e-10
    traj = sd.integrate_reduced(red, np.zeros(red.dynamic_dim), grid)
    oracle = solve_stokes_dae(s.M, s.B, Jfun_np, ffun_np, grid.points)
    assert np.abs(traj.states - oracle).max() <= 1e-6


def test_stokes_preconditions():
    with pytest.raises(StructureError):
        sd.stokes_reduce(np.diag([1.0, -1.0]), np.array([[1.0], [0.0]]),
                         sd.constant(np.zeros((2, 2))), sd.zero(2, 1), GRID)
    with pytest.raises(RegularityError):
        sd.stokes_reduce(np.eye(2), np.array([[1.0], [1.0]]) * 0.0,
                         sd.constant(np.zeros((2, 2))), sd.zero(2, 1), GRID)


def test_stokes_reduce_rejects_a_non_skew_convection_block():
    with pytest.raises(StructureError, match="not skew-adjoint"):
        sd.stokes_reduce(np.eye(3), np.array([[1.0], [0.0], [0.0]]),
                         sd.constant(np.diag([0.0, -0.1, 0.0])), sd.zero(3, 1), GRID)


# ---------------------------------------------------------------------------
# symplectic extraction
# ---------------------------------------------------------------------------

def _self_global_form(A22):
    """The self-adjoint global form with no algebraic part: E = J, C = diag(0, A22)."""
    p = A22.rows
    return sd.SelfAdjointGlobalForm(
        p=p, E33=sd.zero(0, 0), A22=A22, A23=sd.zero(p, 0), A32=sd.zero(0, p),
        A33=sd.zero(0, 0), Q=sd.CongruenceTransform.identity(2 * p), grid=GRID, n=2 * p,
    )


def test_self_adjoint_dynamic_extract_hand_values():
    red = sd.self_adjoint_dynamic_extract(_self_global_form(sd.identity(1)), GRID)
    M = red.m_fun.eval(0.0)
    assert np.array_equal(M, -J2 @ np.diag([0.0, 1.0]))
    assert np.array_equal(M, [[0.0, -1.0], [0.0, 0.0]])
    assert np.linalg.norm(M.T @ J2 + J2 @ M) == 0.0

    red0 = sd.self_adjoint_dynamic_extract(_self_global_form(sd.zero(1, 1)), GRID)
    assert np.linalg.norm(red0.m_fun.eval(0.5)) == 0.0

    tv = _self_global_form(sd.PolynomialMatrixFunction.from_entries(
        [[[1.0, 0.0, 1.0], [0.0]], [[0.0], [2.0]]]
    ))
    redt = sd.self_adjoint_dynamic_extract(tv, GRID)
    assert redt.certificate_defect(GRID) <= 1e-12
    assert redt.certificate.kind == "symplectic"


def test_self_adjoint_dynamic_extract_from_global_form():
    mb = sd.build_multibody(np.eye(2), np.eye(2), [[1.0, 0.0]], interval=GRID)
    basis = sd.solution_basis_constant(mb.self_pair, GRID)
    form = sd.global_canonical_self(mb.self_pair, basis, GRID)
    red = sd.self_adjoint_dynamic_extract(form, GRID)
    assert red.dynamic_dim == 2 * form.p
    assert red.certificate_defect(GRID) <= 1e-10

    bad = sd.SelfAdjointGlobalForm(
        p=1, E33=sd.zero(1, 1),
        A22=sd.constant([[1.0]]), A23=sd.zero(1, 1), A32=sd.zero(1, 1),
        A33=sd.zero(1, 1), Q=sd.CongruenceTransform.identity(3), grid=GRID, n=3,
    )
    red_ok = sd.self_adjoint_dynamic_extract(bad, GRID)  # 1x1 A22 is symmetric
    assert red_ok.dynamic_dim == 2

    nonsym = _self_global_form(sd.constant([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(StructureError):
        sd.self_adjoint_dynamic_extract(nonsym, GRID)

    skew = sd.global_canonical_skew(mb.skew_pair, sd.solution_basis_constant(mb.skew_pair, GRID),
                                    GRID)
    with pytest.raises(UnsupportedError, match="expected a self-adjoint global form"):
        sd.self_adjoint_dynamic_extract(skew, GRID)


@pytest.mark.parametrize("seed", [3, 7])
def test_symplectic_extraction_of_the_seeded_multibody_self_form(seed):
    # C = diag(0, A22) is judged against the core pair (J, C): on seed 7,
    # |A22| is 4e-15, so C's own norm would make its roundoff a defect
    mb, grid = seeded_multibody(seed)
    form = sd.global_canonical_self(mb.self_pair, sd.solution_basis_constant(mb.self_pair, grid),
                                    grid)
    red = sd.self_adjoint_dynamic_extract(form, grid)
    assert red.certificate.kind == "symplectic"
    assert np.array_equal(red.certificate.B, sd.FlowCertificate.symplectic(15).B)


def test_symplectic_extraction_rejects_an_asymmetry_relative_to_j():
    J = sd.FlowCertificate.symplectic(4).B
    A22 = np.diag([1.0, 2.0, 3.0, 4.0])
    A22[0, 1] += 1e-6 * np.linalg.norm(J)
    with pytest.raises(StructureError, match="C block is not symmetric"):
        sd.self_adjoint_dynamic_extract(_self_global_form(sd.constant(A22)), GRID)


def test_constant_nondiagonal_e_matches_its_eigenbasis_reduction():
    # the kernel split of a constant E comes from one SVD; moving the pair
    # into E's eigenbasis first must not change the full states
    grid = sd.TimeGrid.uniform(0.0, 2.0, 201)
    pair, w = seeded_semidefinite_skew_pair(3, grid)
    _, V = np.linalg.eigh(pair.E.value)
    rotated = sd.apply_congruence(pair, sd.CongruenceTransform(sd.constant(V)))
    f = sd.from_callable(lambda t: w[:, None] * np.sin(t), grid,
                         dfn=lambda t: w[:, None] * np.cos(t))
    x0 = np.linspace(1.0, 2.0, 6)
    states = []
    for p, fp, xp in ((pair, f, x0), (rotated, sd.mf_matmul(sd.constant(V.T), f), V.T @ x0)):
        red = sd.semidefinite_skew_reduce(p, fp, grid)
        states.append(sd.integrate_reduced(red, red.dynamic_from_full(0.0, xp), grid).states)
    assert np.abs(states[0] - states[1] @ V.T).max() <= 1e-12 * np.abs(states[0]).max()


def test_index1_reduce_evaluates_e_once(monkeypatch):
    # the kernel split reads the E samples the elimination has already taken
    grid = sd.TimeGrid.uniform(0.0, 1.0, 201)
    pair0, _ = seeded_semidefinite_skew_pair(4, grid)
    Q = random_poly_congruence(np.random.default_rng(4), 6, 2)
    pair = sd.apply_congruence(pair0, Q)
    calls = []
    eval_on = pair.E.eval_on

    def counted(g):
        calls.append(g.n)
        return eval_on(g)

    monkeypatch.setattr(pair.E, "eval_on", counted)
    red = sd.index1_reduce(pair, sd.zero(6, 1), grid)
    assert red.dynamic_dim == 4
    assert calls == [grid.n]


def test_index2_pairs_in_non_diagonal_coordinates():
    # a constant non-diagonal congruence leaves the index-2 kernel block zero
    # only up to roundoff; decided against the pair's scale it is still zero,
    # so both entry points take the chain path and earn the certificate
    grid = sd.TimeGrid.uniform(0.0, 1.0, 201)
    for seed in range(40):
        pair0, _ = seeded_semidefinite_skew_pair(seed, grid, index2=True)
        Q = np.eye(5) + 0.3 * np.random.default_rng(100 + seed).standard_normal((5, 5))
        pair = sd.apply_congruence(pair0, sd.CongruenceTransform(sd.constant(Q)))
        for reduce in (sd.index1_reduce, sd.semidefinite_skew_reduce):
            red = reduce(pair, sd.zero(5, 1), grid)
            assert red.dynamic_dim == 1, (seed, reduce.__name__)
            assert red.certificate.kind == "orthogonal"
            assert red.certificate_defect(grid) <= 1e-12


def test_index2_with_a_moving_kernel_split_is_unsupported():
    # a time-varying congruence moves the kernel of E, and the chain
    # elimination reads the kernel split at t0 only
    grid = sd.TimeGrid.uniform(0.0, 1.0, 81)
    pair0, _ = seeded_semidefinite_skew_pair(0, grid, index2=True)
    pair = sd.apply_congruence(pair0, random_poly_congruence(np.random.default_rng(6), 5, 2))
    for reduce in (sd.index1_reduce, sd.semidefinite_skew_reduce):
        with pytest.raises(UnsupportedError, match="requires a constant kernel splitting of E"):
            reduce(pair, sd.zero(5, 1), grid)


@pytest.mark.parametrize("c", [1e-9, 1e9])
def test_kernel_block_rank_ignores_the_scale_of_the_pair(c):
    # the kernel block and the constraint rows are cut from A: scaling E on
    # its own (a change of time unit) or the whole pair moves no rank decision
    grid = sd.TimeGrid.uniform(0.0, 1.0, 41)
    for index2, dim in ((False, 4), (True, 1)):
        for seed in range(4):
            pair0, _ = seeded_semidefinite_skew_pair(seed, grid, index2=index2)
            n = pair0.n
            Q = np.eye(n) + 0.3 * np.random.default_rng(100 + seed).standard_normal((n, n))
            E, A = Q.T @ pair0.E.value @ Q, Q.T @ pair0.A.value @ Q
            for Es, As in ((c * E, A), (c * E, c * A)):
                pair = sd.MatrixPair(sd.constant(Es), sd.constant(As), grid)
                for reduce in (sd.index1_reduce, sd.semidefinite_skew_reduce):
                    red = reduce(pair, sd.zero(n, 1), grid)
                    assert red.dynamic_dim == dim, (index2, seed, reduce.__name__)
    # the chain-block test is judged against A too: dissipation there is
    # refused whatever the units
    pair0, _ = seeded_semidefinite_skew_pair(0, grid, index2=True)
    A = pair0.A.value.copy()
    A[2, 4] -= 0.3
    pair = sd.MatrixPair(sd.constant(c * pair0.E.value), sd.constant(c * A), grid)
    with pytest.raises(UnsupportedError, match="constraint/chain block"):
        sd.index1_reduce(pair, sd.zero(5, 1), grid)


@pytest.mark.parametrize("reduce", [sd.index1_reduce, sd.semidefinite_skew_reduce])
def test_kernel_block_near_the_threshold_is_ill_posed(reduce):
    # a kernel block at half the one cut, 1e-12 relative to A, is neither
    # zero nor nonsingular, whichever entry point reduces it
    pair0, _ = seeded_semidefinite_skew_pair(0, GRID)
    A = pair0.A.value.copy()
    eps = 0.5e-12 * np.linalg.norm(A)
    A[4:, 4:] = [[0.0, eps], [-eps, 0.0]]
    pair = sd.MatrixPair(pair0.E, sd.constant(A), GRID)
    with pytest.raises(IllPosedRankError):
        reduce(pair, sd.zero(6, 1), GRID)


def _ill_posed_at_t0(kernel=None, eps=0.0):
    """E = diag(1, 1, 0, ...) and A = J2 plus the kernel block, coupled to the
    dynamic block by a constraint row of size eps."""
    kernel = np.zeros((1, 1)) if kernel is None else np.asarray(kernel)
    m = 2 + len(kernel)
    A = np.zeros((m, m))
    A[:2, :2] = J2
    A[2:, 2:] = kernel
    A[1, 2], A[2, 1] = eps, -eps
    return sd.MatrixPair(sd.constant(np.diag([1.0, 1.0] + [0.0] * len(kernel))),
                         sd.constant(A), sd.TimeGrid.uniform(0.0, 1.0, 11))


@pytest.mark.parametrize("reduce, pair", [
    # a kernel block with no clean gap at the 1e-12 cut
    (sd.index1_reduce, _ill_posed_at_t0(np.diag([1.0, 2.1e-12]))),
    (sd.semidefinite_skew_reduce, _ill_posed_at_t0([[0.0, 1e-12], [-1e-12, 0.0]])),
    # a zero kernel block, and a constraint row at twice the 1e-10 cut
    (sd.index1_reduce, _ill_posed_at_t0(eps=2e-10)),
    (sd.semidefinite_skew_reduce, _ill_posed_at_t0(eps=2e-10)),
])
def test_rank_decisions_on_a1_at_t0_name_t0(reduce, pair):
    with pytest.raises(IllPosedRankError, match="do not separate cleanly") as err:
        reduce(pair, sd.zero(pair.n, 1), pair.interval)
    assert err.value.t == 0.0
    assert str(err.value).startswith("at t=0.0: ")


def test_rank_deficient_constraint_rows_name_t0():
    # A = J2 (+) diag(1, t): at t0 the kernel block diag(1, 0) leaves one
    # chain variable, and its constraint row, read off A1(t0), is zero
    grid = sd.TimeGrid.uniform(0.0, 1.0, 41)
    A = np.zeros((2, 4, 4))
    A[0, :2, :2], A[0, 2, 2], A[1, 3, 3] = J2, 1.0, 1.0
    pair = sd.MatrixPair(sd.constant(np.diag([1.0, 1.0, 0.0, 0.0])), sd.poly(A), grid)
    with pytest.raises(RegularityError,
                       match=r"constraint rows are rank deficient at t=0\.0") as err:
        sd.index1_reduce(pair, sd.zero(4, 1), grid)
    assert err.value.t == 0.0


@pytest.mark.parametrize("rel", [1e-11, 1e-10, 1e-9, 5e-9])
def test_both_entry_points_cut_the_kernel_block_alike(rel):
    # a small kernel block eps/|A|_F = rel: both entry points keep it as an
    # index-1 block (d = 4), and the strict one raises exactly where the
    # other reports no certificate; a second cut gave d = 2 at 1e-10 through
    # the strict entry point and an ill-posed rank at 1e-9 and 5e-9
    grid = sd.TimeGrid.uniform(0.0, 1.0, 41)
    pair0, _ = seeded_semidefinite_skew_pair(0, grid)
    A = pair0.A.value.copy()
    eps = rel * np.linalg.norm(A)
    A[4:, 4:] = [[0.0, eps], [-eps, 0.0]]
    pair = sd.MatrixPair(pair0.E, sd.constant(A), grid)
    red = sd.index1_reduce(pair, sd.zero(6, 1), grid)
    assert red.dynamic_dim == 4
    if red.certificate is None:
        with pytest.raises(StructureError, match="scaled dynamic block is not skew"):
            sd.semidefinite_skew_reduce(pair, sd.zero(6, 1), grid)
    else:
        assert sd.semidefinite_skew_reduce(pair, sd.zero(6, 1), grid).dynamic_dim == 4


def test_recovery_groups_and_core_cover_the_state():
    # every reducer accounts for each of the n variables once: the dynamic
    # core plus the rows of the groups it lists as recovered
    grid = sd.TimeGrid.uniform(0.0, 1.0, 41)
    circuit = sd.build_circuit(1.0, 1.5, 0.7, interval=grid).lossless_pair()
    skew = sd.build_multibody(np.eye(3), np.diag([1.0, 2.0, 3.0]), [[1.0, 0.0, 0.0]],
                              interval=grid).skew_pair
    stokes = sd.build_stokes(3, 1, seed=2, interval=grid)
    E0 = np.diag([1.0, 2.0, 0.0, 0.0])
    A0 = np.array([[-0.3, 1.0, 0.2, 0.0], [-1.0, -0.1, 0.0, 0.5],
                   [0.1, 0.0, -1.0, 0.8], [0.0, -0.4, -0.8, -0.5]])
    moved = sd.apply_congruence(sd.MatrixPair(sd.constant(E0), sd.constant(A0), grid),
                                random_poly_congruence(np.random.default_rng(12), 4, 2))
    cases = [(reducer, pair, pair.n)
             for pair in (circuit, skew, stokes.pair())
             for reducer in (sd.semidefinite_skew_reduce, sd.index1_reduce)]
    cases.append((sd.index1_reduce, moved, 4))
    cases.append((lambda pair, f, g: sd.stokes_reduce(
        stokes.M, stokes.B, sd.constant(stokes.A_S), sd.zero(3, 1), g), None, 4))
    for reducer, pair, n in cases:
        red = reducer(pair, sd.zero(n, 1), grid)
        assert red.dynamic_dim + sum(rows for _, rows in red.recovery) == n, red.recovery
    assert red.recovery == [("constraint variables", 1), ("pressure", 1)]


def test_extracted_core_has_no_recovery_maps():
    # the Hamiltonian core of the multibody self form (n = 5, p = 1) keeps
    # no map to or from the full state
    mb = sd.build_multibody(np.eye(2), np.eye(2), [[1.0, 0.0]], interval=GRID)
    form = sd.global_canonical_self(mb.self_pair, sd.solution_basis_constant(mb.self_pair, GRID),
                                    GRID)
    red = sd.self_adjoint_dynamic_extract(form, GRID)
    assert (form.n, form.p, red.dynamic_dim) == (5, 1, 2)
    x2 = np.array([1.0, -0.5])
    for call in (lambda: red.dynamic_from_full(0.0, np.ones(5)),
                 lambda: red.reconstruct(0.5, x2),
                 lambda: red.reconstruct_on(GRID, np.tile(x2, (GRID.n, 1))),
                 lambda: sd.integrate_reduced(red, x2, GRID)):
        with pytest.raises(UnsupportedError, match="no recovery maps"):
            call()
    # the core itself integrates
    states = sd.integrate_linear(red.m_fun, red.g_fun, x2, GRID)
    assert states.shape == (GRID.n, 2) and np.array_equal(states[0], x2)


NONSYMMETRIC_E = sd.MatrixPair(
    sd.constant([[1.0, 0.5], [-0.5, 1.0]]), sd.constant(-np.eye(2)),
    sd.TimeGrid.uniform(0.0, 1.0, 11),
)


def test_kernel_elimination_rejects_a_nonsymmetric_e():
    # sym(E) = I would reduce to M = -I and end at (0.368, 0); the equation's
    # solution from e1 is expm(E^-1 A) e1 = (0.414, -0.175)
    grid = NONSYMMETRIC_E.interval
    with pytest.raises(StructureError, match="E is not symmetric"):
        sd.index1_reduce(NONSYMMETRIC_E, sd.zero(2, 1), grid)
    with pytest.raises(StructureError):
        sd.semidefinite_skew_reduce(NONSYMMETRIC_E, sd.zero(2, 1), grid)
    # a roundoff-level asymmetry still reduces
    E = np.array([[1.0, 0.5], [0.5 * (1 + 1e-15), 1.0]])
    red = sd.index1_reduce(sd.MatrixPair(sd.constant(E), sd.constant(-np.eye(2)), grid),
                           sd.zero(2, 1), grid)
    assert red.dynamic_dim == 2


def test_kernel_elimination_rejects_a_pattern_that_holds_at_t0_only():
    # E = diag(1, 1, 0): the constraint row reads x1 only at t = 0, and the
    # dynamic variable x2 too for t > 0
    A = sd.poly([[[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                 [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    pair = sd.MatrixPair(sd.constant(np.diag([1.0, 1.0, 0.0])), A, GRID)
    with pytest.raises(UnsupportedError, match="kernel/constraint block pattern"):
        sd.index1_reduce(pair, sd.zero(3, 1), GRID)
    # the same pair frozen at t = 0 reduces
    frozen = sd.MatrixPair(pair.E, sd.constant(A.eval(0.0)), GRID)
    assert sd.index1_reduce(frozen, sd.zero(3, 1), GRID).dynamic_dim == 1


def _tv_index1_problem(K, n=20, r=16):
    """The time-varying index-1 shape of the benchmark (n = 20, r = 16
    there): E = diag(S, 0), S SPD of size r, A = J - R with R >= 0 and a
    nonsingular algebraic block, moved by Q(t) = I + t P1 + t^2 P2 on
    [0, 1]; f = Q^T g."""
    rng = np.random.default_rng(7)
    B, X, C = rng.standard_normal((3, n, n))
    E = np.zeros((n, n))
    E[:r, :r] = B[:r, :r] @ B[:r, :r].T / r + np.eye(r)
    R = 0.1 * C @ C.T / n
    R[r:, r:] += np.eye(n - r)
    P = rng.standard_normal((2, n, n))
    P *= 0.25 / np.linalg.norm(P, 2, axis=(1, 2))[:, None, None]
    grid = sd.TimeGrid.uniform(0.0, 1.0, K)
    pair = sd.MatrixPair(sd.constant(E), sd.constant(0.5 * (X - X.T) - R), grid)
    T = sd.CongruenceTransform.from_function(sd.poly([np.eye(n), *P]))
    f = sd.mf_matmul(sd.mf_transpose(T.Q), sd.constant(rng.standard_normal((n, 1))))
    return pair, T, f, grid


def test_time_varying_congruence_guard_runs_no_values_only_svd(svd_calls):
    pair, T, _, grid = _tv_index1_problem(41)
    sd.apply_congruence(pair, T, check_grid=grid)
    assert svd_calls.values_only == []


def test_time_varying_congruence_guard_forms_no_inverse(inv_calls):
    # Q's margin is proven by one Cholesky of its Gram matrix; the inverse
    # the guard would only drop is never formed
    pair, T, _, grid = _tv_index1_problem(41)
    sd.apply_congruence(pair, T, check_grid=grid)
    assert (grid.n, pair.n, pair.n) not in inv_calls


def test_invert_forms_one_inverse(inv_calls):
    pair, T, _, grid = _tv_index1_problem(41)
    sd.invert(T, grid)
    assert inv_calls.count((grid.n, pair.n, pair.n)) == 1


def test_time_varying_kernel_split_is_one_eigh(svd_calls, eigh_calls):
    pair, T, f, grid = _tv_index1_problem(41)
    moved = sd.apply_congruence(pair, T)
    red = sd.index1_reduce(moved, f, grid)
    assert red.dynamic_dim == 16 and red.recovery == [("algebraic variables", 4)]
    # E's samples: one eigh, whose eigenvalues also decide E >= 0
    shape = (grid.n, pair.n, pair.n)
    assert eigh_calls.count(shape) == 1 and shape not in eigh_calls.values_only
    assert shape not in svd_calls


def test_time_varying_cayley_guard_reads_the_step_solve(svd_calls):
    pair, T, f, grid = _tv_index1_problem(41)
    red = sd.index1_reduce(sd.apply_congruence(pair, T), f, grid)
    assert not isinstance(red.m_fun, sd.ConstantMatrixFunction)
    svd_calls.clear()
    sd.integrate_linear(red.m_fun, red.g_fun, np.ones(red.dynamic_dim), grid)
    assert svd_calls.values_only == []


def test_time_varying_reduction_runs_no_eigh_but_the_split(eigh_calls):
    pair, T, f, grid = _tv_index1_problem(51, n=8, r=6)
    moved = sd.apply_congruence(pair, T)
    eigh_calls.clear()
    red = sd.index1_reduce(moved, f, grid)
    assert red.dynamic_dim == 6 and not isinstance(red.m_fun, sd.ConstantMatrixFunction)
    # the kernel split of E; the dynamic block is scaled by its Cholesky factor
    assert list(eigh_calls) == [(51, 8, 8)] and eigh_calls.values_only == []


def _moved_reference(pair, T, g, grid):
    """States of the constant pair's DAE E xdot = A x + g from the dynamic
    state of all ones, moved by Q(t)^-1: the states of the moved pair."""
    E, A = pair.E.eval(0.0), pair.A.eval(0.0)
    x = solve_constant_index1_dae(E, A, g, grid.points, np.ones(np.linalg.matrix_rank(E)))
    return np.linalg.solve(T.Q.eval_on(grid), x[..., None])[..., 0]


def _tv_index1_reduction_error(K):
    pair, T, f, grid = _tv_index1_problem(K, n=8, r=6)
    red = sd.index1_reduce(sd.apply_congruence(pair, T), f, grid)
    # f = Q^T g with Q(0) = I
    return reduction_error(red, grid, _moved_reference(pair, T, f.eval(0.0)[:, 0], grid))


def _moved_seed2_reduction_error(K):
    grid = sd.TimeGrid.uniform(0.0, 1.0, K)
    pair, _ = seeded_semidefinite_skew_pair(2, grid)
    T = random_poly_congruence(np.random.default_rng(6), 6, 2)
    red = sd.index1_reduce(sd.apply_congruence(pair, T), sd.zero(6, 1), grid)
    return reduction_error(red, grid, _moved_reference(pair, T, np.zeros(6), grid))


@pytest.mark.parametrize("error", [_tv_index1_reduction_error, _moved_seed2_reduction_error])
def test_time_varying_reduction_error_is_order_four(error):
    # the reduction's own error, with the core integrated to 1e-13: the
    # core's spline, its derivative samples and the split's gauge; a
    # gauge whose within-block derivative disagrees with the Procrustes
    # chain's samples drops it to order 2, which the midpoint rule hides
    errs = np.array([error(K) for K in (11, 21, 41)])
    assert errs[0] <= 1e-6
    assert (np.log2(errs[:-1] / errs[1:]) >= 3.5).all()


def _spd_stack(ts, n, rng):
    """S(t) = B(t) B(t)^T + I with B(t) = B0 + t B1, and its derivative."""
    B0, B1 = rng.standard_normal((2, n, n))
    B = B0 + ts[:, None, None] * B1
    return B @ _bT(B) + np.eye(n), B1 @ _bT(B) + B @ _bT(B1)


def test_cholesky_scaling_factor_and_its_derivative():
    ts = np.linspace(0.0, 2.0, 33)
    S, Sd = _spd_stack(ts, 5, np.random.default_rng(3))
    L, Linv, LinvLd = _cholesky_with_derivative(S, Sd, ts)
    assert np.array_equal(L, np.tril(L)) and (np.diagonal(L, axis1=1, axis2=2) > 0).all()
    assert np.array_equal(LinvLd, np.tril(LinvLd))
    scale = np.abs(S).max()
    assert np.abs(L @ _bT(L) - S).max() <= 1e-13 * scale
    assert np.abs(Linv @ L - np.eye(5)).max() <= 1e-12
    Ld = L @ LinvLd
    assert np.abs(Ld @ _bT(L) + L @ _bT(Ld) - Sd).max() <= 1e-13 * np.abs(Sd).max()


def test_cholesky_scaling_names_the_first_indefinite_sample():
    ts = np.linspace(0.0, 1.0, 9)
    S, Sd = _spd_stack(ts, 4, np.random.default_rng(5))
    S[6] = np.diag([1.0, 2.0, -1e-3, 1.0])
    with pytest.raises(StructureError, match=f"not positive definite at t={ts[6]}") as err:
        _cholesky_with_derivative(S, Sd, ts)
    assert err.value.t == ts[6]
    assert err.value.__cause__ is None and err.value.__suppress_context__


def test_a_nearly_singular_kernel_block_is_named_beside_the_skew_defect():
    # the kernel block [[0, eps], [-eps, 0]] is well conditioned on its own,
    # so its regularity guard passes it, but it is 1e-11 of the pair
    grid = sd.TimeGrid.uniform(0.0, 1.0, 41)
    pair, _ = seeded_semidefinite_skew_pair(0, grid)
    A = pair.A.eval(0.0).copy()
    eps = 1e-11 * np.linalg.norm(A)
    A[4:, 4:] = [[0.0, eps], [-eps, 0.0]]
    with pytest.raises(StructureError, match="scaled dynamic block is not skew") as err:
        sd.semidefinite_skew_reduce(sd.MatrixPair(pair.E, sd.constant(A), grid), sd.zero(6, 1),
                                    grid)
    size = re.search(r"algebraic block relative size (\S+)$", str(err.value))
    assert size and float(size.group(1)) < 1e-10
