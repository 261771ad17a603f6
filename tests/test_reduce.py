import numpy as np
import pytest

import structdae as sd
from structdae.errors import (
    ConstructionError,
    RegularityError,
    StructureError,
    UnsupportedError,
)
from structdae.reduce import AffineInput, _sampled

from oracles import (
    random_poly_congruence,
    seeded_semidefinite_skew_pair,
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
    const = _sampled(grid, vals)
    assert isinstance(const, sd.ConstantMatrixFunction)
    assert np.array_equal(const.value, M)
    vals[7, 1, 0] = np.nextafter(vals[7, 1, 0], 0.0)  # one ulp
    assert isinstance(_sampled(grid, vals), sd.SampledMatrixFunction)
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


# ---------------------------------------------------------------------------
# symplectic extraction
# ---------------------------------------------------------------------------

def test_self_adjoint_dynamic_extract_hand_values():
    blocks = sd.LocalFormBlocks(
        variant="self_refined", core=sd.constant(J2), sigma11=sd.identity(2), p=1,
    )
    red = sd.self_adjoint_dynamic_extract(blocks, GRID)
    assert np.allclose(red.m_fun.eval(0.0), [[0.0, -1.0], [1.0, 0.0]], atol=0)
    M = red.m_fun.eval(0.0)
    assert np.linalg.norm(M.T @ J2 + J2 @ M) == 0.0

    zero_c = sd.LocalFormBlocks(
        variant="self_refined", core=sd.constant(J2), sigma11=sd.zero(2, 2), p=1,
    )
    red0 = sd.self_adjoint_dynamic_extract(zero_c, GRID)
    assert np.linalg.norm(red0.m_fun.eval(0.5)) == 0.0

    tv = sd.LocalFormBlocks(
        variant="self_refined", core=sd.constant(J2),
        sigma11=sd.PolynomialMatrixFunction.from_entries(
            [[[1.0, 0.0, 1.0], [0.0]], [[0.0], [2.0]]]
        ),
        p=1,
    )
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

    nonsym = sd.LocalFormBlocks(
        variant="self_refined", core=sd.constant(J2),
        sigma11=sd.constant([[0.0, 1.0], [0.0, 0.0]]), p=1,
    )
    with pytest.raises(StructureError):
        sd.self_adjoint_dynamic_extract(nonsym, GRID)


def test_constant_nondiagonal_e_matches_its_eigenbasis_reduction():
    # the kernel split of a constant E comes from one SVD; moving the pair
    # into E's eigenbasis first must not change the full states
    grid = sd.TimeGrid.uniform(0.0, 2.0, 201)
    pair, w = seeded_semidefinite_skew_pair(3, grid)
    _, V = np.linalg.eigh(pair.E.value)
    rotated = sd.apply_congruence(pair, sd.CongruenceTransform(sd.constant(V), sd.zero(6, 6)))
    f = sd.from_callable(lambda t: w[:, None] * np.sin(t), grid,
                         dfn=lambda t: w[:, None] * np.cos(t))
    x0 = np.linspace(1.0, 2.0, 6)
    states = []
    for p, fp, xp in ((pair, f, x0), (rotated, sd.mf_matmul(sd.constant(V.T), f), V.T @ x0)):
        red = sd.semidefinite_skew_reduce(p, fp, grid)
        states.append(sd.integrate_reduced(red, red.dynamic_from_full(0.0, xp), grid).states)
    assert np.abs(states[0] - states[1] @ V.T).max() <= 1e-12 * np.abs(states[0]).max()
