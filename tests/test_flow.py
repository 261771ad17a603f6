import numpy as np
import pytest
import scipy.linalg as sla

import structdae as sd
from structdae.errors import DimensionError, ParameterError, SingularityError, UnsupportedError
from structdae.reduce import FlowCertificate

from oracles import (
    feedthrough_circuits,
    random_poly_congruence,
    rotation,
    seeded_semidefinite_skew_pair,
    sequential_recurrence,
)

GRID = sd.TimeGrid.uniform(0.0, 1.0, 101)
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_fundamental_solution_zero_coefficient():
    fund = sd.fundamental_solution(sd.zero(3, 3), GRID)
    assert np.array_equal(fund.matrices[0], np.eye(3))
    assert np.abs(fund.matrices - np.eye(3)).max() == 0.0


def test_fundamental_solution_rotation_accuracy():
    grid = sd.TimeGrid.uniform(0.0, np.pi / 2, 2001)
    fund = sd.fundamental_solution(sd.constant(J2), grid)
    exact = sla.expm((np.pi / 2) * J2)
    assert np.linalg.norm(fund.matrices[-1] - exact) <= 1e-6
    # closed form: rotation by -t in this convention or +t; compare both ways
    assert min(
        np.linalg.norm(fund.matrices[-1] - rotation(np.pi / 2)),
        np.linalg.norm(fund.matrices[-1] - rotation(-np.pi / 2)),
    ) <= 1e-6


def test_fundamental_solution_commuting_family():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 2001)
    M = sd.PolynomialMatrixFunction.from_entries(
        [[[0.0], [0.0, 1.0]], [[0.0, -1.0], [0.0]]]  # t * J2
    )
    fund = sd.fundamental_solution(M, grid)
    exact = sla.expm(0.5 * J2)  # integral of t J2 over [0, 1]
    assert np.linalg.norm(fund.matrices[-1] - exact) <= 1e-6


def test_flow_defect_values():
    eye = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
    assert sd.flow_defect(eye, FlowCertificate("symplectic", J2)) == 0.0
    scaled = np.broadcast_to(2 * np.eye(2), (3, 2, 2)).copy()
    assert sd.flow_defect(scaled, FlowCertificate("symplectic", J2)) == pytest.approx(
        3 * np.sqrt(2.0)
    )


def test_midpoint_preserves_quadratic_invariants_exactly():
    # Hamiltonian coefficient: M = J^{-1} C(t) with symmetric C(t)
    grid = sd.TimeGrid.uniform(0.0, 10.0, 2001)
    Jinv = -J2

    def Mfun(t):
        C = np.array([[1.0 + t * t, 0.3 * np.sin(t)], [0.3 * np.sin(t), 2.0]])
        return Jinv @ C

    M = sd.from_callable(Mfun, grid)
    for steps in (40, 400, 2000):
        g = sd.TimeGrid.uniform(0.0, 10.0, steps + 1)
        fund = sd.fundamental_solution(M, g)
        assert sd.flow_defect(fund, FlowCertificate("symplectic", J2)) <= 1e-10


def test_midpoint_preserves_indefinite_form():
    grid = sd.TimeGrid.uniform(0.0, 10.0, 2001)
    S = np.diag([1.0, -1.0])

    def Mfun(t):
        Jt = np.array([[0.0, np.cos(t)], [-np.cos(t), 0.0]])
        return np.linalg.inv(S) @ Jt

    fund = sd.fundamental_solution(sd.from_callable(Mfun, grid), grid)
    assert sd.flow_defect(fund, FlowCertificate("indefinite_orthogonal", S)) <= 1e-10


def test_midpoint_second_order_convergence():
    exact = sla.expm((np.pi / 2) * J2)
    errs = []
    for n in (250, 500, 1000):
        g = sd.TimeGrid.uniform(0.0, np.pi / 2, n + 1)
        fund = sd.fundamental_solution(sd.constant(J2), g)
        errs.append(np.linalg.norm(fund.matrices[-1] - exact))
    for k in range(2):
        assert 3.6 <= errs[k] / errs[k + 1] <= 4.4


def test_constant_coefficient_matches_equal_samples_bitwise():
    M = np.array([[0.0, 0.7, -0.0], [-0.7, 0.0, 1.3], [0.0, -1.3, 0.0]])
    sampled = sd.SampledMatrixFunction(GRID, np.broadcast_to(M, (GRID.n, 3, 3)))
    g = sd.from_callable(lambda t: np.array([[np.sin(t)], [0.5], [t]]), GRID,
                         dfn=lambda t: np.array([[np.cos(t)], [0.0], [1.0]]))
    x0 = [1.0, -2.0, 0.5]
    assert np.array_equal(sd.integrate_linear(sd.constant(M), g, x0, GRID),
                          sd.integrate_linear(sampled, g, x0, GRID))
    assert np.array_equal(sd.fundamental_solution(sd.constant(M), GRID).matrices,
                          sd.fundamental_solution(sampled, GRID).matrices)


def test_integrate_linear_trivial():
    traj = sd.integrate_linear(sd.zero(2, 2), None, [1.0, 0.0], GRID)
    assert np.abs(traj - np.array([1.0, 0.0])).max() == 0.0


def test_integrate_reduced_circuit_current():
    m = sd.build_circuit(1.0, 1.0, 1.0, interval=GRID)
    red = sd.semidefinite_skew_reduce(m.lossless_pair(), sd.zero(5, 1), GRID)
    x2 = red.dynamic_from_full(0.0, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    traj = sd.integrate_reduced(red, x2, GRID)
    assert np.abs(traj.states[:, 0] - 1.0).max() <= 1e-10


def test_hamiltonian_series_values():
    m = sd.build_circuit(1.0, 1.0, 1.0, interval=GRID)
    states = np.zeros((GRID.n, 5))
    states[:] = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    traj = sd.Trajectory(GRID, states)
    H = sd.hamiltonian_series(m.E, traj)
    assert np.allclose(H, 1.5, atol=0)

    zero_traj = sd.Trajectory(GRID, np.zeros((GRID.n, 5)))
    assert np.abs(sd.hamiltonian_series(m.E, zero_traj)).max() == 0.0


def test_energy_conservation_homogeneous_skew():
    grid = sd.TimeGrid.uniform(0.0, 10.0, 2001)
    mb = sd.build_multibody(np.eye(2), np.eye(2), [[1.0, 0.0]], interval=grid)
    red = sd.semidefinite_skew_reduce(mb.skew_pair, sd.zero(5, 1), grid)
    x0_full = np.array([0.2, 1.0, 0.0, 0.5, 0.0])  # (q, p, lam) with q1, p1 free parts
    x2 = red.dynamic_from_full(0.0, x0_full)
    traj = sd.integrate_reduced(red, x2, grid)
    H = traj.hamiltonian
    assert np.abs(H - H[0]).max() <= 1e-10 * (1.0 + abs(H[0]))


def test_dissipation_monitor_lossy_circuit():
    grid = sd.TimeGrid.uniform(0.0, 50.0, 2001)
    m = sd.build_circuit(1.0, 1.0, 1.0, RL=1.0, RG=1.0, RR=1.0, interval=grid)
    x0 = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
    traj, red = sd.simulate_phdae(m, None, x0, grid)
    rep = sd.dissipation_monitor(m, traj)
    assert rep.checked and rep.nonincreasing
    assert rep.max_violation == 0.0
    assert rep.hamiltonian[-1] <= 0.01 * rep.hamiltonian[0]


def test_dissipation_monitor_lossless_conserves():
    grid = sd.TimeGrid.uniform(0.0, 10.0, 1001)
    m = sd.build_circuit(1.0, 1.0, 1.0, interval=grid)
    traj, red = sd.simulate_phdae(m, None, np.array([1.0, 0, 0, 0, 0]), grid)
    rep = sd.dissipation_monitor(m, traj)
    assert rep.nonincreasing
    H = rep.hamiltonian
    assert np.abs(H - H[0]).max() <= 1e-10 * (1 + abs(H[0]))

    zero_traj, _ = sd.simulate_phdae(m, None, np.zeros(5), grid)
    assert np.abs(sd.dissipation_monitor(m, zero_traj).hamiltonian).max() == 0.0


def test_simulate_phdae_with_input_matches_reduction():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 401)
    m = sd.build_circuit(1.0, 1.0, 1.0, interval=grid)
    u = sd.from_callable(lambda t: [[np.sin(t)]], grid, dfn=lambda t: [[np.cos(t)]])
    traj, red = sd.simulate_phdae(m, u, np.zeros(5), grid)
    t = grid.points
    assert np.abs(traj.states[:, 1] + np.sin(t)).max() <= 1e-10  # V1 = -sin
    assert np.abs(traj.states[:, 3] - np.cos(t)).max() <= 1e-10  # IG = cos


def test_simulate_phdae_certifies_a_lossless_index1_model():
    grid = sd.TimeGrid.uniform(0.0, 10.0, 2001)
    pair, w = seeded_semidefinite_skew_pair(11, grid)
    z = sd.zero(6, 6)
    m = sd.PHDAEModel(E=pair.E, J=pair.A, R=z, K=z, G=sd.constant(w[:, None]),
                      P=sd.zero(6, 1), S=sd.zero(1, 1), N=sd.zero(1, 1), interval=grid)
    A = pair.A.value
    x1 = np.ones(4)
    x0 = np.concatenate([x1, -np.linalg.solve(A[4:, 4:], A[4:, :4] @ x1)])
    traj, red = sd.simulate_phdae(m, None, x0, grid)
    assert red.certificate.kind == "orthogonal"
    assert sd.certify_flow(red.m_fun, grid, red.certificate).max_defect <= 1e-12
    H = traj.hamiltonian
    assert np.abs(H - H[0]).max() <= 1e-10 * H[0]


def test_simulate_phdae_feeds_the_input_through_g_minus_p():
    grid = sd.TimeGrid.uniform(0.0, 10.0, 401)
    with_p, folded, without_p = feedthrough_circuits(grid)
    u = sd.from_callable(lambda t: [[np.sin(t)]], grid, dfn=lambda t: [[np.cos(t)]])
    x0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    states = [sd.simulate_phdae(m, u, x0, grid)[0].states for m in (with_p, folded, without_p)]
    assert np.array_equal(states[0], states[1])
    assert np.abs(states[0] - states[2]).max() > 1e-3


@pytest.mark.parametrize("resistors", [{"RL": 0.3}, {"RL": 0.3, "RR": 0.5}], ids=["RL", "RL-RR"])
def test_simulate_phdae_dissipative_index2_circuit(resistors):
    # RG = 0 keeps IG and V1 an index-2 constraint/chain pair
    grid = sd.TimeGrid.uniform(0.0, 10.0, 2001)
    L, C1, C2, I0 = 1.0, 1.5, 0.7, 1.2
    m = sd.build_circuit(L, C1, C2, interval=grid, **resistors)
    u = sd.from_callable(lambda t: [[np.sin(t)]], grid, dfn=lambda t: [[np.cos(t)]])
    RR = resistors.get("RR", 0.0)
    x0 = np.array([I0, 0.0, 0.0, C1, 0.0 if RR else I0])
    traj, red = sd.simulate_phdae(m, u, x0, grid)
    assert red.certificate is None
    t = grid.points
    assert np.abs(traj.states[:, 1] + np.sin(t)).max() <= 1e-6  # V1 = -u
    assert np.abs(traj.states[:, 3] - C1 * np.cos(t)).max() <= 1e-6  # IG = C1 u'
    if not RR:  # L Idot = -RL I with V2 = 0
        assert np.abs(traj.states[:, 0] - I0 * np.exp(-resistors["RL"] * t / L)).max() <= 1e-6
        return
    # (I, V2) solve L Idot = -V2 - RL I, C2 V2dot = I - V2 / RR, and IR = V2 / RR;
    # the midpoint rule is second order (h = 0.005)
    Msys = np.array([[-resistors["RL"] / L, -1.0 / L], [1.0 / C2, -1.0 / (RR * C2)]])
    ref = np.stack([sla.expm(Msys * s) @ [I0, 0.0] for s in t])
    assert np.abs(traj.states[:, [0, 2]] - ref).max() <= 1e-5
    assert np.abs(traj.states[:, 4] - traj.states[:, 2] / RR).max() <= 1e-12


def test_integrate_reduced_refined_grid_matches_pointwise_reconstruct():
    # time-varying recovery maps (a polynomial congruence of a constant
    # index-1 pair) with an inhomogeneity, integrated on a finer grid than
    # the reduction's, so every recovery coefficient is interpolated
    grid = sd.TimeGrid.uniform(0.0, 1.0, 201)
    pair0, w = seeded_semidefinite_skew_pair(2, grid)
    rng = np.random.default_rng(6)
    T = random_poly_congruence(rng, pair0.n, 2)
    pair = sd.apply_congruence(pair0, T)
    f0 = sd.from_callable(lambda t: np.sin(3 * t) * w[:, None], grid,
                          dfn=lambda t: 3 * np.cos(3 * t) * w[:, None])
    red = sd.semidefinite_skew_reduce(pair, sd.mf_matmul(sd.mf_transpose(T.Q), f0), grid)
    fine = grid.refine()
    x2 = np.arange(1.0, red.dynamic_dim + 1)
    traj = sd.integrate_reduced(red, x2, fine)
    pointwise = np.stack([red.reconstruct(t, traj.dynamic[k])
                          for k, t in enumerate(fine.points)])
    scale = 1.0 + np.abs(pointwise).max()
    assert np.abs(traj.states - pointwise).max() <= 1e-13 * scale
    assert np.abs(traj.states[::2] - red.reconstruct_on(grid, traj.dynamic[::2])).max() <= (
        1e-13 * scale)


@pytest.mark.parametrize("M", [
    # real eigenvalue 2/h = 8 at every midpoint of the h = 1/4 grid
    sd.constant(np.diag([8.0, 0.0])),
    # with zero derivative samples the Hermite cubic is the node average at
    # each midpoint, exactly: 8 at the midpoints 0.375, 0.625 and 0.875 only
    sd.SampledMatrixFunction(
        sd.TimeGrid([0.0, 0.25, 0.5, 0.75, 1.0]),
        [np.diag([v, 0.0]) for v in (0.0, 4.0, 12.0, 4.0, 12.0)],
        deriv_values=np.zeros((5, 2, 2))),
])
def test_singular_cayley_step_names_first_midpoint(M):
    grid = sd.TimeGrid([0.0, 0.25, 0.5, 0.75, 1.0])
    first = 0.125 if isinstance(M, sd.ConstantMatrixFunction) else 0.375
    for run in (lambda: sd.fundamental_solution(M, grid),
                lambda: sd.integrate_linear(M, None, [1.0, 0.0], grid)):
        with pytest.raises(SingularityError) as err:
            run()
        assert err.value.t == first
        assert f"t={first}" in str(err.value)


def test_flow_defect_series_is_per_step():
    mats = np.stack([np.eye(2), 2 * np.eye(2), np.eye(2)])
    series = sd.flow_defect_series(mats, FlowCertificate("symplectic", J2))
    assert np.allclose(series, [0.0, 3 * np.sqrt(2.0), 0.0], atol=0)
    assert sd.flow_defect(mats, FlowCertificate("symplectic", J2)) == series.max()


def test_certify_flow_rejects_an_uncertified_core(monkeypatch):
    from structdae import flow

    grid = sd.TimeGrid.uniform(0.0, 10.0, 201)
    m = sd.build_circuit(1.0, 1.5, 0.7, RL=0.3, RG=0.2, RR=0.5, interval=grid)
    u = sd.from_callable(lambda t: [[np.sin(t)]], grid, dfn=lambda t: [[np.cos(t)]])
    _, red = sd.simulate_phdae(m, u, np.zeros(5), grid)
    assert red.certificate is None

    def no_steps(*args, **kwargs):
        raise AssertionError("a step map was built for an uncertified core")

    monkeypatch.setattr(flow, "_step_maps", no_steps)
    with pytest.raises(UnsupportedError, match="uncertified"):
        sd.certify_flow(red.m_fun, grid, red.certificate)
    with pytest.raises(UnsupportedError, match="uncertified"):
        sd.flow_defect_series(np.eye(1)[None], red.certificate)


def test_constant_core_solves_once_per_step_length(monkeypatch):
    from structdae import flow, structure

    guard = structure._require_nonsingular
    seen = []

    def counting(F, ts, *args, **kwargs):
        seen.append((np.array(F), np.array(ts)))
        return guard(F, ts, *args, **kwargs)

    monkeypatch.setattr(structure, "_require_nonsingular", counting)
    # steps 0.25, 0.5, 0.25, 0.5, 0.25: two distinct lengths, exactly
    grid = sd.TimeGrid([0.0, 0.25, 0.75, 1.0, 1.5, 1.75])
    M = np.array([[0.3, 1.1, -0.4], [-0.9, 0.0, 2.0], [0.5, -1.7, -0.2]])
    w = np.array([[1.0], [-2.0], [0.5]])
    steps = np.diff(grid.points)
    eps = np.finfo(float).eps
    for g in (None, sd.poly([w, 3.0 * w])):
        seen.clear()
        C, d = flow._step_maps(sd.constant(M), grid, g)
        (L, mids), = seen
        assert L.shape == (2, 3, 3)
        assert np.array_equal(mids, [0.125, 0.5])  # the earliest step of each length
        for k, (h, t) in enumerate(zip(steps, grid.points[:-1] + 0.5 * steps)):
            Lk = np.eye(3) - h / 2 * M
            assert np.array_equal(C[k], np.linalg.solve(Lk, np.eye(3) + h / 2 * M))
            ref = np.zeros(3) if g is None else h * np.linalg.solve(Lk, g.eval(t))[:, 0]
            assert np.abs(d[k] - ref).max() <= 4 * eps * np.linalg.cond(Lk) * np.abs(ref).max()
    fund = sd.fundamental_solution(sd.constant(M), grid)
    assert np.array_equal(fund.matrices[1], C[0])
    assert np.array_equal(fund.matrices[2], C[1] @ C[0])


def test_singular_constant_step_length_names_its_first_midpoint():
    # steps 0.125, 0.0625, 0.25, 0.125, 0.25: h/2 * 8 = 1 on the 0.25 steps,
    # the midpoints 2 and 4
    grid = sd.TimeGrid([0.0, 0.125, 0.1875, 0.4375, 0.5625, 0.8125])
    M = sd.constant(np.diag([8.0, 0.0]))
    for run in (lambda: sd.fundamental_solution(M, grid),
                lambda: sd.integrate_linear(M, None, [1.0, 0.0], grid)):
        with pytest.raises(SingularityError) as err:
            run()
        assert err.value.t == 0.3125
        assert "t=0.3125" in str(err.value)


def test_integrate_linear_rejects_a_misshapen_inhomogeneity():
    M = sd.constant(J2)
    for g in (sd.constant(np.ones((3, 1))), sd.constant(np.ones((2, 2))), sd.zero(1, 1)):
        with pytest.raises(DimensionError):
            sd.integrate_linear(M, g, [1.0, 0.0], GRID)


def test_integrate_linear_rejects_a_non_finite_x0():
    for x0 in ([1.0, np.nan], [np.inf, 0.0], [0.0, -np.inf]):
        with pytest.raises(ParameterError, match="x0 has non-finite entries"):
            sd.integrate_linear(sd.constant(J2), None, x0, GRID)


def test_flow_defect_series_rejects_a_mismatched_form():
    fund = sd.fundamental_solution(sd.constant(J2), GRID)
    for B in (np.eye(3), np.ones((2, 3)), np.eye(2)[0]):
        with pytest.raises(DimensionError):
            sd.flow_defect_series(fund, B)
    with pytest.raises(DimensionError):
        sd.flow_defect_series(fund.matrices[0], np.eye(2))


def _skew_core(n=4, seed=3):
    """A time-varying skew M(t) (quadratic in t) and an inhomogeneity on [0, 1]."""
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((3, n, n))
    M = sd.PolynomialMatrixFunction(S - np.swapaxes(S, 1, 2))
    w = rng.standard_normal((n, 1))
    return M, w


@pytest.mark.parametrize("K", [2, 3, 5, 1025, 4001])
def test_prefix_scan_matches_the_sequential_recurrence(K):
    from structdae import flow

    grid = sd.TimeGrid.uniform(0.0, 1.0, K)
    M, w = _skew_core()
    g = sd.from_callable(lambda t: np.cos(5 * t) * w, grid, dfn=lambda t: -5 * np.sin(5 * t) * w)
    x0 = np.arange(1.0, 5.0)
    C, d = flow._step_maps(M, grid, g)
    tol = 10 * np.finfo(float).eps * K
    ref = sequential_recurrence(C, d, x0)
    x = sd.integrate_linear(M, g, x0, grid)
    assert np.abs(x - ref).max() <= tol * np.abs(ref).max()
    fund = sd.fundamental_solution(M, grid)
    ref = sequential_recurrence(flow._step_maps(M, grid)[0], np.zeros_like(C), np.eye(4))
    assert np.array_equal(fund.matrices[0], np.eye(4))
    assert np.abs(fund.matrices - ref).max() <= tol
    assert sd.flow_defect(fund, FlowCertificate("orthogonal", np.eye(4))) <= tol


def test_midpoint_second_order_time_varying_with_input():
    # M(t) = omega(t) J2 with omega = 1 + t, and g = xdot - M x for the exact
    # solution x(t) = (cos 3t, sin t + t)
    M = sd.PolynomialMatrixFunction([J2, J2])

    def exact(t):
        return np.array([np.cos(3 * t), np.sin(t) + t])

    def g(t):
        xd = np.array([-3 * np.sin(3 * t), np.cos(t) + 1])
        return (xd - (1 + t) * J2 @ exact(t))[:, None]

    def gd(t):
        xdd = np.array([-9 * np.cos(3 * t), -np.sin(t)])
        xd = np.array([-3 * np.sin(3 * t), np.cos(t) + 1])
        return (xdd - J2 @ exact(t) - (1 + t) * J2 @ xd)[:, None]

    errs = []
    for K in (101, 201, 401):
        grid = sd.TimeGrid.uniform(0.0, 2.0, K)
        x = sd.integrate_linear(M, sd.from_callable(g, grid, dfn=gd), exact(0.0), grid)
        errs.append(np.abs(x - np.stack([exact(t) for t in grid.points])).max())
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all((1.9 <= orders) & (orders <= 2.1)), orders


@pytest.mark.parametrize("kind", ["skew", "dissipative", "stiff"])
@pytest.mark.parametrize("hM", [1e-3, 1.0, 1e3, 1e6])
def test_step_inhomogeneity_matches_per_step_solves(kind, hM):
    # d_k = h_k L_k^-1 g_k from the one solve against [R | I], on a constant
    # and on a time-varying core with step h and |M| = 1
    from structdae import flow

    rng = np.random.default_rng(5)
    n = 6
    S = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    M0 = {
        "skew": S - S.T,
        "dissipative": S - S.T - B.T @ B,
        "stiff": -V @ np.diag(np.logspace(0, -8, n)) @ V.T + 1e-3 * (S - S.T),
    }[kind]
    M0 /= np.linalg.norm(M0, 2)
    w = rng.standard_normal((n, 1))
    h = hM
    grid = sd.TimeGrid.uniform(0.0, 4 * h, 5)
    mids = grid.points[:-1] + 0.5 * h
    g = sd.poly([w, w / h])
    eps = np.finfo(float).eps
    for M in (sd.constant(M0), sd.poly([M0, 0.1 * M0 / h])):
        _, d = flow._step_maps(M, grid, g)
        for k, t in enumerate(mids):
            L = np.eye(n) - h / 2 * M.eval(t)
            ref = h * np.linalg.solve(L, g.eval(t))[:, 0]
            assert np.abs(d[k] - ref).max() <= 4 * eps * np.linalg.cond(L) * np.abs(ref).max()
