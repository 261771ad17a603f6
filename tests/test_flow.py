import numpy as np
import pytest
import scipy.linalg as sla

import structdae as sd
from structdae.errors import SingularityError, UnsupportedError
from structdae.reduce import FlowCertificate

from oracles import random_poly_congruence, rotation, seeded_semidefinite_skew_pair

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
    # linear interpolation of these node values is 8 at the midpoints
    # 0.375, 0.625 and 0.875 only
    sd.SampledMatrixFunction(
        sd.TimeGrid([0.0, 0.25, 0.5, 0.75, 1.0]),
        [np.diag([v, 0.0]) for v in (0.0, 4.0, 12.0, 4.0, 12.0)], order=1),
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
