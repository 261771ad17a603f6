"""Acceptance suite: one test per release criterion, each printing a
[PASS] line with the measured numbers when it holds.  Tolerances are fixed
here, not tuned at runtime."""

import numpy as np
import scipy.linalg as sla

import structdae as sd
from structdae.factor import max_jump
from structdae.reduce import FlowCertificate

from oracles import (
    brute_force_dimension,
    multibody_solution_dims,
    random_poly_congruence,
    random_self_adjoint_poly_pair,
    random_skew_adjoint_poly_pair,
    rotation,
    seeded_semidefinite_skew_pair,
    solve_index1_dae,
    solve_stokes_dae,
)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


# ---------------------------------------------------------------------------
def test_criterion_1_structure_checks():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 201)
    worst = 0.0

    circuit = sd.build_circuit(1.0, 1.0, 1.0, interval=grid)
    worst = max(worst, sd.skew_adjoint_residual(circuit.lossless_pair(), grid).max_residual)

    stokes = sd.build_stokes(3, 1, seed=7, interval=grid)
    worst = max(worst, sd.skew_adjoint_residual(stokes.pair(), grid).max_residual)

    mb = sd.build_multibody(np.eye(2), np.eye(2), [[1.0, 0.0]], interval=grid)
    worst = max(worst, sd.self_adjoint_residual(mb.self_pair, grid).max_residual)
    worst = max(worst, sd.skew_adjoint_residual(mb.skew_pair, grid).max_residual)

    ocp = sd.build_optimal_control(
        [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]], interval=grid
    )
    worst = max(worst, sd.self_adjoint_residual(ocp, grid).max_residual)

    assert worst <= 1e-10
    _report(1, f"all constructor structure residuals <= 1e-10 (worst {worst:.2e})")


# ---------------------------------------------------------------------------
def test_criterion_2_congruence_preserves_structure():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 61)
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        T = random_poly_congruence(rng, 3, 2)
        pair_s = random_self_adjoint_poly_pair(rng, 3, 2, grid)
        pair_k = random_skew_adjoint_poly_pair(rng, 3, 2, grid)
        worst = max(
            worst,
            sd.self_adjoint_residual(sd.apply_congruence(pair_s, T), grid).max_residual,
            sd.skew_adjoint_residual(sd.apply_congruence(pair_k, T), grid).max_residual,
        )
    assert worst <= 1e-8

    # equivalence-relation identities
    rng = np.random.default_rng(77)
    pair = random_skew_adjoint_poly_pair(rng, 3, 1, grid)
    T1 = sd.CongruenceTransform.from_function(
        sd.constant(np.eye(3) + 0.2 * rng.standard_normal((3, 3)))
    )
    T2 = sd.CongruenceTransform.from_function(
        sd.constant(np.eye(3) + 0.2 * rng.standard_normal((3, 3)))
    )
    ident_dev = 0.0
    two = sd.apply_congruence(sd.apply_congruence(pair, T1), T2)
    one = sd.apply_congruence(pair, sd.compose(T1, T2))
    back = sd.apply_congruence(sd.apply_congruence(pair, T1), sd.invert(T1, grid))
    eye = sd.apply_congruence(pair, sd.CongruenceTransform.identity(3))
    for t in grid.points[::10]:
        ident_dev = max(
            ident_dev,
            np.linalg.norm(two.E.eval(t) - one.E.eval(t)),
            np.linalg.norm(two.A.eval(t) - one.A.eval(t)),
            np.linalg.norm(back.E.eval(t) - pair.E.eval(t)),
            np.linalg.norm(back.A.eval(t) - pair.A.eval(t)),
            np.linalg.norm(eye.E.eval(t) - pair.E.eval(t)),
        )
    assert ident_dev <= 1e-10
    _report(2, f"100 seeded congruences keep structure (worst {worst:.2e}); "
               f"relation identities within {ident_dev:.2e}")


# ---------------------------------------------------------------------------
def test_criterion_3_factorization_suite():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 101)

    def recon_rank(F):
        split = sd.rank_split(F, grid)
        vals = F.eval_on(grid)
        U = split.U.eval_on(grid)
        V = split.V.eval_on(grid)
        r = split.r
        full = np.zeros_like(vals)
        full[:, :r, :r] = split.Sigma.eval_on(grid)
        return np.linalg.norm(
            np.transpose(U, (0, 2, 1)) @ vals @ V - full, axis=(1, 2)
        ).max(), split

    def rot_rank1(g):
        return sd.from_callable(
            lambda t: rotation(t) @ np.diag([1.0, 0.0]) @ rotation(t).T, g
        )

    def rot_inertia(g):
        return sd.from_callable(
            lambda t: rotation(t) @ np.diag([2.0, -1.0]) @ rotation(t).T, g
        )

    worst = 0.0
    r1, _ = recon_rank(sd.constant(np.diag([1.0, 0.0])))
    r2, split_rot = recon_rank(rot_rank1(grid))
    r3, _ = recon_rank(sd.constant(np.random.default_rng(123).standard_normal((5, 5)) + 3 * np.eye(5)))
    worst = max(worst, r1, r2, r3)

    sym = sd.sym_rank_split(sd.from_callable(
        lambda t: np.array([[0.0, 1 + t * t, 0.0], [-(1 + t * t), 0.0, 0.0], [0.0, 0.0, 0.0]]),
        grid), grid)
    Q = sym.Q.eval_on(grid)
    vals = np.stack([
        np.array([[0.0, 1 + t * t, 0.0], [-(1 + t * t), 0.0, 0.0], [0.0, 0.0, 0.0]])
        for t in grid.points
    ])
    full = np.zeros_like(vals)
    full[:, :2, :2] = sym.Sigma.eval_on(grid)
    worst = max(worst, np.linalg.norm(
        np.transpose(Q, (0, 2, 1)) @ vals @ Q - full, axis=(1, 2)).max())

    inr = sd.smooth_inertia(rot_inertia(grid), grid)
    W = inr.W.eval_on(grid)
    Dv = rot_inertia(grid).eval_on(grid)
    S = np.diag([1.0, -1.0])
    worst = max(worst, np.linalg.norm(
        np.transpose(W, (0, 2, 1)) @ Dv @ W - S, axis=(1, 2)).max())
    assert worst <= 1e-10

    # continuity: jumps halve under refinement, within factor 1.5
    fine = grid.refine()
    j_rank = max_jump(split_rot.U.eval_on(grid))
    j_rank_f = max_jump(sd.rank_split(rot_rank1(fine), fine).U.eval_on(fine))
    j_in = max_jump(inr.W.eval_on(grid))
    j_in_f = max_jump(sd.smooth_inertia(rot_inertia(fine), fine).W.eval_on(fine))
    assert j_rank_f <= 1.5 * j_rank / 2.0
    assert j_in_f <= 1.5 * j_in / 2.0
    _report(3, f"reconstruction residuals <= 1e-10 (worst {worst:.2e}); "
               f"refinement jump ratios {j_rank_f / j_rank:.3f}, {j_in_f / j_in:.3f}")


# ---------------------------------------------------------------------------
def test_criterion_4_global_canonical_forms():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 201)
    mb = sd.build_multibody(np.eye(2), np.eye(2), [[1.0, 0.0]], interval=grid)
    d_self_oracle, d_skew_oracle = multibody_solution_dims(2, 1)

    basis_s = sd.solution_basis_constant(mb.self_pair, grid)
    form_s = sd.global_canonical_self(mb.self_pair, basis_s, grid)
    rec_s = sd.verify_self_global_form(form_s, grid)
    assert basis_s.d == d_self_oracle == brute_force_dimension(mb.self_pair)
    assert 2 * form_s.p == basis_s.d
    assert rec_s.worst <= 1e-8

    basis_k = sd.solution_basis_constant(mb.skew_pair, grid)
    form_k = sd.global_canonical_skew(mb.skew_pair, basis_k, grid)
    rec_k = sd.verify_skew_global_form(form_k, grid)
    assert basis_k.d == d_skew_oracle == brute_force_dimension(mb.skew_pair)
    assert form_k.p + form_k.q == basis_k.d
    assert form_k.q == 0  # E >= 0 forces an orthogonal dynamic flow
    assert rec_k.worst <= 1e-8
    _report(4, f"multibody forms verified (self worst {rec_s.worst:.2e}, "
               f"skew worst {rec_k.worst:.2e}); d = 2p = {basis_s.d} and "
               f"d = p + q = {basis_k.d} match the oracle; q = 0")


# ---------------------------------------------------------------------------
def test_criterion_5_flow_certification():
    grid = sd.TimeGrid.uniform(0.0, 10.0, 2001)

    def C_of(t):
        return np.array([[1.0 + 0.5 * np.sin(t), 0.2], [0.2, 2.0 + 0.1 * t]])

    M_self = sd.from_callable(lambda t: (-J2) @ C_of(t), grid)
    d_self = sd.flow_defect(
        sd.fundamental_solution(M_self, grid), FlowCertificate("symplectic", J2)
    )
    assert d_self <= 1e-10

    S = np.diag([1.0, -1.0])

    def J_of(t):
        return np.array([[0.0, np.cos(t)], [-np.cos(t), 0.0]])

    M_skew = sd.from_callable(lambda t: np.linalg.inv(S) @ J_of(t), grid)
    d_skew = sd.flow_defect(
        sd.fundamental_solution(M_skew, grid),
        FlowCertificate("indefinite_orthogonal", S),
    )
    assert d_skew <= 1e-10

    exact = sla.expm((np.pi / 2) * J2)
    errs = []
    for n in (250, 500, 1000):
        g = sd.TimeGrid.uniform(0.0, np.pi / 2, n + 1)
        errs.append(np.linalg.norm(
            sd.fundamental_solution(sd.constant(J2), g).matrices[-1] - exact))
    ratios = [errs[k] / errs[k + 1] for k in range(2)]
    assert all(3.6 <= r <= 4.4 for r in ratios)
    _report(5, f"symplectic defect {d_self:.2e}, O(p,q) defect {d_skew:.2e}, "
               f"convergence ratios {ratios[0]:.3f}, {ratios[1]:.3f}")


# ---------------------------------------------------------------------------
def test_criterion_6_circuit_end_to_end():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 401)
    m = sd.build_circuit(1.0, 1.0, 1.0, interval=grid)
    u = sd.from_callable(lambda t: [[np.sin(t)]], grid, dfn=lambda t: [[np.cos(t)]])
    red = sd.semidefinite_skew_reduce(m.lossless_pair(), sd.mf_matmul(m.G, u), grid)
    traj = sd.integrate_reduced(red, red.dynamic_from_full(0.0, np.zeros(5)), grid)
    t = grid.points
    dev = max(
        np.abs(traj.states[:, 2]).max(),                    # V2 = 0
        np.abs(traj.states[:, 1] + np.sin(t)).max(),        # V1 = -sin t
        np.abs(traj.states[:, 4]).max(),                    # IR = 0
        np.abs(traj.states[:, 3] - np.cos(t)).max(),        # IG = cos t
    )
    assert dev <= 1e-6

    red0 = sd.semidefinite_skew_reduce(m.lossless_pair(), sd.zero(5, 1), grid)
    x2 = red0.dynamic_from_full(0.0, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    traj0 = sd.integrate_reduced(red0, x2, grid)
    drift = np.abs(traj0.states[:, 0] - 1.0).max()
    assert drift <= 1e-10
    _report(6, f"recovery of (V2, V1, IR, IG) within {dev:.2e}; "
               f"zero-input current drift {drift:.2e}")


# ---------------------------------------------------------------------------
def test_criterion_7_energy_laws():
    grid = sd.TimeGrid.uniform(0.0, 10.0, 2001)
    mb = sd.build_multibody(np.eye(2), np.eye(2), [[1.0, 0.0]], interval=grid)
    red = sd.semidefinite_skew_reduce(mb.skew_pair, sd.zero(5, 1), grid)
    x2 = red.dynamic_from_full(0.0, np.array([0.3, 1.0, 0.0, 0.4, 0.0]))
    traj = sd.integrate_reduced(red, x2, grid)
    H = traj.hamiltonian
    drift = np.abs(H - H[0]).max() / (1.0 + abs(H[0]))
    assert drift <= 1e-10

    g50 = sd.TimeGrid.uniform(0.0, 50.0, 2001)
    lossy = sd.build_circuit(1.0, 1.0, 1.0, RL=1.0, RG=1.0, RR=1.0, interval=g50)
    x0 = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
    ltraj, _ = sd.simulate_phdae(lossy, None, x0, g50)
    rep = sd.dissipation_monitor(lossy, ltraj)
    assert rep.checked and rep.nonincreasing
    assert np.all(np.diff(rep.hamiltonian) <= 1e-8 * (1 + np.abs(rep.hamiltonian[:-1])))
    assert rep.hamiltonian[-1] <= 0.01 * rep.hamiltonian[0]
    _report(7, f"lossless energy drift {drift:.2e}; lossy circuit decays "
               f"monotonically to H(50)/H(0) = {rep.hamiltonian[-1] / rep.hamiltonian[0]:.2e}")


# ---------------------------------------------------------------------------
def test_criterion_8_index_bound_metadata():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 51)
    worst = 0
    for seed in range(100):
        index2 = seed % 2 == 1
        pair, w = seeded_semidefinite_skew_pair(seed, grid, index2=index2)
        n = pair.n
        f = sd.from_callable(
            lambda t, w=w: (w * np.sin(t))[:, None], grid,
            dfn=lambda t, w=w: (w * np.cos(t))[:, None],
        )
        red = sd.semidefinite_skew_reduce(pair, f, grid)
        assert red.max_f_derivative < 2
        worst = max(worst, red.max_f_derivative)
    _report(8, f"100 seeded reductions: recovery derivative order <= {worst} (< 2)")


# ---------------------------------------------------------------------------
def test_criterion_9_oracle_equivalence():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 8001)

    pair, _ = seeded_semidefinite_skew_pair(11, grid)

    def fvec(t):
        return np.array([np.sin(t), np.cos(2 * t), 0.3, t, 0.1 * np.sin(3 * t), 0.0])

    f = sd.from_callable(lambda t: fvec(t)[:, None], grid)
    red = sd.semidefinite_skew_reduce(pair, f, grid)
    traj = sd.integrate_reduced(red, np.zeros(red.dynamic_dim), grid)
    oracle = solve_index1_dae(pair.E.value, lambda t: pair.A.value, fvec, grid.points)
    dev_skew = np.abs(traj.states - oracle).max()
    assert dev_skew <= 1e-6

    s = sd.build_stokes(5, 2, seed=3, interval=grid)

    def Jnp(t):
        return np.sin(t) * s.A_S

    def fnp(t):
        return np.array([np.cos(2 * t), 0.1, np.sin(t), 0.0, 0.2 * t])

    Jfun = sd.from_callable(Jnp, grid, dfn=lambda t: np.cos(t) * s.A_S)
    ffun = sd.from_callable(lambda t: fnp(t)[:, None], grid)
    sred = sd.stokes_reduce(s.M, s.B, Jfun, ffun, grid)
    straj = sd.integrate_reduced(sred, np.zeros(sred.dynamic_dim), grid)
    soracle = solve_stokes_dae(s.M, s.B, Jnp, fnp, grid.points)
    dev_stokes = np.abs(straj.states - soracle).max()
    assert dev_stokes <= 1e-6
    _report(9, f"max deviation vs dense oracles: skew 6x6 {dev_skew:.2e}, "
               f"saddle point {dev_stokes:.2e}")
