"""Independent reference computations used to freeze expected test values.

These deliberately avoid the library's own congruence/reduction machinery:
dense ODE integration after manual elimination, projection formulas, and
closed-form solutions.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import qz


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def solve_index1_dae(E, A, f, grid, x_dyn0=None):
    """Dense solve of E xdot = A x + f(t) with constant E >= 0 (index 1).

    Eliminates the kernel of E by hand (eigenbasis + algebraic solve) and
    integrates the remaining ODE with a high-order adaptive method.
    Returns full states on the grid.
    """
    E = np.asarray(E, dtype=float)
    lam, V = np.linalg.eigh(E)
    keep = np.abs(lam) > 1e-10 * np.abs(lam).max()
    ran, ker = V[:, keep], V[:, ~keep]
    Err = ran.T @ E @ ran

    def alg(t, y):
        Akk = ker.T @ A(t) @ ker
        return -np.linalg.solve(Akk, ker.T @ A(t) @ ran @ y + ker.T @ f(t))

    def rhs(t, y):
        x = ran @ y + ker @ alg(t, y)
        return np.linalg.solve(Err, ran.T @ (A(t) @ x + f(t)))

    y0 = np.zeros(int(keep.sum())) if x_dyn0 is None else np.asarray(x_dyn0)
    sol = solve_ivp(rhs, (grid[0], grid[-1]), y0, t_eval=grid,
                    rtol=1e-11, atol=1e-12)
    out = np.empty((len(grid), E.shape[0]))
    for k, t in enumerate(grid):
        y = sol.y[:, k]
        out[k] = ran @ y + ker @ alg(t, y)
    return out


def solve_constant_index1_dae(E, A, g, ts, y0):
    """Dense solve of E xdot = A x + g with constant E >= 0 (index 1), A
    and g, at the times ts.

    Eliminates the kernel of E by hand (eigenbasis + algebraic solve) and
    integrates the remaining ODE by DOP853 at rtol = atol = 1e-13, from y0
    in E's eigenbasis of its range.  Returns full states (K, n).
    """
    lam, V = np.linalg.eigh(np.asarray(E, dtype=float))
    keep = np.abs(lam) > 1e-10 * np.abs(lam).max()
    ran, ker = V[:, keep], V[:, ~keep]
    # x = lift y + off, the algebraic rows ker^T (A x + g) = 0 solved for ker^T x
    Akk = ker.T @ A @ ker
    lift = ran - ker @ np.linalg.solve(Akk, ker.T @ A @ ran)
    off = -ker @ np.linalg.solve(Akk, ker.T @ g)
    Err = ran.T @ E @ ran
    M = np.linalg.solve(Err, ran.T @ A @ lift)
    c = np.linalg.solve(Err, ran.T @ (A @ off + g))
    sol = solve_ivp(lambda t, y: M @ y + c, (ts[0], ts[-1]), np.asarray(y0, dtype=float),
                    method="DOP853", t_eval=ts, rtol=1e-13, atol=1e-13)
    return sol.y.T @ lift.T + off


def reduction_error(red, grid, z):
    """The reduction's own error against reference full states z (K, n) on
    the grid: the core x2dot = M x2 + g, read through `_eval_at` at the
    solver's times, integrated by DOP853 at rtol = atol = 1e-13 from the
    dynamic coordinates of z[0], recovered at the nodes by `reconstruct_on`;
    returns max|x - z| / max|z|.

    The core's coefficients are cubics between the nodes, whose third
    derivative jumps at each node, so the integration restarts at every
    node: one run across the kinks misjudges its own error (on an n = 8
    tv-index1 pair it stalled near 2e-10 from K = 51 to 101)."""
    ts = grid.points

    def rhs(t, y):
        at = np.array([t])
        return red.m_fun._eval_at(at)[0] @ y + red.g_fun._eval_at(at)[0, :, 0]

    y = [red.dynamic_from_full(ts[0], z[0])]
    for a, b in zip(ts[:-1], ts[1:]):
        y.append(solve_ivp(rhs, (a, b), y[-1], method="DOP853",
                           rtol=1e-13, atol=1e-13).y[:, -1])
    x = red.reconstruct_on(grid, np.array(y))
    return float(np.abs(x - z).max() / np.abs(z).max())


def solve_stokes_dae(M, B, Jfun, ffun, grid, v0=None):
    """Dense solve of the saddle-point system by pressure projection.

    The pressure follows from the differentiated constraint B^T vdot = 0;
    the velocity ODE is integrated adaptively on the constraint manifold.
    """
    M = np.asarray(M, dtype=float)
    B = np.asarray(B, dtype=float)
    Minv = np.linalg.inv(M)
    S = B.T @ Minv @ B

    def pressure(t, v):
        return np.linalg.solve(S, B.T @ Minv @ (Jfun(t) @ v + ffun(t)))

    def rhs(t, v):
        return Minv @ (Jfun(t) @ v - B @ pressure(t, v) + ffun(t))

    v0 = np.zeros(M.shape[0]) if v0 is None else np.asarray(v0)
    sol = solve_ivp(rhs, (grid[0], grid[-1]), v0, t_eval=grid,
                    rtol=1e-11, atol=1e-12)
    out = np.empty((len(grid), M.shape[0] + B.shape[1]))
    for k, t in enumerate(grid):
        v = sol.y[:, k]
        out[k] = np.concatenate([v, pressure(t, v)])
    return out


def brute_force_dimension(pair):
    """Count of the finite eigenvalues of a constant pencil on its unsorted
    complex QZ form: |beta| above 1e-10 * (1 + max |alpha|)."""
    AA, BB, *_ = qz(pair.A.value, pair.E.value, output="complex")
    alpha, beta = np.diag(AA), np.diag(BB)
    return int(np.sum(np.abs(beta) > 1e-10 * (1.0 + np.abs(alpha).max(initial=0.0))))


def multibody_solution_dims(n_q, n_constraints):
    """Solution-space dimensions by constraint elimination.

    Positions and momenta both live in the constraint kernel for the
    self-adjoint form (2 (n - m)); the skew-adjoint form only constrains
    the momenta, leaving the constrained positions as free constants
    (2 n - m).
    """
    return 2 * (n_q - n_constraints), 2 * n_q - n_constraints


def seeded_multibody(seed, nq=20, nc=5, K=101):
    """(model, grid) of the seeded multibody benchmark inputs: diagonal M
    from U[0.5, 2], diagonal W from U[0.25, 1], nc constrained coordinates,
    K points on [0, 10]."""
    import structdae as sd

    rng = np.random.default_rng(seed)
    M = np.diag(rng.uniform(0.5, 2.0, nq))
    W = np.diag(rng.uniform(0.25, 1.0, nq))
    G = np.eye(nq)[np.sort(rng.choice(nq, nc, replace=False))]
    grid = sd.TimeGrid.uniform(0.0, 10.0, K)
    return sd.build_multibody(M, W, G, interval=grid), grid


def random_self_adjoint_poly_pair(rng, n, deg, interval):
    """Exactly self-adjoint polynomial pair: E skew, A = S - Edot/2."""
    import structdae as sd

    scales = (0.5 ** np.arange(deg + 1))[:, None, None]
    Ec = rng.standard_normal((deg + 1, n, n)) * scales
    E = sd.poly(Ec - Ec.transpose(0, 2, 1))
    Sc = rng.standard_normal((deg + 1, n, n)) * scales
    S = sd.poly(Sc + Sc.transpose(0, 2, 1))
    A = sd.mf_add(S, sd.mf_scale(sd.mf_derivative_function(E), -0.5))
    return sd.MatrixPair(E, A, interval)


def random_skew_adjoint_poly_pair(rng, n, deg, interval):
    """Exactly skew-adjoint polynomial pair: E symmetric, A = K - Edot/2."""
    import structdae as sd

    scales = (0.5 ** np.arange(deg + 1))[:, None, None]
    Ec = rng.standard_normal((deg + 1, n, n)) * scales
    E = sd.poly(Ec + Ec.transpose(0, 2, 1))
    Kc = rng.standard_normal((deg + 1, n, n)) * scales
    K = sd.poly(Kc - Kc.transpose(0, 2, 1))
    A = sd.mf_add(K, sd.mf_scale(sd.mf_derivative_function(E), -0.5))
    return sd.MatrixPair(E, A, interval)


def random_poly_congruence(rng, n, deg):
    """Q = I + small polynomial perturbation, nonsingular on [0, 1]."""
    import structdae as sd

    coeffs = rng.standard_normal((deg + 1, n, n))
    coeffs *= 0.4 / sum(np.linalg.norm(c, 2) for c in coeffs)
    coeffs[0] += np.eye(n)
    Q = sd.poly(coeffs)
    return sd.CongruenceTransform.from_function(Q)


def overflowing_poly_pair():
    """A constant self-adjoint pair moved by the polynomial congruence
    I + 0.1 t ones + 0.1 t^2 I on [0, 1e308]: finite coefficients whose
    values overflow at every grid node after t = 0."""
    import structdae as sd

    grid = sd.TimeGrid.uniform(0.0, 1e308, 2)
    pair = sd.MatrixPair(sd.constant([[0.0, 1.0], [-1.0, 0.0]]), sd.constant(np.diag([1.0, 2.0])),
                         grid)
    Q = sd.poly([np.eye(2), 0.1 * np.ones((2, 2)), 0.1 * np.eye(2)])
    return sd.apply_congruence(pair, sd.CongruenceTransform.from_function(Q))


def feedthrough_circuits(interval):
    """The lossy demo circuit with feedthrough P = 0.5 e_4; the same circuit
    with G - P in place of G and P = 0, which must move alike; and the
    circuit without P."""
    import dataclasses

    import structdae as sd

    m = sd.build_circuit(1.0, 1.5, 0.7, RL=0.3, RG=0.2, RR=0.5, interval=interval)
    P = sd.constant(0.5 * np.eye(5)[:, 3:4])
    return (dataclasses.replace(m, P=P),
            dataclasses.replace(m, G=sd.mf_sub(m.G, P), P=sd.zero(5, 1)), m)


def seeded_semidefinite_skew_pair(seed, interval, index2=False):
    """Seeded skew-adjoint pair with singular psd E (plus inhomogeneity)."""
    import structdae as sd

    rng = np.random.default_rng(seed)
    if not index2:
        n, r = 6, 4
        Bm = rng.standard_normal((r, r))
        E = np.zeros((n, n))
        E[:r, :r] = Bm @ Bm.T
        S0 = rng.standard_normal((n, n))
        A = 0.5 * (S0 - S0.T)
        c = 0.5 + rng.random()
        A[r:, r:] = np.array([[0.0, c], [-c, 0.0]])
    else:
        # circuit-shaped index-2 pair with randomized positive parameters
        L, C1, C2 = 0.5 + rng.random(3)
        E = np.diag([L, C1, C2, 0.0, 0.0])
        A = np.array(
            [
                [0.0, 0.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, -1.0, 0.0],
                [1.0, 0.0, 0.0, 0.0, -1.0],
                [0.0, 1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0],
            ]
        )
        n = 5
    w = rng.standard_normal(n)
    pair = sd.MatrixPair(sd.constant(E), sd.constant(A), interval)
    return pair, w


# ---------------------------------------------------------------------------
# sequential smooth factorizations: one decomposition and one Procrustes
# rotation per grid point and block, in the order of a sweep along t
# ---------------------------------------------------------------------------

def _procrustes(block, ref):
    if block.shape[1] == 0:
        return block
    u, _, vt = np.linalg.svd(block.T @ ref)
    return block @ (u @ vt)


def _point_rank(s, gap_tol):
    from structdae.errors import IllPosedRankError

    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return 0
    thresh = gap_tol * smax
    r = int(np.sum(s > thresh))
    if 0 < r < s.size:
        if s[r - 1] < 10.0 * max(s[r], thresh / 10.0) and s[r] > thresh / 10.0:
            raise IllPosedRankError(
                f"singular values {s[r - 1]:.3e} and {s[r]:.3e} do not separate "
                f"cleanly at gap tolerance {gap_tol:.1e}"
            )
    return r


def sequential_aligned(F, grid, decompose, changed):
    """Per-point decompositions, each block rotated onto the previous point's
    aligned block; returns (factors as (K, ., .) samples, rank).  A failure
    at a point (its own checks, or a rank change from the previous point)
    carries that point's time as .t."""
    from structdae.errors import StructDaeError

    vals = F.eval_on(grid)
    ts = grid.points
    for k, t in enumerate(ts):
        try:
            factors, rk = decompose(vals[k], t)
            if k and rk != r:
                changed(r, rk, ts[k - 1], t)
        except StructDaeError as error:
            error.t = float(t)
            raise
        if k == 0:
            r = rk
            out = [np.empty((len(ts), *f.shape)) for f in factors]
        else:
            factors = [
                np.hstack([_procrustes(f[:, :r], prev[k - 1, :, :r]),
                           _procrustes(f[:, r:], prev[k - 1, :, r:])])
                for f, prev in zip(factors, out)
            ]
        for f, samples in zip(factors, out):
            samples[k] = f
    return out, r


def sequential_rank_split(F, grid, gap_tol=1e-8):
    """(U, V) samples and rank of rank_split, point by point."""
    from structdae.errors import RankDropError

    def decompose(value, t):
        u, s, vt = np.linalg.svd(value)
        return (u, vt.T), _point_rank(s, gap_tol)

    def changed(r, rk, t_prev, t):
        raise RankDropError(
            f"rank changed from {r} at t={t_prev} to {rk} at t={t}",
            t_first=float(t_prev), t_second=float(t),
        )

    return sequential_aligned(F, grid, decompose, changed)


def sequential_sym_rank_split(E, grid, gap_tol=1e-8, kernel_tol=1e-8):
    """(Q,) samples and rank of sym_rank_split, point by point: a symmetric
    E (to 1e-12 of its norm) by eigh with the eigenpairs ordered by |lambda|
    descending, any other by SVD and the kernel test."""
    from structdae.errors import RankDropError, StructureError

    vals = E.eval_on(grid)
    defect = max(np.linalg.norm(v - v.T) for v in vals)
    symmetric = defect <= 1e-12 * max(np.linalg.norm(v) for v in vals)

    def decompose(value, t):
        if symmetric:
            lam, vec = np.linalg.eigh(value)
            order = np.argsort(-np.abs(lam), kind="stable")
            return (vec[:, order],), _point_rank(np.abs(lam[order]), gap_tol)
        u, s, vt = np.linalg.svd(value)
        rk = _point_rank(s, gap_tol)
        if rk < vt.shape[0]:
            right, left = vt.T[:, rk:], u[:, rk:]
            defect = float(np.linalg.norm(right @ right.T - left @ left.T, 2))
            if defect > kernel_tol:
                raise StructureError(
                    f"kernel condition ker(E^T) = ker(E) fails at t={t} "
                    f"(projector distance {defect:.3e})"
                )
        return (vt.T,), rk

    def changed(r, rk, t_prev, t):
        raise RankDropError(
            f"rank changed from {r} at t={t_prev} to {rk} at t={t}",
            t_first=float(t_prev), t_second=float(t),
        )

    return sequential_aligned(E, grid, decompose, changed)


def sequential_smooth_inertia(D, grid, sym_tol=1e-12, near_zero_rel=1e-12):
    """(W,) samples and p of smooth_inertia, point by point: the orthonormal
    eigenvectors V aligned by the sweep, and each sign block's rotation
    G_b = V_b^T V~_b carried to the scaled columns, W_b = V_b |lam_b|^-1/2 G_b."""
    from structdae.errors import ConditioningError, InertiaChangeError, StructureError

    n = D.rows
    scales = []

    def decompose(Dk, t):
        scale = max(1.0, float(np.linalg.norm(Dk)))
        if np.linalg.norm(Dk - Dk.T) > sym_tol * scale:
            raise StructureError(f"matrix is not symmetric at t={t}")
        lam, vec = np.linalg.eigh(0.5 * (Dk + Dk.T))
        if np.min(np.abs(lam)) <= near_zero_rel * np.max(np.abs(lam)):
            raise ConditioningError(
                f"eigenvalue too close to zero at t={t}; inertia is ill-posed"
            )
        qk = n - int(np.sum(lam > 0))
        # positives ascending, then negatives descending
        order = np.r_[qk:n, qk - 1:-1:-1]
        scales.append((vec[:, order], np.sqrt(np.abs(lam[order]))))
        return (vec[:, order],), n - qk

    def changed(p, pk, t_prev, t):
        raise InertiaChangeError(
            f"inertia changed from ({p}, {n - p}) at t={t_prev} to ({pk}, {n - pk}) at t={t}"
        )

    (V,), p = sequential_aligned(D, grid, decompose, changed)
    W = np.empty_like(V)
    for k, (Vk, root) in enumerate(scales):
        for b in (slice(None, p), slice(p, None)):
            W[k][:, b] = (Vk[:, b] / root[b]) @ (Vk[:, b].T @ V[k][:, b])
    return (W,), p


def sequential_kernel_frame(B, grid):
    """Kernel frame of B by a sweep along t: each point's SVD kernel basis
    rotated onto the previous point's frame, and Ndot = -pinv(B) Bdot N."""
    Bv = B.eval_on(grid)
    p, n = B.shape
    N = np.empty((grid.n, n, n - p))
    for k in range(grid.n):
        basis = np.linalg.svd(Bv[k])[2].T[:, p:]
        N[k] = basis if k == 0 else _procrustes(basis, N[k - 1])
    return N, -np.linalg.pinv(Bv) @ B.derivative_on(grid) @ N


def sequential_recurrence(C, d, x0):
    """States x_0 = x0, x_{k+1} = C_k x_k + d_k, one step at a time (x0 may
    be a matrix, and d a stack of matching matrices)."""
    x = [np.asarray(x0, dtype=float)]
    for Ck, dk in zip(C, d):
        x.append(Ck @ x[-1] + dk)
    return np.stack(x)
