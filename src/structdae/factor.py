"""Discrete realizations of smooth matrix factorizations on a grid.

Pointwise factorizations (SVD, symmetric eigendecomposition, QR) are glued
into continuous families by aligning each grid point's bases to the previous
point with an orthogonal Procrustes rotation per invariant block.  The gauge
freedom inside a block (range space, kernel, positive/negative eigenspace)
is exactly an orthogonal group, so the alignment never violates the defining
block relations; it only removes arbitrary per-point rotations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matfun as mf
from . import structure as st
from .errors import (
    ConditioningError,
    IllPosedRankError,
    InertiaChangeError,
    RankDropError,
    StructureError,
)
from .structure import _bT, _maxnorm

DEFAULT_GAP_TOL = 1e-8


@dataclass(frozen=True)
class RankSplit:
    """U^T F V = [[Sigma, 0], [0, 0]] with pointwise orthogonal U, V."""

    U: mf.MatrixFunction
    V: mf.MatrixFunction
    Sigma: mf.MatrixFunction
    r: int
    grid: mf.TimeGrid


@dataclass(frozen=True)
class SymRankSplit:
    """Q^T E Q = [[Sigma, 0], [0, 0]] with a single orthogonal Q."""

    Q: mf.MatrixFunction
    Sigma: mf.MatrixFunction
    r: int
    grid: mf.TimeGrid


@dataclass(frozen=True)
class InertiaSplit:
    """W^T D W = diag(I_p, -I_q) with pointwise nonsingular W."""

    W: mf.MatrixFunction
    p: int
    q: int
    grid: mf.TimeGrid


@dataclass(frozen=True)
class RowRankNormalization:
    """U^T B = [B1; 0] with orthogonal U and square nonsingular B1."""

    U: mf.MatrixFunction
    B1: mf.MatrixFunction
    grid: mf.TimeGrid


def procrustes_align(block, ref):
    """Orthogonal G minimizing ||block @ G - ref||_F; returns block @ G."""
    if block.shape[1] == 0:
        return block
    u, _, vt = np.linalg.svd(block.T @ ref)
    return block @ (u @ vt)


def _numerical_rank(s, gap_tol, scale=None):
    """Count of the descending singular values s above gap_tol * scale (scale
    defaults to s[0]); raises IllPosedRankError on a near-tie at the cut."""
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return 0
    thresh = gap_tol * (smax if scale is None else scale)
    r = int(np.sum(s > thresh))
    if 0 < r < s.size:
        # require an actual gap around the threshold, not a near-tie
        if s[r - 1] < 10.0 * max(s[r], thresh / 10.0) and s[r] > thresh / 10.0:
            raise IllPosedRankError(
                f"singular values {s[r - 1]:.3e} and {s[r]:.3e} do not separate "
                f"cleanly at gap tolerance {gap_tol:.1e}"
            )
    return r


def _aligned(F, grid, decompose, changed):
    """Pointwise factorizations of F glued into continuous families.

    decompose(value, t) returns (factors, r): orthogonal-gauge factors whose
    leading r columns and trailing columns are each fixed only up to an
    orthogonal rotation; it raises when the point itself is ill-posed.  Each
    point's blocks are rotated onto the previous point's (block Procrustes).
    changed(r, rk, t_prev, t) raises when r moves between neighbours.  A
    constant F is decomposed once.  Returns (values, factors, r), the values
    and factors as (K, ., .) samples, or as single matrices for constant F.
    """
    if isinstance(F, mf.ConstantMatrixFunction):
        factors, r = decompose(F.value, grid.points[0])
        return F.value, factors, r
    vals = F.eval_on(grid)
    ts = grid.points
    for k, t in enumerate(ts):
        factors, rk = decompose(vals[k], t)
        if k == 0:
            r = rk
            out = [np.empty((len(ts), *f.shape)) for f in factors]
        else:
            if rk != r:
                changed(r, rk, ts[k - 1], t)
            factors = [
                np.hstack([procrustes_align(f[:, :r], prev[k - 1, :, :r]),
                           procrustes_align(f[:, r:], prev[k - 1, :, r:])])
                for f, prev in zip(factors, out)
            ]
        for f, samples in zip(factors, out):
            samples[k] = f
    return vals, out, r


def _family(grid, values):
    """Matrix function of the factor values returned by _aligned."""
    if values.ndim == 2:
        return mf.constant(values)
    return mf.SampledMatrixFunction(grid, values, order=3)


def rank_split(F, grid, gap_tol=DEFAULT_GAP_TOL):
    """Constant-rank orthogonal splitting of F(t) with continuity alignment."""

    def decompose(value, t):
        u, s, vt = np.linalg.svd(value)
        return (u, vt.T), _numerical_rank(s, gap_tol)

    def changed(r, rk, t_prev, t):
        raise RankDropError(
            f"rank changed from {r} at t={t_prev} to {rk} at t={t}",
            t_first=float(t_prev),
            t_second=float(t),
        )

    vals, (U, V), r = _aligned(F, grid, decompose, changed)
    Sig = _bT(U[..., :r]) @ vals @ V[..., :r]
    return RankSplit(_family(grid, U), _family(grid, V), _family(grid, Sig), int(r), grid)


def _kernel_defect(u, vt, r):
    """Largest principal-angle sine between ker(E) and ker(E^T), from E's SVD."""
    if r == vt.shape[0]:
        return 0.0
    right = vt.T[:, r:]
    left = u[:, r:]
    # 2-norm distance of the two orthogonal projectors
    return float(np.linalg.norm(right @ right.T - left @ left.T, 2))


def sym_rank_split(E, grid, gap_tol=DEFAULT_GAP_TOL, kernel_tol=1e-8):
    """One-sided splitting for E with ker E^T = ker E (holds for E = +-E^T)."""
    if E.rows != E.cols:
        raise StructureError("sym_rank_split needs a square matrix function")

    def decompose(value, t):
        u, s, vt = np.linalg.svd(value)
        rk = _numerical_rank(s, gap_tol)
        defect = _kernel_defect(u, vt, rk)
        if defect > kernel_tol:
            raise StructureError(
                f"kernel condition ker(E^T) = ker(E) fails at t={t} "
                f"(projector distance {defect:.3e})"
            )
        return (vt.T,), rk

    def changed(r, rk, t_prev, t):
        raise RankDropError(
            f"rank changed from {r} to {rk} at t={t}",
            t_first=float(t_prev),
            t_second=float(t),
        )

    vals, (Q,), r = _aligned(E, grid, decompose, changed)
    Sig = _bT(Q[..., :r]) @ vals @ Q[..., :r]
    return SymRankSplit(_family(grid, Q), _family(grid, Sig), int(r), grid)


def smooth_inertia(D, grid, sym_tol=1e-12, near_zero_rel=1e-12):
    """Congruence W(t) with W^T D W = diag(I_p, -I_q), constant signature."""
    n = D.rows

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
        # eigh sorts ascending: negatives first; reorder positives first and
        # scale so the congruence lands exactly on diag(I_p, -I_q); the
        # residual gauge group of each sign block is orthogonal, so the
        # block alignment preserves W^T D W exactly
        pos = vec[:, qk:] / np.sqrt(lam[qk:])
        neg = vec[:, :qk][:, ::-1] / np.sqrt(-lam[:qk][::-1])
        return (np.hstack([pos, neg]),), n - qk

    def changed(p, pk, t_prev, t):
        raise InertiaChangeError(
            f"inertia changed from ({p}, {n - p}) at t={t_prev} to ({pk}, {n - pk}) at t={t}"
        )

    _, (W,), p = _aligned(D, grid, decompose, changed)
    return InertiaSplit(_family(grid, W), int(p), int(n - p), grid)


def row_rank_normalize(B, grid, gap_tol=DEFAULT_GAP_TOL):
    """Orthogonal U with U^T B = [B1; 0], B1 square nonsingular."""
    m, n = B.shape
    if m < n:
        raise StructureError("full column rank needs at least as many rows as columns")

    def decompose(value, t):
        u, s, _ = np.linalg.svd(value)
        rk = _numerical_rank(s, gap_tol)
        if rk < n:
            raise RankDropError(
                f"column-rank deficiency at t={t} (rank {rk} < {n})",
                t_first=float(t),
            )
        return (u,), n

    vals, (U,), _ = _aligned(B, grid, decompose, None)
    B1 = _bT(U[..., :n]) @ vals
    return RowRankNormalization(_family(grid, U), _family(grid, B1), grid)


def max_jump(values):
    """Largest Frobenius jump between consecutive sample matrices."""
    return _maxnorm(np.diff(values, axis=0))


# ---------------------------------------------------------------------------
# smooth kernel frame with consistent derivative samples
# ---------------------------------------------------------------------------

def smooth_kernel_frame(B, grid):
    """Orthonormal N(t) spanning ker B(t) with derivative samples.

    B must have full row rank pointwise; N is propagated along the grid by
    the minimal-rotation law  Ndot = -B^+ Bdot N  (classic RK4 with an exact
    re-projection onto the kernel after every step), which keeps the frame
    orthonormal and gives derivative samples consistent with the values to
    the integrator's accuracy.

    Returns (N_values, Ndot_values) of shape (len(grid), n, n - p).
    """
    p, n = B.rows, B.cols
    a = n - p
    K = grid.n

    def project(P, Bv, N):
        if p:
            N = N - P @ (Bv @ N)
        qn, rn = np.linalg.qr(N)
        return qn * np.sign(np.diag(rn))

    Ns = np.empty((K, n, a))
    Nds = np.empty((K, n, a))
    if a == 0:
        return Ns, Nds

    # B, Bdot and the pseudo-inverse B^+ = B^T (B B^T)^-1 at every stage
    # point: the nodes t, then t + h/2 and t + h of each step
    ts = grid.points
    h = ts[1:] - ts[:-1]
    stage_ts = np.concatenate([ts, ts[:-1] + 0.5 * h, ts[:-1] + h])
    Bs = B._eval_at(stage_ts)
    BBt = Bs @ _bT(Bs)
    st._require_nonsingular(BBt, stage_ts, 1e-14, ConditioningError,
                            "row-rank-deficient matrix in kernel continuation")
    Ps = _bT(Bs) @ np.linalg.solve(BBt, np.eye(p))
    Bn, Bh, Bf = np.split(Bs, [K, 2 * K - 1])
    Pn, Ph, Pf = np.split(Ps, [K, 2 * K - 1])
    Bdn, Bdh, Bdf = np.split(B._derivative_at(stage_ts), [K, 2 * K - 1])

    _, _, vt = np.linalg.svd(Bn[0]) if p else (None, None, np.eye(n))
    N = vt.T[:, p:] if p else np.eye(n)

    def rhs(P, Bd, N):
        # P is the pseudo-inverse of B at the stage point of Bd
        return -P @ (Bd @ N) if p else np.zeros_like(N)

    for k in range(K):
        N = project(Pn[k], Bn[k], N)
        if k > 0:
            N = procrustes_align(N, Ns[k - 1])
        Ns[k] = N
        k1 = rhs(Pn[k], Bdn[k], N)
        Nds[k] = k1
        if k + 1 < K:
            k2 = rhs(Ph[k], Bdh[k], N + 0.5 * h[k] * k1)
            k3 = rhs(Ph[k], Bdh[k], N + 0.5 * h[k] * k2)
            k4 = rhs(Pf[k], Bdf[k], N + h[k] * k3)
            N = N + (h[k] / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return Ns, Nds
