"""Discrete realizations of smooth matrix factorizations on a grid.

Each factorization decomposes the whole (K, ., .) stack of grid samples in
one call (SVD, symmetric eigendecomposition) and checks every point at once;
errors come in the order of a sweep along t.  The pointwise factors are
glued into continuous families by one polar chain per invariant block:
G_0 = I, G_k = polar(B_k^T B_{k-1}) G_{k-1}, aligned block B_k G_k.  Since
polar(X G) = polar(X) G for orthogonal G, this is the orthogonal Procrustes
rotation of every point's block onto its aligned predecessor.  The chain
takes orthonormal frames: their overlaps have singular values in [0, 1],
where the matmul-only Newton-Schulz iteration finds the polar factor, and a
frame that turns so far between neighbours that the iteration does not
converge (a principal angle of about 60 degrees or more, or a singular
overlap) raises `ConditioningError`: the grid does not resolve the turn.
The gauge freedom inside a block (range space, kernel, positive/negative
eigenspace) is exactly an orthogonal group, so the alignment never violates
the defining block relations; it only removes arbitrary per-point
rotations.  A constant is one sample (`structure._samples`), decomposed
once by the same path.
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
from .structure import _bT, _frobenius, _maxnorm, _prefix_products, _sampled, _samples

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


# Newton-Schulz steps: enough to carry a singular value of 1/2 (neighbouring
# frames 60 degrees apart) to 1 at roundoff, 0.5 -> 0.69 -> 0.87 -> 0.975 ...
_POLAR_STEPS = 7


def _polar(X):
    """(Y, unconverged): the orthogonal polar factors of the stack X (K, w, w)
    of overlaps of orthonormal frames, whose singular values lie in [0, 1],
    and the mask of the samples whose factor is not found.

    Newton-Schulz, Y <- Y (3I - Y^T Y) / 2 (Higham, *Functions of Matrices*,
    ch. 8), over the whole stack: it maps every singular value s in
    (0, sqrt 3) to s (3 - s^2) / 2, quadratically towards 1, and keeps the
    singular vectors.  It stops once every sample has ||Y^T Y - I|| at
    roundoff, or after _POLAR_STEPS steps; a singular value near 0 never
    gets there."""
    w = X.shape[-1]
    # roundoff: a converged Y reads a few eps, whatever its size
    tol = 4 * w * np.finfo(float).eps
    Y = X
    for step in range(_POLAR_STEPS + 1):
        E = _bT(Y) @ Y
        diag = np.einsum("kii->ki", E)  # a view: E's diagonals in place
        diag -= 1.0
        if max(E.max(), -E.min()) <= tol:
            return Y, np.zeros(len(E), dtype=bool)
        if step == _POLAR_STEPS:
            return Y, ~(np.abs(E).max(axis=(-2, -1)) <= tol)
        # Y (3I - Y^T Y) / 2 = Y (I - E / 2)
        E *= -0.5
        diag += 1.0
        Y = Y @ E


def _chain(B, ts, C=None):
    """C_k G_k for the orthonormal frames B (K, m, w) at the times ts, with
    G_0 = I and G_k = polar(B_k^T B_{k-1}) G_{k-1}: by default (C = B) each
    frame Procrustes-aligned to its aligned predecessor; other columns C
    (K, ., w) take the same rotations.  An overlap whose polar factor is not
    found raises `ConditioningError` naming its two times."""
    K, _, w = B.shape
    C = B if C is None else C
    if w == 0 or K == 1:
        return C
    G, unconverged = _polar(_bT(B[1:]) @ B[:-1])
    if unconverged.any():
        k = int(np.flatnonzero(unconverged)[0])
        raise ConditioningError(
            f"the grid does not resolve the turn of a frame between t={ts[k]} and "
            f"t={ts[k + 1]}: the neighbours' overlap is singular or their principal "
            "angle is about 60 degrees or more; refine the grid",
            t=float(ts[k + 1]),
        )
    # re-orthogonalize, so the product's roundoff does not drift with K; the
    # products are orthogonal up to that drift, so one or two steps converge
    R, _ = _polar(_prefix_products(np.concatenate([np.eye(w)[None], G])))
    return C @ R


def _first(bad, error):
    """(k, error(k)) for the first point k flagged in bad, or None."""
    hits = np.flatnonzero(bad)
    return (int(hits[0]), error(int(hits[0]))) if hits.size else None


def _earliest(*failures):
    """The failure at the earliest point; at a tie, the one listed first."""
    found = [f for f in failures if f is not None]
    return min(found, key=lambda f: f[0]) if found else None


def _numerical_rank(s, gap_tol, scale):
    """Counts of the descending singular values in each row of s (K, m) above
    gap_tol * scale, and the failure (k, IllPosedRankError) of the first row
    with no clean gap at its cut.  scale is the norm of the matrix the block
    was cut from (a scalar or one per row): a block that vanishes in exact
    arithmetic then has rank 0, however its roundoff compares with itself.
    A whole matrix passes its own largest singular values."""
    K, m = s.shape
    if m == 0:
        return np.zeros(K, dtype=int), None
    thresh = np.broadcast_to(gap_tol * scale, (K,))
    ranks = np.sum(s > thresh[:, None], axis=1)
    # the values either side of the cut; past the ends, 0 above and the
    # threshold itself below, so that at rank 0 (m) the largest (smallest)
    # value must also clear the threshold by a factor 10
    rows = np.arange(K)
    above = np.where(ranks > 0, s[rows, np.maximum(ranks - 1, 0)], 0.0)
    below = np.where(ranks < m, s[rows, np.minimum(ranks, m - 1)], thresh)
    tie = (below > thresh / 10.0) & (above < 10.0 * below)
    return ranks, _first(tie, lambda k: IllPosedRankError(
        f"singular values {above[k]:.3e} and {below[k]:.3e} do not separate "
        f"cleanly at gap tolerance {gap_tol:.1e}"
    ))


def _rank(s, gap_tol, scale, t=None):
    """_numerical_rank of one descending singular-value vector s; an
    ill-posed gap raises, naming the time t of the matrix when given."""
    (r,), failure = _numerical_rank(s[None], gap_tol, scale)
    if failure:
        if t is not None:
            raise IllPosedRankError(f"at t={t}: {failure[1]}", t=t)
        raise failure[1]
    return int(r)


def _aligned(factors, ranks, failure, ts, changed, frames=None):
    """Pointwise factorizations glued into continuous families.

    factors are the stacked decompositions of (K, ., .) samples at the times
    ts, or of the one sample of a constant (`structure._samples`), decomposed
    once by the same path: orthogonal-gauge factors whose leading ranks[k]
    columns and trailing columns are each fixed only up to an orthogonal
    rotation.  ranks are the per-point ranks, and failure is (k, error) for
    the first point whose own checks fail (or None).  changed(r, rk, t_prev,
    t) builds the error for a rank that moves between neighbours.  The error
    raised is the one a sweep along t meets first, its .t set to its point's
    time (a change's later one); at one point its own checks come before a
    rank change, and both before an unresolved turn of the chain.  Returns
    (factors, r); each block is rotated by the polar chain of its
    orthonormal frame, which leaves a one-sample block as it is.  The frames
    are the factors themselves, or frames (one per factor, orthonormal
    columns in the same gauge) when the factors are not orthonormal.
    """
    failure = _earliest(failure, _first(ranks != ranks[0], lambda k: changed(
        int(ranks[0]), int(ranks[k]), ts[k - 1], ts[k])))
    if failure:
        failure[1].t = float(ts[failure[0]])
        raise failure[1]
    r = int(ranks[0])
    for f, g in zip(factors, frames or factors):
        for b in (slice(None, r), slice(r, None)):
            f[..., b] = _chain(g[..., b], ts, f[..., b])
    return factors, r


def _rank_changed(r, rk, t_prev, t):
    """The error of a splitting whose rank moves from r at t_prev to rk at t."""
    return RankDropError(
        f"rank changed from {r} at t={t_prev} to {rk} at t={t}",
        t_first=float(t_prev),
        t_second=float(t),
    )


def rank_split(F, grid, gap_tol=DEFAULT_GAP_TOL):
    """Constant-rank orthogonal splitting of F(t) with continuity alignment."""
    st._positive(gap_tol, "gap tolerance")
    vals = _samples(F, grid)
    u, s, vt = np.linalg.svd(vals)
    (U, V), r = _aligned([u, _bT(vt)], *_numerical_rank(s, gap_tol, s.max(axis=1, initial=0.0)),
                         grid.points, _rank_changed)
    Sig = _bT(U[..., :r]) @ vals @ V[..., :r]
    return RankSplit(_sampled(grid, U), _sampled(grid, V), _sampled(grid, Sig), r, grid)


def _kernel_defect(u, vt, ranks):
    """Largest principal-angle sine between ker(E) and ker(E^T) at each point,
    ||V_2^T U_1||_2 from E's stacked SVD: the 2-norm distance of the two
    kernel projectors, whose dimensions are equal."""
    n = vt.shape[-1]
    defect = np.zeros(len(ranks))
    for r in set(ranks.tolist()):
        if 0 < r < n:
            at = ranks == r
            defect[at] = np.linalg.svd(vt[at, r:] @ u[at, :, :r], compute_uv=False)[:, 0]
    return defect


def _eigh_split(vals, ts):
    """(Q, r, lam): the aligned orthogonal factor of the one-sided splitting
    of the symmetric samples vals (`structure._samples`) at the times ts,
    from one stacked eigh, and the eigenvalues (K, n) in Q's column order.
    The eigenpairs are ordered by |lambda| descending (a stable sort): the
    order and the magnitudes of the singular values."""
    lam, vec = np.linalg.eigh(vals)
    order = np.argsort(-np.abs(lam), axis=1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=1)
    vec = np.take_along_axis(vec, order[:, None, :], axis=2)
    mag = np.abs(lam)
    (Q,), r = _aligned([vec], *_numerical_rank(mag, DEFAULT_GAP_TOL, mag.max(axis=1, initial=0.0)),
                       ts, _rank_changed)
    return Q, r, lam


def sym_rank_split(E, grid):
    """One-sided splitting for E with ker E^T = ker E (holds for E = +-E^T):
    `_eigh_split` when E is symmetric (to 1e-12 of its norm), else (skew E)
    the SVD and the test of ker E^T = ker E."""
    if E.rows != E.cols:
        raise StructureError("sym_rank_split needs a square matrix function")
    vals = _samples(E, grid)
    if _maxnorm(vals - _bT(vals)) <= 1e-12 * _maxnorm(vals):
        Q, r, _ = _eigh_split(vals, grid.points)
    else:
        u, s, vt = np.linalg.svd(vals)
        ranks, ill = _numerical_rank(s, DEFAULT_GAP_TOL, s.max(axis=1, initial=0.0))
        defect = _kernel_defect(u, vt, ranks)
        del u
        kernel = _first(defect > 1e-8, lambda k: StructureError(
            f"kernel condition ker(E^T) = ker(E) fails at t={grid.points[k]} "
            f"(projector distance {defect[k]:.3e})"
        ))
        (Q,), r = _aligned([_bT(vt)], ranks, _earliest(ill, kernel), grid.points, _rank_changed)
    return SymRankSplit(_sampled(grid, Q), _sampled(grid, _bT(Q[..., :r]) @ vals @ Q[..., :r]),
                        r, grid)


def smooth_inertia(D, grid):
    """Congruence W(t) with W^T D W = diag(I_p, -I_q), constant signature:
    W = V |Lambda|^-1/2 G from the eigenpairs (Lambda, V) of D, positives
    first, where each sign block's rotation G_b aligns the orthonormal V_b
    by the polar chain."""
    (W,), p = _inertia(_samples(D, grid), grid.points)
    return InertiaSplit(_sampled(grid, W), p, D.rows - p, grid)


def _inertia(vals, ts):
    """([W], p) of `smooth_inertia` for the samples vals at the times ts."""
    n = vals.shape[-1]
    scale = _frobenius(vals)
    asym = _first(_frobenius(vals - _bT(vals)) > 1e-12 * scale,
                  lambda k: StructureError(f"matrix is not symmetric at t={ts[k]}"))
    lam, vec = np.linalg.eigh(0.5 * (vals + _bT(vals)))
    mag = np.abs(lam)
    flat = _first(mag.min(axis=1) <= 1e-12 * mag.max(axis=1),
                  lambda k: ConditioningError(
                      f"eigenvalue too close to zero at t={ts[k]}; inertia is ill-posed"))
    p = np.sum(lam > 0, axis=1)
    # eigh sorts ascending: negatives first; reorder positives first
    # (ascending) and negatives after (descending), and scale so the
    # congruence lands exactly on diag(I_p, -I_q); the residual gauge
    # group of each sign block is orthogonal, so the block alignment
    # preserves W^T D W exactly
    j = np.arange(n)
    order = np.where(j < p[:, None], (n - p)[:, None] + j, n - 1 - j)
    V = np.take_along_axis(vec, order[:, None, :], axis=2)
    # a zero eigenvalue divides by zero only at points `flat` reports
    with np.errstate(divide="ignore", invalid="ignore"):
        W = V / np.sqrt(np.take_along_axis(mag, order, axis=1))[:, None, :]

    def changed(p, pk, t_prev, t):
        return InertiaChangeError(
            f"inertia changed from ({p}, {n - p}) at t={t_prev} to ({pk}, {n - pk}) at t={t}"
        )

    # the chain runs on the orthonormal V, and each sign block's rotation
    # G_b carries over to W_b = V_b |Lambda_b|^-1/2 G_b, which is the
    # continuous V~_b |V~_b^T D V~_b|^-1/2 of the aligned V~_b = V_b G_b
    return _aligned([W], p, _earliest(asym, flat), ts, changed, frames=[V])


def max_jump(values):
    """Largest Frobenius jump between consecutive sample matrices."""
    return _maxnorm(np.diff(values, axis=0))


def _row_frame(Bv, Bd, ts, guard):
    """(V, Vdot) from one stacked SVD B = U S [V_r V_0]^T of the samples Bv
    (K, p, m), p <= m, at the times ts, with derivative samples Bd.

    V = [B^+ | N] with B V = [I_p 0]: B^+ = V_r S^-1 U^T, and N is V_0 glued
    by the polar chain.  Ndot = -B^+ Bdot N is the minimal rotation
    (N^T Ndot = 0), and d(B^+)/dt = -B^+ Bdot B^+ - N Ndot^T B^+, so that
    B Vdot = -Bdot V exactly.  guard(rel) is the caller's rank guard on
    rel = s_min / s_max at each sample; it runs before the chain, so a rank
    loss raises before the turn of N it causes.
    """
    p = Bv.shape[1]
    u, s, vt = np.linalg.svd(Bv)
    guard(st._ratio(s))
    Vr, N = _bT(vt[:, :p]), _chain(_bT(vt[:, p:]), ts)
    # a zero singular value divides by zero only where rel reads 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Bp = (Vr / s[:, None, :]) @ _bT(u)
        Nd = -Bp @ (Bd @ N)
        Vd = np.concatenate([-Bp @ (Bd @ Bp) - N @ (_bT(Nd) @ Bp), Nd], axis=2)
    return np.concatenate([Bp, N], axis=2), Vd
