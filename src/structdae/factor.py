"""Discrete realizations of smooth matrix factorizations on a grid.

Each factorization decomposes the whole (K, ., .) stack of grid samples in
one call (SVD, symmetric eigendecomposition) and checks every point at once;
errors come in the order of a sweep along t.  The pointwise factors are
glued into continuous families by one polar chain per invariant block:
G_0 = I, G_k = polar(B_k^T B_{k-1}) G_{k-1}, aligned block B_k G_k.  Since
polar(X G) = polar(X) G for orthogonal G, this is the orthogonal Procrustes
rotation of every point's block onto its aligned predecessor.  The gauge
freedom inside a block (range space, kernel, positive/negative eigenspace)
is exactly an orthogonal group, so the alignment never violates the defining
block relations; it only removes arbitrary per-point rotations.  A constant
is one sample (`structure._samples`), decomposed once by the same path.
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
from .structure import _bT, _maxnorm, _prefix_products, _sampled, _samples

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


def _polar(X):
    """Orthogonal polar factors U V^T of X = U S V^T, one (w, w) matrix or a
    stack of them, from one stacked SVD."""
    u, _, vt = np.linalg.svd(X)
    return u @ vt


def _chain(B):
    """Blocks B_k G_k of the stack B (K, m, w) with G_0 = I and
    G_k = polar(B_k^T B_{k-1}) G_{k-1}: each block Procrustes-aligned to its
    aligned predecessor."""
    K, _, w = B.shape
    if w == 0 or K == 1:
        return B
    G = np.concatenate([np.eye(w)[None], _polar(_bT(B[1:]) @ B[:-1])])
    # re-orthogonalize, so the product's roundoff does not drift with K
    return B @ _polar(_prefix_products(G))


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


def _rank(s, gap_tol, scale):
    """_numerical_rank of one descending singular-value vector s; an
    ill-posed gap raises."""
    (r,), failure = _numerical_rank(s[None], gap_tol, scale)
    if failure:
        raise failure[1]
    return int(r)


def _aligned(factors, ranks, failure, ts, changed):
    """Pointwise factorizations glued into continuous families.

    factors are the stacked decompositions of (K, ., .) samples at the times
    ts, or of the one sample of a constant (`structure._samples`), decomposed
    once by the same path: orthogonal-gauge factors whose leading ranks[k]
    columns and trailing columns are each fixed only up to an orthogonal
    rotation.  ranks are the per-point ranks, and failure is (k, error) for
    the first point whose own checks fail (or None).  changed(r, rk, t_prev,
    t) builds the error for a rank that moves between neighbours.  The error
    raised is the one a sweep along t meets first; at one point its own
    checks come before a rank change.  Returns (factors, r); each block is
    aligned by its polar chain, which leaves a one-sample block as it is.
    """
    failure = _earliest(failure, _first(ranks != ranks[0], lambda k: changed(
        int(ranks[0]), int(ranks[k]), ts[k - 1], ts[k])))
    if failure:
        raise failure[1]
    r = int(ranks[0])
    for f in factors:
        f[..., :r] = _chain(f[..., :r])
        f[..., r:] = _chain(f[..., r:])
    return factors, r


def rank_split(F, grid, gap_tol=DEFAULT_GAP_TOL):
    """Constant-rank orthogonal splitting of F(t) with continuity alignment."""
    st._positive(gap_tol, "gap tolerance")

    def changed(r, rk, t_prev, t):
        return RankDropError(
            f"rank changed from {r} at t={t_prev} to {rk} at t={t}",
            t_first=float(t_prev),
            t_second=float(t),
        )

    vals = _samples(F, grid)
    u, s, vt = np.linalg.svd(vals)
    (U, V), r = _aligned([u, _bT(vt)], *_numerical_rank(s, gap_tol, s.max(axis=1, initial=0.0)),
                         grid.points, changed)
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


def _sym_changed(r, rk, t_prev, t):
    """The error of a one-sided splitting whose rank moves from r to rk."""
    return RankDropError(
        f"rank changed from {r} to {rk} at t={t}",
        t_first=float(t_prev),
        t_second=float(t),
    )


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
                       ts, _sym_changed)
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
        (Q,), r = _aligned([_bT(vt)], ranks, _earliest(ill, kernel), grid.points, _sym_changed)
    return SymRankSplit(_sampled(grid, Q), _sampled(grid, _bT(Q[..., :r]) @ vals @ Q[..., :r]),
                        r, grid)


def smooth_inertia(D, grid):
    """Congruence W(t) with W^T D W = diag(I_p, -I_q), constant signature."""
    (W,), p = _inertia(_samples(D, grid), grid.points)
    return InertiaSplit(_sampled(grid, W), p, D.rows - p, grid)


def _inertia(vals, ts):
    """([W], p) of `smooth_inertia` for the samples vals at the times ts."""
    n = vals.shape[-1]
    scale = np.linalg.norm(vals, axis=(-2, -1))
    asym = _first(np.linalg.norm(vals - _bT(vals), axis=(-2, -1)) > 1e-12 * scale,
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
    # a zero eigenvalue divides by zero only at points `flat` reports
    with np.errstate(divide="ignore", invalid="ignore"):
        W = (np.take_along_axis(vec, order[:, None, :], axis=2)
             / np.sqrt(np.take_along_axis(mag, order, axis=1))[:, None, :])
    del vec

    def changed(p, pk, t_prev, t):
        return InertiaChangeError(
            f"inertia changed from ({p}, {n - p}) at t={t_prev} to ({pk}, {n - pk}) at t={t}"
        )

    return _aligned([W], p, _earliest(asym, flat), ts, changed)


def max_jump(values):
    """Largest Frobenius jump between consecutive sample matrices."""
    return _maxnorm(np.diff(values, axis=0))


def _row_frame(Bv, Bd):
    """(V, Vdot, rel) from one stacked SVD B = U S [V_r V_0]^T of the
    samples Bv (K, p, m), p <= m, with derivative samples Bd.

    V = [B^+ | N] with B V = [I_p 0]: B^+ = V_r S^-1 U^T, and N is V_0 glued
    by the polar chain.  Ndot = -B^+ Bdot N is the minimal rotation
    (N^T Ndot = 0), and d(B^+)/dt = -B^+ Bdot B^+ - N Ndot^T B^+, so that
    B Vdot = -Bdot V exactly.  rel is s_min / s_max at each sample.
    """
    p = Bv.shape[1]
    u, s, vt = np.linalg.svd(Bv)
    Vr, N = _bT(vt[:, :p]), _chain(_bT(vt[:, p:]))
    # a zero singular value divides by zero only where rel reads 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Bp = (Vr / s[:, None, :]) @ _bT(u)
        Nd = -Bp @ (Bd @ N)
        Vd = np.concatenate([-Bp @ (Bd @ Bp) - N @ (_bT(Nd) @ Bp), Nd], axis=2)
    return np.concatenate([Bp, N], axis=2), Vd, st._ratio(s)
