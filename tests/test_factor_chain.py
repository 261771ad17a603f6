"""The stacked factorizations against the sequential per-point sweep.

`tests/oracles.py` keeps the sweep that decomposes one grid point at a time
and rotates each block onto its predecessor with its own Procrustes SVD;
the library decomposes the whole grid at once and aligns it with a polar
chain.  Both must give the same factors, ranks and errors.
"""

import re

import numpy as np
import pytest
from scipy.linalg import expm

import structdae as sd
from structdae.errors import (
    ConditioningError,
    IllPosedRankError,
    InertiaChangeError,
    RankDropError,
    StructDaeError,
    StructureError,
)
from structdae.factor import _polar, _row_frame

from oracles import (
    sequential_kernel_frame,
    sequential_rank_split,
    sequential_smooth_inertia,
    sequential_sym_rank_split,
)

GRID = sd.TimeGrid.uniform(0.0, 2.0, 201)


def _poly(rng, m, n, deg=2):
    return sd.poly(rng.standard_normal((deg + 1, m, n)) * (0.7 ** np.arange(deg + 1))[:, None, None])


def _congruence(rng, n):
    coeffs = rng.standard_normal((3, n, n))
    coeffs *= 0.4 / sum(np.linalg.norm(c, 2) for c in coeffs)
    coeffs[0] += np.eye(n)
    return sd.poly(coeffs)


def _moved(C, core):
    """C(t)^T core C(t) for a constant core."""
    return sd.mf_matmul(sd.mf_transpose(C), sd.mf_matmul(sd.constant(core), C))


def _orthogonality_defect(U):
    return float(np.abs(np.swapaxes(U, 1, 2) @ U - np.eye(U.shape[-1])).max())


def _close(fun, samples):
    return float(np.abs(fun.eval_on(GRID) - samples).max())


def test_rank_split_rectangular_matches_sequential():
    rng = np.random.default_rng(31)
    F = sd.mf_matmul(_poly(rng, 6, 2), sd.mf_transpose(_poly(rng, 4, 2)))
    split = sd.rank_split(F, GRID)
    (U, V), r = sequential_rank_split(F, GRID)
    assert split.r == r == 2
    assert _close(split.U, U) <= 1e-12 and _close(split.V, V) <= 1e-12
    assert _orthogonality_defect(split.U.eval_on(GRID)) <= 1e-13
    assert _orthogonality_defect(split.V.eval_on(GRID)) <= 1e-13


@pytest.mark.parametrize("kind", ["symmetric", "indefinite", "skew"])
def test_sym_rank_split_matches_sequential(kind):
    rng = np.random.default_rng(32)
    core = np.zeros((6, 6))
    X = rng.standard_normal((4, 4))
    core[:4, :4] = {"symmetric": X + X.T, "skew": X - X.T,
                    # alternating signs: the |lambda| order interleaves them
                    "indefinite": np.diag([3.0, -2.0, 1.5, -1.4])}[kind]
    E = _moved(_congruence(rng, 6), core)
    split = sd.sym_rank_split(E, GRID)
    (Q,), r = sequential_sym_rank_split(E, GRID)
    assert split.r == r == 4
    assert _close(split.Q, Q) <= 1e-12
    assert _orthogonality_defect(split.Q.eval_on(GRID)) <= 1e-13


@pytest.mark.parametrize("p", [1, 3, 5])
def test_smooth_kernel_frame_matches_sequential(p):
    rng = np.random.default_rng(36)
    B = _poly(rng, p, 7)
    V, Vd = _row_frame(B.eval_on(GRID), B.derivative_on(GRID), GRID.points, lambda rel: None)
    N, Nd = V[..., p:], Vd[..., p:]
    N_ref, Nd_ref = sequential_kernel_frame(B, GRID)
    assert np.abs(N - N_ref).max() <= 1e-12
    assert np.abs(Nd - Nd_ref).max() <= 1e-12


def test_smooth_inertia_rotating_matches_sequential():
    rng = np.random.default_rng(33)
    S = rng.standard_normal((4, 4))
    S = S - S.T
    Lam = np.diag([3.0, 1.0, -2.0, -0.5])
    D = sd.from_callable(lambda t: expm(t * S).T @ Lam @ expm(t * S), GRID)
    split = sd.smooth_inertia(D, GRID)
    (W,), p = sequential_smooth_inertia(D, GRID)
    assert (split.p, split.q) == (p, 4 - p) == (2, 2)
    assert _close(split.W, W) <= 1e-12
    Wv = split.W.eval_on(GRID)
    residual = np.swapaxes(Wv, 1, 2) @ D.eval_on(GRID) @ Wv - np.diag([1.0, 1.0, -1.0, -1.0])
    assert np.abs(residual).max() <= 1e-12


# ---------------------------------------------------------------------------
# errors: the earliest point wins, a point's own checks before a rank change
# ---------------------------------------------------------------------------

ERR_GRID = sd.TimeGrid.uniform(0.0, 1.0, 11)


def _sampled(base, at):
    vals = np.repeat(np.asarray(base, dtype=float)[None], ERR_GRID.n, axis=0)
    for k, value in at.items():
        vals[k] = value
    return sd.SampledMatrixFunction(ERR_GRID, vals)


def _raised(fn, F):
    with pytest.raises(StructDaeError) as info:
        fn(F, ERR_GRID)
    e = info.value
    return (type(e), str(e), e.t, getattr(e, "t_first", None), getattr(e, "t_second", None))


RANK_BASE = np.diag([1.0, 0.5, 0.0, 0.0])
RANK_ILL = np.diag([1.0, 0.5, 1.1e-8, 0.95e-8])  # near-tie at its cut, rank 3
RANK_UP = np.diag([1.0, 0.5, 0.3, 0.0])
SYM_BASE = np.diag([1.0, 0.0, 0.0])
SYM_KERNEL = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])  # rank 2
SYM_UP = np.diag([1.0, 1.0, 0.0])
SYM_ILL = np.diag([1.0, 1.1e-8, 0.95e-8])
INERTIA_BASE = np.diag([2.0, -1.0])
INERTIA_FLAT = np.diag([2.0, 1e-14])  # also two positive eigenvalues
INERTIA_UP = np.diag([2.0, 1.0])
INERTIA_ASYM = np.array([[2.0, 0.1], [0.0, 1e-14]])

ORDER_CASES = [
    (sd.rank_split, sequential_rank_split, RANK_BASE, {3: RANK_ILL, 6: RANK_UP}),
    (sd.rank_split, sequential_rank_split, RANK_BASE, {3: RANK_UP, 6: RANK_ILL}),
    (sd.rank_split, sequential_rank_split, RANK_BASE, {4: RANK_ILL}),
    (sd.sym_rank_split, sequential_sym_rank_split, SYM_BASE, {2: SYM_KERNEL, 7: SYM_UP}),
    (sd.sym_rank_split, sequential_sym_rank_split, SYM_BASE, {2: SYM_UP, 7: SYM_KERNEL}),
    (sd.sym_rank_split, sequential_sym_rank_split, SYM_BASE, {5: SYM_KERNEL}),
    (sd.sym_rank_split, sequential_sym_rank_split, SYM_BASE, {5: SYM_ILL, 8: SYM_KERNEL}),
    (sd.smooth_inertia, sequential_smooth_inertia, INERTIA_BASE, {3: INERTIA_FLAT, 8: INERTIA_UP}),
    (sd.smooth_inertia, sequential_smooth_inertia, INERTIA_BASE, {3: INERTIA_UP, 8: INERTIA_FLAT}),
    (sd.smooth_inertia, sequential_smooth_inertia, INERTIA_BASE, {0: INERTIA_FLAT, 9: INERTIA_UP}),
    (sd.smooth_inertia, sequential_smooth_inertia, INERTIA_BASE, {6: INERTIA_ASYM}),
]


@pytest.mark.parametrize("fn, ref, base, at", ORDER_CASES)
def test_error_order_matches_sequential(fn, ref, base, at):
    F = _sampled(base, at)
    assert _raised(fn, F) == _raised(ref, F)


# a skew E, whose one-sided splitting takes the SVD and the kernel test
SKEW_BASE = np.zeros((4, 4))
SKEW_BASE[0, 1], SKEW_BASE[1, 0] = 1.0, -1.0
SKEW_UP = SKEW_BASE.copy()
SKEW_UP[2, 3], SKEW_UP[3, 2] = 0.5, -0.5
SKEW_ILL = SKEW_BASE.copy()
SKEW_ILL[2, 3], SKEW_ILL[3, 2] = 1.1e-8, -1.1e-8  # near-tie at its cut, rank 4

TIME_CASES = [
    (sd.rank_split, RANK_BASE, 6, RANK_UP, RankDropError),
    (sd.rank_split, RANK_BASE, 4, RANK_ILL, IllPosedRankError),
    (sd.sym_rank_split, SYM_BASE, 7, SYM_UP, RankDropError),
    (sd.sym_rank_split, SYM_BASE, 5, SYM_ILL, IllPosedRankError),
    (sd.sym_rank_split, SKEW_BASE, 3, SKEW_UP, RankDropError),
    (sd.sym_rank_split, SKEW_BASE, 8, SKEW_ILL, IllPosedRankError),
    (sd.sym_rank_split, SYM_BASE, 5, SYM_KERNEL, StructureError),
    (sd.smooth_inertia, INERTIA_BASE, 6, INERTIA_ASYM, StructureError),
    (sd.smooth_inertia, INERTIA_BASE, 3, INERTIA_FLAT, ConditioningError),
    (sd.smooth_inertia, INERTIA_BASE, 8, INERTIA_UP, InertiaChangeError),
]


@pytest.mark.parametrize("fn, base, k, value, error", TIME_CASES)
def test_factorization_failures_store_the_time_they_name(fn, base, k, value, error):
    with pytest.raises(error) as info:
        fn(_sampled(base, {k: value}), ERR_GRID)
    t = ERR_GRID.points[k]
    assert info.value.t == t
    named = re.findall(r"t=([^ ;)]+)", str(info.value))
    # an ill-posed gap names no time; a change names both, the later last
    assert (named == []) if error is IllPosedRankError else float(named[-1]) == t


@pytest.mark.parametrize("base, up", [(SYM_BASE, SYM_UP), (SKEW_BASE, SKEW_UP)])
def test_both_splittings_report_one_rank_change_alike(base, up):
    F = _sampled(base, {7: up})
    raised = _raised(sd.rank_split, F)
    t_prev, t = ERR_GRID.points[6:8]
    r, rk = np.linalg.matrix_rank(base), np.linalg.matrix_rank(up)
    assert raised == (RankDropError, f"rank changed from {r} at t={t_prev} to {rk} at t={t}",
                      t, t_prev, t)
    assert _raised(sd.sym_rank_split, F) == raised


# ---------------------------------------------------------------------------
# the polar chain
# ---------------------------------------------------------------------------

def test_chain_does_not_drift_on_long_grids():
    # the prefix products reach neighbouring points through different
    # product trees; their roundoff would show as neighbour-to-neighbour
    # noise, which the spline derivative amplifies by 1/h = 2e4
    grid = sd.TimeGrid.uniform(0.0, 1.0, 20001)
    rng = np.random.default_rng(35)
    F = sd.mf_matmul(_poly(rng, 4, 1), sd.mf_transpose(_poly(rng, 3, 1)))
    split = sd.rank_split(F, grid)
    (U, V), r = sequential_rank_split(F, grid)
    assert split.r == r == 1
    for fun, ref in ((split.U, U), (split.V, V)):
        assert _orthogonality_defect(fun.eval_on(grid)) <= 1e-13
        assert np.abs(fun.eval_on(grid) - ref).max() <= 1e-12
        dref = sd.SampledMatrixFunction(grid, ref).derivative_on(grid)
        assert np.abs(fun.derivative_on(grid) - dref).max() <= 1e-8 * np.abs(dref).max()


def _counting_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _frames(rng, K, m, w, turn):
    """K orthonormal (m, w) frames, each in a random gauge, whose largest
    principal angle to their predecessor is `turn`."""
    B = np.empty((K, m, w))
    B[0] = np.linalg.qr(rng.standard_normal((m, w)))[0]
    for k in range(1, K):
        # turn the first column towards a direction outside the span
        out = rng.standard_normal(m)
        out -= B[k - 1] @ (B[k - 1].T @ out)
        out /= np.linalg.norm(out)
        ahead = B[k - 1].copy()
        ahead[:, 0] = np.cos(turn) * ahead[:, 0] + np.sin(turn) * out
        B[k] = ahead @ np.linalg.qr(rng.standard_normal((w, w)))[0]
    return B


@pytest.mark.parametrize("w", [1, 3, 8, 16])
@pytest.mark.parametrize("turn", [1e-3, 0.3, 1.0])
def test_polar_matches_the_svd_on_frame_overlaps(w, turn):
    # turns up to 57 degrees: every overlap has singular values in [0.54, 1]
    B = _frames(np.random.default_rng(37 + w), 50, w + 4, w, turn)
    X = np.swapaxes(B[1:], 1, 2) @ B[:-1]
    G, unconverged = _polar(X)
    u, _, vt = np.linalg.svd(X)
    assert not unconverged.any()
    assert np.abs(G - u @ vt).max() <= 1e-14


def _turning(n, r, turn):
    """Samples on ERR_GRID of a symmetric rank-r matrix whose range turns its
    r-th direction by `turn` between t = 0.4 and t = 0.5."""
    base = np.diag(np.arange(r, 0, -1.0))
    vals = np.zeros((ERR_GRID.n, n, n))
    vals[:, :r, :r] = base
    c, s = np.cos(turn), np.sin(turn)
    R = np.eye(n)
    R[[r - 1, r - 1, r, r], [r - 1, r, r - 1, r]] = [c, -s, s, c]
    vals[5:] = R @ vals[5:] @ R.T
    return sd.SampledMatrixFunction(ERR_GRID, vals)


@pytest.mark.parametrize("fn", [sd.rank_split, sd.sym_rank_split])
@pytest.mark.parametrize("n, r, turn", [
    (3, 1, np.pi / 2),   # a line turned 90 degrees
    (4, 2, np.pi / 2),   # a plane that loses one direction: a singular overlap
    (4, 2, 1.2),         # 69 degrees: nonsingular, but not resolved
])
def test_an_unresolved_turn_names_both_times(fn, n, r, turn):
    with pytest.raises(ConditioningError) as info:
        fn(_turning(n, r, turn), ERR_GRID)
    assert "between t=0.4 and t=0.5" in str(info.value)
    assert "does not resolve" in str(info.value)
    assert info.value.t == 0.5


@pytest.mark.parametrize("fn, ref", [(sd.rank_split, sequential_rank_split),
                                     (sd.sym_rank_split, sequential_sym_rank_split)])
def test_a_resolved_turn_is_the_procrustes_sweep(fn, ref):
    # 50 degrees between neighbours: the polar factors still converge
    F = _turning(4, 2, np.deg2rad(50.0))
    factors, r = ref(F, ERR_GRID)
    split = fn(F, ERR_GRID)
    ours = (split.U, split.V) if fn is sd.rank_split else (split.Q,)
    assert split.r == r == 2
    for fun, samples in zip(ours, factors):
        assert np.abs(fun.eval_on(ERR_GRID) - samples).max() <= 1e-13


def test_factor_svd_calls_do_not_grow_with_the_grid(monkeypatch):
    rng = np.random.default_rng(36)
    F = sd.mf_matmul(_poly(rng, 5, 2), sd.mf_transpose(_poly(rng, 4, 2)))
    core = np.diag([2.0, 1.0, -1.0, 0.0, 0.0])
    E = _moved(_congruence(rng, 5), core)
    calls = _counting_svd(monkeypatch)
    counts = []
    for K in (101, 401):
        grid = sd.TimeGrid.uniform(0.0, 1.0, K)
        for fn, G in ((sd.rank_split, F), (sd.sym_rank_split, E)):
            calls.clear()
            fn(G, grid)
            counts.append(len(calls))
    # the decomposition of the grid stack; the polar chain runs no SVD, and
    # a symmetric E is split by eigh
    assert counts == [1, 0, 1, 0]
