import warnings

import numpy as np
import pytest

import structdae as sd
from structdae.errors import (
    ConditioningError,
    IllPosedRankError,
    InertiaChangeError,
    RankDropError,
    StructureError,
)
from structdae.factor import _row_frame, max_jump

from oracles import rotation

GRID = sd.TimeGrid.uniform(0.0, 1.0, 101)


def rotating_rank1(grid):
    return sd.from_callable(
        lambda t: rotation(t) @ np.diag([1.0, 0.0]) @ rotation(t).T, grid,
        dfn=lambda t: _rot_deriv(t),
    )


def _rot_deriv(t):
    R = rotation(t)
    dR = np.array([[-np.sin(t), -np.cos(t)], [np.cos(t), -np.sin(t)]])
    D = np.diag([1.0, 0.0])
    return dR @ D @ R.T + R @ D @ dR.T


def _orthogonality_defect(U):
    return float(np.linalg.norm(
        np.transpose(U, (0, 2, 1)) @ U - np.eye(U.shape[1]), axis=(1, 2)
    ).max())


def _reconstruction(split, F, grid):
    vals = F.eval_on(grid)
    U = split.U.eval_on(grid)
    V = split.V.eval_on(grid)
    S = split.Sigma.eval_on(grid)
    r = split.r
    full = np.zeros_like(vals)
    full[:, :r, :r] = S
    return float(np.linalg.norm(
        np.transpose(U, (0, 2, 1)) @ vals @ V - full, axis=(1, 2)
    ).max())


def test_rank_split_constant_diag():
    F = sd.constant(np.diag([1.0, 0.0]))
    split = sd.rank_split(F, GRID)
    assert split.r == 1
    assert _orthogonality_defect(split.U.eval_on(GRID)) <= 1e-12
    assert _reconstruction(split, F, GRID) <= 1e-12
    sig = split.Sigma.eval(0.5)
    assert abs(abs(sig[0, 0]) - 1.0) < 1e-12


def test_rank_split_rotating_rank1_continuity():
    F = rotating_rank1(GRID)
    split = sd.rank_split(F, GRID)
    assert split.r == 1
    dt = GRID.points[1] - GRID.points[0]
    assert max_jump(split.U.eval_on(GRID)) <= 2.0 * dt
    assert _reconstruction(split, F, GRID) <= 1e-10
    # refinement halves the jumps (within factor 1.5)
    fine = GRID.refine()
    split2 = sd.rank_split(rotating_rank1(fine), fine)
    assert max_jump(split2.U.eval_on(fine)) <= 1.5 * max_jump(split.U.eval_on(GRID)) / 2.0


def test_rank_split_full_rank_seeded():
    rng = np.random.default_rng(123)
    F = sd.constant(rng.standard_normal((5, 5)) + 3 * np.eye(5))
    split = sd.rank_split(F, GRID)
    assert split.r == 5
    assert _reconstruction(split, F, GRID) <= 1e-12
    # singular values agree with an independent eigensolve of F^T F
    s_mine = np.sort(np.linalg.svd(split.Sigma.eval(0.0), compute_uv=False))
    s_ref = np.sort(np.sqrt(np.linalg.eigvalsh(F.value.T @ F.value)))
    assert np.allclose(s_mine, s_ref, atol=1e-10)


def test_rank_split_rectangular():
    rng = np.random.default_rng(5)
    B = rng.standard_normal((5, 2))
    split = sd.rank_split(sd.constant(B), GRID)
    assert split.r == 2
    assert split.U.shape == (5, 5) and split.V.shape == (2, 2)
    assert _reconstruction(split, sd.constant(B), GRID) <= 1e-12


def test_rank_split_rank_drop_error():
    grid = sd.TimeGrid.uniform(-1.0, 1.0, 21)  # contains t = 0
    F = sd.PolynomialMatrixFunction.from_entries(
        [[[1.0], [0.0]], [[0.0], [0.0, 1.0]]]  # diag(1, t)
    )
    with pytest.raises(RankDropError):
        sd.rank_split(F, grid)


def test_rank_split_ill_posed_gap():
    F = sd.constant(np.diag([1.0, 1.2e-8, 0.9e-8]))
    with pytest.raises(IllPosedRankError):
        sd.rank_split(F, GRID, gap_tol=1e-8)


def test_sym_rank_split_diag_and_stokes_block():
    split = sd.sym_rank_split(sd.constant(np.diag([2.0, 0.0])), GRID)
    assert split.r == 1
    assert abs(abs(split.Sigma.eval(0.0)[0, 0]) - 2.0) < 1e-12

    E = np.zeros((4, 4))
    E[:3, :3] = np.eye(3)  # mass block with empty pressure block
    split2 = sd.sym_rank_split(sd.constant(E), GRID)
    assert split2.r == 3
    assert np.allclose(split2.Sigma.eval(0.5), np.eye(3), atol=1e-12)


def test_sym_rank_split_skew_time_varying():
    def E_of(t):
        a = 1.0 + t * t
        return np.array([[0.0, a, 0.0], [-a, 0.0, 0.0], [0.0, 0.0, 0.0]])

    E = sd.from_callable(E_of, GRID)
    split = sd.sym_rank_split(E, GRID)
    assert split.r == 2
    for t in (0.0, 0.5, 1.0):
        sig = split.Sigma.eval(t)
        a = 1.0 + t * t
        assert np.linalg.norm(sig + sig.T) < 1e-10
        assert abs(np.linalg.norm(sig) - np.sqrt(2) * a) < 1e-10
    Q = split.Q.eval_on(GRID)
    vals = E.eval_on(GRID)
    recon = np.transpose(Q, (0, 2, 1)) @ vals @ Q
    sig_full = np.zeros_like(vals)
    sig_full[:, :2, :2] = split.Sigma.eval_on(GRID)
    assert np.linalg.norm(recon - sig_full, axis=(1, 2)).max() <= 1e-10


def test_sym_rank_split_kernel_condition_violation():
    E = sd.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(StructureError):
        sd.sym_rank_split(E, GRID)


def test_smooth_inertia_hand_values():
    split = sd.smooth_inertia(sd.constant(np.diag([3.0, -2.0])), GRID)
    assert (split.p, split.q) == (1, 1)
    W = split.W.eval(0.0)
    D = np.diag([3.0, -2.0])
    assert np.allclose(W.T @ D @ W, np.diag([1.0, -1.0]), atol=1e-12)
    assert np.allclose(np.abs(W), np.diag([3 ** -0.5, 2 ** -0.5]), atol=1e-12)

    eye = sd.smooth_inertia(sd.identity(4), GRID)
    assert (eye.p, eye.q) == (4, 0)
    assert np.allclose(eye.W.eval(0.3), np.eye(4), atol=1e-12)


def test_smooth_inertia_rotating():
    D = sd.from_callable(lambda t: rotation(t) @ np.diag([2.0, -1.0]) @ rotation(t).T, GRID)
    split = sd.smooth_inertia(D, GRID)
    assert (split.p, split.q) == (1, 1)
    W = split.W.eval_on(GRID)
    vals = D.eval_on(GRID)
    res = np.transpose(W, (0, 2, 1)) @ vals @ W - np.diag([1.0, -1.0])
    assert np.linalg.norm(res, axis=(1, 2)).max() <= 1e-9
    # brute-force signature agreement at every grid point
    for k, t in enumerate(GRID.points):
        lam = np.linalg.eigvalsh(vals[k])
        assert (int((lam > 0).sum()), int((lam < 0).sum())) == (1, 1)
    # continuity halves under refinement
    fine = GRID.refine()
    D2 = sd.from_callable(lambda t: rotation(t) @ np.diag([2.0, -1.0]) @ rotation(t).T, fine)
    j1 = max_jump(split.W.eval_on(GRID))
    j2 = max_jump(sd.smooth_inertia(D2, fine).W.eval_on(fine))
    assert j2 <= 1.5 * j1 / 2.0


def test_smooth_inertia_errors():
    with pytest.raises(StructureError):
        sd.smooth_inertia(sd.constant(np.array([[0.0, 1.0], [0.0, 0.0]])), GRID)
    grid = sd.TimeGrid.uniform(-1.0, 1.0, 20)  # avoids t = 0 but crosses it
    D = sd.PolynomialMatrixFunction.from_entries([[[1.0], [0.0]], [[0.0], [0.0, 1.0]]])
    with pytest.raises(InertiaChangeError):
        sd.smooth_inertia(D, grid)
    grid0 = sd.TimeGrid.uniform(-1.0, 1.0, 21)  # hits t = 0
    with pytest.raises(ConditioningError):
        sd.smooth_inertia(D, grid0)


def _kernel_frame(B, grid):
    """The kernel columns N of `_row_frame` of B's samples, with Ndot."""
    V, Vd = _row_frame(B.eval_on(grid), B.derivative_on(grid), grid.points, lambda rel: None)
    return V[..., B.rows:], Vd[..., B.rows:]


def test_smooth_kernel_frame_consistency():
    # B(t) = [cos t, sin t]: kernel rotates with t
    B = sd.from_callable(
        lambda t: [[np.cos(t), np.sin(t)]], GRID,
        dfn=lambda t: [[-np.sin(t), np.cos(t)]],
    )
    N, Nd = _kernel_frame(B, GRID)
    for k, t in enumerate(GRID.points):
        assert abs(np.cos(t) * N[k, 0, 0] + np.sin(t) * N[k, 1, 0]) < 1e-12
        assert abs(N[k, :, 0] @ N[k, :, 0] - 1.0) < 1e-12
    # derivative samples match finite differences of the frame itself
    dt = GRID.points[1] - GRID.points[0]
    fd = (N[2:] - N[:-2]) / (2 * dt)
    assert np.abs(fd - Nd[1:-1]).max() < 1e-3


def test_smooth_kernel_frame_is_the_procrustes_chain():
    # the frame is defined by its alignment: at every node an orthonormal
    # basis of ker B rotated onto its predecessor by the polar factor, so the
    # overlap N_k^T N_{k-1} is symmetric positive definite; its derivative
    # samples obey B Ndot = -Bdot N with no rotation inside the kernel
    grid = sd.TimeGrid.uniform(0.0, 2.0, 201)
    rng = np.random.default_rng(1)
    cases = [sd.PolynomialMatrixFunction(rng.standard_normal((3, p, 7)))
             for p in (2, 3, 4, 2, 3, 4)]
    cases.append(sd.from_callable(lambda t: [[np.cos(t), np.sin(t)]], grid,
                                  dfn=lambda t: [[-np.sin(t), np.cos(t)]]))
    for B in cases:
        N, Nd = _kernel_frame(B, grid)
        Bv, NT = B.eval_on(grid), np.swapaxes(N, 1, 2)
        assert N.shape == (grid.n, B.cols, B.cols - B.rows)
        assert np.linalg.norm(Bv @ N, axis=(1, 2)).max() <= 1e-12
        assert np.abs(NT @ N - np.eye(N.shape[2])).max() <= 1e-12
        overlap = NT[1:] @ N[:-1]
        sym = 0.5 * (overlap + np.swapaxes(overlap, 1, 2))
        assert np.abs(overlap - sym).max() <= 1e-12
        assert np.linalg.eigvalsh(sym).min() > 0
        law = Bv @ Nd + B.derivative_on(grid) @ N
        assert np.linalg.norm(law, axis=(1, 2)).max() <= 1e-12
        assert np.abs(NT @ Nd).max() <= 1e-12


@pytest.mark.parametrize("p, m", [(1, 7), (2, 7), (3, 7), (4, 7), (4, 4)])
def test_row_frame_normalizes_the_rows_with_exact_derivatives(p, m):
    # V = [B^+ | N] with B V = [I 0], N orthonormal and orthogonal to B^+;
    # its derivative samples keep B V fixed (B Vdot = -Bdot V) and do not
    # rotate inside the kernel (N^T Ndot = 0); a square B has no N
    grid = sd.TimeGrid.uniform(0.0, 1.0, 2001)
    B = sd.PolynomialMatrixFunction(np.random.default_rng(10 * p + m).standard_normal((3, p, m)))
    Bv, Bd = B.eval_on(grid), B.derivative_on(grid)
    seen = []
    V, Vd = _row_frame(Bv, Bd, grid.points, seen.append)
    (rel,) = seen
    assert V.shape == Vd.shape == (grid.n, m, m)
    assert rel.min() > 1e-2
    Bp, N, Nd = V[..., :p], V[..., p:], Vd[..., p:]
    NT = np.swapaxes(N, 1, 2)
    assert np.abs(Bv @ V - np.eye(p, m)).max() <= 1e-12
    assert np.abs(NT @ N - np.eye(m - p)).max(initial=0.0) <= 1e-13
    assert np.abs(NT @ Bp).max(initial=0.0) <= 1e-13
    assert np.abs(Bv @ Vd + Bd @ V).max() <= 1e-11
    assert np.abs(NT @ Nd).max(initial=0.0) <= 1e-12
    # and they are the derivative of the frame itself
    fd = (V[2:] - V[:-2]) / (grid.points[2:] - grid.points[:-2])[:, None, None]
    assert np.abs(fd - Vd[1:-1]).max() <= 1e-4 * np.abs(Vd).max()


def test_row_frame_reads_zero_at_a_rank_loss_without_a_warning():
    Bv = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seen = []
        _row_frame(Bv, np.zeros_like(Bv), np.array([0.0, 1.0]), seen.append)
    assert [rel.tolist() for rel in seen] == [[1.0, 0.0]]


def test_orthogonality_of_all_factors():
    F = rotating_rank1(GRID)
    split = sd.rank_split(F, GRID)
    assert _orthogonality_defect(split.U.eval_on(GRID)) <= 1e-12
    assert _orthogonality_defect(split.V.eval_on(GRID)) <= 1e-12
    sym = sd.sym_rank_split(sd.constant(np.diag([2.0, 1.0, 0.0])), GRID)
    assert _orthogonality_defect(sym.Q.eval_on(GRID)) <= 1e-12


def test_constant_input_gives_constant_factors():
    rng = np.random.default_rng(8)
    B = rng.standard_normal((4, 2))
    E = sd.constant(B @ B.T)  # symmetric, rank 2, not diagonal
    sym = sd.sym_rank_split(E, GRID)
    split = sd.rank_split(E, GRID)
    assert sym.r == split.r == 2
    for F in (sym.Q, sym.Sigma, split.U, split.V, split.Sigma):
        assert np.all(F.derivative_on(GRID) == 0.0)
        assert np.array_equal(F.eval(0.0), F.eval(1.0))
    Q = sym.Q.eval(0.5)
    assert np.linalg.norm(Q.T @ Q - np.eye(4)) <= 1e-12
    assert np.linalg.norm((Q.T @ E.value @ Q)[2:]) <= 1e-12


@pytest.mark.parametrize("gap_tol", [-1.0, 0.0, np.nan, np.inf])
def test_rank_split_rejects_a_non_positive_gap_tolerance(gap_tol):
    from structdae.errors import ParameterError

    with pytest.raises(ParameterError, match="gap tolerance"):
        sd.rank_split(sd.constant(np.diag([2.0, 1.0, 0.0])), GRID, gap_tol=gap_tol)


def test_sym_rank_split_is_a_plain_record():
    import dataclasses
    import inspect

    assert list(inspect.signature(sd.sym_rank_split).parameters) == ["E", "grid"]
    assert [f.name for f in dataclasses.fields(sd.SymRankSplit)] == ["Q", "Sigma", "r", "grid"]
    split = sd.sym_rank_split(sd.constant(np.diag([2.0, 0.0, 1.0])), GRID)
    assert split.r == 2
    assert np.allclose(np.sort(np.linalg.eigvalsh(split.Sigma.eval(0.3))), [1.0, 2.0],
                       atol=1e-14, rtol=0)
