"""Self-/skew-adjoint structure checks and congruence transformations.

A pair (E, A) is self-adjoint when E^T = -E and A^T = A + Edot, and
skew-adjoint when E^T = E and A^T = -A - Edot, as functions of t.  Both
properties are preserved by the congruence

    (E, A)  ->  (Q^T E Q,  Q^T A Q - Q^T E Qdot)

with pointwise nonsingular Q, which is the only transformation class used
by the canonical-form machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matfun as mf
from .errors import (
    DimensionError,
    SingularityError,
    StructureError,
    UnsupportedError,
)

SELF_ADJOINT = "self_adjoint"
SKEW_ADJOINT = "skew_adjoint"


@dataclass(frozen=True)
class StructureReport:
    kind_tested: str
    e_residual: float
    a_residual: float
    grid: mf.TimeGrid

    @property
    def max_residual(self):
        return max(self.e_residual, self.a_residual)

    def passes(self, tol):
        return self.max_residual <= tol


@dataclass(frozen=True)
class StructureTag:
    value: str  # "self_adjoint" | "skew_adjoint" | "both" | "none"
    tolerance: float


@dataclass(frozen=True)
class CongruenceTransform:
    """Pointwise nonsingular Q together with a consistent derivative Qdot."""

    Q: mf.MatrixFunction
    Qdot: mf.MatrixFunction

    def __post_init__(self):
        if self.Q.shape != self.Qdot.shape:
            raise DimensionError("Q and Qdot must have the same shape")
        if self.Q.rows != self.Q.cols:
            raise DimensionError("congruence transform must be square")

    @property
    def n(self):
        return self.Q.rows

    @classmethod
    def from_function(cls, Q):
        """Derive Qdot analytically (constant and polynomial kinds stay exact)."""
        return cls(Q, mf.mf_derivative_function(Q))

    @classmethod
    def identity(cls, n):
        return cls(mf.identity(n), mf.zero(n, n))


def _bT(x):
    """Transpose of the last two axes (a grid of matrices or one matrix)."""
    return np.swapaxes(x, -1, -2)


def _maxnorm(x):
    """Largest Frobenius norm over a grid of matrices (0 for empty blocks)."""
    if x.size == 0:
        return 0.0
    return float(np.linalg.norm(x, axis=(-2, -1)).max())


def _J(p):
    """The symplectic J = [[0, I_p], [-I_p, 0]]."""
    J = np.zeros((2 * p, 2 * p))
    J[:p, p:] = np.eye(p)
    J[p:, :p] = -np.eye(p)
    return J


def _signature(p, q):
    """The signature matrix diag(I_p, -I_q)."""
    return np.diag(np.concatenate([np.ones(p), -np.ones(q)]))


def _defects(kind, Ev, Ed, Av):
    """Grid arrays whose vanishing defines the structure:
    (E + E^T, A^T - A - Edot) if self-adjoint, (E - E^T, A^T + A + Edot) if skew."""
    ET, AT = _bT(Ev), _bT(Av)
    if kind == SELF_ADJOINT:
        return Ev + ET, AT - Av - Ed
    return Ev - ET, AT + Av + Ed


def _congruence_arrays(Ev, Ed, Av, Q, Qd=None):
    """Grid values of Q^T E Q, its derivative, and Q^T A Q - Q^T E Qdot.

    Every operand is a (K, ., .) grid array or the one-sample (1, ., .)
    stack of a constant (`_samples`), which broadcasts against the grid
    arrays; a bare (n, n) stage matrix Q broadcasts the same way.  Qd=None
    means Qdot = 0.  Ed=None skips the derivative (returned as None).
    """
    QT = _bT(Q)
    QTE = QT @ Ev
    E2 = QTE @ Q
    E2d = None if Ed is None else QT @ Ed @ Q
    A2 = QT @ Av @ Q
    if Qd is not None:
        if Ed is not None:
            E2d = _bT(Qd) @ Ev @ Q + E2d + QTE @ Qd
        A2 = A2 - QTE @ Qd
    return E2, E2d, A2


def _relative(x, norm):
    """x / norm, where the zero norm of an all-zero pair makes 0 of a zero x
    and inf of any other."""
    if norm:
        return x / norm
    return np.inf if x else 0.0


def _structure(kind, Ev, Ed, Av, norm=None):
    """(defect, norm): the structure defect of the grid arrays (E, Edot, A),
    the larger grid maximum of the two `_defects` arrays, relative to the
    pair's norm max_t max(|E|_F, |A|_F), which `norm` passes when the caller
    has it.  Every self-/skew-adjoint decision compares this defect with a
    fixed threshold, so a pair written in other units gets the same answer.
    Edot stays out of the norm: a structured pair has
    |Edot| <= 2 |A| + defect, so an unstructured pair with a large Edot
    still shows a large defect.
    """
    if norm is None:
        norm = max(_maxnorm(Ev), _maxnorm(Av))
    return _relative(max(map(_maxnorm, _defects(kind, Ev, Ed, Av))), norm), norm


def _constant(F):
    """The value of F when F is a polynomial of degree 0 (a constant), else
    None: the only test of whether a function is constant."""
    if isinstance(F, mf.PolynomialMatrixFunction) and F.degree == 0:
        return F.coeffs[0]
    return None


def _samples(F, grid, derivative=False):
    """Grid samples (K, rows, cols) of F or of its derivative.  A constant
    (`_constant`) is one sample, a (1, rows, cols) copy of its value (zeros
    for the derivative) that broadcasts against the grid arrays: the only
    place that decides how a constant looks on the grid."""
    c = _constant(F)
    if c is not None:
        return np.zeros((1, *F.shape)) if derivative else c[None].copy()
    return F.derivative_on(grid) if derivative else F.eval_on(grid)


def _sampled(grid, vals):
    """Function of the samples vals (K or 1, ., .): a constant when every
    sample is bitwise equal to the first, else the cubic through the grid
    samples (non-finite samples raise either way)."""
    bits = np.ascontiguousarray(vals).reshape(len(vals), -1).view(np.uint64)
    if np.all(bits == bits[0]):
        return mf.ConstantMatrixFunction(vals[0])
    return mf.SampledMatrixFunction(grid, vals, order=3)


def _values(pair, grid):
    """`_samples` of E, Edot and A."""
    pair.check_grid(grid)
    return _samples(pair.E, grid), _samples(pair.E, grid, True), _samples(pair.A, grid)


def _tolerance(Ev, Av):
    """`default_tolerance` from the grid values of E and A."""
    return max(1e-10 * max(_maxnorm(Ev), _maxnorm(Av)), np.finfo(float).tiny)


def _residuals(pair, grid, kind, values=None):
    """Absolute structure residuals of the pair; `values` passes its grid
    values of (E, Edot, A) when the caller has them."""
    if values is None:
        values = _values(pair, grid)
    e, a = _defects(kind, *values)
    return StructureReport(kind, _maxnorm(e), _maxnorm(a), grid)


def self_adjoint_residual(pair, grid):
    """max_t ||E + E^T||_F and max_t ||A^T - A - Edot||_F over the grid."""
    return _residuals(pair, grid, SELF_ADJOINT)


def skew_adjoint_residual(pair, grid):
    """max_t ||E - E^T||_F and max_t ||A^T + A + Edot||_F over the grid."""
    return _residuals(pair, grid, SKEW_ADJOINT)


def default_tolerance(pair, grid):
    """1e-10 times the pair's norm, the largest grid norm of E and A, with no
    absolute floor: a pair and the same pair in other units get the same
    classification.  Only the all-zero pair gets the smallest normal float."""
    pair.check_grid(grid)
    return _tolerance(_samples(pair.E, grid), _samples(pair.A, grid))


def classify(pair, grid, tol):
    return _classified(pair, grid, tol)[0]


def _classified(pair, grid, tol=None):
    """(tag, self-adjoint report, skew-adjoint report): classify's tag and the
    two residual reports it is read from, from one evaluation of the pair.
    tol=None takes `default_tolerance` from the same values."""
    if tol is not None and tol <= 0:
        raise StructureError("classification tolerance must be positive")
    values = _values(pair, grid)
    if tol is None:
        tol = _tolerance(values[0], values[2])
    rep_self = _residuals(pair, grid, SELF_ADJOINT, values)
    rep_skew = _residuals(pair, grid, SKEW_ADJOINT, values)
    is_self = rep_self.passes(tol)
    is_skew = rep_skew.passes(tol)
    if is_self and is_skew:
        value = "both"
    elif is_self:
        value = SELF_ADJOINT
    elif is_skew:
        value = SKEW_ADJOINT
    else:
        value = "none"
    return StructureTag(value, tol), rep_self, rep_skew


def _rel_smin(F):
    """Smallest over largest singular value of each matrix of F (..., m, n):
    1.0 for empty blocks, 0.0 for zero matrices."""
    F = np.asarray(F)
    if 0 in F.shape[-2:]:
        return np.ones(F.shape[:-2])
    s = np.linalg.svd(F, compute_uv=False)
    return s[..., -1] / np.maximum(s[..., 0], 1e-300)


def _require_nonsingular(F, ts, rel_tol, error, what, **fields):
    """Raise error(..., t=t, **fields) at the earliest time of ts (one per
    matrix of F) where _rel_smin(F) <= rel_tol (or is not a number)."""
    rel = _rel_smin(F)
    bad = np.flatnonzero(~(rel > rel_tol))
    if bad.size:
        k = bad[np.argmin(ts[bad])]
        t = float(ts[k])
        raise error(
            f"{what} at t={t} (relative smallest singular value {rel[k]:.3e} "
            f"<= {rel_tol:.0e})", t=t, **fields,
        )


def check_nonsingular(F, grid, what="Q"):
    """Raise SingularityError (naming the time) if F(t) is singular on the grid."""
    _require_nonsingular(
        _samples(F, grid), grid.points, 1e-12, SingularityError, f"{what} is numerically singular"
    )


def _transformed(pair, P, transform):
    """(P E Q, P A Q - P E Qdot) as matrix functions."""
    Q, Qdot = transform.Q, transform.Qdot
    E2 = mf.mf_matmul(P, mf.mf_matmul(pair.E, Q))
    A2 = mf.mf_sub(
        mf.mf_matmul(P, mf.mf_matmul(pair.A, Q)),
        mf.mf_matmul(P, mf.mf_matmul(pair.E, Qdot)),
    )
    return mf.MatrixPair(E2, A2, pair.interval)


def apply_congruence(pair, transform, check_grid=None):
    """(E, A) -> (Q^T E Q, Q^T A Q - Q^T E Qdot)."""
    Q = transform.Q
    if Q.rows != pair.n:
        raise DimensionError(f"transform is {Q.shape}, pair is {pair.n}x{pair.n}")
    if check_grid is not None:
        check_nonsingular(Q, check_grid)
    return _transformed(pair, mf.mf_transpose(Q), transform)


def apply_equivalence(pair, P, transform, check_grid=None):
    """(E, A) -> (P E Q, P A Q - P E Qdot) with independent left factor P."""
    Q = transform.Q
    if P.cols != pair.n or Q.rows != pair.n:
        raise DimensionError("equivalence factors do not match the pair dimension")
    if check_grid is not None:
        check_nonsingular(P, check_grid, what="P")
        check_nonsingular(Q, check_grid)
    return _transformed(pair, P, transform)


def compose(t1, t2):
    """Transform applying t1 first, then t2: Q = Q1 Q2 (product rule for Qdot)."""
    if t1.n != t2.n:
        raise DimensionError("cannot compose transforms of different sizes")
    Q = mf.mf_matmul(t1.Q, t2.Q)
    Qdot = mf.mf_add(mf.mf_matmul(t1.Qdot, t2.Q), mf.mf_matmul(t1.Q, t2.Qdot))
    return CongruenceTransform(Q, Qdot)


def invert(transform, grid):
    """Pointwise inverse on the grid, with derivative -Qinv Qdot Qinv."""
    Qv = transform.Q.eval_on(grid)
    Qd = transform.Qdot.eval_on(grid)
    _require_nonsingular(Qv, grid.points, 1e-12, SingularityError, "Q is numerically singular")
    inv = np.linalg.inv(Qv)
    dinv = -inv @ Qd @ inv
    return CongruenceTransform(
        mf.SampledMatrixFunction(grid, inv, order=3, deriv_values=dinv),
        mf.SampledMatrixFunction(grid, dinv, order=3),
    )


def remark1_convert(pair):
    """Constant nonsingular self-adjoint (E, A) -> skew-adjoint (A^-1, E^-1)."""
    E, A = _constant(pair.E), _constant(pair.A)
    if E is None or A is None:
        raise UnsupportedError("the conversion applies to constant pairs only")
    res = _structure(SELF_ADJOINT, E, np.zeros_like(E), A)[0]
    if res > 1e-10:
        raise StructureError(f"input pair is not self-adjoint (relative residual {res:.3e})")
    for name, M in (("E", E), ("A", A)):
        if _rel_smin(M) <= 1e-12:
            raise SingularityError(f"{name} is singular; conversion needs invertibility")
    return mf.MatrixPair(
        mf.constant(np.linalg.inv(A)), mf.constant(np.linalg.inv(E)), pair.interval
    )
