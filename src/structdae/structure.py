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


def _residuals(pair, grid, e_defect, a_defect):
    pair.check_grid(grid)
    Ev = pair.E.eval_on(grid)
    Ed = pair.E.derivative_on(grid)
    Av = pair.A.eval_on(grid)
    ET = np.transpose(Ev, (0, 2, 1))
    AT = np.transpose(Av, (0, 2, 1))
    e_res = np.linalg.norm(e_defect(Ev, ET), axis=(1, 2)).max()
    a_res = np.linalg.norm(a_defect(Av, AT, Ed), axis=(1, 2)).max()
    return float(e_res), float(a_res)


def self_adjoint_residual(pair, grid):
    """max_t ||E + E^T||_F and max_t ||A^T - A - Edot||_F over the grid."""
    e, a = _residuals(
        pair, grid,
        lambda E, ET: E + ET,
        lambda A, AT, Ed: AT - A - Ed,
    )
    return StructureReport(SELF_ADJOINT, e, a, grid)


def skew_adjoint_residual(pair, grid):
    """max_t ||E - E^T||_F and max_t ||A^T + A + Edot||_F over the grid."""
    e, a = _residuals(
        pair, grid,
        lambda E, ET: E - ET,
        lambda A, AT, Ed: AT + A + Ed,
    )
    return StructureReport(SKEW_ADJOINT, e, a, grid)


def default_tolerance(pair, grid):
    """1e-10 scaled by the largest grid norm of E and A."""
    scale = max(
        np.linalg.norm(pair.E.eval_on(grid), axis=(1, 2)).max(),
        np.linalg.norm(pair.A.eval_on(grid), axis=(1, 2)).max(),
    )
    return 1e-10 * (1.0 + float(scale))


def classify(pair, grid, tol):
    if tol <= 0:
        raise StructureError("classification tolerance must be positive")
    is_self = self_adjoint_residual(pair, grid).passes(tol)
    is_skew = skew_adjoint_residual(pair, grid).passes(tol)
    if is_self and is_skew:
        value = "both"
    elif is_self:
        value = SELF_ADJOINT
    elif is_skew:
        value = SKEW_ADJOINT
    else:
        value = "none"
    return StructureTag(value, tol)


def _check_nonsingular_values(Fv, grid, rel_tol, what):
    """Raise SingularityError naming the first grid time where Fv is singular."""
    s = np.linalg.svd(Fv, compute_uv=False)
    bad = np.flatnonzero((s[:, 0] == 0.0) | (s[:, -1] <= rel_tol * s[:, 0]))
    if bad.size:
        t = float(grid.points[bad[0]])
        raise SingularityError(f"{what} is numerically singular at t={t}", t=t)


def check_nonsingular(F, grid, rel_tol=1e-12, what="Q"):
    """Raise SingularityError (naming the time) if F(t) is singular on the grid."""
    _check_nonsingular_values(F.eval_on(grid), grid, rel_tol, what)


def apply_congruence(pair, transform, check_grid=None):
    """(E, A) -> (Q^T E Q, Q^T A Q - Q^T E Qdot)."""
    Q, Qdot = transform.Q, transform.Qdot
    if Q.rows != pair.n:
        raise DimensionError(f"transform is {Q.shape}, pair is {pair.n}x{pair.n}")
    if check_grid is not None:
        check_nonsingular(Q, check_grid)
    QT = mf.mf_transpose(Q)
    E2 = mf.mf_matmul(QT, mf.mf_matmul(pair.E, Q))
    A2 = mf.mf_sub(
        mf.mf_matmul(QT, mf.mf_matmul(pair.A, Q)),
        mf.mf_matmul(QT, mf.mf_matmul(pair.E, Qdot)),
    )
    return mf.MatrixPair(E2, A2, pair.interval)


def apply_equivalence(pair, P, transform, check_grid=None):
    """(E, A) -> (P E Q, P A Q - P E Qdot) with independent left factor P."""
    Q, Qdot = transform.Q, transform.Qdot
    if P.cols != pair.n or Q.rows != pair.n:
        raise DimensionError("equivalence factors do not match the pair dimension")
    if check_grid is not None:
        check_nonsingular(P, check_grid, what="P")
        check_nonsingular(Q, check_grid)
    E2 = mf.mf_matmul(P, mf.mf_matmul(pair.E, Q))
    A2 = mf.mf_sub(
        mf.mf_matmul(P, mf.mf_matmul(pair.A, Q)),
        mf.mf_matmul(P, mf.mf_matmul(pair.E, Qdot)),
    )
    return mf.MatrixPair(E2, A2, pair.interval)


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
    _check_nonsingular_values(Qv, grid, 1e-12, "Q")
    inv = np.linalg.inv(Qv)
    dinv = -inv @ Qd @ inv
    return CongruenceTransform(
        mf.SampledMatrixFunction(grid, inv, order=3, deriv_values=dinv),
        mf.SampledMatrixFunction(grid, dinv, order=3),
    )


def remark1_convert(pair, check_tol=1e-10):
    """Constant nonsingular self-adjoint (E, A) -> skew-adjoint (A^-1, E^-1)."""
    if not (
        isinstance(pair.E, mf.ConstantMatrixFunction)
        and isinstance(pair.A, mf.ConstantMatrixFunction)
    ):
        raise UnsupportedError("the conversion applies to constant pairs only")
    E, A = pair.E.value, pair.A.value
    rep = self_adjoint_residual(pair, pair.interval)
    scale = 1.0 + max(np.linalg.norm(E), np.linalg.norm(A))
    if rep.max_residual > check_tol * scale:
        raise StructureError(
            f"input pair is not self-adjoint (residual {rep.max_residual:.3e})"
        )
    for name, M in (("E", E), ("A", A)):
        s = np.linalg.svd(M, compute_uv=False)
        if s[0] == 0.0 or s[-1] <= 1e-12 * s[0]:
            raise SingularityError(f"{name} is singular; conversion needs invertibility")
    return mf.MatrixPair(
        mf.constant(np.linalg.inv(A)), mf.constant(np.linalg.inv(E)), pair.interval
    )
