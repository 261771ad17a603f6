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
    ParameterError,
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
    """Pointwise nonsingular Q; its derivative Qdot is Q's own."""

    Q: mf.MatrixFunction

    def __post_init__(self):
        if self.Q.rows != self.Q.cols:
            raise DimensionError("congruence transform must be square")

    @property
    def n(self):
        return self.Q.rows

    @property
    def Qdot(self):
        return mf.mf_derivative_function(self.Q)

    @classmethod
    def from_function(cls, Q):
        """The transform of Q, the same as ``CongruenceTransform(Q)``."""
        return cls(Q)

    @classmethod
    def identity(cls, n):
        return cls(mf.identity(n))


def _bT(x):
    """Transpose of the last two axes (a grid of matrices or one matrix)."""
    return np.swapaxes(x, -1, -2)


def _prefix_products(G):
    """Prefix products G_k ... G_0 of the stack G (K, m, m), in place, by
    recursive doubling (log2 K stacked matmuls, log2 K levels of roundoff)."""
    shift = 1
    while shift < len(G):
        G[shift:] = G[shift:] @ G[:-shift]
        shift *= 2
    return G


def _groups(x):
    """(first, at): the index of the first entry of each distinct value of
    the 1-D x, the values ascending, and the group of every entry, so that
    x[first][at] == x.  The one grouping of equal step lengths."""
    _, first, at = np.unique(x, return_index=True, return_inverse=True)
    return first, at


def _positive(value, what):
    """ParameterError unless value is a positive finite number."""
    if not 0.0 < value < np.inf:
        raise ParameterError(f"{what} must be a positive number, got {value}")


def _frobenius(x, out=None):
    """Frobenius norm of each matrix of x (..., m, n), bit for bit that of
    np.linalg.norm(x, axis=(-2, -1)): the squares summed by one reduction
    over the two matrix axes, then the square root.  out, which may be x
    itself, takes the squares."""
    return np.sqrt(np.add.reduce(np.square(x, out=out), axis=(-2, -1)))


def _maxnorm(x, out=None):
    """Largest `_frobenius` norm over a grid of matrices (0 for empty
    blocks); out as for `_frobenius`."""
    if x.size == 0:
        return 0.0
    return float(_frobenius(x, out).max())


def _J(p):
    """The symplectic J = [[0, I_p], [-I_p, 0]]."""
    J = np.zeros((2 * p, 2 * p))
    J[:p, p:] = np.eye(p)
    J[p:, :p] = -np.eye(p)
    return J


def _signature(p, q):
    """The signature matrix diag(I_p, -I_q)."""
    return np.diag(np.concatenate([np.ones(p), -np.ones(q)]))


def _defect_norms(kind, Ev, Ed, Av):
    """Grid maxima of the Frobenius norms of the arrays whose vanishing
    defines the structure: (E + E^T, A^T - A - Edot) if self-adjoint,
    (E - E^T, A^T + A + Edot) if skew.  Both are formed, one after the
    other, in one buffer that is squared in place, so the norms are
    `_maxnorm`'s of the two arrays bit for bit; the operands broadcast
    (a one-sample constant against a grid, a scalar Edot)."""
    plus, minus = (np.add, np.subtract) if kind == SELF_ADJOINT else (np.subtract, np.add)
    shape = np.broadcast_shapes(np.shape(Ed), np.shape(Av))
    size = int(np.prod(shape))
    buf = np.empty(max(np.size(Ev), size))
    e = plus(Ev, _bT(Ev), out=buf[:np.size(Ev)].reshape(np.shape(Ev)))
    e_norm = _maxnorm(e, e)
    a = minus(_bT(Av), Av, out=buf[:size].reshape(shape))
    minus(a, Ed, out=a)
    return e_norm, _maxnorm(a, a)


def _block(n, rows, cols):
    """(rows, cols, covers): the slices of the block [rows, cols] of an
    n x n Q, normalized, and whether the block is the whole matrix.  The
    block is diagonal (rows == cols) or the off-diagonal block of a shear
    I + N (rows and cols disjoint); any other block raises DimensionError."""
    r, c = slice(*rows.indices(n)), slice(*cols.indices(n))
    if r != c and not set(range(n)[r]).isdisjoint(range(n)[c]):
        raise DimensionError(
            f"block [{rows}, {cols}] is neither diagonal nor the block of a shear")
    return r, c, r == c == slice(0, n, 1)


def _block_left(M, XT, block):
    """Q^T M, Q the identity with its `_block` replaced by X (XT = X^T): a
    new array when the block covers the matrix, else M written on its rows
    cols only."""
    r, c, covers = block
    if covers:
        return XT @ M
    if r == c:
        M[..., c, :] = XT @ M[..., c, :]
    else:
        M[..., c, :] += XT @ M[..., r, :]
    return M


def _block_right(M, X, block):
    """M Q, Q the identity with its `_block` replaced by X: a new array when
    the block covers the matrix, else M written on its columns cols only."""
    r, c, covers = block
    if covers:
        return M @ X
    if r == c:
        M[..., :, c] = M[..., :, c] @ X
    else:
        M[..., :, c] += M[..., :, r] @ X
    return M


def _congruence_arrays(Ev, Ed, Av, X, Xd=None, rows=slice(None), cols=slice(None)):
    """Grid values of Q^T E Q, its derivative, and Q^T A Q - Q^T E Qdot, for
    Q the identity with its block [rows, cols] replaced by X and Qdot the
    same block of Xd (Xd=None means Qdot = 0): a diagonal block, by default
    the whole matrix, or the block of a shear I + N (`_block`).

    Every operand is a (K, ., .) grid array or the one-sample (1, ., .)
    stack of a constant (`_samples`), which broadcasts against the grid
    arrays; a bare 2-D X broadcasts the same way.  Ed=None skips the
    derivative (returned as None); a one-sample zero Ed, that of a constant
    E, forms no Q^T Edot Q.  A block that covers the matrix returns
    the products as new arrays and writes nothing into its operands.  Any
    other block is written in place into E, Edot and A, on the rows and
    columns of cols only, which returns them: they must already have the
    grid axis of X, and X and Xd must not be views of them.
    """
    block = _block(Ev.shape[-1], rows, cols)
    r, c, covers = block
    XT = _bT(X)
    # the rows cols of Qdot^T E Q, from E before the stage
    H = None if Xd is None or Ed is None else _block_right(_bT(Xd) @ Ev[..., r, :], X, block)
    E2 = _block_left(Ev, XT, block)
    # the columns cols of Q^T E Qdot, the one product both E2d and A2 take
    G = None if Xd is None else E2[..., :, r] @ Xd
    E2 = _block_right(E2, X, block)
    if Ed is None:
        E2d = None
    elif len(Ed) == 1 and not Ed.any():
        # Q^T Edot Q of a constant E is zero: nothing to form
        E2d = np.zeros(E2.shape) if covers else Ed
    else:
        E2d = _block_right(_block_left(Ed, XT, block), X, block)
    if H is not None:
        E2d[..., c, :] += H
        E2d[..., :, c] += G
    A2 = _block_right(_block_left(Av, XT, block), X, block)
    if G is not None:
        A2[..., :, c] -= G
    return E2, E2d, A2


def _relative(x, norm):
    """x / norm, where the zero norm of an all-zero pair makes 0 of a zero x
    and inf of any other."""
    if norm:
        return x / norm
    return np.inf if x else 0.0


def _structure(kind, Ev, Ed, Av, norm=None):
    """(defect, norm): the structure defect of the grid arrays (E, Edot, A),
    the larger of the two `_defect_norms`, relative to the pair's norm
    max_t max(|E|_F, |A|_F), which `norm` passes when the caller has it.  Every self-/skew-adjoint decision compares this defect with a
    fixed threshold, so a pair written in other units gets the same answer.
    Edot stays out of the norm: a structured pair has
    |Edot| <= 2 |A| + defect, so an unstructured pair with a large Edot
    still shows a large defect.
    """
    if norm is None:
        norm = max(_maxnorm(Ev), _maxnorm(Av))
    return _relative(max(_defect_norms(kind, Ev, Ed, Av)), norm), norm


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


def _bitwise_equal(vals):
    """Whether every sample of vals (K, ., .) is bitwise equal to the first."""
    bits = np.ascontiguousarray(vals).reshape(len(vals), -1).view(np.uint64)
    return bool(np.all(bits == bits[0]))


def _sampled(grid, vals, derivs=None):
    """Function of the samples vals (K or 1, ., .) and derivative samples
    derivs, if given: a constant when every sample is bitwise equal to the
    first and every derivative sample is zero, else the cubic through the
    samples, Hermite with derivs (non-finite samples raise either way)."""
    if _bitwise_equal(vals) and (derivs is None or not np.any(derivs)):
        return mf.ConstantMatrixFunction(vals[0])
    return mf.SampledMatrixFunction(grid, vals, deriv_values=derivs)


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
    return StructureReport(kind, *_defect_norms(kind, *values), grid)


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
    if tol is not None:
        _positive(tol, "classification tolerance")
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
    return _ratio(np.linalg.svd(F, compute_uv=False))


def _ratio(s):
    """`_rel_smin` from the descending singular values s (..., m)."""
    if s.shape[-1] == 0:
        return np.ones(s.shape[:-1])
    return s[..., -1] / np.maximum(s[..., 0], 1e-300)


def _require_nonsingular(F, ts, rel_tol, error, what, rhs=None, **fields):
    """F^-1, or F^-1 [rhs | I] when rhs is given, from one stacked solve of
    F, one matrix per time of ts; raises error(..., t=t, **fields) at the
    earliest time where F is numerically singular: 1/(|F|_F |F^-1|_F), which
    lies within a factor n below s_min / s_max, is <= rel_tol (or is not a
    number).  An empty block reads 1.  A sample that LAPACK finds exactly
    singular stops the solve; the time is then named by `_rel_smin`."""
    n = F.shape[-1]
    try:
        out = np.linalg.inv(F) if rhs is None else np.linalg.solve(
            F, np.concatenate([rhs, np.broadcast_to(np.eye(n), F.shape)], axis=2))
    except np.linalg.LinAlgError:
        _require_margin(_rel_smin(F), ts, rel_tol, error, what, **fields)
        raise
    if n:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rel = 1.0 / (_frobenius(F) * _frobenius(out[..., -n:]))
    else:
        rel = np.ones(F.shape[:-2])
    _require_margin(rel, ts, rel_tol, error, what,
                    "reciprocal Frobenius condition number", **fields)
    return out


def _require_margin(rel, ts, rel_tol, error, what,
                    measure="relative smallest singular value", **fields):
    """Raise error(..., t=t, **fields) at the earliest time of ts where the
    margin rel, the measure named in the message, is <= rel_tol (or is not
    a number)."""
    bad = np.flatnonzero(~(rel > rel_tol))
    if bad.size:
        k = bad[np.argmin(ts[bad])]
        t = float(ts[k])
        raise error(
            f"{what} at t={t} ({measure} {rel[k]:.3e} <= {rel_tol:.0e})", t=t, **fields,
        )


def check_nonsingular(F, grid):
    """F(t)^-1 on the grid (one sample for a constant F); raises
    SingularityError, naming the time, where F(t) is singular."""
    return _require_nonsingular(
        _samples(F, grid), grid.points, 1e-12, SingularityError, "Q is numerically singular"
    )


def apply_congruence(pair, transform, check_grid=None):
    """(E, A) -> (Q^T E Q, Q^T A Q - Q^T E Qdot)."""
    Q, Qdot = transform.Q, transform.Qdot
    if Q.rows != pair.n:
        raise DimensionError(f"transform is {Q.shape}, pair is {pair.n}x{pair.n}")
    if check_grid is not None:
        check_nonsingular(Q, check_grid)
    Qt = mf.mf_transpose(Q)
    E2 = mf.mf_matmul(Qt, mf.mf_matmul(pair.E, Q))
    A2 = mf.mf_sub(
        mf.mf_matmul(Qt, mf.mf_matmul(pair.A, Q)),
        mf.mf_matmul(Qt, mf.mf_matmul(pair.E, Qdot)),
    )
    return mf.MatrixPair(E2, A2, pair.interval)


def compose(t1, t2):
    """Transform applying t1 first, then t2: Q = Q1 Q2, whose derivative is the
    product rule's."""
    if t1.n != t2.n:
        raise DimensionError("cannot compose transforms of different sizes")
    return CongruenceTransform(mf.mf_matmul(t1.Q, t2.Q))


def invert(transform, grid):
    """Pointwise inverse on the grid, with derivative -Qinv Qdot Qinv from
    Q's own derivative samples; a constant Q is inverted once."""
    inv = check_nonsingular(transform.Q, grid)
    dinv = -inv @ _samples(transform.Q, grid, True) @ inv
    return CongruenceTransform(_sampled(grid, inv, dinv))


def remark1_convert(pair):
    """Constant nonsingular self-adjoint (E, A) -> skew-adjoint (A^-1, E^-1)."""
    E, A = _constant(pair.E), _constant(pair.A)
    if E is None or A is None:
        raise UnsupportedError("the conversion applies to constant pairs only")
    res = _structure(SELF_ADJOINT, E, np.zeros_like(E), A)[0]
    if res > 1e-10:
        raise StructureError(f"input pair is not self-adjoint (relative residual {res:.3e})")
    Einv, Ainv = (
        _require_nonsingular(M[None], pair.interval.points, 1e-12, SingularityError,
                             f"{name} is singular; conversion needs invertibility")[0]
        for name, M in (("E", E), ("A", A))
    )
    return mf.MatrixPair(mf.constant(Ainv), mf.constant(Einv), pair.interval)
