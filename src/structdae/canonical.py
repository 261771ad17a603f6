"""Global canonical forms under congruence, built constructively.

For an exactly structured pair with a known basis Phi of the homogeneous
solution space, the construction runs the staged congruence pipeline

  self-adjoint:  [Phi completion] -> [skew pairing of the constant E11]
                 -> [row normalization of (E12, E13)] -> [decoupling]
  skew-adjoint:  [Phi completion] -> [inertia normalization of E11]
                 -> [algebraic decoupling]

re-verifying the structural invariants after every stage.  All stages work
on grid samples carrying exact derivative values (the kernel frame's
included), so the verification residuals are limited by roundoff rather
than by interpolation.

The solution basis of a constant pair comes from the pencil's finite
deflating subspace, found by a Wong sequence, and the exponential of its
dynamics M anchored at the centre tm of the grid: exp((t - tm) M) is one
exponential at the node nearest tm times prefix products of one
exponential per distinct step length, all from one set of powers of M by
an in-house Pade [13/13]; the whole construction runs on numpy alone.
Every rank is decided by the gap test of `factor._numerical_rank` against
the norm of the pair the block is cut from, never against a block's own
roundoff; a value within a factor 10 of its threshold raises
IllPosedRankError.  Every structure residual and layout defect is likewise
relative to the norm of the pair it is read from, with no absolute floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matfun as mf
from . import structure as st
from .errors import (
    BasisDeficiencyError,
    IllPosedRankError,
    ParityError,
    RegularityError,
    StageError,
    StructureError,
    UnsupportedError,
)
from .factor import _inertia, _rank, _row_frame
from .structure import _bT, _frobenius, _maxnorm

RANK_FLOOR = 1e-10
# structure residual every stage keeps, relative to the norm of its pair
STAGE_TOL = 1e-8
# gap tolerance of every rank decision, against the norm of the pair the
# ranked block is cut from
RANK_TOL = 1e-8


@dataclass
class ResidualRecord:
    """Named residuals."""

    entries: dict

    @property
    def worst(self):
        return max(self.entries.values()) if self.entries else 0.0

    def passes(self, tol=1e-8):
        return all(v <= tol for v in self.entries.values())


@dataclass
class SolutionBasis:
    """Basis Phi of the homogeneous solution space; its derivative is Phi's own.

    ``complement`` optionally holds a pointwise orthonormal basis of the
    orthogonal complement of range(Phi), which the canonical-form pipelines
    check at every grid node; without one they take the kernel frame of
    Phi^T, differentiated through Phi's derivative.
    """

    Phi: mf.MatrixFunction
    d: int
    complement: mf.MatrixFunction | None = None


@dataclass
class SelfAdjointGlobalForm:
    p: int
    E33: mf.MatrixFunction
    A22: mf.MatrixFunction
    A23: mf.MatrixFunction
    A32: mf.MatrixFunction
    A33: mf.MatrixFunction
    Q: st.CongruenceTransform
    grid: mf.TimeGrid
    n: int
    pair_transformed: mf.MatrixPair | None = None
    stage_residuals: list = field(default_factory=list)

    @property
    def algebraic_dim(self):
        return self.n - 2 * self.p


@dataclass
class SkewAdjointGlobalForm:
    p: int
    q: int
    E33: mf.MatrixFunction
    A33: mf.MatrixFunction
    Q: st.CongruenceTransform
    grid: mf.TimeGrid
    n: int
    pair_transformed: mf.MatrixPair | None = None
    stage_residuals: list = field(default_factory=list)

    @property
    def algebraic_dim(self):
        return self.n - self.p - self.q


# ---------------------------------------------------------------------------
# solution basis for constant pairs
# ---------------------------------------------------------------------------

# Pade [13/13] coefficients of exp, divided by the constant term so that
# exp(0) = I exactly, and the 1-norm up to which that approximant is accurate
# to unit roundoff (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
]) / 64764752532480000.0
_THETA13 = 5.371920351148152


def _expm(M, taus):
    """exp(tau M) (T, d, d) for the scalars taus (T,) and one M (d, d): for
    each tau the Pade [13/13] approximant of tau M / 2^s, squared s times,
    with s chosen per tau from |tau M|_1.  Its U and V are scalar
    combinations of the powers (M / |M|_1)^j, j <= 13, formed once for all
    taus; those powers are bounded by 1 in the 1-norm and the scalars by
    theta_13^13, so nothing overflows before the squarings."""
    taus = np.asarray(taus, dtype=float)
    d = M.shape[-1]
    mu = np.abs(M).sum(axis=0).max(initial=0.0)
    P = np.empty((14, d, d))
    P[0] = np.eye(d)
    P[1] = M / (mu or 1.0)
    for j in range(2, 14):
        P[j] = P[j - 1] @ P[1]
    s = np.maximum(np.frexp(np.abs(taus) * mu / _THETA13)[1], 0)
    # tau M / 2^s = a P_1, |a| <= theta_13
    coef = _PADE13 * (taus * mu * np.exp2(-s))[:, None] ** np.arange(14)
    U = np.einsum("tj,jab->tab", coef[:, 1::2], P[1::2])
    V = np.einsum("tj,jab->tab", coef[:, ::2], P[::2])
    R = np.linalg.solve(V - U, V + U)
    for j in range(int(s.max(initial=0))):
        sq = s > j
        Rj = R[sq]
        R[sq] = Rj @ Rj
    return R


def _finite_subspace(E, A, e_scale, a_scale):
    """Orthonormal bases (V, Vc) of the finite deflating subspace of the
    regular pencil lambda*E - A and of its orthogonal complement.

    Wong sequence V_0 = R^n, V_{i+1} = A^{-1}(E V_i) (Berger, Ilchmann &
    Trenn, SIAM J. Matrix Anal. Appl. 33, 2012): one SVD spans E V_i, a second
    one gives the kernel of W^T A, W the complement of that span.  Ranks of
    E V_i and W^T A are decided against RANK_TOL times e_scale and a_scale,
    the norms of the E and A that (E, A) were cut from, so the result does
    not change when E or A is scaled on its own (a change of time unit); the
    sequence stops when the dimension stops falling.  E must be injective on
    the limit, else the pencil is singular.
    """
    n = E.shape[0]
    V, Vc = np.eye(n), np.zeros((n, 0))
    while True:
        u, s, _ = np.linalg.svd(E @ V)
        r = _rank(s, RANK_TOL, e_scale)
        _, s2, vt2 = np.linalg.svd(u[:, r:].T @ A)
        r2 = _rank(s2, RANK_TOL, a_scale)
        if n - r2 >= V.shape[1]:
            break
        V, Vc = vt2[r2:].T, vt2[:r2].T
    if r < V.shape[1]:
        raise RegularityError(
            f"pencil is singular: E has rank {r} on the {V.shape[1]}-dimensional "
            "limit of its Wong sequence"
        )
    return V, Vc


def solution_basis_constant(pair, grid):
    """Basis of the solution space of E xdot = A x for constant (E, A).

    Every solution lies in the finite deflating subspace V*, found by a Wong
    sequence whose ranks are decided against RANK_TOL * |E|_2 and
    RANK_TOL * |A|_2.  With E V* M = A V* (exact, since A V* lies in E V*),
    the basis is Phi(t) = V* exp((t - tm) M), anchored at the centre
    tm = (t0 + tf) / 2 of the grid.

    By the group property exp((t - tm) M) needs one exponential per
    distinct step length: at the node c nearest tm it is
    X_c = exp((t_c - tm) M) (the identity, so Phi = V* exactly, when
    t_c = tm), and the other nodes are the prefix products of exp(h M)
    forward from X_c and of exp(-h M) backward.  `_expm` gives X_c and
    every distinct signed step h from one set of powers of M.
    """
    E, A = st._constant(pair.E), st._constant(pair.A)
    if E is None or A is None:
        raise UnsupportedError("solution_basis_constant needs a constant pair")
    n = pair.n
    V, Vc = _finite_subspace(E, A, np.linalg.norm(E, 2), np.linalg.norm(A, 2))
    d = V.shape[1]
    if d == 0:
        return SolutionBasis(mf.zero(n, 0), 0, complement=mf.constant(Vc))

    M = np.linalg.lstsq(E @ V, A @ V, rcond=None)[0]
    # anchored at the centre: with real parts of the spectrum spread by D,
    # the basis keeps a relative margin of about exp(-D (tf - t0) / 2) at both
    # ends instead of exp(-D (tf - t0)) at one
    ts = grid.points
    tm = 0.5 * (ts[0] + ts[-1])
    c = int(np.argmin(np.abs(ts - tm)))
    # the signed steps away from the anchor node c, backward then forward;
    # each distinct one is exponentiated once
    h = np.diff(ts)
    steps = np.concatenate([-h[:c][::-1], h[c:]])
    first, at = st._groups(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        X = _expm(M, np.concatenate([[ts[c] - tm], steps[first]]))
        back = st._prefix_products(np.concatenate([X[:1], X[1:][at[:c]]]))
        fwd = st._prefix_products(np.concatenate([X[:1], X[1:][at[c:]]]))
        phiv = V @ np.concatenate([back[::-1], fwd[1:]])
        phid = phiv @ M
        res = _maxnorm(E[None] @ phid - A[None] @ phiv)
    finite = np.all(np.isfinite(phiv) & np.isfinite(phid), axis=(1, 2))
    if not finite.all():
        t = float(ts[np.argmin(finite)])
        re = np.linalg.eigvals(M).real
        raise BasisDeficiencyError(
            f"Phi overflows at t={t:.6g}: no basis of the solution space keeps "
            f"rank on this interval (predicted margin "
            f"exp(-{0.5 * (re.max() - re.min()) * (ts[-1] - ts[0]):.4g}))",
            t=t,
        )
    if not res <= 1e-8 * max(np.linalg.norm(E), np.linalg.norm(A)):
        raise StageError(
            f"solution basis failed its residual test ({res:.3e})", stage="solution basis"
        )
    return SolutionBasis(st._sampled(grid, phiv, phid), d, complement=mf.constant(Vc))


# ---------------------------------------------------------------------------
# staged pipeline machinery (value/derivative arrays on the grid)
# ---------------------------------------------------------------------------

def _layout_defects(Ev, Av, lead, z):
    """Defects of a canonical layout: the leading E block against `lead`, the
    E blocks coupling it to the rest, and the first z rows and columns of A."""
    d = lead.shape[0]
    return (
        _maxnorm(Ev[:, :d, :d] - lead),
        _maxnorm(Ev[:, :d, d:]) + _maxnorm(Ev[:, d:, :d]),
        _maxnorm(Av[:, :z, :]) + _maxnorm(Av[:, :, :z]),
    )


class _Pipeline:
    def __init__(self, pair, grid, kind):
        """Sample the pair once and check its input structure."""
        self.Ev, self.Ed, self.Av = st._values(pair, grid)
        self.grid = grid
        self.kind = kind
        self.n = pair.n
        # the input pair's norms of E and A, which the algebraic block's
        # ranks are decided against
        self.e_scale, self.a_scale = _maxnorm(self.Ev), _maxnorm(self.Av)
        # every structure and layout check is judged against the norm of the
        # pair it reads: the input pair here, the latest stage's after apply
        res, self.norm = st._structure(kind, self.Ev, self.Ed, self.Av,
                                       max(self.e_scale, self.a_scale))
        if res > 1e-10:
            what = "self-adjoint" if kind == st.SELF_ADJOINT else "skew-adjoint"
            raise StructureError(f"pair is not {what} (relative residual {res:.3e})")
        self.Qv = self.Qd = None  # the identity until the first stage
        self.stage_residuals = []

    def apply(self, name, rows, cols, X, Xd=None):
        """Congruence by the identity with its block [rows, cols] replaced by
        X: a constant matrix, or a (K, ., .) grid array whose derivative
        samples are Xd (Xd=None means Qdot = 0).  The block is diagonal or
        that of a shear (`structure._block`).  A block that covers the matrix
        gives new arrays; any other is written in place into the pipeline's
        arrays, on its rows and columns only, so X and Xd must not be views
        of them.  Before the first such stage the one-sample arrays get the
        grid axis, by one copy each.  A first stage that covers the matrix
        gives the transform: the pipeline then holds X and Xd themselves."""
        block = st._block(self.n, rows, cols)
        r, c, covers = block
        first = self.Qv is None
        if first:
            self.Qv, self.Qd = np.eye(self.n)[None], np.zeros((1, self.n, self.n))
        if not covers:
            K = len(self.grid.points)
            for key in ("Ev", "Ed", "Av", "Qv", "Qd"):
                if len(getattr(self, key)) < K:
                    setattr(self, key, np.repeat(getattr(self, key), K, axis=0))
        self.Ev, self.Ed, self.Av = st._congruence_arrays(
            self.Ev, self.Ed, self.Av, X, Xd, rows, cols)
        if first and covers:
            # Q_all = I Q
            self.Qv = X.reshape(-1, self.n, self.n)
            if Xd is not None:
                self.Qd = Xd
        else:
            # Q_all <- Q_all Q, and its derivative Qd Q + Q_all Qdot
            Qd = st._block_right(self.Qd, X, block)
            if Xd is not None:
                Qd[..., :, c] += self.Qv[..., :, r] @ Xd
            self.Qv, self.Qd = st._block_right(self.Qv, X, block), Qd
        res, self.norm = st._structure(self.kind, self.Ev, self.Ed, self.Av)
        self.stage_residuals.append((name, float(res)))
        if res > STAGE_TOL:
            raise StageError(
                f"structure lost after stage '{name}' (residual {res:.3e})", stage=name
            )

    def require(self, name, defect):
        defect = st._relative(float(defect), self.norm)
        self.stage_residuals.append((name, defect))
        if defect > STAGE_TOL:
            raise StageError(f"check '{name}' failed (defect {defect:.3e})", stage=name)

    def _freeze(self):
        """Make the pipeline's arrays read-only, which ends its stages: the
        functions read from them below keep views of them, not copies."""
        for a in (self.Ev, self.Ed, self.Av, self.Qv, self.Qd):
            mf._frozen(a)

    def transform(self):
        self._freeze()
        return st.CongruenceTransform(st._sampled(self.grid, self.Qv, self.Qd))

    def block(self, which, rows=slice(None), cols=slice(None)):
        """Block [rows, cols] of the current E (with its derivative samples)
        or A, which is "E" or "A", as a function: a view of the frozen
        pipeline arrays, so every block of a form shares the memory of its
        `pair_mf`."""
        self._freeze()
        if which == "E":
            return st._sampled(self.grid, self.Ev[:, rows, cols], self.Ed[:, rows, cols])
        return st._sampled(self.grid, self.Av[:, rows, cols])

    def pair_mf(self, interval):
        return mf.MatrixPair(self.block("E"), self.block("A"), interval)


def _basis_congruence(pipe, basis):
    """Congruence by [Phi | complement]; without one, the kernel columns of
    `_row_frame` of Phi^T, whose one SVD also gives the rank guard.  With
    one, the rank guard is `structure._require_full_rank`: one Cholesky of
    Phi's Gram matrix proves the margin, and a values-only SVD of Phi runs
    only where it proves nothing.  A given complement C must keep its
    contract at every node: C^T Phi = 0 and C^T C = I, both to 1e-8 (the
    first relative to |Phi|).  C is read by `structure._samples`, so a
    constant one is checked on its one sample and broadcast into [Phi | C]."""
    grid, ts = pipe.grid, pipe.grid.points
    d = basis.d
    phiv = basis.Phi.eval_on(grid)
    phid = basis.Phi.derivative_on(grid)
    rank_guard = (RANK_FLOOR, BasisDeficiencyError, "Phi loses rank")

    if basis.complement is None:
        V, Vd = _row_frame(_bT(phiv), _bT(phid), ts,
                           lambda rel: st._require_margin(rel, ts, *rank_guard))
        compv, compd = V[..., d:], Vd[..., d:]
    else:
        st._require_full_rank(phiv, ts, *rank_guard)
        compv = st._samples(basis.complement, grid)
        compd = st._samples(basis.complement, grid, True)
        cT = _bT(compv)
        cross = _frobenius(cT @ phiv) / np.maximum(_frobenius(phiv), 1e-300)
        cross, ortho = np.broadcast_arrays(
            cross, _frobenius(cT @ compv - np.eye(compv.shape[2])))
        bad = np.flatnonzero(~((cross <= 1e-8) & (ortho <= 1e-8)))
        if bad.size:
            t = float(ts[bad[0]])
            raise BasisDeficiencyError(
                f"the complement is not an orthonormal basis of range(Phi)^perp at "
                f"t={t} (|C^T Phi| / |Phi| = {cross[bad[0]]:.3e}, "
                f"|C^T C - I| = {ortho[bad[0]]:.3e})",
                t=t,
            )
    resid = _maxnorm(pipe.Ev @ phid - pipe.Av @ phiv)
    if resid > 1e-8 * pipe.norm:
        raise BasisDeficiencyError(
            f"Phi does not solve the homogeneous DAE (residual {resid:.3e})"
        )
    X, Xd = np.empty((2, len(ts), pipe.n, pipe.n))
    X[..., :d], X[..., d:] = phiv, compv
    Xd[..., :d], Xd[..., d:] = phid, compd
    pipe.apply("solution-basis congruence", slice(None), slice(None), X, Xd)
    # first block column of A must vanish since E Phidot = A Phi
    pipe.require("A first-block-column zero", _maxnorm(pipe.Av[:, :, :d]))
    E11 = pipe.Ev[:, :d, :d]
    pipe.require("E11 constant", _maxnorm(E11 - E11[0]))
    return E11[0].copy()


def _skew_pairing_transform(E11c, scale):
    """Orthogonal U with U^T E11 U having a vanishing leading p x p block,
    p = d / 2 for the d x d constant E11.

    For each eigenvalue sigma > RANK_TOL * scale of the Hermitian i*S, S the
    skew part of E11, the real and imaginary parts of its unit eigenvector,
    times sqrt(2), are an orthonormal pair (x, y) with S x = sigma y.  Each
    x goes to the leading half and each y to the trailing half; a real
    kernel basis of S, split in halves, fills the rest.
    """
    d = E11c.shape[0]
    S = 0.5 * (E11c - E11c.T)
    sig, vec = np.linalg.eigh(1j * S)
    # the eigenvalues come in pairs +-sigma: rank the d // 2 largest
    m = _rank(sig[::-1][: d // 2], RANK_TOL, scale)
    pairs = np.sqrt(2.0) * vec[:, d - m:]
    zeros = np.linalg.svd(S)[2][2 * m:].T
    half = (d - 2 * m) // 2
    return np.hstack([pairs.real, zeros[:, :half], pairs.imag, zeros[:, half:]])


def _check_algebraic_block_static(Ev33, Av33, where, e_scale, a_scale):
    """Uniquely solvable algebraic part must carry no finite dynamics.

    Checked via the finite deflating subspace of the pencil when the blocks
    are constant in time (the only case where it is cheaply available).
    e_scale and a_scale are the norms of the E and A the blocks were cut
    from; each block's constancy and ranks are judged against its own.  A
    nonzero dimension, a singular pencil or an ill-posed rank there means the
    supplied basis missed part of the solution space, and each raises
    `BasisDeficiencyError`.
    """
    if Ev33.shape[1] == 0:
        return
    if (
        _maxnorm(Ev33 - Ev33[0]) > 1e-8 * e_scale
        or _maxnorm(Av33 - Av33[0]) > 1e-8 * a_scale
    ):
        return
    try:
        finite = _finite_subspace(Ev33[0], Av33[0], e_scale, a_scale)[0].shape[1]
    except (RegularityError, IllPosedRankError) as exc:
        raise BasisDeficiencyError(
            f"algebraic part of the {where} canonical form is not uniquely "
            f"solvable ({exc}); the basis does not span the full solution space"
        ) from exc
    if finite > 0:
        raise BasisDeficiencyError(
            f"algebraic part of the {where} canonical form still carries "
            f"{finite} dynamic degrees of freedom; the basis does not span "
            "the full solution space"
        )


def global_canonical_self(pair, basis, grid):
    """Constructive congruence to the self-adjoint global canonical layout

        E = [[0, I_p, 0], [-I_p, 0, 0], [0, 0, E33]],
        A = [[0, 0, 0], [0, A22, A23], [0, A32, A33]].
    """
    pipe = _Pipeline(pair, grid, st.SELF_ADJOINT)
    d, n = basis.d, pair.n
    if d % 2:
        raise ParityError(f"solution space dimension {d} is odd for a self-adjoint pair")
    p = d // 2
    E11c = _basis_congruence(pipe, basis)

    if d:
        # ranked against |E| of the pair E11 was cut from
        Ub = _skew_pairing_transform(E11c, _maxnorm(pipe.Ev))
        pipe.require(
            "leading block of paired E11 zero", _maxnorm((Ub.T @ E11c @ Ub)[None, :p, :p])
        )
        pipe.apply("skew pairing", slice(d), slice(d), Ub)

        # normalize [E12 E13] V = [I_p 0]
        def guard(rel):
            st._require_margin(rel, grid.points, RANK_FLOOR, StageError,
                               "[E12 E13] loses row rank", stage="row normalization")

        V, Vd = _row_frame(pipe.Ev[:, :p, p:], pipe.Ed[:, :p, p:], grid.points, guard)
        pipe.apply("row normalization", slice(p, n), slice(p, n), V, Vd)
        pipe.require(
            "normalized leading row",
            _maxnorm(pipe.Ev[:, :p, p:d] - np.eye(p)) + _maxnorm(pipe.Ev[:, :p, d:]),
        )

        # decouple: congruence by [[I, E22/2, E23], [0, I, 0], [0, 0, I]]
        # Q carries its own derivative, so the (2,2) block of E becomes
        # X^T - X + E22 = 0 (X = E22/2) at every t, constant E22 or not
        half = np.repeat([0.5, 1.0], [p, n - d])
        pipe.apply("decoupling", slice(p), slice(p, n),
                   pipe.Ev[:, p:d, p:] * half, pipe.Ed[:, p:d, p:] * half)

    lead, e_off, a_zero = _layout_defects(pipe.Ev, pipe.Av, st._J(p), p)
    pipe.require("canonical leading E block", lead)
    pipe.require("canonical zero pattern", e_off + a_zero)
    _check_algebraic_block_static(pipe.Ev[:, d:, d:], pipe.Av[:, d:, d:], "self-adjoint",
                                  pipe.e_scale, pipe.a_scale)

    i2, i3 = slice(p, d), slice(d, n)
    form = SelfAdjointGlobalForm(
        p=p,
        E33=pipe.block("E", i3, i3),
        A22=pipe.block("A", i2, i2),
        A23=pipe.block("A", i2, i3),
        A32=pipe.block("A", i3, i2),
        A33=pipe.block("A", i3, i3),
        Q=pipe.transform(),
        grid=grid,
        n=n,
        pair_transformed=pipe.pair_mf(pair.interval),
        stage_residuals=pipe.stage_residuals,
    )
    return form


def global_canonical_skew(pair, basis, grid):
    """Constructive congruence to the skew-adjoint global canonical layout

        E = diag(I_p, -I_q, E33),   A = diag(0, 0, A33).
    """
    pipe = _Pipeline(pair, grid, st.SKEW_ADJOINT)
    d, n = basis.d, pair.n
    a = n - d
    E11c = _basis_congruence(pipe, basis)

    p = q = 0
    if d:
        E11c = 0.5 * (E11c + E11c.T)
        # ranked against |E| of the pair E11 was cut from
        rank = _rank(np.sort(np.abs(np.linalg.eigvalsh(E11c)))[::-1], RANK_TOL,
                     _maxnorm(pipe.Ev))
        if rank < d:
            # the dimension argument of the global form forces a nonsingular
            # E11; a kernel here means Phi missed part of the solution space
            raise BasisDeficiencyError(
                f"E11 = Phi^T E Phi is singular ({d - rank} near-zero "
                "eigenvalues); the basis does not span the full solution space"
            )
        (W,), p = _inertia(E11c[None], grid.points)
        q = d - p
        pipe.apply("inertia normalization", slice(d), slice(d), W[0])
        S = st._signature(p, q)
        pipe.require("leading signature block", _maxnorm(pipe.Ev[:, :d, :d] - S))

        if a:
            pipe.apply("algebraic decoupling", slice(d), slice(d, n),
                       -S[None] @ pipe.Ev[:, :d, d:], -S[None] @ pipe.Ed[:, :d, d:])

    lead, e_off, a_zero = _layout_defects(pipe.Ev, pipe.Av, st._signature(p, q), d)
    pipe.require("canonical leading E block", lead)
    pipe.require("canonical zero pattern", e_off + a_zero)
    _check_algebraic_block_static(pipe.Ev[:, d:, d:], pipe.Av[:, d:, d:], "skew-adjoint",
                                  pipe.e_scale, pipe.a_scale)

    i3 = slice(d, n)
    form = SkewAdjointGlobalForm(
        p=p,
        q=q,
        E33=pipe.block("E", i3, i3),
        A33=pipe.block("A", i3, i3),
        Q=pipe.transform(),
        grid=grid,
        n=n,
        pair_transformed=pipe.pair_mf(pair.interval),
        stage_residuals=pipe.stage_residuals,
    )
    return form


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def _pattern_entries(form, grid, lead, z):
    """E_pattern and A_pattern defects of the assembled transformed pair."""
    if form.pair_transformed is None:
        return {"E_pattern": 0.0, "A_pattern": 0.0}
    lead_defect, e_off, a_zero = _layout_defects(
        form.pair_transformed.E.eval_on(grid), form.pair_transformed.A.eval_on(grid), lead, z
    )
    return {"E_pattern": lead_defect + e_off, "A_pattern": a_zero}


def verify_self_global_form(form, grid):
    """Residuals of the four block relations of the self-adjoint layout plus
    the zero-pattern defects of the assembled pair (reports, never raises)."""
    E33 = form.E33.eval_on(grid)
    A22 = form.A22.eval_on(grid)
    A23 = form.A23.eval_on(grid)
    A32 = form.A32.eval_on(grid)
    A33 = form.A33.eval_on(grid)
    e33, a33 = st._defect_norms(st.SELF_ADJOINT, E33, form.E33.derivative_on(grid), A33)
    entries = {
        "E33_skew": e33,
        "A22_symmetric": _maxnorm(A22 - _bT(A22)),
        "A32_transpose_A23": _maxnorm(_bT(A32) - A23),
        "A33_self_adjoint": a33,
    }
    entries.update(_pattern_entries(form, grid, st._J(form.p), form.p))
    return ResidualRecord(entries)


def verify_skew_global_form(form, grid):
    """Residuals of the block relations of the skew-adjoint layout plus the
    zero-pattern defects (reports, never raises)."""
    E33 = form.E33.eval_on(grid)
    e33, a33 = st._defect_norms(
        st.SKEW_ADJOINT, E33, form.E33.derivative_on(grid), form.A33.eval_on(grid)
    )
    entries = {"E33_symmetric": e33, "A33_skew_adjoint": a33}
    entries.update(
        _pattern_entries(form, grid, st._signature(form.p, form.q), form.p + form.q)
    )
    return ResidualRecord(entries)
