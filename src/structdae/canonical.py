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
deflating subspace, found by a Wong sequence, and an in-house matrix
exponential; the whole construction runs on numpy alone.  Every rank is
decided by the gap test of `factor._numerical_rank` against the norm of the
pair the block is cut from, never against a block's own roundoff; a value
within a factor 10 of its threshold raises IllPosedRankError.  Every
structure residual and layout defect is likewise relative to the norm of the
pair it is read from, with no absolute floor.

Local canonical forms are verified only, never constructed.
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
from .factor import _rank, smooth_inertia, smooth_kernel_frame
from .structure import _bT, _maxnorm

RANK_FLOOR = 1e-10
# structure residual every stage keeps, relative to the norm of its pair
STAGE_TOL = 1e-8
# gap tolerance of every rank decision, against the norm of the pair the
# ranked block is cut from
RANK_TOL = 1e-8


@dataclass
class ResidualRecord:
    """Named residuals plus minimum relative singular values of blocks
    required to be pointwise nonsingular."""

    entries: dict
    conditioning: dict = field(default_factory=dict)

    @property
    def worst(self):
        return max(self.entries.values()) if self.entries else 0.0

    def passes(self, tol=1e-8):
        ok = all(v <= tol for v in self.entries.values())
        return ok and all(v >= RANK_FLOOR for v in self.conditioning.values())


@dataclass
class SolutionBasis:
    """Basis Phi of the homogeneous solution space, with derivative.

    ``complement`` optionally holds a pointwise orthonormal basis of the
    orthogonal complement of range(Phi); when present the canonical-form
    pipelines use it instead of rebuilding one numerically.
    """

    Phi: mf.MatrixFunction
    Phidot: mf.MatrixFunction
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


def _expm(X):
    """Matrix exponential of a stack X (..., d, d): the Pade [13/13]
    approximant of X / 2^s, squared s times, with s chosen per matrix."""
    b = _PADE13
    s = np.maximum(np.frexp(np.abs(X).sum(axis=-2).max(axis=-1) / _THETA13)[1], 0)
    X = X * np.exp2(-s)[..., None, None]
    eye = np.eye(X.shape[-1])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
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
    the basis is Phi(t) = V* expm((t - tc) M), anchored at the centre tc of
    the grid.
    """
    E, A = st._constant(pair.E), st._constant(pair.A)
    if E is None or A is None:
        raise UnsupportedError("solution_basis_constant needs a constant pair")
    n = pair.n
    V, Vc = _finite_subspace(E, A, np.linalg.norm(E, 2), np.linalg.norm(A, 2))
    d = V.shape[1]
    if d == 0:
        phi = mf.SampledMatrixFunction(grid, np.zeros((grid.n, n, 0)), order=3,
                                       deriv_values=np.zeros((grid.n, n, 0)))
        return SolutionBasis(phi, phi, 0, complement=mf.constant(Vc))

    M = np.linalg.lstsq(E @ V, A @ V, rcond=None)[0]
    # anchored at the centre: with real parts of the spectrum spread by D,
    # the basis keeps a relative margin of about exp(-D (tf - t0) / 2) at both
    # ends instead of exp(-D (tf - t0)) at one
    ts = grid.points
    with np.errstate(over="ignore", invalid="ignore"):
        phiv = V @ _expm((ts - 0.5 * (ts[0] + ts[-1]))[:, None, None] * M)
        phid = phiv @ M
        phidd = phid @ M
        res = _maxnorm(E[None] @ phid - A[None] @ phiv)
    finite = np.all(np.isfinite(phiv) & np.isfinite(phid) & np.isfinite(phidd), axis=(1, 2))
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
    Phi = mf.SampledMatrixFunction(grid, phiv, order=3, deriv_values=phid)
    Phidot = mf.SampledMatrixFunction(grid, phid, order=3, deriv_values=phidd)
    return SolutionBasis(Phi, Phidot, d, complement=mf.constant(Vc))


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
        self.K = grid.n
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
        self.Qv = np.eye(self.n)[None]  # one sample until the first stage
        self.Qd = np.zeros((1, self.n, self.n))
        self.stage_residuals = []

    def apply(self, name, Qv, Qd=None):
        """Congruence by a grid array Qv (or a constant matrix; Qd=None means Qdot = 0)."""
        self.Ev, self.Ed, self.Av = st._congruence_arrays(self.Ev, self.Ed, self.Av, Qv, Qd)
        self.Qd = self.Qd @ Qv if Qd is None else self.Qd @ Qv + self.Qv @ Qd
        self.Qv = self.Qv @ Qv
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

    def transform(self):
        Q = mf.SampledMatrixFunction(self.grid, self.Qv, order=3, deriv_values=self.Qd)
        Qdot = mf.SampledMatrixFunction(self.grid, self.Qd, order=3)
        return st.CongruenceTransform(Q, Qdot)

    def block(self, rows, cols):
        vals = self.Ev[:, rows[0] : rows[1], cols[0] : cols[1]]
        ders = self.Ed[:, rows[0] : rows[1], cols[0] : cols[1]]
        return mf.SampledMatrixFunction(self.grid, vals.copy(), order=3,
                                        deriv_values=ders.copy())

    def a_block(self, rows, cols):
        vals = self.Av[:, rows[0] : rows[1], cols[0] : cols[1]]
        return mf.SampledMatrixFunction(self.grid, vals.copy(), order=3)

    def pair_mf(self, interval):
        E = mf.SampledMatrixFunction(self.grid, self.Ev.copy(), order=3,
                                     deriv_values=self.Ed.copy())
        A = mf.SampledMatrixFunction(self.grid, self.Av.copy(), order=3)
        return mf.MatrixPair(E, A, interval)


def _completion_arrays(basis, grid):
    """Pointwise orthonormal completion of range(Phi), with derivatives."""
    if basis.complement is not None:
        return basis.complement.eval_on(grid), basis.complement.derivative_on(grid)
    phi_t = mf.mf_transpose(basis.Phi)
    return smooth_kernel_frame(phi_t, grid)


def _basis_congruence(pipe, basis):
    grid = pipe.grid
    d = basis.d
    phiv = basis.Phi.eval_on(grid)
    phid = basis.Phidot.eval_on(grid)
    st._require_nonsingular(phiv, grid.points, RANK_FLOOR, BasisDeficiencyError,
                            "Phi loses rank")
    resid = _maxnorm(pipe.Ev @ phid - pipe.Av @ phiv)
    if resid > 1e-8 * pipe.norm:
        raise BasisDeficiencyError(
            f"Phi does not solve the homogeneous DAE (residual {resid:.3e})"
        )
    compv, compd = _completion_arrays(basis, grid)
    Qv = np.concatenate([phiv, compv], axis=2)
    Qd = np.concatenate([phid, compd], axis=2)
    pipe.apply("solution-basis congruence", Qv, Qd)
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
    a = n - d
    E11c = _basis_congruence(pipe, basis)

    if d:
        # ranked against |E| of the pair E11 was cut from
        Ub = _skew_pairing_transform(E11c, _maxnorm(pipe.Ev))
        pipe.require(
            "leading block of paired E11 zero", _maxnorm((Ub.T @ E11c @ Ub)[None, :p, :p])
        )
        Q2 = np.eye(n)
        Q2[:d, :d] = Ub
        pipe.apply("skew pairing", Q2)

        # normalize [E12 E13] V = [I_p 0]
        Bv = pipe.Ev[:, :p, p:].copy()
        Bd = pipe.Ed[:, :p, p:].copy()
        st._require_nonsingular(Bv, grid.points, RANK_FLOOR, StageError,
                                "[E12 E13] loses row rank", stage="row normalization")
        BBt = Bv @ _bT(Bv)
        Binv = np.linalg.solve(BBt, np.eye(p)[None].repeat(pipe.K, axis=0))
        V1 = _bT(Bv) @ Binv
        dBBt = Bd @ _bT(Bv) + Bv @ _bT(Bd)
        V1d = _bT(Bd) @ Binv - _bT(Bv) @ Binv @ dBBt @ Binv
        if a:
            Bmf = mf.SampledMatrixFunction(grid, Bv, order=3, deriv_values=Bd)
            Nv, Nd = smooth_kernel_frame(Bmf, grid)
            Vv = np.concatenate([V1, Nv], axis=2)
            Vd = np.concatenate([V1d, Nd], axis=2)
        else:
            Vv, Vd = V1, V1d
        Q3 = np.zeros((pipe.K, n, n))
        Q3d = np.zeros((pipe.K, n, n))
        Q3[:, :p, :p] = np.eye(p)
        Q3[:, p:, p:] = Vv
        Q3d[:, p:, p:] = Vd
        pipe.apply("row normalization", Q3, Q3d)
        pipe.require(
            "normalized leading row",
            _maxnorm(pipe.Ev[:, :p, p:d] - np.eye(p)) + _maxnorm(pipe.Ev[:, :p, d:]),
        )

        # decouple: congruence by [[I, E22/2, E23], [0, I, 0], [0, 0, I]]
        # Q4 carries its own derivative, so the (2,2) block of E becomes
        # X^T - X + E22 = 0 (X = E22/2) at every t, constant E22 or not
        Q4 = np.broadcast_to(np.eye(n), (pipe.K, n, n)).copy()
        Q4d = np.zeros((pipe.K, n, n))
        Q4[:, :p, p:d] = 0.5 * pipe.Ev[:, p:d, p:d]
        Q4[:, :p, d:] = pipe.Ev[:, p:d, d:]
        Q4d[:, :p, p:d] = 0.5 * pipe.Ed[:, p:d, p:d]
        Q4d[:, :p, d:] = pipe.Ed[:, p:d, d:]
        pipe.apply("decoupling", Q4, Q4d)

    lead, e_off, a_zero = _layout_defects(pipe.Ev, pipe.Av, st._J(p), p)
    pipe.require("canonical leading E block", lead)
    pipe.require("canonical zero pattern", e_off + a_zero)
    _check_algebraic_block_static(pipe.Ev[:, d:, d:], pipe.Av[:, d:, d:], "self-adjoint",
                                  pipe.e_scale, pipe.a_scale)

    form = SelfAdjointGlobalForm(
        p=p,
        E33=pipe.block((d, n), (d, n)),
        A22=pipe.a_block((p, d), (p, d)),
        A23=pipe.a_block((p, d), (d, n)),
        A32=pipe.a_block((d, n), (p, d)),
        A33=pipe.a_block((d, n), (d, n)),
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
        inertia = smooth_inertia(mf.constant(E11c), grid)
        p, q = inertia.p, inertia.q
        Q2 = np.eye(n)
        Q2[:d, :d] = inertia.W.value
        pipe.apply("inertia normalization", Q2)
        S = st._signature(p, q)
        pipe.require("leading signature block", _maxnorm(pipe.Ev[:, :d, :d] - S))

        if a:
            E13 = pipe.Ev[:, :d, d:]
            E13d = pipe.Ed[:, :d, d:]
            Q3 = np.broadcast_to(np.eye(n), (pipe.K, n, n)).copy()
            Q3d = np.zeros((pipe.K, n, n))
            Q3[:, :d, d:] = -S[None] @ E13
            Q3d[:, :d, d:] = -S[None] @ E13d
            pipe.apply("algebraic decoupling", Q3, Q3d)

    lead, e_off, a_zero = _layout_defects(pipe.Ev, pipe.Av, st._signature(p, q), d)
    pipe.require("canonical leading E block", lead)
    pipe.require("canonical zero pattern", e_off + a_zero)
    _check_algebraic_block_static(pipe.Ev[:, d:, d:], pipe.Av[:, d:, d:], "skew-adjoint",
                                  pipe.e_scale, pipe.a_scale)

    form = SkewAdjointGlobalForm(
        p=p,
        q=q,
        E33=pipe.block((d, n), (d, n)),
        A33=pipe.a_block((d, n), (d, n)),
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
    e33, a33 = st._defects(st.SELF_ADJOINT, E33, form.E33.derivative_on(grid), A33)
    entries = {
        "E33_skew": _maxnorm(e33),
        "A22_symmetric": _maxnorm(A22 - _bT(A22)),
        "A32_transpose_A23": _maxnorm(_bT(A32) - A23),
        "A33_self_adjoint": _maxnorm(a33),
    }
    entries.update(_pattern_entries(form, grid, st._J(form.p), form.p))
    return ResidualRecord(entries)


def verify_skew_global_form(form, grid):
    """Residuals of the block relations of the skew-adjoint layout plus the
    zero-pattern defects (reports, never raises)."""
    E33 = form.E33.eval_on(grid)
    e33, a33 = st._defects(
        st.SKEW_ADJOINT, E33, form.E33.derivative_on(grid), form.A33.eval_on(grid)
    )
    entries = {"E33_symmetric": _maxnorm(e33), "A33_skew_adjoint": _maxnorm(a33)}
    entries.update(
        _pattern_entries(form, grid, st._signature(form.p, form.q), form.p + form.q)
    )
    return ResidualRecord(entries)


# ---------------------------------------------------------------------------
# local canonical forms: verification only
# ---------------------------------------------------------------------------

SELF_ORTHOGONAL = "self_orthogonal"
SELF_REFINED = "self_refined"
SKEW_ORTHOGONAL = "skew_orthogonal"
SKEW_REFINED = "skew_refined"


@dataclass
class LocalFormBlocks:
    """Named blocks of a claimed local canonical form.

    ``core`` is the structured E-block of the dynamic part (Delta for the
    orthogonal variants, J for the refined self form, the signature S for
    the refined skew form); ``sigma11`` is the matching A-block (Sigma11,
    C, or J respectively).  Chain data (e14, a14, a41) are block grids
    partitioned by chain_row_sizes x chain_col_sizes, w blocks each.
    """

    variant: str
    core: mf.MatrixFunction | None = None
    sigma11: mf.MatrixFunction | None = None
    sigma12: mf.MatrixFunction | None = None
    sigma21: mf.MatrixFunction | None = None
    sigma22: mf.MatrixFunction | None = None
    e14: mf.MatrixFunction | None = None
    a14: mf.MatrixFunction | None = None
    a41: mf.MatrixFunction | None = None
    chain_row_sizes: tuple = ()
    chain_col_sizes: tuple = ()
    p: int = 0
    q: int = 0


def _block_slices(sizes):
    out = []
    start = 0
    for s in sizes:
        out.append((start, start + s))
        start += s
    return out


def verify_local_form(blocks, grid):
    """Check the property display of the claimed local form (reports only)."""
    v = blocks.variant
    if v not in (SELF_ORTHOGONAL, SELF_REFINED, SKEW_ORTHOGONAL, SKEW_REFINED):
        raise UnsupportedError(f"unknown local form variant {v!r}")
    sgn = 1.0 if v in (SELF_ORTHOGONAL, SELF_REFINED) else -1.0
    kind = st.SELF_ADJOINT if sgn > 0 else st.SKEW_ADJOINT
    entries = {}
    cond = {}

    def ev(f):
        return f.eval_on(grid)

    core = blocks.core
    orthogonal = v in (SELF_ORTHOGONAL, SKEW_ORTHOGONAL)
    if core is not None:
        C = ev(core)
        if orthogonal:
            # (Delta, Sigma11) is itself a pair of the form's structure
            S11 = C if blocks.sigma11 is None else ev(blocks.sigma11)
            e_def, a_def = st._defects(kind, C, core.derivative_on(grid), S11)
            entries["delta_skew" if sgn > 0 else "delta_symmetric"] = _maxnorm(e_def)
            if blocks.sigma11 is not None:
                entries["sigma11_relation"] = _maxnorm(a_def)
            cond["delta"] = float(st._rel_smin(C).min())
        elif v == SELF_REFINED:
            entries["J_canonical"] = _maxnorm(C - st._J(blocks.p))
        else:
            entries["S_signature"] = _maxnorm(C - st._signature(blocks.p, blocks.q))

    if blocks.sigma11 is not None and not orthogonal:
        S11 = ev(blocks.sigma11)
        if v == SELF_REFINED:
            entries["C_symmetric"] = _maxnorm(S11 - _bT(S11))
        else:
            entries["J_skew"] = _maxnorm(S11 + _bT(S11))

    if blocks.sigma12 is not None and blocks.sigma21 is not None:
        S12, S21 = ev(blocks.sigma12), ev(blocks.sigma21)
        entries["sigma21_sigma12"] = _maxnorm(_bT(S21) - sgn * S12)

    if blocks.sigma22 is not None:
        S22 = ev(blocks.sigma22)
        key = "sigma22_symmetric" if sgn > 0 else "sigma22_skew"
        entries[key] = _maxnorm(S22 - sgn * _bT(S22))
        cond["sigma22"] = float(st._rel_smin(S22).min())

    if blocks.a14 is not None and blocks.a41 is not None:
        A14 = ev(blocks.a14)
        A41 = ev(blocks.a41)
        E14d = (
            blocks.e14.derivative_on(grid)
            if blocks.e14 is not None
            else np.zeros_like(_bT(A41))
        )
        entries["a41_chain_relation"] = _maxnorm(_bT(A41) - sgn * (A14 + E14d))

    w = len(blocks.chain_row_sizes)
    if w:
        rows = _block_slices(blocks.chain_row_sizes)
        cols = _block_slices(blocks.chain_col_sizes)
        if blocks.e14 is not None:
            E14 = ev(blocks.e14)
            defect = 0.0
            for i in range(w):
                for j in range(w):
                    if i + j >= w - 1:  # on/below the anti-diagonal
                        defect += _maxnorm(
                            E14[:, rows[i][0] : rows[i][1], cols[j][0] : cols[j][1]]
                        )
            entries["e14_pattern"] = defect
        if blocks.a14 is not None:
            A14 = ev(blocks.a14)
            defect = 0.0
            for i in range(w):
                for j in range(w):
                    blk = A14[:, rows[i][0] : rows[i][1], cols[j][0] : cols[j][1]]
                    if i + j == w - 1:
                        label = f"gamma{w - i}"
                        cond[label] = float(st._rel_smin(blk).min())
                        if v in (SELF_REFINED, SKEW_REFINED):
                            eye = np.eye(blk.shape[1])
                            entries[label + "_identity"] = _maxnorm(blk - eye)
                    elif i + j > w - 1:
                        defect += _maxnorm(blk)
            entries["a14_pattern"] = defect

    return ResidualRecord(entries, cond)
