"""Structured reductions to the dynamic core plus algebraic recovery maps.

One kernel-elimination driver handles regular pairs with positive
semidefinite E of constant rank and differentiation index at most two:
one congruence (the kernel split of E times the constraint/chain frame),
the index-1 elimination of the algebraic block for every pair, one block
for the constraint/chain pairing (index 2), and the scaling of the dynamic
block by the Cholesky factor L of its E coefficient, so the dynamic state
is y = L^T xi.  The core earns the orthogonal certificate when the pair is
skew-adjoint and the scaled coefficient is pointwise skew;
``semidefinite_skew_reduce`` requires it, ``index1_reduce`` reports it.
``stokes_reduce`` is its index-2 case: the saddle point of incompressible
flow, with the pressure as the recovered chain variables.  Recovery maps
are affine in the dynamic state, the inhomogeneity, and at most its first
derivative; an input component that is identically zero on the grid has no
derivative to read.  A constant coefficient is one sample throughout
(`structure._samples`), so a constant pair reduces once, to constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matfun as mf
from . import structure as st
from .errors import (
    DimensionError,
    RegularityError,
    StructureError,
    UnsupportedError,
)
from .factor import _eigh_split, _rank
from .structure import _bT, _maxnorm, _sampled, _samples

COND_LIMIT = 1e12


def _require_regular(F, grid, what="algebraic block"):
    """F^-1, or RegularityError at the first grid time where F's condition
    number exceeds COND_LIMIT."""
    return st._require_nonsingular(
        F, grid.points, 1.0 / COND_LIMIT, RegularityError,
        f"{what} is numerically singular; the system is not regular "
        "(or has higher index) on this grid",
    )


@dataclass(frozen=True)
class FlowCertificate:
    """Quadratic group certificate for the extracted coefficient M(t)."""

    kind: str  # "symplectic" | "indefinite_orthogonal" | "orthogonal"
    B: np.ndarray  # J, S, or the identity

    @classmethod
    def orthogonal(cls, n):
        return cls("orthogonal", np.eye(n))

    @classmethod
    def symplectic(cls, p):
        return cls("symplectic", st._J(p))


@dataclass
class ReducedSystem:
    """Dynamic core  x2dot = M(t) x2 + g(t)  with full-state recovery.

    Coefficients whose grid samples are all equal are constants.  g is an
    ``AffineInput`` of the inhomogeneity f, evaluated where it is read (a
    zero constant when the core has no inhomogeneity).
    """

    dynamic_dim: int
    m_fun: mf.MatrixFunction
    g_fun: mf.MatrixFunction
    certificate: FlowCertificate | None
    # (name, rows) of each group of eliminated variables
    recovery: list = field(default_factory=list)
    # full original state as an affine map of (x2, f, fdot)
    rx: mf.MatrixFunction | None = None
    rf: mf.MatrixFunction | None = None
    rfd: mf.MatrixFunction | None = None
    max_f_derivative: int = 0
    pair: mf.MatrixPair | None = None
    f: mf.MatrixFunction | None = None
    projector: mf.MatrixFunction | None = None  # full state -> dynamic x2

    def reconstruct(self, t, x2):
        """Full original state at time t from the dynamic state x2."""
        ts = np.array([t], dtype=float)
        return self._recover(
            np.reshape(x2, (1, -1)), lambda F: F._eval_at(ts), lambda F: F._derivative_at(ts)
        )[0]

    def reconstruct_on(self, grid, x2):
        """Full original states at all grid points from dynamic states x2 (K, d)."""
        return self._recover(x2, lambda F: F.eval_on(grid), lambda F: F.derivative_on(grid))

    def _recover(self, x2, values, derivatives):
        """rx x2 + rf f + rfd fdot, with values(F) / derivatives(F) giving a
        matrix function at the same points as the rows of x2."""
        self._require_recovery()
        x2 = np.asarray(x2, dtype=float)
        out = np.einsum("kij,kj->ki", values(self.rx), x2)
        if self.f is not None:
            out += np.einsum("kij,kj->ki", values(self.rf), values(self.f)[:, :, 0])
            out += np.einsum("kij,kj->ki", values(self.rfd), derivatives(self.f)[:, :, 0])
        return out

    def dynamic_from_full(self, t, x_full):
        """Dynamic coordinates of a full state at time t.

        Uses the pipeline's projector; inconsistent components of x_full
        (those determined by the algebraic relations) are ignored.
        """
        self._require_recovery()
        x_full = np.asarray(x_full, dtype=float).reshape(-1)
        return self.projector.eval(t) @ x_full

    def _require_recovery(self):
        """UnsupportedError unless the reduction kept its recovery maps (a
        core from ``self_adjoint_dynamic_extract`` has none)."""
        if self.rx is None or self.projector is None:
            raise UnsupportedError(
                "this reduced system has no recovery maps (rx, projector) to "
                "full states; integrate its core with integrate_linear"
            )

    def certificate_defect(self, grid):
        """max_t || M^T B + B M ||_F for the certificate's quadratic form."""
        if self.certificate is None:
            return float("nan")
        Mv = self.m_fun.eval_on(grid)
        B = self.certificate.B
        return _maxnorm(_bT(Mv) @ B[None] + B[None] @ Mv)


class AffineInput(mf.MatrixFunction):
    """g(t) = G_f(t) f(t) + G_fd(t) fdot(t), with f and fdot evaluated at the
    points asked for, so the midpoint rule reads g without interpolating it."""

    def __init__(self, Gf, f, Gfd=None):
        self.Gf, self.f, self.Gfd = Gf, f, Gfd
        self.rows, self.cols = Gf.rows, 1

    def _eval_at(self, ts):
        g = self.Gf._eval_at(ts) @ self.f._eval_at(ts)
        if self.Gfd is not None:
            g += self.Gfd._eval_at(ts) @ self.f._derivative_at(ts)
        return g

    def _derivative_at(self, ts):
        raise UnsupportedError("the reduced inhomogeneity g carries no derivative")


def _cholesky_with_derivative(Sv, Sd, ts):
    """L, L^-1 and L^-1 Ldot for Sv = L L^T (L lower triangular, positive
    diagonal) and the symmetric part of Sd = Ldot L^T + L Ldot^T: L^-1 Ldot
    is lower triangular, so it is the lower triangle, with the diagonal
    halved, of L^-1 Sd L^-T.  StructureError at the first time of ts where
    a sample of Sv is not positive definite."""
    try:
        L = np.linalg.cholesky(Sv)
    except np.linalg.LinAlgError:
        t = float(ts[next(k for k, S in enumerate(Sv) if not _is_spd(S))])
        raise StructureError(
            f"dynamic E block is not positive definite at t={t}", t=t) from None
    Linv = np.linalg.inv(L)
    W = np.tril(Linv @ (0.5 * (Sd + _bT(Sd))) @ _bT(Linv))
    d = np.arange(W.shape[-1])
    W[..., d, d] *= 0.5
    return L, Linv, W


def _is_spd(S):
    """Whether S has a Cholesky factor."""
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True


def _eliminate(pair, f, grid, strict=False):
    """Kernel elimination of E xdot = A x + f with E = E^T >= 0 of constant rank.

    Splits off the kernel of E; the split pair's first sample A1(t0) then
    decides the nonsingular part of A's kernel block and the constraint/
    chain frame (index 2, constant split only), and the grid sees one
    congruence, by the split times that frame.  Every pair takes the
    index-1 elimination over the columns [xi | f]; a chain adds one block
    (etadot, the chain variables, the fdot weights).  The dynamic block is
    scaled by its Cholesky factor, S_b = L L^T, one path at either index:
    y = L^T xi and M = L^-1 C_eff L^-T + Ldot^T L^-T, which is skew exactly
    when C_eff + C_eff^T + S_bdot = 0.  The certificate is orthogonal when
    the pair passes the skew-adjoint residual test and the scaled core M is
    pointwise skew, None otherwise (strict raises StructureError, naming
    each eliminated block's size relative to the pair).  Ranks
    are decided against the norm of A1(t0) (the block at the regularity
    guard's 1/COND_LIMIT whatever the entry point, the rows at 1e-10), never
    against E's, so a change of time unit or of the pair's scale moves no
    decision.
    """
    Ev, Ed, Av = st._values(pair, grid)
    if f.rows != pair.n or f.cols != 1:
        raise DimensionError("inhomogeneity must be an n x 1 matrix function")
    n = pair.n

    res = st._structure(st.SKEW_ADJOINT, Ev, Ed, Av)[0]
    if strict and res > 1e-10:
        raise StructureError(f"pair is not skew-adjoint (relative residual {res:.3e})")
    e_scale = _maxnorm(Ev)
    asym = _maxnorm(Ev - _bT(Ev))
    if asym > 1e-12 * e_scale:
        raise StructureError(f"E is not symmetric (defect {asym:.3e})")
    # E = E^T to roundoff, so the split is one eigh, whose eigenvalues
    # also decide the sign of E
    Qv, r, lam = _eigh_split(Ev, grid.points)
    eigmin = lam.min(initial=0.0)
    if eigmin < -1e-12 * e_scale:
        raise StructureError(f"E is not positive semidefinite (min eig {eigmin:.3e})")
    # a constant split (every aligned sample equal) is one sample with
    # Qdot = 0, which lets A's derivative pass through; a moving one takes
    # the node slopes of its not-a-knot spline
    if st._bitwise_equal(Qv):
        Qv, Qd = Qv[:1], None
    else:
        Qd = mf._not_a_knot_slopes(grid.points, Qv)
    # both congruences here cover the matrix, so they return new arrays and
    # write nothing into the views Ev[:1] and Av[:1]
    A1 = st._congruence_arrays(Ev[:1], None, Av[:1], Qv[:1], None if Qd is None else Qd[:1])[2][0]

    # split the kernel block into its nonsingular part and the constraint
    # rows, both decided on A1 at t0
    t0 = grid.t0
    a_scale = np.linalg.norm(A1)
    _, s0, vt0 = np.linalg.svd(A1[r:, r:])
    k_rank = _rank(s0, 1.0 / COND_LIMIT, a_scale, t0)
    tau = n - r - k_rank  # number of chain/constraint variables
    dxi = r - tau
    ix = slice(0, dxi)
    ih = slice(dxi, r)
    i3 = slice(r, r + k_rank)
    i4 = slice(r + k_rank, n)

    Qall = Qv
    if tau:
        if Qd is not None:
            raise UnsupportedError(
                "index-2 chain elimination requires a constant kernel splitting of E"
            )
        C0 = vt0[k_rank:] @ A1[r:, :r]
        # the tau constraint rows need full row rank
        _, sc, vtc = np.linalg.svd(C0)
        if r < tau or _rank(sc, 1e-10, a_scale, t0) < tau:
            raise RegularityError(
                f"constraint rows are rank deficient at t={t0}; the pair is not regular",
                t=t0,
            )
        Qc = np.zeros((n, n))
        Qc[:r, :r] = np.hstack([vtc.T[:, tau:], vtc.T[:, :tau]])
        Qc[r:, r:] = vt0.T
        Qall = Qv @ Qc
    # the grid's one congruence; grid arrays are dropped once consumed,
    # which bounds the peak memory
    E2, E2d, A2 = st._congruence_arrays(Ev, Ed, Av, Qall, Qd)
    del Ev, Ed, Av, Qv, Qd
    a2_scale = _maxnorm(A2)  # of the matrix the blocks below are cut from

    # the split pattern must hold on the whole grid: the constraint rows read
    # only eta, and the chain variables w4 enter only the eta-rows
    pattern = (
        _maxnorm(A2[:, i4, ix]) + _maxnorm(A2[:, ix, i4])
        + _maxnorm(A2[:, i3, i4]) + _maxnorm(A2[:, i4, i3])
        + _maxnorm(A2[:, i4, i4])
    )
    if pattern > 1e-8 * a2_scale:
        raise UnsupportedError(
            "the kernel/constraint block pattern of A does not hold along the "
            f"interval; pattern defect {pattern:.3e}"
        )
    # the chain solve below reads the eta-rows' chain block as -C2^T
    C2 = A2[:, i4, ih]
    chain = _maxnorm(A2[:, ih, i4] + _bT(C2))
    if chain > 1e-8 * a2_scale:
        raise UnsupportedError(
            "dissipation on the constraint/chain block (A[eta, chain] + C2^T = "
            f"{chain:.3e}) is not supported"
        )

    # the index-1 elimination, for every pair: each eliminated group is one
    # weight array over the columns [xi | f], P = Qall^T reads f in the
    # transformed frame, and rows carry their own weights [A2[., xi] | P]
    cols = dxi + n
    P = _bT(Qall)

    def own(rows):
        return np.concatenate([A2[:, rows, ix], np.broadcast_to(P, A2.shape)[:, rows]], axis=2)

    # eta from the constraint rows, which read no xi: C2 eta = -f4; C2^T has
    # the same singular values, so one guard covers the chain solve too
    C2inv = _require_regular(C2, grid, "constraint block")
    eta = -C2inv @ np.pad(P[:, i4], ((0, 0), (0, 0), (dxi, 0)))
    # w3 from the nonsingular block
    A33inv = _require_regular(A2[:, i3, i3], grid)
    w3 = -A33inv @ (A2[:, i3, ih] @ eta + own(i3))
    # the dynamic rows before scaling: Sb xidot = [Ceff | g_f] (xi, f)
    dyn = A2[:, ix, ih] @ eta + A2[:, ix, i3] @ w3 + own(ix)

    # y = L^T xi with Sb = L L^T: ydot = M y + L^-1 [g_f f | g_fd fdot]
    Sb = E2[:, ix, ix]
    L, Linv, LinvLd = _cholesky_with_derivative(Sb, E2d[:, ix, ix], grid.points)
    Mv = Linv @ dyn[..., :dxi] @ _bT(Linv) + _bT(LinvLd)
    cert_defect = _maxnorm(Mv + _bT(Mv))
    # M's skewness is judged against the scale M is built from, A seen
    # through L^{-1} on both sides, so it too is free of the time unit
    m_scale = _maxnorm(Linv) ** 2 * a2_scale + _maxnorm(LinvLd)
    earned = res <= 1e-10 and cert_defect <= 1e-8 * m_scale
    if strict and not earned:
        # an eliminated block far smaller than the pair passes its own
        # regularity guard yet leaves the defect; name each block's size
        sizes = "".join(
            f"; {name} relative size {1.0 / (a2_scale * _maxnorm(inv)):.3e}"
            for name, inv in (("algebraic block", A33inv), ("constraint block", C2inv))
            if inv.size)
        raise StructureError(
            f"scaled dynamic block is not skew (defect {cert_defect:.3e}){sizes}"
        )

    # full-state recovery x = Qall (Z [xi | f] + Zfd fdot), sized like M
    K = len(Mv)
    Z = np.zeros((K, n, cols))
    Z[:, ix, :dxi] = np.eye(dxi)
    Z[:, ih] = eta
    Z[:, i3] = w3
    Gfd, rfd, uses_fd = None, mf.zero(n, n), False
    if tau:
        # the chain: with a constant split, C2dot is A's derivative seen
        # through Qall, and C2 etadot = -f4dot - C2dot eta gives etadot,
        # whose f4dot weight is eta's own f weight
        C2d = P[:, i4] @ _samples(pair.A, grid, True) @ Qall[:, :, ih]
        etad = -C2inv @ (C2d @ eta)
        eta_f = eta[..., dxi:]
        Sxh, Shx, Shh = E2[:, ix, ih], E2[:, ih, ix], E2[:, ih, ih]
        # not in place: dyn is still one sample when only E moves
        dyn = dyn - Sxh @ etad
        g_fd = -Sxh @ eta_f
        # w4 from the eta-rows, substituting xidot through the dynamic
        # equation; fdot columns exist from here on only
        xdot = _require_regular(Sb, grid, "dynamic E block") @ np.concatenate(
            [dyn, g_fd], axis=2)
        w4 = _bT(C2inv) @ np.concatenate([
            A2[:, ih, ih] @ eta + A2[:, ih, i3] @ w3 + own(ih)
            - Shx @ xdot[..., :cols] - Shh @ etad,
            -Shx @ xdot[..., cols:] - Shh @ eta_f,
        ], axis=2)
        Z[:, i4] = w4[..., :cols]
        Zfd = np.zeros((K, n, n))
        Zfd[:, i4] = w4[..., cols:]
        # fdot weights on a component of f that vanishes, with its derivative,
        # at every grid point read nothing; zeroed in place, since a masked
        # copy would add a grid array at the reducer's peak memory
        dead = ~(f.eval_on(grid).any(axis=0) | f.derivative_on(grid).any(axis=0))[:, 0]
        g_fd[..., dead] = 0.0
        Zfd[..., dead] = 0.0
        # fdot weights against the f weights in the pair's own time unit
        # |E| / |A|, so neither a change of unit nor the size of f decides
        tol = 1e-13 * _maxnorm(E2) / a2_scale
        uses_fd = (_maxnorm(g_fd) > tol * _maxnorm(dyn[..., dxi:])
                   or _maxnorm(Zfd) > tol * _maxnorm(Z[..., dxi:]))
        Gfd = _sampled(grid, Linv @ g_fd)
        rfd = _sampled(grid, Qall @ Zfd)

    recovery = [(name, rows) for name, rows in (
        ("constraint variables", tau), ("algebraic variables", k_rank),
        ("chain variables", tau)) if rows]
    return ReducedSystem(
        dynamic_dim=dxi,
        m_fun=_sampled(grid, Mv),
        g_fun=AffineInput(_sampled(grid, Linv @ dyn[..., dxi:]), f, Gfd),
        certificate=FlowCertificate.orthogonal(dxi) if earned else None,
        recovery=recovery,
        rx=_sampled(grid, Qall @ Z[..., :dxi] @ _bT(Linv)),
        rf=_sampled(grid, Qall @ Z[..., dxi:]),
        rfd=rfd,
        max_f_derivative=int(uses_fd),
        pair=pair,
        f=f,
        projector=_sampled(grid, _bT(L) @ P[:, ix, :]),
    )


def semidefinite_skew_reduce(pair, f, grid):
    """Reduce a regular skew-adjoint pair with E >= 0 to its orthogonal core.

    Handles index 1 (nonsingular skew algebraic block) and index 2 (constraint
    rows pairing kernel variables with dynamic ones); index-2 structure must
    be constant in time.  Recovery never uses more than the first derivative
    of the inhomogeneity.  Raises StructureError unless the pair passes the
    skew-adjoint residual test and the scaled core is pointwise skew.
    """
    return _eliminate(pair, f, grid, strict=True)


def index1_reduce(pair, f, grid):
    """Kernel elimination for linear DAEs with E = E^T >= 0, dissipative or not.

    The kernel elimination of ``semidefinite_skew_reduce`` without its
    structure requirement: the index-1 elimination for every pair, plus the
    chain block at index 2 (constant kernel split, no dissipation on the
    constraint/chain block).  The certificate is orthogonal when the data
    earn it (skew-adjoint pair, pointwise skew scaled core), else None.
    """
    return _eliminate(pair, f, grid)


def stokes_reduce(M, B, Jfun, f, grid):
    """Saddle-point elimination for  [[M,0],[0,0]] (vdot,pdot) =
    [[J,-B],[B^T,0]] (v,p) + (f,0):  the index-2 case of the kernel
    elimination, with a divergence-free orthogonal core and the pressure as
    its recovered variables."""
    M = np.asarray(M, dtype=float)
    B = np.asarray(B, dtype=float)
    nv = M.shape[0]
    npp = B.shape[1]
    if M.shape != (nv, nv) or B.shape[0] != nv:
        raise DimensionError("M must be nv x nv and B nv x np")
    if Jfun.shape != (nv, nv):
        raise DimensionError("J must be nv x nv")
    if f.shape != (nv, 1):
        raise DimensionError("f must be nv x 1")
    E = np.zeros((nv + npp, nv + npp))
    E[:nv, :nv] = M
    A = mf.mf_block([[Jfun, -B], [B.T, np.zeros((npp, npp))]])
    f_full = mf.mf_block([[f], [mf.zero(npp, 1)]])
    red = _eliminate(mf.MatrixPair(mf.constant(E), A, grid), f_full, grid, strict=True)
    red.recovery = [("constraint variables", npp), ("pressure", npp)]
    return red


def self_adjoint_dynamic_extract(form, grid):
    """M = J^{-1} C from a self-adjoint global form, whose C = diag(0, A22);
    certifies Hamiltonian structure M^T J + J M = 0."""
    from . import canonical as cn

    if not isinstance(form, cn.SelfAdjointGlobalForm):
        raise UnsupportedError("expected a self-adjoint global form")
    p = form.p
    A22 = _samples(form.A22, grid)
    Cv = np.zeros((len(A22), 2 * p, 2 * p))
    Cv[:, p:, p:] = A22
    cert = FlowCertificate.symplectic(p)
    # (J, C) is a constant self-adjoint pair exactly when C is symmetric
    sym_defect = st._structure(st.SELF_ADJOINT, cert.B, 0.0, Cv)[0]
    if sym_defect > 1e-8:
        raise StructureError(f"C block is not symmetric (relative defect {sym_defect:.3e})")
    Mv = -cert.B @ Cv  # J^{-1} = -J
    return ReducedSystem(
        dynamic_dim=2 * p,
        m_fun=_sampled(grid, Mv),
        g_fun=mf.zero(2 * p, 1),
        certificate=cert,
    )
