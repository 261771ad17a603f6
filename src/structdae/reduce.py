"""Structured reductions to the dynamic core plus algebraic recovery maps.

One kernel-elimination driver handles regular pairs with positive
semidefinite E of constant rank and differentiation index at most two:
it splits off the kernel of E, eliminates the nonsingular part of the
algebraic block (index 1) and the constraint/chain pairing (index 2), and
scales the dynamic block by the positive definite square root of its E
coefficient.  The core earns the orthogonal certificate when the pair is
skew-adjoint and the scaled coefficient is pointwise skew;
``semidefinite_skew_reduce`` requires it, ``index1_reduce`` reports it.
Recovery maps are affine in the dynamic state, the inhomogeneity, and at
most its first derivative.
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
from .factor import sym_rank_split
from .structure import _bT, _maxnorm

COND_LIMIT = 1e12


def _require_regular(F, grid, what="algebraic block"):
    """RegularityError at the first grid time where F's condition number
    exceeds COND_LIMIT."""
    st._require_nonsingular(
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
        if self.rx is None:
            return np.asarray(x2, dtype=float)
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
        x2 = np.asarray(x2, dtype=float)
        if self.rx is None:
            return x2.copy()
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
        x_full = np.asarray(x_full, dtype=float).reshape(-1)
        if self.projector is not None:
            return self.projector.eval(t) @ x_full
        if self.rx is None:
            return x_full
        shift = self.reconstruct(t, np.zeros(self.dynamic_dim))
        x2, *_ = np.linalg.lstsq(self.rx.eval(t), x_full - shift, rcond=None)
        return x2

    def certificate_defect(self, grid):
        """max_t || M^T B + B M ||_F for the certificate's quadratic form."""
        if self.certificate is None:
            return float("nan")
        Mv = self.m_fun.eval_on(grid)
        B = self.certificate.B
        return _maxnorm(_bT(Mv) @ B[None] + B[None] @ Mv)


def _sampled(grid, vals):
    """Cubic through the grid samples, or a constant when every sample is
    bitwise equal to the first (non-finite samples raise either way)."""
    bits = np.ascontiguousarray(vals).reshape(grid.n, -1).view(np.uint64)
    if np.all(bits == bits[0]):
        return mf.ConstantMatrixFunction(vals[0])
    return mf.SampledMatrixFunction(grid, vals, order=3)


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


def _spd_sqrt_with_derivative(Sv, Sd):
    """F = S^{1/2} and Fdot from  Fdot F + F Fdot = Sdot  (eigh basis)."""
    lam, V = np.linalg.eigh(0.5 * (Sv + _bT(Sv)))
    if np.any(lam <= 0):
        raise StructureError("dynamic E block is not positive definite")
    sq = np.sqrt(lam)
    VT = _bT(V)
    F = (V * sq[:, None, :]) @ VT
    Finv = (V / sq[:, None, :]) @ VT
    G = VT @ (0.5 * (Sd + _bT(Sd))) @ V
    G = G / (sq[:, :, None] + sq[:, None, :])
    Fd = V @ G @ VT
    return F, Finv, Fd


def _kernel_split(E, grid):
    """Grid Q, Qdot and rank of sym_rank_split, dropping the split's spline caches."""
    split = sym_rank_split(E, grid)
    return split.Q.eval_on(grid), split.Q.derivative_on(grid), split.r


def _eliminate(pair, f, grid, tol=1e-10, gap_tol=1e-8, strict=False):
    """Kernel elimination of E xdot = A x + f with E >= 0 of constant rank.

    Splits off the kernel of E, solves the nonsingular part of the kernel
    block of A (index 1) and the constraint/chain pairing (index 2, constant
    split only), and scales the dynamic block by F = S_b^{1/2}.  No skew
    structure is assumed.  The certificate is orthogonal when the pair passes
    the skew-adjoint residual test and the scaled core M is pointwise skew,
    None otherwise; strict raises StructureError instead of returning None.
    """
    pair.check_grid(grid)
    if f.rows != pair.n or f.cols != 1:
        raise DimensionError("inhomogeneity must be an n x 1 matrix function")
    n = pair.n
    K = grid.n
    Ev = pair.E.eval_on(grid)
    Ed = pair.E.derivative_on(grid)
    Av = pair.A.eval_on(grid)
    scale = 1.0 + max(_maxnorm(Ev), _maxnorm(Av))

    res = max(map(_maxnorm, st._defects(st.SKEW_ADJOINT, Ev, Ed, Av)))
    if strict and res > tol * scale:
        raise StructureError(f"pair is not skew-adjoint (residual {res:.3e})")
    eigmin = np.linalg.eigvalsh(0.5 * (Ev + _bT(Ev)))[:, 0].min()
    if eigmin < -1e-12 * scale:
        raise StructureError(f"E is not positive semidefinite (min eig {eigmin:.3e})")

    Qv, Qd, r = _kernel_split(pair.E, grid)
    # a constant split (exactly zero Qdot) lets A's derivative pass through
    q_constant = _maxnorm(Qd) == 0.0
    E1, E1d, A1 = st._congruence_arrays(Ev, Ed, Av, Qv, None if q_constant else Qd)
    # grid arrays are dropped once consumed, which bounds the peak memory
    del Ev, Ed, Av, Qd

    # split the kernel block into its nonsingular part and the constraint rows
    a = n - r
    if a:
        _, s0, vt0 = np.linalg.svd(A1[0, r:, r:])
        k_rank = int(np.sum(s0 > gap_tol * max(s0[0], 1e-300)))
    else:
        k_rank = 0
    tau = a - k_rank  # number of chain/constraint variables
    dxi = r - tau
    ix = slice(0, dxi)
    i3 = slice(r, r + k_rank)

    if tau:
        if not q_constant:
            raise UnsupportedError(
                "index-2 chain elimination requires a constant kernel splitting of E"
            )
        Theta = vt0.T
        C0 = Theta[:, k_rank:].T @ A1[0, r:, :r]
        # the tau constraint rows need full row rank
        _, sc, vtc = np.linalg.svd(C0)
        if r < tau or st._rel_smin(C0, sc) <= 1e-10:
            raise RegularityError(
                "constraint rows are rank deficient; the pair is not regular"
            )
        Qc = np.zeros((n, n))
        Qc[:r, :r] = np.hstack([vtc.T[:, tau:], vtc.T[:, :tau]])
        Qc[r:, r:] = Theta
        E2, E2d, A2 = st._congruence_arrays(E1, E1d, A1, Qc)
        A2d = Qc.T @ (_bT(Qv) @ pair.A.derivative_on(grid) @ Qv) @ Qc
        Qall = Qv @ Qc
        del E1, E1d, A1
    else:
        E2, E2d, A2, Qall = E1, E1d, A1, Qv
    del Qv
    ih = slice(dxi, r)
    i4 = slice(r + k_rank, n)

    # the split pattern must hold on the whole grid: the constraint rows read
    # only eta, and the chain variables w4 enter only the eta-rows
    pattern = (
        _maxnorm(A2[:, i4, ix]) + _maxnorm(A2[:, ix, i4])
        + _maxnorm(A2[:, i3, i4]) + _maxnorm(A2[:, i4, i3])
        + _maxnorm(A2[:, i4, i4])
    )
    if pattern > 1e-8 * scale:
        raise UnsupportedError(
            "the kernel/constraint block pattern of A does not hold along the "
            f"interval; pattern defect {pattern:.3e}"
        )
    # the chain solve below reads the eta-rows' chain block as -C2^T
    C2 = A2[:, i4, ih]
    chain = _maxnorm(A2[:, ih, i4] + _bT(C2))
    if chain > 1e-8 * scale:
        raise UnsupportedError(
            "dissipation on the constraint/chain block (A[eta, chain] + C2^T = "
            f"{chain:.3e}) is not supported"
        )
    # selection of f-components in the transformed frame: fT = P f
    P = _bT(Qall)
    # eta from the constraint rows: C2 eta = -f4; C2^T (for the chain
    # variables below) has the same singular values, so one guard covers both
    _require_regular(C2, grid, "constraint block")
    eta_f = -np.linalg.solve(C2, P[:, i4, :])
    if tau:
        # etadot: C2 etadot = -f4dot - C2dot eta, so its f4dot weight is eta_f itself
        etad_f = -np.linalg.solve(C2, A2d[:, i4, ih] @ eta_f)

    # w3 from the nonsingular block; depends on f only (never fdot)
    A33 = A2[:, i3, i3]
    _require_regular(A33, grid)
    W3x, w3_f = np.split(-np.linalg.solve(A33, np.concatenate(
        [A2[:, i3, ix], A2[:, i3, ih] @ eta_f + P[:, i3, :]], axis=2)), [dxi], axis=2)

    # dynamic block before scaling: Sb xidot = Ceff xi + gpre
    Sb = E2[:, ix, ix]
    Ceff = A2[:, ix, ix] + A2[:, ix, i3] @ W3x
    g_f = A2[:, ix, ih] @ eta_f + A2[:, ix, i3] @ w3_f + P[:, ix, :]
    if tau:
        Sxh = E2[:, ix, ih]
        g_f -= Sxh @ etad_f
        g_fd = -Sxh @ eta_f

    F, Finv, Fd = _spd_sqrt_with_derivative(Sb, E2d[:, ix, ix])
    Mv = Finv @ Ceff @ Finv + Fd @ Finv
    cert_defect = _maxnorm(Mv + _bT(Mv))
    earned = res <= tol * scale and cert_defect <= 1e-8 * scale
    if strict and not earned:
        raise StructureError(
            f"scaled dynamic block is not skew (defect {cert_defect:.3e})"
        )
    Gf = Finv @ g_f

    # assemble the full-state recovery x = Qall (Zx xi + Zf f + Zfd fdot)
    Zx = np.zeros((K, n, dxi))
    Zx[:, ix] = np.broadcast_to(np.eye(dxi), (K, dxi, dxi))
    Zx[:, i3] = W3x
    Zf = np.zeros((K, n, n))
    Zf[:, ih] = eta_f
    Zf[:, i3] = w3_f
    if tau:
        Gfd = Finv @ g_fd
        # w4 from the eta-rows, substituting xidot through the dynamic equation
        Shx = E2[:, ih, ix]
        Shh = E2[:, ih, ih]
        # xidot for the (x, f, fdot) weights, then w4 for the same three
        cols = [dxi, dxi + n]
        _require_regular(Sb, grid, "dynamic E block")
        xdot_x, xdot_f, xdot_fd = np.split(
            np.linalg.solve(Sb, np.concatenate([Ceff, g_f, g_fd], axis=2)), cols, axis=2
        )
        Zx[:, i4], Zf[:, i4], w4_fd = np.split(np.linalg.solve(_bT(C2), np.concatenate([
            A2[:, ih, ix] + A2[:, ih, i3] @ W3x - Shx @ xdot_x,
            A2[:, ih, ih] @ eta_f + A2[:, ih, i3] @ w3_f + P[:, ih, :]
            - Shx @ xdot_f - Shh @ etad_f,
            -Shx @ xdot_fd - Shh @ eta_f,
        ], axis=2)), cols, axis=2)
        # eta itself uses only f; its derivative (etadot) appears inside g and w4
        Zfd = np.zeros((K, n, n))
        Zfd[:, i4] = w4_fd
        uses_fd = max(_maxnorm(Gfd), _maxnorm(Zfd)) > 1e-13 * (1.0 + _maxnorm(f.eval_on(grid)))
        rfd = _sampled(grid, Qall @ Zfd)
    else:
        uses_fd = False
        rfd = mf.zero(n, n)

    recovery = [(name, rows) for name, rows in (
        ("constraint variables", tau), ("algebraic variables", k_rank),
        ("chain variables", tau)) if rows]
    return ReducedSystem(
        dynamic_dim=dxi,
        m_fun=_sampled(grid, Mv),
        g_fun=AffineInput(_sampled(grid, Gf), f, _sampled(grid, Gfd) if tau else None),
        certificate=FlowCertificate.orthogonal(dxi) if earned else None,
        recovery=recovery,
        rx=_sampled(grid, Qall @ Zx @ Finv),
        rf=_sampled(grid, Qall @ Zf),
        rfd=rfd,
        max_f_derivative=int(uses_fd),
        pair=pair,
        f=f,
        projector=_sampled(grid, F @ P[:, ix, :]),
    )


def semidefinite_skew_reduce(pair, f, grid, tol=1e-10, gap_tol=1e-8):
    """Reduce a regular skew-adjoint pair with E >= 0 to its orthogonal core.

    Handles index 1 (nonsingular skew algebraic block) and index 2 (constraint
    rows pairing kernel variables with dynamic ones); index-2 structure must
    be constant in time.  Recovery never uses more than the first derivative
    of the inhomogeneity.  Raises StructureError unless the pair passes the
    skew-adjoint residual test and the scaled core is pointwise skew.
    """
    return _eliminate(pair, f, grid, tol, gap_tol, strict=True)


def index1_reduce(pair, f, grid):
    """Kernel elimination for linear DAEs with E >= 0, dissipative or not.

    The same elimination as ``semidefinite_skew_reduce`` without its
    structure requirement: index 1, and (despite the name) index 2 when the
    kernel split is constant and the constraint/chain block carries no
    dissipation.  The certificate is orthogonal when the data earn it
    (skew-adjoint pair, pointwise skew scaled core) and None otherwise.
    """
    # every kernel block the regularity guard accepts is eliminated at index 1
    return _eliminate(pair, f, grid, gap_tol=1.0 / COND_LIMIT)


def stokes_reduce(M, B, Jfun, f, grid):
    """Saddle-point elimination for  [[M,0],[0,0]] (vdot,pdot) =
    [[J,-B],[B^T,0]] (v,p) + (f,0):  divergence-free core plus pressure map."""
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
    lam = np.linalg.eigvalsh(0.5 * (M + M.T))
    if lam[0] <= 0 or np.linalg.norm(M - M.T) > 1e-12 * lam[-1]:
        raise StructureError("mass matrix must be symmetric positive definite")
    if npp and (nv < npp or st._rel_smin(B) <= 1e-10):
        raise RegularityError("discrete gradient B is column-rank deficient")
    Jv = Jfun.eval_on(grid)
    if _maxnorm(Jv + _bT(Jv)) > 1e-10 * (1.0 + _maxnorm(Jv)):
        raise StructureError("convection block must be pointwise skew-symmetric")

    # complete QR is exactly the full rank decomposition U^T B = [B1; 0]
    U, R = np.linalg.qr(B, mode="complete")
    U1, U2 = U[:, :npp], U[:, npp:]
    B1 = R[:npp, :]
    n2 = nv - npp
    K = grid.n

    M12 = U1.T @ M @ U2
    M22 = U2.T @ M @ U2
    J12 = U1.T[None] @ Jv @ U2[None]
    J22 = U2.T[None] @ Jv @ U2[None]

    lam2, V2 = np.linalg.eigh(M22)
    if np.any(lam2 <= 0):
        raise StructureError("mass matrix restricted to divergence-free space is not spd")
    F = (V2 * np.sqrt(lam2)) @ V2.T
    Finv = (V2 / np.sqrt(lam2)) @ V2.T
    M22inv = Finv @ Finv
    Mv = Finv[None] @ J22 @ Finv[None]

    n_full = nv + npp
    # v2 = Finv x2, v1 = 0, p = B1^{-1}(J12 v2 - M12 v2dot + f1)
    # with v2dot = M22^{-1}(J22 v2 + f2); weights below act on the raw f
    if npp:
        B1inv = np.linalg.inv(B1)
        v2dot_x = (M22inv[None] @ J22) @ Finv[None]
        p_x = B1inv[None] @ (J12 @ Finv[None] - M12[None] @ v2dot_x)
        p_f = B1inv[None] @ ((U1.T - M12 @ M22inv @ U2.T)[None] @ np.broadcast_to(np.eye(nv), (K, nv, nv)))
    else:
        p_x = np.zeros((K, 0, n2))
        p_f = np.zeros((K, 0, nv))

    # recovery weights act on the padded inhomogeneity (f; 0) of the full system
    Rx = np.zeros((K, n_full, n2))
    Rx[:, :nv] = U2[None] @ Finv[None]
    Rx[:, nv:] = p_x
    Rf = np.zeros((K, n_full, n_full))
    Rf[:, nv:, :nv] = p_f

    E_full = np.zeros((nv + npp, nv + npp))
    E_full[:nv, :nv] = M
    A_full = mf.mf_block([[Jfun, -B], [B.T, np.zeros((npp, npp))]])
    pair = mf.MatrixPair(mf.constant(E_full), A_full, grid)
    f_full = mf.mf_block([[f], [mf.zero(npp, 1)]])

    return ReducedSystem(
        dynamic_dim=n2,
        m_fun=_sampled(grid, Mv),
        g_fun=AffineInput(mf.constant(Finv @ U2.T), f),
        certificate=FlowCertificate.orthogonal(n2),
        recovery=[("pressure", npp)],
        rx=_sampled(grid, Rx),
        rf=_sampled(grid, Rf),
        rfd=mf.zero(n_full, n_full),
        max_f_derivative=0,
        pair=pair,
        f=f_full,
        projector=mf.constant(np.hstack([F @ U2.T, np.zeros((n2, npp))])),
    )


def self_adjoint_dynamic_extract(form, grid, tol=1e-8):
    """M = J^{-1} C from a self-adjoint global form (C = diag(0, A22)) or a
    refined local layout carrying (J, C) directly; certifies Hamiltonian
    structure M^T J + J M = 0."""
    from . import canonical as cn

    if isinstance(form, cn.SelfAdjointGlobalForm):
        p = form.p
        A22 = form.A22.eval_on(grid)
        Cv = np.zeros((grid.n, 2 * p, 2 * p))
        Cv[:, p:, p:] = A22
    elif isinstance(form, cn.LocalFormBlocks) and form.variant == cn.SELF_REFINED:
        p = form.p
        Cv = form.sigma11.eval_on(grid)
    else:
        raise UnsupportedError(
            "expected a self-adjoint global form or a refined local layout"
        )
    scale = 1.0 + _maxnorm(Cv)
    sym_defect = _maxnorm(Cv - _bT(Cv))
    if sym_defect > tol * scale:
        raise StructureError(f"C block is not symmetric (defect {sym_defect:.3e})")
    cert = FlowCertificate.symplectic(p)
    Mv = -cert.B @ Cv  # J^{-1} = -J
    return ReducedSystem(
        dynamic_dim=2 * p,
        m_fun=_sampled(grid, Mv),
        g_fun=mf.zero(2 * p, 1),
        certificate=cert,
    )
