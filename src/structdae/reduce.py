"""Structured reductions to the dynamic core plus algebraic recovery maps.

The central pipeline handles regular skew-adjoint pairs with positive
semidefinite E of constant rank and differentiation index at most two:
splitting off the kernel of E, eliminating the nonsingular skew part of the
algebraic block (index 1) and the constraint/chain pairing (index 2), and
scaling the dynamic block by the positive definite square root of its E
coefficient so the extracted coefficient matrix is pointwise skew and the
flow orthogonal.  Recovery maps are affine in the dynamic state, the
inhomogeneity, and at most its first derivative.
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

COND_LIMIT = 1e12


def _bT(x):
    return np.transpose(x, (0, 2, 1))


def _maxnorm(x):
    if x.size == 0:
        return 0.0
    return float(np.linalg.norm(x, axis=(1, 2)).max())


def _batch_solve(A, B):
    """Solve A_k X_k = B_k for every grid point, guarding conditioning."""
    if A.shape[1] == 0:
        return np.zeros((A.shape[0], 0, B.shape[2]))
    conds = np.linalg.cond(A)
    if np.any(~np.isfinite(conds)) or np.any(conds > COND_LIMIT):
        raise RegularityError(
            "algebraic block is numerically singular; the system is not regular "
            "(or has higher index) on this grid"
        )
    return np.linalg.solve(A, B)


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
        J = np.zeros((2 * p, 2 * p))
        J[:p, p:] = np.eye(p)
        J[p:, :p] = -np.eye(p)
        return cls("symplectic", J)

    @classmethod
    def indefinite_orthogonal(cls, p, q):
        return cls("indefinite_orthogonal", np.diag(np.concatenate([np.ones(p), -np.ones(q)])))


@dataclass
class AffineRecovery:
    """eliminated(t) = coef_x(t) x2 + coef_f(t) f(t) + coef_fd(t) fdot(t)."""

    name: str
    coef_x: mf.MatrixFunction
    coef_f: mf.MatrixFunction
    coef_fd: mf.MatrixFunction


@dataclass
class ReducedSystem:
    """Dynamic core  x2dot = M(t) x2 + g(t)  with full-state recovery."""

    dynamic_dim: int
    m_fun: mf.MatrixFunction
    g_fun: mf.MatrixFunction
    certificate: FlowCertificate | None
    recovery: list = field(default_factory=list)
    # full original state as an affine map of (x2, f, fdot)
    rx: mf.MatrixFunction | None = None
    rf: mf.MatrixFunction | None = None
    rfd: mf.MatrixFunction | None = None
    max_f_derivative: int = 0
    pair: mf.MatrixPair | None = None
    f: mf.MatrixFunction | None = None
    grid: mf.TimeGrid | None = None
    projector: mf.MatrixFunction | None = None  # full state -> dynamic x2

    @property
    def n_full(self):
        return self.rx.rows if self.rx is not None else self.dynamic_dim

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


def _sampled(grid, vals, ders=None):
    return mf.SampledMatrixFunction(grid, vals, order=3, deriv_values=ders)


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


def _kernel_split_constant(E, grid, gap_tol=1e-8):
    """Orthogonal Q with Q^T E Q = diag(Sigma, 0); constant when E is."""
    if isinstance(E, mf.ConstantMatrixFunction):
        Ec = 0.5 * (E.value + E.value.T)
        lam, V = np.linalg.eigh(Ec)
        order = np.argsort(-np.abs(lam), kind="stable")
        lam, V = lam[order], V[:, order]
        r = int(np.sum(np.abs(lam) > gap_tol * max(np.abs(lam).max(), 1e-300)))
        K = grid.n
        Qv = np.broadcast_to(V, (K, *V.shape)).copy()
        Qd = np.zeros_like(Qv)
        return Qv, Qd, r
    split = sym_rank_split(E, grid, gap_tol=gap_tol)
    Qv = split.Q.eval_on(grid)
    Qd = split.Q.derivative_on(grid)
    return Qv, Qd, split.r


def semidefinite_skew_reduce(pair, f, grid, tol=1e-10, gap_tol=1e-8):
    """Reduce a regular skew-adjoint pair with E >= 0 to its orthogonal core.

    Handles index 1 (nonsingular skew algebraic block) and index 2 (constraint
    rows pairing kernel variables with dynamic ones); index-2 structure must
    be constant in time.  Recovery never uses more than the first derivative
    of the inhomogeneity.
    """
    pair.check_grid(grid)
    if f.rows != pair.n or f.cols != 1:
        raise DimensionError("inhomogeneity must be an n x 1 matrix function")
    n = pair.n
    K = grid.n
    Ev = pair.E.eval_on(grid)
    Av = pair.A.eval_on(grid)
    scale = 1.0 + max(_maxnorm(Ev), _maxnorm(Av))

    rep = st.skew_adjoint_residual(pair, grid)
    if rep.max_residual > tol * scale:
        raise StructureError(
            f"pair is not skew-adjoint (residual {rep.max_residual:.3e})"
        )
    eigmin = np.linalg.eigvalsh(0.5 * (Ev + _bT(Ev)))[:, 0].min()
    if eigmin < -1e-12 * scale:
        raise StructureError(f"E is not positive semidefinite (min eig {eigmin:.3e})")

    Qv, Qd, r = _kernel_split_constant(pair.E, grid)
    q_constant = _maxnorm(Qd) == 0.0

    Ed = pair.E.derivative_on(grid)
    QT = _bT(Qv)
    E1 = QT @ Ev @ Qv
    E1d = _bT(Qd) @ Ev @ Qv + QT @ Ed @ Qv + QT @ Ev @ Qd
    A1 = QT @ Av @ Qv - QT @ Ev @ Qd
    if q_constant:
        A1d = QT @ pair.A.derivative_on(grid) @ Qv
    else:
        A1d = None

    a = n - r
    A22 = A1[:, r:, r:]
    if _maxnorm(A22 + _bT(A22)) > 1e-8 * scale:
        raise StructureError("kernel block of A is not skew; structure violated")

    # split the kernel block into its nonsingular part and the constraint rows
    if a:
        _, s0, vt0 = np.linalg.svd(A22[0])
        k_rank = int(np.sum(s0 > gap_tol * max(s0[0], 1e-300)))
        Theta = np.hstack([vt0.T[:, :k_rank], vt0.T[:, k_rank:]])
    else:
        k_rank = 0
        Theta = np.zeros((0, 0))
    tau = a - k_rank  # number of chain/constraint variables
    if tau and not q_constant:
        raise UnsupportedError(
            "index-2 chain elimination requires a constant kernel splitting of E"
        )

    C0 = Theta[:, k_rank:].T @ A1[0, r:, :r] if tau else np.zeros((0, r))
    if tau:
        sc = np.linalg.svd(C0, compute_uv=False)
        if sc.size == 0 or sc[-1] <= 1e-10 * max(sc[0], 1e-300):
            raise RegularityError(
                "constraint rows are rank deficient; the pair is not regular"
            )
        _, _, vtc = np.linalg.svd(C0)
        Psi = np.hstack([vtc.T[:, tau:], vtc.T[:, :tau]])
    else:
        Psi = np.eye(r)
    dxi = r - tau

    Qc = np.zeros((n, n))
    Qc[:r, :r] = Psi
    if a:
        Qc[r:, r:] = Theta
    E2 = _bT(Qc[None]) @ E1 @ Qc[None]
    E2d = _bT(Qc[None]) @ E1d @ Qc[None]
    A2 = _bT(Qc[None]) @ A1 @ Qc[None]
    A2d = _bT(Qc[None]) @ A1d @ Qc[None] if A1d is not None else None
    Qall = Qv @ Qc[None]

    ix = slice(0, dxi)
    ih = slice(dxi, r)
    i3 = slice(r, r + k_rank)
    i4 = slice(r + k_rank, n)

    # time-invariance of the split pattern and the skew-implied zero blocks
    pattern = (
        _maxnorm(A2[:, i4, ix]) + _maxnorm(A2[:, ix, i4])
        + _maxnorm(A2[:, i3, i4]) + _maxnorm(A2[:, i4, i3])
        + _maxnorm(A2[:, i4, i4])
    )
    if pattern > 1e-8 * scale:
        raise UnsupportedError(
            "the kernel/constraint structure of A varies along the interval; "
            f"pattern defect {pattern:.3e}"
        )

    fv = f.eval_on(grid)
    fd = f.derivative_on(grid)
    # selection of f-components in the transformed frame: fT = P f
    P = _bT(Qall)

    def zero_w(rows):
        return np.zeros((K, rows, n))

    # eta from the constraint rows: C2 eta = -f4
    C2 = A2[:, i4, ih]
    eta_f = -_batch_solve(C2, P[:, i4, :]) if tau else zero_w(0)
    # etadot: C2 etadot = -f4dot - C2dot eta
    if tau:
        C2d = A2d[:, i4, ih] if A2d is not None else np.zeros_like(C2)
        etad_f = -_batch_solve(C2, C2d @ eta_f)
        etad_fd = -_batch_solve(C2, P[:, i4, :])
    else:
        etad_f, etad_fd = zero_w(0), zero_w(0)

    # w3 from the nonsingular skew block; depends on f only (never fdot)
    A22t = A2[:, i3, i3]
    W3x = -_batch_solve(A22t, A2[:, i3, ix]) if k_rank else np.zeros((K, 0, dxi))
    if k_rank:
        w3_f = -_batch_solve(A22t, A2[:, i3, ih] @ eta_f + P[:, i3, :])
        w3_fd = np.zeros((K, k_rank, n))
    else:
        w3_f, w3_fd = zero_w(0), zero_w(0)

    # dynamic block before scaling: Sb xidot = Ceff xi + gpre
    Sb = E2[:, ix, ix]
    Sbd = E2d[:, ix, ix]
    Sxh = E2[:, ix, ih]
    Ceff = A2[:, ix, ix] + A2[:, ix, i3] @ W3x
    g_f = A2[:, ix, ih] @ eta_f + A2[:, ix, i3] @ w3_f + P[:, ix, :] - Sxh @ etad_f
    g_fd = -Sxh @ etad_fd + A2[:, ix, i3] @ w3_fd

    F, Finv, Fd = _spd_sqrt_with_derivative(Sb, Sbd)
    Mv = Finv @ Ceff @ Finv + Fd @ Finv
    cert_defect = _maxnorm(Mv + _bT(Mv))
    if cert_defect > 1e-8 * scale:
        raise StructureError(
            f"scaled dynamic block is not skew (defect {cert_defect:.3e})"
        )
    Gf = Finv @ g_f
    Gfd = Finv @ g_fd

    # w4 from the eta-rows, substituting xidot through the dynamic equation
    if tau:
        Shx = E2[:, ih, ix]
        Shh = E2[:, ih, ih]
        C2T = _bT(C2)
        xdot_x = _batch_solve(Sb, Ceff)
        xdot_f = _batch_solve(Sb, g_f)
        xdot_fd = _batch_solve(Sb, g_fd)
        W4x = _batch_solve(
            C2T, A2[:, ih, ix] + A2[:, ih, i3] @ W3x - Shx @ xdot_x
        )
        w4_f = _batch_solve(
            C2T,
            A2[:, ih, ih] @ eta_f + A2[:, ih, i3] @ w3_f + P[:, ih, :]
            - Shx @ xdot_f - Shh @ etad_f,
        )
        w4_fd = _batch_solve(C2T, -Shx @ xdot_fd - Shh @ etad_fd)
    else:
        W4x, w4_f, w4_fd = np.zeros((K, 0, dxi)), zero_w(0), zero_w(0)

    # assemble the full-state recovery x = Qall (Zx xi + Zf f + Zfd fdot)
    Zx = np.zeros((K, n, dxi))
    Zx[:, ix] = np.broadcast_to(np.eye(dxi), (K, dxi, dxi))
    Zx[:, i3] = W3x
    Zx[:, i4] = W4x
    Zf = np.zeros((K, n, n))
    Zf[:, ih] = eta_f
    Zf[:, i3] = w3_f
    Zf[:, i4] = w4_f
    # eta itself uses only f; its derivative (etadot) appears inside g and w4
    Zfd = np.zeros((K, n, n))
    Zfd[:, i3] = w3_fd
    Zfd[:, i4] = w4_fd
    Rx = Qall @ Zx @ Finv
    Rf = Qall @ Zf
    Rfd = Qall @ Zfd

    uses_fd = max(_maxnorm(Gfd), _maxnorm(Zfd)) > 1e-13 * (1.0 + _maxnorm(fv))
    recovery = []
    if tau:
        recovery.append(AffineRecovery(
            "constraint variables", _sampled(grid, np.zeros((K, tau, dxi))),
            _sampled(grid, eta_f), _sampled(grid, np.zeros((K, tau, n)))))
    if k_rank:
        recovery.append(AffineRecovery(
            "algebraic variables", _sampled(grid, W3x @ Finv),
            _sampled(grid, w3_f), _sampled(grid, w3_fd)))
    if tau:
        recovery.append(AffineRecovery(
            "chain variables", _sampled(grid, W4x @ Finv),
            _sampled(grid, w4_f), _sampled(grid, w4_fd)))

    gvals = Gf @ fv + Gfd @ fd
    return ReducedSystem(
        dynamic_dim=dxi,
        m_fun=_sampled(grid, Mv),
        g_fun=_sampled(grid, gvals),
        certificate=FlowCertificate.orthogonal(dxi),
        recovery=recovery,
        rx=_sampled(grid, Rx),
        rf=_sampled(grid, Rf),
        rfd=_sampled(grid, Rfd),
        max_f_derivative=1 if (tau and uses_fd) else 0,
        pair=pair,
        f=f,
        grid=grid,
        projector=_sampled(grid, F @ P[:, ix, :]),
    )


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
    sv = np.linalg.svd(B, compute_uv=False)
    if npp and (sv.size < npp or sv[npp - 1] <= 1e-10 * max(sv[0], 1e-300)):
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

    fv = f.eval_on(grid)
    f2 = U2.T[None] @ fv
    g = Finv[None] @ f2

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
    Rfd = np.zeros((K, n_full, n_full))

    recovery = [
        AffineRecovery("pressure", _sampled(grid, p_x),
                       _sampled(grid, np.concatenate([p_f, np.zeros((K, npp, npp))], axis=2)),
                       _sampled(grid, np.zeros((K, npp, n_full)))),
    ]
    E_full = np.zeros((nv + npp, nv + npp))
    E_full[:nv, :nv] = M
    A_full_v = np.zeros((K, n_full, n_full))
    A_full_v[:, :nv, :nv] = Jv
    A_full_v[:, :nv, nv:] = -B[None]
    A_full_v[:, nv:, :nv] = B.T[None]
    pair = mf.MatrixPair(mf.constant(E_full), _sampled(grid, A_full_v), grid)
    f_full = mf.mf_block([[f], [mf.zero(npp, 1)]])

    return ReducedSystem(
        dynamic_dim=n2,
        m_fun=_sampled(grid, Mv),
        g_fun=_sampled(grid, g),
        certificate=FlowCertificate.orthogonal(n2),
        recovery=recovery,
        rx=_sampled(grid, Rx),
        rf=_sampled(grid, Rf),
        rfd=_sampled(grid, Rfd),
        max_f_derivative=0,
        pair=pair,
        f=f_full,
        grid=grid,
        projector=_sampled(
            grid,
            np.broadcast_to(
                np.hstack([F @ U2.T, np.zeros((n2, npp))]), (K, n2, n_full)
            ).copy(),
        ),
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
    J = np.zeros((2 * p, 2 * p))
    J[:p, p:] = np.eye(p)
    J[p:, :p] = -np.eye(p)
    Jinv = -J
    Mv = Jinv[None] @ Cv
    K = grid.n
    return ReducedSystem(
        dynamic_dim=2 * p,
        m_fun=_sampled(grid, Mv),
        g_fun=_sampled(grid, np.zeros((K, 2 * p, 1))),
        certificate=FlowCertificate("symplectic", J),
        recovery=[],
        grid=grid,
    )


def index1_reduce(pair, f, grid, gap_tol=1e-8):
    """Plain kernel elimination for index-1 linear DAEs with E >= 0.

    No structure is claimed (certificate None); used to simulate dissipative
    systems whose algebraic block is nonsingular.
    """
    pair.check_grid(grid)
    n = pair.n
    K = grid.n
    Ev = pair.E.eval_on(grid)
    scale = 1.0 + _maxnorm(Ev)
    eigmin = np.linalg.eigvalsh(0.5 * (Ev + _bT(Ev)))[:, 0].min()
    if eigmin < -1e-12 * scale:
        raise StructureError("index1_reduce expects positive semidefinite E")
    Qv, Qd, r = _kernel_split_constant(pair.E, grid)
    Av = pair.A.eval_on(grid)
    Ed = pair.E.derivative_on(grid)
    QT = _bT(Qv)
    E1 = QT @ Ev @ Qv
    A1 = QT @ Av @ Qv - QT @ Ev @ Qd
    fv = f.eval_on(grid)

    a = n - r
    A22 = A1[:, r:, r:]
    X21 = -_batch_solve(A22, A1[:, r:, :r]) if a else np.zeros((K, 0, r))
    x2_f = -_batch_solve(A22, QT[:, r:, :]) if a else np.zeros((K, 0, n))
    Sb = E1[:, :r, :r]
    Ceff = A1[:, :r, :r] + A1[:, :r, r:] @ X21
    Mv = _batch_solve(Sb, Ceff)
    Gf = _batch_solve(Sb, A1[:, :r, r:] @ x2_f + QT[:, :r, :])
    gvals = Gf @ fv

    Zx = np.concatenate([np.broadcast_to(np.eye(r), (K, r, r)), X21], axis=1)
    Zf = np.concatenate([np.zeros((K, r, n)), x2_f], axis=1)
    Rx = Qv @ Zx
    Rf = Qv @ Zf
    return ReducedSystem(
        dynamic_dim=r,
        m_fun=_sampled(grid, Mv),
        g_fun=_sampled(grid, gvals),
        certificate=None,
        recovery=[AffineRecovery(
            "algebraic variables", _sampled(grid, X21), _sampled(grid, x2_f),
            _sampled(grid, np.zeros((K, a, n))))] if a else [],
        rx=_sampled(grid, Rx),
        rf=_sampled(grid, Rf),
        rfd=_sampled(grid, np.zeros((K, n, n))),
        max_f_derivative=0,
        pair=pair,
        f=f,
        grid=grid,
        projector=_sampled(grid, QT[:, :r, :].copy()),
    )
