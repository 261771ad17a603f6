"""Constructors for the worked example systems.

Each constructor returns exactly the displayed coefficient matrices and is
validated against its declared structure at build time by the test suite:
the lossless circuit and lossless discretized flow problem are skew-adjoint,
the constrained multibody system comes in a self-adjoint and a skew-adjoint
form, and the linear-quadratic optimality system is self-adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matfun as mf
from . import structure as st
from .errors import DimensionError, ParameterError

CIRCUIT_LABELS = ("I", "V1", "V2", "IG", "IR")
CIRCUIT_CANONICAL_LABELS = ("V1", "V2", "I", "IG", "IR")


def _default_interval():
    return mf.TimeGrid.uniform(0.0, 10.0, 2)


def _as_mf(x):
    return x if isinstance(x, mf.MatrixFunction) else mf.constant(np.asarray(x, dtype=float))


def _check_sym(name, F, interval):
    for t in (interval.t0, 0.5 * (interval.t0 + interval.tf), interval.tf):
        v = F.eval(t)
        if np.linalg.norm(v - v.T) > 1e-10 * np.linalg.norm(v):
            raise ParameterError(f"{name} must be symmetric")


def _check_spd(name, value):
    value = np.asarray(value, dtype=float)
    if np.linalg.norm(value - value.T) > 1e-12 * np.linalg.norm(value):
        raise ParameterError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(0.5 * (value + value.T))) <= 0:
        raise ParameterError(f"{name} must be positive definite")


@dataclass
class PHDAEModel:
    """Coefficients of E xdot + E K x = (J - R) x + (G - P) u,
    y = (G + P)^T x + (S - N) u, with quadratic energy 0.5 x^T E x."""

    E: mf.MatrixFunction
    J: mf.MatrixFunction
    R: mf.MatrixFunction
    K: mf.MatrixFunction
    G: mf.MatrixFunction
    P: mf.MatrixFunction
    S: mf.MatrixFunction
    N: mf.MatrixFunction
    interval: mf.TimeGrid
    labels: tuple = ()
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.E.rows

    def coefficient(self):
        """A = J - R - E K, the right-hand-side coefficient of the DAE."""
        return mf.mf_sub(mf.mf_sub(self.J, self.R), mf.mf_matmul(self.E, self.K))

    def lossless_pair(self):
        """(E, J - E K): the skew-adjoint core with dissipation removed."""
        return mf.MatrixPair(
            self.E, mf.mf_sub(self.J, mf.mf_matmul(self.E, self.K)), self.interval
        )

    def pair(self):
        return mf.MatrixPair(self.E, self.coefficient(), self.interval)

    def dissipation_matrix(self, t):
        R = self.R.eval(t)
        P = self.P.eval(t)
        S = self.S.eval(t)
        return np.block([[R, P], [P.T, S]])

    def validate(self, grid):
        """Residuals of the defining structural properties on the grid."""
        R, P, S, N = (F.eval_on(grid) for F in (self.R, self.P, self.S, self.N))
        W = np.block([[R, P], [st._bT(P), S]])
        rep = st.skew_adjoint_residual(self.lossless_pair(), grid)
        return {
            "S_symmetry": st._maxnorm(S - st._bT(S)),
            "N_skewness": st._maxnorm(N + st._bT(N)),
            "dissipation_min_eig": min(0.0, float(np.linalg.eigvalsh(W)[:, 0].min())),
            "skew_adjoint_residual": rep.max_residual,
        }


def build_circuit(L, C1, C2, RL=0.0, RG=0.0, RR=0.0, interval=None):
    """The RLC example circuit as a pHDAE with state (I, V1, V2, IG, IR).

    Lossless equations (matching the worked canonical-form reduction):
        L Idot   = -V2 - RL I
        C1 V1dot = -IG
        C2 V2dot = I - IR
        0        = V1 - RG IG + u
        0        = V2 - RR IR
    """
    for name, val in (("L", L), ("C1", C1), ("C2", C2)):
        if val <= 0:
            raise ParameterError(f"{name} must be positive, got {val}")
    for name, val in (("RL", RL), ("RG", RG), ("RR", RR)):
        if val < 0:
            raise ParameterError(f"{name} must be nonnegative, got {val}")
    interval = interval or _default_interval()
    E = np.diag([L, C1, C2, 0.0, 0.0])
    J = np.array(
        [
            [0.0, 0.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
        ]
    )
    R = np.diag([RL, 0.0, 0.0, RG, RR])
    G = np.array([[0.0], [0.0], [0.0], [1.0], [0.0]])
    z55 = np.zeros((5, 5))
    z51 = np.zeros((5, 1))
    z11 = np.zeros((1, 1))
    return PHDAEModel(
        E=mf.constant(E), J=mf.constant(J), R=mf.constant(R), K=mf.constant(z55),
        G=mf.constant(G), P=mf.constant(z51), S=mf.constant(z11), N=mf.constant(z11),
        interval=interval, labels=CIRCUIT_LABELS,
        meta={"kind": "circuit", "L": L, "C1": C1, "C2": C2,
              "RL": RL, "RG": RG, "RR": RR},
    )


def circuit_permutation():
    """P with x_old = P x_new reordering the state to (V1, V2, I, IG, IR)."""
    P = np.zeros((5, 5))
    for new, old in enumerate((1, 2, 0, 3, 4)):
        P[old, new] = 1.0
    return P


@dataclass
class CanonicalCircuit:
    pair: mf.MatrixPair
    input_map: mf.MatrixFunction
    permutation: np.ndarray
    labels: tuple = CIRCUIT_CANONICAL_LABELS


def build_circuit_canonical(L, C1, C2, RL=0.0, RG=0.0, RR=0.0, interval=None):
    """The circuit reordered to (V1, V2, I, IG, IR): E = diag(C1, C2, L, 0, 0)."""
    model = build_circuit(L, C1, C2, RL, RG, RR, interval)
    P = circuit_permutation()
    E = P.T @ model.E.eval(model.interval.t0) @ P
    A = P.T @ model.coefficient().eval(model.interval.t0) @ P
    G = P.T @ model.G.eval(model.interval.t0)
    return CanonicalCircuit(
        pair=mf.MatrixPair(mf.constant(E), mf.constant(A), model.interval),
        input_map=mf.constant(G),
        permutation=P,
    )


@dataclass
class StokesModel:
    """Discretized lossless/damped flow problem in saddle-point form."""

    M: np.ndarray
    A_S: np.ndarray
    A_H: np.ndarray
    C: np.ndarray
    B: np.ndarray
    interval: mf.TimeGrid
    damped: bool
    seed: int

    @property
    def nv(self):
        return self.M.shape[0]

    @property
    def npress(self):
        return self.B.shape[1]

    def pair(self):
        nv, npp = self.nv, self.npress
        E = np.zeros((nv + npp, nv + npp))
        E[:nv, :nv] = self.M
        A = np.zeros((nv + npp, nv + npp))
        A[:nv, :nv] = self.A_S - (self.A_H if self.damped else 0.0)
        A[:nv, nv:] = -self.B
        A[nv:, :nv] = self.B.T
        if self.damped:
            A[nv:, nv:] = -self.C
        return mf.MatrixPair(mf.constant(E), mf.constant(A), self.interval)


def build_stokes(nv, npress, seed=0, damped=False, interval=None):
    """Seeded synthetic saddle-point blocks with the structural properties of
    a discretized incompressible flow problem (not a finite element assembly)."""
    if not (nv > npress >= 1):
        raise DimensionError(f"need nv > np >= 1, got nv={nv}, np={npress}")
    interval = interval or _default_interval()
    rng = np.random.default_rng(seed)
    Mr = rng.standard_normal((nv, nv))
    M = Mr @ Mr.T / nv + np.eye(nv)
    As = rng.standard_normal((nv, nv))
    A_S = 0.5 * (As - As.T)
    Ah = rng.standard_normal((nv, nv))
    A_H = 0.1 * (Ah @ Ah.T) / nv
    B = rng.standard_normal((nv, npress))
    while np.linalg.svd(B, compute_uv=False)[-1] < 1e-6:
        B = rng.standard_normal((nv, npress))
    Cr = rng.standard_normal((npress, npress))
    C = Cr @ Cr.T / npress + np.eye(npress)
    C *= 1e-3 * np.linalg.norm(M) / np.linalg.norm(C)
    return StokesModel(M=M, A_S=A_S, A_H=A_H, C=C, B=B, interval=interval,
                       damped=damped, seed=seed)


@dataclass
class MultibodySystem:
    """Constrained linear multibody system in both structured forms."""

    self_pair: mf.MatrixPair
    skew_pair: mf.MatrixPair
    n_q: int
    n_constraints: int


def build_multibody(M, W, G, interval=None):
    """Both structured forms of  M pdot = -W q - G^T lam, qdot = p, 0 = G q."""
    M = np.asarray(M, dtype=float)
    W = np.asarray(W, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    nq = M.shape[0]
    m = G.shape[0]
    if G.shape[1] != nq or W.shape != (nq, nq):
        raise DimensionError("W must be n x n and G m x n")
    _check_spd("mass matrix", M)
    _check_spd("stiffness matrix (skew form)", W)
    if np.linalg.matrix_rank(G) < m:
        raise ParameterError("constraint matrix must have full row rank")
    interval = interval or _default_interval()
    z_nn = np.zeros((nq, nq))
    z_nm = np.zeros((nq, m))
    z_mm = np.zeros((m, m))

    E_self = np.block([[z_nn, M, z_nm], [-M, z_nn, z_nm], [z_nm.T, z_nm.T, z_mm]])
    A_self = np.block([[-W, z_nn, -G.T], [z_nn, -M, z_nm], [-G, z_nm.T, z_mm]])
    E_skew = np.block([[W, z_nn, z_nm], [z_nn, M, z_nm], [z_nm.T, z_nm.T, z_mm]])
    A_skew = np.block([[z_nn, W, z_nm], [-W, z_nn, -G.T], [z_nm.T, G, z_mm]])
    return MultibodySystem(
        self_pair=mf.MatrixPair(mf.constant(E_self), mf.constant(A_self), interval),
        skew_pair=mf.MatrixPair(mf.constant(E_skew), mf.constant(A_skew), interval),
        n_q=nq,
        n_constraints=m,
    )


def build_optimal_control(E, A, B, W, S, R, Mf, interval=None):
    """Self-adjoint boundary-value pair of the linear-quadratic problem
    (construction only; no boundary conditions are imposed)."""
    interval = interval or _default_interval()
    E, A, B, W, S, R = (_as_mf(x) for x in (E, A, B, W, S, R))
    Mf = np.asarray(Mf, dtype=float)
    n = E.rows
    m = B.cols
    if A.shape != (n, n) or W.shape != (n, n) or B.shape != (n, m):
        raise DimensionError("coefficient blocks have inconsistent shapes")
    if S.shape != (n, m) or R.shape != (m, m):
        raise DimensionError("S must be n x m and R m x m")
    _check_sym("W", W, interval)
    _check_sym("R", R, interval)
    if np.linalg.norm(Mf - Mf.T) > 1e-12 * np.linalg.norm(Mf):
        raise ParameterError("terminal cost matrix must be symmetric")

    zn = mf.zero(n, n)
    znm = mf.zero(n, m)
    zm = mf.zero(m, m)
    Et = mf.mf_transpose(E)
    E_op = mf.mf_block([
        [zn, E, znm],
        [mf.mf_scale(Et, -1.0), zn, znm],
        [mf.mf_transpose(znm), mf.mf_transpose(znm), zm],
    ])
    A_lower = mf.mf_add(mf.mf_transpose(A), mf.mf_transpose(mf.mf_derivative_function(E)))
    A_op = mf.mf_block([
        [zn, A, B],
        [A_lower, W, S],
        [mf.mf_transpose(B), mf.mf_transpose(S), R],
    ])
    return mf.MatrixPair(E_op, A_op, interval)
