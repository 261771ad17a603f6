"""Structure-preserving integration and flow certification.

The implicit midpoint rule is used throughout: its update is the Cayley
transform of h/2 * M(t_mid), which preserves every quadratic invariant
x^T B x with M^T B + B M = 0 exactly (up to linear-solve roundoff), so the
computed fundamental solutions certify membership in the symplectic or
generalized orthogonal group at machine precision instead of merely
converging to it.

The step maps come from stacked solves, and the fundamental solution and
the states are their prefix products by recursive doubling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matfun as mf
from . import structure as st
from .errors import DimensionError, ParameterError, SingularityError, UnsupportedError
from .reduce import FlowCertificate, ReducedSystem, index1_reduce


@dataclass
class Trajectory:
    grid: mf.TimeGrid
    states: np.ndarray          # full states, shape (K, n)
    dynamic: np.ndarray | None = None  # reduced states, shape (K, d)
    hamiltonian: np.ndarray | None = None


@dataclass
class FundamentalSolution:
    grid: mf.TimeGrid
    matrices: np.ndarray  # (K, n, n), matrices[0] = I exactly


@dataclass
class FlowDiagnostics:
    kind: str
    max_defect: float
    fundamental: np.ndarray


def _step_maps(M_fun, grid, g_fun=None):
    """C_k = L_k^-1 R_k and d_k = h_k L_k^-1 g(t_k+1/2) (zero without g) for every step.

    L = I - h/2 M and R = I + h/2 M at the midpoints, from one evaluation of
    M (and g) at all of them; raises at the first midpoint where L is
    numerically singular.  A constant M has one L per step length, grouped
    by `structure._groups` (a group is guarded at its earliest midpoint).  Each
    distinct L is solved once against [R | I], which gives C, and L^-1 for
    d and for the guard's condition number.
    """
    ts = grid.points
    h = np.diff(ts)
    mids = 0.5 * (ts[:-1] + ts[1:])
    n = M_fun.rows
    M = st._constant(M_fun)
    if M is None:
        first = at = slice(None)
        M = M_fun._eval_at(mids)
    else:
        first, at = st._groups(h)
    half = 0.5 * h[first, None, None] * M
    eye = np.eye(n)
    X = st._require_nonsingular(
        eye - half, mids[first], 1e-14, SingularityError,
        "midpoint step matrix I - h/2 M is singular (refine the step size)", rhs=eye + half)
    if g_fun is None:
        return X[at, :, :n], np.zeros((h.size, n))
    return X[at, :, :n], (X[at, :, n:] @ (h[:, None, None] * g_fun._eval_at(mids)))[..., 0]


def fundamental_solution(M_fun, grid):
    """Implicit-midpoint fundamental solution of Phidot = M(t) Phi, Phi = I."""
    if M_fun.rows != M_fun.cols:
        raise DimensionError("fundamental solution needs a square coefficient")
    Phi = st._prefix_products(_step_maps(M_fun, grid)[0])
    return FundamentalSolution(grid, np.concatenate([np.eye(M_fun.rows)[None], Phi]))


def _form(certificate):
    """The quadratic form B of a certificate, or B itself."""
    if certificate is None:
        raise UnsupportedError("the reduced core is uncertified: no form to check its flow")
    return certificate.B if isinstance(certificate, FlowCertificate) else np.asarray(certificate)


def flow_defect_series(fundamental, certificate):
    """|| Phi_k^T B Phi_k - B ||_F at every grid point for the certificate's form B."""
    B = _form(certificate)
    mats = np.asarray(getattr(fundamental, "matrices", fundamental), dtype=float)
    if mats.ndim != 3 or mats.shape[1:] != B.shape or B.shape[0] != B.shape[1]:
        raise DimensionError(f"fundamental matrices {mats.shape} do not match the form {B.shape}")
    defect = np.transpose(mats, (0, 2, 1)) @ B[None] @ mats - B[None]
    return st._frobenius(defect, defect)


def flow_defect(fundamental, certificate):
    """max_k || Phi_k^T B Phi_k - B ||_F for the certificate's form B."""
    return float(flow_defect_series(fundamental, certificate).max())


def certify_flow(M_fun, grid, certificate):
    """M's fundamental solution and flow defect; an uncertified core raises first."""
    _form(certificate)
    fund = fundamental_solution(M_fun, grid)
    return FlowDiagnostics(certificate.kind, flow_defect(fund, certificate), fund.matrices)


def integrate_linear(M_fun, g_fun, x0, grid):
    """Implicit midpoint for xdot = M(t) x + g(t): the states are the prefix
    products of the affine step maps [[C_k, d_k], [0, 1]] applied to x0."""
    x = np.asarray(x0, dtype=float).reshape(-1)
    n = M_fun.rows
    if x.size != n:
        raise DimensionError(f"x0 has size {x.size}, expected {n}")
    if not np.isfinite(x).all():
        raise ParameterError("x0 has non-finite entries")
    if g_fun is not None and g_fun.shape != (n, 1):
        raise DimensionError(f"g is {g_fun.shape}, expected {(n, 1)}")
    steps = np.zeros((grid.n - 1, n + 1, n + 1))
    steps[:, :n, :n], steps[:, :n, n] = _step_maps(M_fun, grid, g_fun)
    steps[:, n, n] = 1.0
    states = st._prefix_products(steps) @ np.append(x, 1.0)
    return np.concatenate([x[None], states[:, :n]])


def integrate_reduced(sys: ReducedSystem, x0, grid):
    """Integrate the reduced core and reconstruct the full trajectory.

    The Hamiltonian column is 0.5 x^T E(t) x of the originating pair when
    the reduction kept a reference to it.
    """
    dyn = integrate_linear(sys.m_fun, sys.g_fun, x0, grid)
    states = sys.reconstruct_on(grid, dyn)
    ham = None if sys.pair is None else hamiltonian_series(sys.pair.E, Trajectory(grid, states))
    return Trajectory(grid, states, dynamic=dyn, hamiltonian=ham)


def hamiltonian_series(E_fun, traj):
    """H_k = 0.5 x_k^T E(t_k) x_k along the trajectory."""
    x = traj.states
    return 0.5 * np.einsum("ki,kij,kj->k", x, E_fun.eval_on(traj.grid), x)


@dataclass
class DissipationReport:
    hamiltonian: np.ndarray
    max_violation: float
    nonincreasing: bool
    checked: bool  # False when the supplied input is not identically zero


def dissipation_monitor(model, traj, u=None):
    """Check the discrete dissipation inequality H_{k+1} <= H_k (+ roundoff).

    A step may gain 1e-8 max(|H_k|, |H_{k+1}|), so every unit gets one verdict.
    Unless u is exactly zero on the grid, checked is False (no assertion).
    """
    H = hamiltonian_series(model.E, traj)
    checked = u is None or not np.any(u.eval_on(traj.grid))
    excess = np.diff(H) - 1e-8 * np.maximum(np.abs(H[:-1]), np.abs(H[1:]))
    viol = float(excess.max(initial=0.0))
    return DissipationReport(H, viol, viol <= 0.0, checked)


def simulate_phdae(model, u, x0, grid):
    """Trajectory of  E xdot = (J - R - E K) x + (G - P) u  from a consistent x0.

    One kernel elimination (``index1_reduce``) for every model: index 1, or
    index 2 with a constant kernel split and no dissipation on the
    constraint/chain block.  The reduced core carries the orthogonal
    certificate exactly when the data earn it (lossless pair, pointwise skew
    scaled core).  The returned trajectory carries full states and the
    Hamiltonian sequence.
    """
    pair = model.pair()
    f = mf.mf_matmul(model.input_map(), u) if u is not None else mf.zero(model.n, 1)
    red = index1_reduce(pair, f, grid)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != model.n:
        raise DimensionError(f"x0 has size {x0.size}, expected {model.n}")
    x2_0 = red.dynamic_from_full(grid.points[0], x0)
    return integrate_reduced(red, x2_0, grid), red
