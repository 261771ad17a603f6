"""Structure-preserving integration and flow certification.

The implicit midpoint rule is used throughout: its update is the Cayley
transform of h/2 * M(t_mid), which preserves every quadratic invariant
x^T B x with M^T B + B M = 0 exactly (up to linear-solve roundoff), so the
computed fundamental solutions certify membership in the symplectic or
generalized orthogonal group at machine precision instead of merely
converging to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matfun as mf
from . import structure as st
from .errors import DimensionError, SingularityError
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
    numerically singular.
    """
    ts = grid.points
    h = np.diff(ts)
    mids = 0.5 * (ts[:-1] + ts[1:])
    half = 0.5 * h[:, None, None] * M_fun._eval_at(mids)
    n = half.shape[1]
    L = np.eye(n) - half
    R = np.eye(n) + half
    st._require_nonsingular(
        L, mids, 1e-14, SingularityError, "midpoint step matrix I - h/2 M is singular "
        "(refine the step size)",
    )
    if g_fun is None:
        return np.linalg.solve(L, R), np.zeros((h.size, n))
    CD = np.linalg.solve(L, np.concatenate([R, h[:, None, None] * g_fun._eval_at(mids)], axis=2))
    return CD[:, :, :n], CD[:, :, n]


def fundamental_solution(M_fun, grid):
    """Implicit-midpoint fundamental solution of Phidot = M(t) Phi, Phi = I."""
    if M_fun.rows != M_fun.cols:
        raise DimensionError("fundamental solution needs a square coefficient")
    C, _ = _step_maps(M_fun, grid)
    Phi = np.empty((grid.n, M_fun.rows, M_fun.rows))
    Phi[0] = np.eye(M_fun.rows)
    for k in range(grid.n - 1):
        Phi[k + 1] = C[k] @ Phi[k]
    return FundamentalSolution(grid, Phi)


def flow_defect_series(fundamental, certificate):
    """|| Phi_k^T B Phi_k - B ||_F at every grid point for the certificate's form B."""
    if isinstance(fundamental, FundamentalSolution):
        mats = fundamental.matrices
    else:
        mats = np.asarray(fundamental, dtype=float)
    B = certificate.B if isinstance(certificate, FlowCertificate) else np.asarray(certificate)
    defect = np.transpose(mats, (0, 2, 1)) @ B[None] @ mats - B[None]
    return np.linalg.norm(defect, axis=(1, 2))


def flow_defect(fundamental, certificate):
    """max_k || Phi_k^T B Phi_k - B ||_F for the certificate's form B."""
    return float(flow_defect_series(fundamental, certificate).max())


def certify_flow(M_fun, grid, certificate):
    fund = fundamental_solution(M_fun, grid)
    return FlowDiagnostics(certificate.kind, flow_defect(fund, certificate), fund.matrices)


def integrate_linear(M_fun, g_fun, x0, grid):
    """Implicit midpoint for xdot = M(t) x + g(t)."""
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != M_fun.rows:
        raise DimensionError(f"x0 has size {x.size}, expected {M_fun.rows}")
    C, d = _step_maps(M_fun, grid, g_fun)
    out = np.empty((grid.n, x.size))
    out[0] = x
    for k in range(grid.n - 1):
        out[k + 1] = C[k] @ out[k] + d[k]
    return out


def integrate_reduced(sys: ReducedSystem, x0, grid):
    """Integrate the reduced core and reconstruct the full trajectory.

    The Hamiltonian column is 0.5 x^T E(t) x of the originating pair when
    the reduction kept a reference to it.
    """
    dyn = integrate_linear(sys.m_fun, sys.g_fun, x0, grid)
    states = sys.reconstruct_on(grid, dyn)
    ham = None
    if sys.pair is not None:
        ham = hamiltonian_series(sys.pair.E, Trajectory(grid, states))
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

    Meaningful for zero input; with a nonzero u the report still carries the
    energy sequence but the inequality is not asserted.
    """
    H = hamiltonian_series(model.E, traj)
    checked = True
    if u is not None:
        umax = float(np.abs(u.eval_on(traj.grid)).max())
        checked = umax <= 1e-14 * (1.0 + umax)
    excess = np.diff(H) - 1e-8 * (1.0 + np.abs(H[:-1]))
    viol = float(excess.max(initial=0.0))
    return DissipationReport(H, viol, viol <= 0.0, checked)


def simulate_phdae(model, u, x0, grid):
    """Trajectory of  E xdot = (J - R - E K) x + G u  from a consistent x0.

    One kernel elimination (``index1_reduce``) for every model: index 1, or
    index 2 with a constant kernel split and no dissipation on the
    constraint/chain block.  The reduced core carries the orthogonal
    certificate exactly when the data earn it (lossless pair, pointwise skew
    scaled core).  The returned trajectory carries full states and the
    Hamiltonian sequence.
    """
    pair = model.pair()
    f = mf.mf_matmul(model.G, u) if u is not None else mf.zero(model.n, 1)
    red = index1_reduce(pair, f, grid)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != model.n:
        raise DimensionError(f"x0 has size {x0.size}, expected {model.n}")
    x2_0 = red.dynamic_from_full(grid.points[0], x0)
    return integrate_reduced(red, x2_0, grid), red
