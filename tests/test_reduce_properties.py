"""Generated-input tests of the kernel elimination behind the reducers.

Planted pairs with states (y, z, w), y in R^r, z in R^k, w in R^tau:

    E = diag(S, 0, 0),   A = [[A_yy, -A_zy^T, -C^T],
                              [A_zy,  A_zz,    0  ],
                              [C,     0,       0  ]]

with S SPD, A_yy and A_zz skew (A_zz nonsingular) and C of full row rank:
a skew-adjoint pair of index 1 (tau = 0) or 2, with an r - tau dimensional
dynamic core.  Each is moved by a random constant orthogonal Q.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as hs

import structdae as sd

GRID = sd.TimeGrid.uniform(0.0, 1.0, 41)


def _orthogonal(rng, m):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return q


def _skew(rng, m):
    B = rng.standard_normal((m, m))
    return 0.5 * (B - B.T)


def _planted(seed, d, k, tau):
    """(E, A, g, Q) of the planted pair with core dimension d = r - tau."""
    rng = np.random.default_rng(seed)
    r = d + tau
    n = r + k + tau
    B = rng.standard_normal((r, r))
    # C = U diag(s) V^T with singular values in [0.5, 2]: full row rank
    C = (_orthogonal(rng, tau) * rng.uniform(0.5, 2.0, tau)) @ _orthogonal(rng, r)[:tau]
    A_zy = rng.standard_normal((k, r))
    E = np.zeros((n, n))
    E[:r, :r] = B @ B.T / r + np.eye(r)
    A = np.zeros((n, n))
    A[:r, :r] = _skew(rng, r)
    A[:r, r:r + k] = -A_zy.T
    A[r:r + k, :r] = A_zy
    A[r:r + k, r:r + k] = rng.uniform(0.5, 2.0) * np.kron(np.eye(k // 2), [[0.0, 1.0],
                                                                            [-1.0, 0.0]])
    A[:r, r + k:] = -C.T
    A[r + k:, :r] = C
    return E, A, rng.standard_normal((n, 1)), _orthogonal(rng, n)


def _input(g):
    return sd.from_callable(lambda t: g * np.sin(t), GRID, dfn=lambda t: g * np.cos(t))


def _pair(E, A):
    return sd.MatrixPair(sd.constant(E), sd.constant(A), GRID)


planted = given(seed=hs.integers(0, 2**32 - 1), d=hs.integers(1, 3),
                k=hs.sampled_from([0, 2]), tau=hs.integers(0, 2))


@planted
def test_both_entry_points_find_the_orthogonal_core(seed, d, k, tau):
    E, A, g, Q = _planted(seed, d, k, tau)
    pair, f = _pair(Q.T @ E @ Q, Q.T @ A @ Q), _input(Q.T @ g)
    for reduce in (sd.semidefinite_skew_reduce, sd.index1_reduce):
        red = reduce(pair, f, GRID)
        assert red.dynamic_dim == d
        assert red.certificate.kind == "orthogonal"
        assert red.certificate_defect(GRID) <= 1e-10


@planted
def test_the_input_derivative_is_read_exactly_for_a_chain_in_every_unit(seed, d, k, tau):
    E, A, g, Q = _planted(seed, d, k, tau)
    E, A, g = Q.T @ E @ Q, Q.T @ A @ Q, Q.T @ g
    # E alone times e is a change of time unit; e = a is the whole equation
    # E xdot = A x + f written in other units
    for e, a in [(1.0, 1.0), (1e-14, 1.0), (1e6, 1.0), (1e-12, 1e-12), (1e12, 1e12)]:
        red = sd.index1_reduce(_pair(e * E, a * A), _input(a * g), GRID)
        assert red.max_f_derivative == int(tau > 0)


@planted
def test_moved_states_are_the_planted_states_moved(seed, d, k, tau):
    E, A, g, Q = _planted(seed, d, k, tau)
    red = sd.index1_reduce(_pair(E, A), _input(g), GRID)
    moved = sd.index1_reduce(_pair(Q.T @ E @ Q, Q.T @ A @ Q), _input(Q.T @ g), GRID)
    # one consistent full state, read by each reduction in its own coordinates
    x2 = np.random.default_rng(seed).standard_normal(d)
    x0 = red.reconstruct(GRID.t0, x2)
    traj = sd.integrate_reduced(red, x2, GRID)
    traj_moved = sd.integrate_reduced(moved, moved.dynamic_from_full(GRID.t0, Q.T @ x0), GRID)
    scale = np.abs(traj.states).max()
    assert np.abs(traj_moved.states - traj.states @ Q).max() <= 1e-9 * scale
