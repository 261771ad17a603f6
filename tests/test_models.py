import numpy as np
import pytest

import structdae as sd
from structdae.errors import DimensionError, ParameterError

GRID = sd.TimeGrid.uniform(0.0, 1.0, 101)


def test_circuit_matrices():
    m = sd.build_circuit(2.0, 3.0, 5.0, RL=0.1, RG=0.2, RR=0.3, interval=GRID)
    E = m.E.eval(0.0)
    J = m.J.eval(0.0)
    R = m.R.eval(0.0)
    G = m.G.eval(0.0)
    assert np.array_equal(np.diag(E), [2.0, 3.0, 5.0, 0.0, 0.0])
    # wiring of the lossless core: Idot couples to V2, V1 to IG, V2 to IR
    assert J[0, 2] == -1.0 and J[2, 0] == 1.0
    assert J[1, 3] == -1.0 and J[3, 1] == 1.0
    assert J[2, 4] == -1.0 and J[4, 2] == 1.0
    assert np.linalg.norm(J + J.T) == 0.0
    assert np.array_equal(np.diag(R), [0.1, 0.0, 0.0, 0.2, 0.3])
    assert np.array_equal(G[:, 0], [0.0, 0.0, 0.0, 1.0, 0.0])
    assert m.labels == ("I", "V1", "V2", "IG", "IR")


def test_circuit_structure_and_validation():
    m = sd.build_circuit(1.0, 1.0, 1.0, RL=0.5, RG=0.5, RR=0.5, interval=GRID)
    rep = m.validate(GRID)
    assert rep["skew_adjoint_residual"] <= 1e-10
    assert rep["dissipation_min_eig"] >= -1e-10
    assert rep["S_symmetry"] == 0.0 and rep["N_skewness"] == 0.0

    lossless = sd.build_circuit(1.0, 1.0, 1.0, interval=GRID)
    assert sd.classify(lossless.lossless_pair(), GRID, 1e-12).value == "skew_adjoint"


def test_circuit_hamiltonian_value():
    m = sd.build_circuit(1.0, 1.0, 1.0, interval=GRID)
    x = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    H = 0.5 * x @ m.E.eval(0.0) @ x
    assert H == pytest.approx(1.5, abs=0)


def test_circuit_parameter_errors():
    with pytest.raises(ParameterError):
        sd.build_circuit(0.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        sd.build_circuit(1.0, -2.0, 1.0)
    with pytest.raises(ParameterError):
        sd.build_circuit(1.0, 1.0, 1.0, RL=-0.1)


def test_stokes_blocks_and_structure():
    s = sd.build_stokes(3, 1, seed=7, interval=GRID)
    assert np.all(np.linalg.eigvalsh(s.M) > 0)
    assert np.linalg.norm(s.A_S + s.A_S.T) == 0.0
    assert np.all(np.linalg.eigvalsh(s.A_H) >= -1e-12)
    assert np.all(np.linalg.eigvalsh(s.C) > 0)
    assert np.linalg.norm(s.C) <= 1e-3 * np.linalg.norm(s.M) * (1 + 1e-12)
    assert np.linalg.matrix_rank(s.B) == 1
    pair = s.pair()
    # E block pattern diag(M, 0)
    E = pair.E.eval(0.0)
    assert np.array_equal(E[:3, :3], s.M)
    assert np.abs(E[3:, :]).max() == 0.0 and np.abs(E[:, 3:]).max() == 0.0
    assert sd.classify(pair, GRID, 1e-12).value == "skew_adjoint"

    damped = sd.build_stokes(3, 1, seed=7, damped=True, interval=GRID)
    assert sd.classify(damped.pair(), GRID, 1e-10).value == "none"

    with pytest.raises(DimensionError):
        sd.build_stokes(2, 2, seed=0)


def test_stokes_seed_reproducibility():
    a = sd.build_stokes(4, 2, seed=123, interval=GRID)
    b = sd.build_stokes(4, 2, seed=123, interval=GRID)
    assert np.array_equal(a.M, b.M) and np.array_equal(a.B, b.B)
    c = sd.build_stokes(4, 2, seed=124, interval=GRID)
    assert not np.array_equal(a.M, c.M)


def test_multibody_forms():
    mb = sd.build_multibody(np.eye(2), np.eye(2), [[1.0, 0.0]], interval=GRID)
    E_self = mb.self_pair.E.eval(0.0)
    expected_E = np.zeros((5, 5))
    expected_E[:2, 2:4] = np.eye(2)
    expected_E[2:4, :2] = -np.eye(2)
    assert np.array_equal(E_self, expected_E)
    assert sd.self_adjoint_residual(mb.self_pair, GRID).max_residual == 0.0

    E_skew = mb.skew_pair.E.eval(0.0)
    assert np.array_equal(E_skew, np.diag([1.0, 1.0, 1.0, 1.0, 0.0]))
    assert sd.skew_adjoint_residual(mb.skew_pair, GRID).max_residual == 0.0

    with pytest.raises(ParameterError):
        sd.build_multibody(np.eye(2), np.diag([1.0, -1.0]), [[1.0, 0.0]])
    with pytest.raises(ParameterError):
        sd.build_multibody(np.diag([1.0, 0.0]), np.eye(2), [[1.0, 0.0]])
    with pytest.raises(ParameterError):
        sd.build_multibody(np.eye(2), np.eye(2), [[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DimensionError, match="mass matrix is empty"):
        sd.build_multibody(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)))


def test_optimal_control_constant_blocks():
    pair = sd.build_optimal_control(
        [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]], interval=GRID
    )
    assert pair.n == 3
    assert np.array_equal(pair.E.eval(0.0), [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    assert sd.self_adjoint_residual(pair, GRID).max_residual == 0.0

    # E = 0 still yields a self-adjoint pair
    pair0 = sd.build_optimal_control(
        [[0.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]], interval=GRID
    )
    assert sd.self_adjoint_residual(pair0, GRID).max_residual == 0.0


def test_optimal_control_time_varying_e():
    # E(t) = t: the (2,1) block picks up the Edot^T term and stays self-adjoint
    Et = sd.PolynomialMatrixFunction.from_entries([[[0.0, 1.0]]])
    pair = sd.build_optimal_control(
        Et, [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]], interval=GRID
    )
    assert pair.A.eval(0.5)[1, 0] == pytest.approx(2.0, abs=0)  # A^T + Edot^T = 1 + 1
    assert sd.self_adjoint_residual(pair, GRID).max_residual <= 1e-14


def test_optimal_control_parameter_errors():
    asym = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ParameterError):
        sd.build_optimal_control(
            np.eye(2), np.eye(2), np.eye(2)[:, :1], np.eye(2), np.zeros((2, 1)),
            [[1.0]], asym, interval=GRID,
        )
    W_bad = sd.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ParameterError):
        sd.build_optimal_control(
            np.eye(2), np.eye(2), np.eye(2)[:, :1], W_bad, np.zeros((2, 1)),
            [[1.0]], np.eye(2), interval=GRID,
        )
    # W(t) = I + t (t - 5) (t - 10) e1 e2^T is symmetric at 0, 5 and 10 only
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    W_cubic = sd.poly([np.eye(2), 50.0 * e12, -15.0 * e12, e12])
    with pytest.raises(ParameterError, match="W must be symmetric"):
        sd.build_optimal_control(
            np.eye(2), np.eye(2), np.eye(2)[:, :1], W_cubic, np.zeros((2, 1)),
            [[1.0]], np.eye(2),
        )


def test_dissipation_matrix_psd_across_constructors():
    for params in ((1.0, 1.0, 1.0, 0.0, 0.0, 0.0), (2.0, 0.5, 3.0, 1.0, 0.1, 7.0)):
        m = sd.build_circuit(*params, interval=GRID)
        for t in (0.0, 0.5, 1.0):
            lam = np.linalg.eigvalsh(m.dissipation_matrix(t))
            assert lam.min() >= -1e-12


def test_validate_matches_pointwise_dissipation_matrix():
    import dataclasses

    m = sd.build_circuit(1.0, 2.0, 3.0, RL=0.5, RG=0.1, RR=0.25, interval=GRID)
    # R(t) = R - 0.3 t I turns indefinite on the grid
    m = dataclasses.replace(m, R=sd.poly([m.R.eval(0.0), -0.3 * np.eye(5)]))
    pointwise = min(np.linalg.eigvalsh(m.dissipation_matrix(t))[0] for t in GRID.points)
    assert pointwise < 0.0
    assert m.validate(GRID)["dissipation_min_eig"] == pointwise


def test_phdae_labels_must_match_the_state_count():
    import dataclasses

    m = sd.build_circuit(1.0, 1.0, 1.0, interval=GRID)
    for labels in (("I", "V1"), m.labels + ("extra",)):
        with pytest.raises(DimensionError, match="labels"):
            dataclasses.replace(m, labels=labels)
    assert dataclasses.replace(m, labels=()).labels == ()


def test_optimal_control_symmetry_is_read_from_the_data():
    # symmetric samples (and derivative samples) and coefficients pass; one
    # asymmetric derivative sample or coefficient fails
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    S = np.array([[2.0, 1.0], [1.0, 3.0]])
    vals = S + GRID.points[:, None, None] * np.eye(2)

    def build(W):
        return sd.build_optimal_control(np.eye(2), np.eye(2), np.eye(2)[:, :1], W,
                                        np.zeros((2, 1)), [[1.0]], np.eye(2), interval=GRID)

    ders = np.broadcast_to(np.eye(2), vals.shape).copy()
    assert build(sd.SampledMatrixFunction(GRID, vals, deriv_values=ders)).n == 5
    assert build(sd.poly([S, np.eye(2), S])).n == 5
    ders[3] += e12
    with pytest.raises(ParameterError, match="W must be symmetric"):
        build(sd.SampledMatrixFunction(GRID, vals, deriv_values=ders))
    with pytest.raises(ParameterError, match="W must be symmetric"):
        build(sd.poly([S, np.eye(2), S + e12]))
