import dataclasses
import inspect

import numpy as np
import pytest
from scipy.linalg import expm

import structdae as sd
from structdae.errors import (
    BasisDeficiencyError,
    RegularityError,
    SingularityError,
    StructureError,
    UnsupportedError,
)
from structdae.structure import check_nonsingular

from oracles import random_poly_congruence, random_self_adjoint_poly_pair, random_skew_adjoint_poly_pair

GRID = sd.TimeGrid.uniform(0.0, 1.0, 101)
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_self_adjoint_residual_multibody():
    mb = sd.build_multibody(np.eye(2), np.eye(2), [[1.0, 0.0]], interval=GRID)
    rep = sd.self_adjoint_residual(mb.self_pair, GRID)
    assert rep.e_residual == 0.0 and rep.a_residual == 0.0


def test_self_adjoint_residual_trivial_cases():
    zero_pair = sd.MatrixPair(sd.zero(3, 3), sd.identity(3), GRID)
    rep = sd.self_adjoint_residual(zero_pair, GRID)
    assert rep.e_residual == 0.0 and rep.a_residual == 0.0

    eye_pair = sd.MatrixPair(sd.identity(2), sd.zero(2, 2), GRID)
    rep2 = sd.self_adjoint_residual(eye_pair, GRID)
    assert rep2.e_residual == pytest.approx(2 * np.sqrt(2), rel=1e-14)
    assert rep2.a_residual == 0.0


def test_skew_adjoint_residual_circuit_and_trivial():
    m = sd.build_circuit(2.0, 3.0, 5.0, interval=GRID)
    rep = sd.skew_adjoint_residual(m.lossless_pair(), GRID)
    assert rep.max_residual == 0.0

    rep2 = sd.skew_adjoint_residual(
        sd.MatrixPair(sd.identity(2), sd.constant(J2), GRID), GRID
    )
    assert rep2.max_residual == 0.0

    rep3 = sd.skew_adjoint_residual(
        sd.MatrixPair(sd.constant(J2), sd.identity(2), GRID), GRID
    )
    assert rep3.e_residual == pytest.approx(2 * np.sqrt(2), rel=1e-14)
    assert rep3.a_residual == pytest.approx(2 * np.sqrt(2), rel=1e-14)


def test_classify():
    m = sd.build_circuit(1.0, 1.0, 1.0, interval=GRID)
    assert sd.classify(m.lossless_pair(), GRID, 1e-12).value == "skew_adjoint"

    both = sd.MatrixPair(sd.zero(2, 2), sd.zero(2, 2), GRID)
    assert sd.classify(both, GRID, 1e-12).value == "both"

    rng = np.random.default_rng(7)
    dense = sd.MatrixPair(
        sd.constant(rng.standard_normal((4, 4))),
        sd.constant(rng.standard_normal((4, 4))),
        GRID,
    )
    # residuals of a generic dense pair are bounded away from zero
    assert sd.self_adjoint_residual(dense, GRID).max_residual > 0.1
    assert sd.skew_adjoint_residual(dense, GRID).max_residual > 0.1
    assert sd.classify(dense, GRID, 1e-10).value == "none"


def test_apply_congruence_identity_and_hand_example():
    pair = sd.MatrixPair(sd.identity(2), sd.zero(2, 2), GRID)
    T = sd.CongruenceTransform.identity(2)
    out = sd.apply_congruence(pair, T)
    assert np.array_equal(out.E.eval(0.3), np.eye(2))
    assert np.array_equal(out.A.eval(0.3), np.zeros((2, 2)))

    # Q(t) = [[1, t], [0, 1]]: E2 = Q^T Q, A2 = -Q^T Qdot
    Q = sd.PolynomialMatrixFunction.from_entries(
        [[[1.0], [0.0, 1.0]], [[0.0], [1.0]]]
    )
    T2 = sd.CongruenceTransform.from_function(Q)
    out2 = sd.apply_congruence(pair, T2)
    for t in (0.0, 0.4, 1.0):
        assert np.allclose(out2.E.eval(t), [[1.0, t], [t, 1.0 + t * t]], atol=0)
        assert np.allclose(out2.A.eval(t), [[0.0, -1.0], [0.0, -t]], atol=0)


def test_apply_congruence_by_a_permutation_is_exact():
    # x_old = P x_new reorders the circuit state (I, V1, V2, IG, IR) to (V1, V2, I, IG, IR)
    m = sd.build_circuit(2.0, 3.0, 5.0, RL=0.5, RG=0.25, RR=4.0, interval=GRID)
    P = np.eye(5)[:, [1, 2, 0, 3, 4]]
    out = sd.apply_congruence(m.pair(), sd.CongruenceTransform.from_function(sd.constant(P)))
    assert np.array_equal(out.E.eval(0.0), P.T @ m.E.eval(0.0) @ P)
    assert np.array_equal(out.A.eval(0.0), P.T @ m.coefficient().eval(0.0) @ P)
    assert np.array_equal(np.diag(out.E.eval(0.0)), [3.0, 5.0, 2.0, 0.0, 0.0])


def test_apply_congruence_singular_q_names_time():
    pair = sd.MatrixPair(sd.identity(2), sd.zero(2, 2), GRID)
    # Q(t) = diag(1, t - 0.5) is singular at t = 0.5
    Q = sd.PolynomialMatrixFunction.from_entries(
        [[[1.0], [0.0]], [[0.0], [-0.5, 1.0]]]
    )
    with pytest.raises(SingularityError) as err:
        sd.apply_congruence(pair, sd.CongruenceTransform.from_function(Q), check_grid=GRID)
    assert err.value.t == pytest.approx(0.5, abs=1e-12)


def test_a_transform_and_a_basis_carry_one_function_each():
    # Qdot and Phidot are the functions' own derivatives, never a second
    # function that could disagree, and sampling always keeps the derivative
    assert [f.name for f in dataclasses.fields(sd.CongruenceTransform)] == ["Q"]
    assert [f.name for f in dataclasses.fields(sd.SolutionBasis)] == ["Phi", "d", "complement"]
    assert "with_derivatives" not in inspect.signature(sd.sample).parameters
    Q = sd.poly([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert np.array_equal(sd.CongruenceTransform(Q).Qdot.eval(0.3), Q.derivative(0.3))
    assert not sd.CongruenceTransform.identity(2).Qdot.value.any()


def test_compose_product_rule_and_transitivity():
    Q1 = sd.PolynomialMatrixFunction.from_entries([[[1.0], [0.0, 1.0]], [[0.0], [1.0]]])
    Q2 = sd.PolynomialMatrixFunction.from_entries([[[1.0], [0.0]], [[0.0, 1.0], [1.0]]])
    T = sd.compose(
        sd.CongruenceTransform.from_function(Q1),
        sd.CongruenceTransform.from_function(Q2),
    )
    for t in (0.0, 0.3, 1.0):
        assert np.allclose(T.Q.eval(t), [[1 + t * t, t], [t, 1.0]], atol=0)
        assert np.allclose(T.Qdot.eval(t), [[2 * t, 1.0], [1.0, 0.0]], atol=0)

    # compose(T, identity) = T
    TI = sd.compose(sd.CongruenceTransform.from_function(Q1), sd.CongruenceTransform.identity(2))
    for t in (0.0, 0.7):
        assert np.array_equal(TI.Q.eval(t), Q1.eval(t))

    rng = np.random.default_rng(5)
    pair = sd.MatrixPair(
        sd.constant(rng.standard_normal((3, 3))),
        sd.constant(rng.standard_normal((3, 3))),
        GRID,
    )
    T1 = sd.CongruenceTransform.from_function(sd.constant(np.eye(3) + 0.2 * rng.standard_normal((3, 3))))
    T2 = sd.CongruenceTransform.from_function(sd.constant(np.eye(3) + 0.2 * rng.standard_normal((3, 3))))
    two_steps = sd.apply_congruence(sd.apply_congruence(pair, T1), T2)
    one_step = sd.apply_congruence(pair, sd.compose(T1, T2))
    for t in GRID.points[::20]:
        assert np.linalg.norm(two_steps.E.eval(t) - one_step.E.eval(t)) < 1e-12
        assert np.linalg.norm(two_steps.A.eval(t) - one_step.A.eval(t)) < 1e-12


def test_invert_hand_example_and_roundtrip():
    Q = sd.PolynomialMatrixFunction.from_entries([[[1.0], [0.0, 1.0]], [[0.0], [1.0]]])
    T = sd.CongruenceTransform.from_function(Q)
    Tinv = sd.invert(T, GRID)
    for t in (0.0, 0.4, 1.0):
        assert np.allclose(Tinv.Q.eval(t), [[1.0, -t], [0.0, 1.0]], atol=1e-14)
        assert np.allclose(Tinv.Qdot.eval(t), [[0.0, -1.0], [0.0, 0.0]], atol=1e-14)

    ident = sd.invert(sd.CongruenceTransform.identity(3), GRID)
    assert np.allclose(ident.Q.eval(0.5), np.eye(3), atol=0)

    rng = np.random.default_rng(11)
    pair = sd.MatrixPair(
        sd.constant(rng.standard_normal((3, 3))),
        sd.constant(rng.standard_normal((3, 3))),
        GRID,
    )
    Tc = sd.CongruenceTransform.from_function(sd.constant(np.eye(3) + 0.3 * rng.standard_normal((3, 3))))
    back = sd.apply_congruence(sd.apply_congruence(pair, Tc), sd.invert(Tc, GRID))
    for t in GRID.points[::25]:
        assert np.linalg.norm(back.E.eval(t) - pair.E.eval(t)) < 1e-10
        assert np.linalg.norm(back.A.eval(t) - pair.A.eval(t)) < 1e-10


def test_invert_reads_the_derivative_of_q_itself_on_a_refined_grid():
    # a Hermite Q on 11 points, inverted on 21: its derivative between the
    # nodes is the cubic's own, not a spline through its derivative samples
    coarse, fine = sd.TimeGrid.uniform(0.0, 1.0, 11), sd.TimeGrid.uniform(0.0, 1.0, 21)
    S = np.array([[0.0, 1.0, 0.2], [-1.0, 0.0, 0.5], [-0.2, -0.5, 0.0]])
    B = np.diag([1.0, 2.0, 0.5])
    Q = sd.from_callable(lambda t: expm(t * S) @ (np.eye(3) + t * B), coarse,
                         dfn=lambda t: expm(t * S) @ (S @ (np.eye(3) + t * B) + B))
    Tinv = sd.invert(sd.CongruenceTransform(Q), fine)
    inv = np.linalg.inv(Q.eval_on(fine))
    assert np.abs(Tinv.Q.eval_on(fine) - inv).max() <= 1e-14
    want = -inv @ Q.derivative_on(fine) @ inv
    assert np.abs(Tinv.Q.derivative_on(fine) - want).max() <= 1e-14
    # the transform guard returns the inverse it reads its margin off
    assert np.array_equal(check_nonsingular(Q, fine), Tinv.Q.eval_on(fine))


def test_remark1_conversion():
    E = np.array([[0.0, 1.0], [-1.0, 0.0]])
    pair = sd.MatrixPair(sd.constant(E), sd.identity(2), GRID)
    out = sd.remark1_convert(pair)
    assert np.allclose(out.E.eval(0.0), np.eye(2), atol=0)
    assert np.allclose(out.A.eval(0.0), [[0.0, -1.0], [1.0, 0.0]], atol=0)
    assert sd.skew_adjoint_residual(out, GRID).max_residual <= 1e-12

    pair2 = sd.MatrixPair(sd.constant(E), sd.constant(np.diag([1.0, 2.0])), GRID)
    out2 = sd.remark1_convert(pair2)
    assert np.allclose(out2.E.eval(0.0), np.diag([1.0, 0.5]), atol=0)
    assert np.allclose(out2.A.eval(0.0), [[0.0, -1.0], [1.0, 0.0]], atol=0)
    assert sd.skew_adjoint_residual(out2, GRID).max_residual <= 1e-12

    with pytest.raises(SingularityError):
        sd.remark1_convert(sd.MatrixPair(sd.constant(E), sd.constant(np.diag([1.0, 0.0])), GRID))
    with pytest.raises(UnsupportedError):
        sd.remark1_convert(
            sd.MatrixPair(sd.sample(sd.constant(E), GRID), sd.identity(2), GRID)
        )
    with pytest.raises(StructureError):
        sd.remark1_convert(sd.MatrixPair(sd.identity(2), sd.identity(2), GRID))


@pytest.mark.parametrize("seed", range(12))
def test_congruence_preserves_structure(seed):
    rng = np.random.default_rng(seed)
    self_pair = random_self_adjoint_poly_pair(rng, 4, 2, GRID)
    skew_pair = random_skew_adjoint_poly_pair(rng, 4, 2, GRID)
    assert sd.self_adjoint_residual(self_pair, GRID).max_residual < 1e-12
    assert sd.skew_adjoint_residual(skew_pair, GRID).max_residual < 1e-12
    T = random_poly_congruence(rng, 4, 2)
    out_self = sd.apply_congruence(self_pair, T)
    out_skew = sd.apply_congruence(skew_pair, T)
    assert sd.self_adjoint_residual(out_self, GRID).max_residual <= 1e-8
    assert sd.skew_adjoint_residual(out_skew, GRID).max_residual <= 1e-8
    # classification is invariant under congruence
    tol = 1e-8 * (1.0 + sd.default_tolerance(self_pair, GRID) / 1e-10)
    assert sd.classify(out_self, GRID, tol).value == sd.classify(self_pair, GRID, tol).value
    assert sd.classify(out_skew, GRID, tol).value == sd.classify(skew_pair, GRID, tol).value


def test_singular_checks_name_the_first_failing_time():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 5)
    # Q(t) = diag(1, (t - 0.25)(t - 0.75)) is singular at t = 0.25 and 0.75
    Q = sd.PolynomialMatrixFunction.from_entries(
        [[[1.0], [0.0]], [[0.0], [0.1875, -1.0, 1.0]]]
    )
    T = sd.CongruenceTransform.from_function(Q)
    pair = sd.MatrixPair(sd.identity(2), sd.zero(2, 2), grid)
    for run in (lambda: sd.apply_congruence(pair, T, check_grid=grid),
                lambda: sd.invert(T, grid)):
        with pytest.raises(SingularityError) as err:
            run()
        assert err.value.t == 0.25
        assert "t=0.25" in str(err.value)


# a(t) = (t - 0.25)(t - 0.75) vanishes at the grid node t = 0.25 first
_A_OF_T = [0.1875, -1.0, 1.0]
_MINUS_A_OF_T = [-0.1875, 1.0, -1.0]


def _index1_singular_algebraic_block(grid):
    A = sd.PolynomialMatrixFunction.from_entries([[[-1.0], [0.0]], [[0.0], _A_OF_T]])
    pair = sd.MatrixPair(sd.constant(np.diag([1.0, 0.0])), A, grid)
    sd.index1_reduce(pair, sd.zero(2, 1), grid)


def _skew_singular_algebraic_block(grid):
    # the kernel block [[0, a], [-a, 0]] of A is skew and nonsingular at t = 0
    A = sd.PolynomialMatrixFunction.from_entries([
        [[0.0], [0.0], [0.0]], [[0.0], [0.0], _A_OF_T], [[0.0], _MINUS_A_OF_T, [0.0]],
    ])
    pair = sd.MatrixPair(sd.constant(np.diag([1.0, 0.0, 0.0])), A, grid)
    sd.semidefinite_skew_reduce(pair, sd.zero(3, 1), grid)


def _basis_rank_loss(grid):
    # Phi = (a, 0) without a complement: its completion and its rank guard
    # come from one decomposition of Phi^T
    phi = sd.PolynomialMatrixFunction.from_entries([[_A_OF_T], [[0.0]]])
    basis = sd.SolutionBasis(phi, 1)
    pair = sd.MatrixPair(sd.identity(2), sd.zero(2, 2), grid)
    sd.global_canonical_skew(pair, basis, grid)


# each guard on an exactly singular sample (eps = 0: LAPACK stops at a zero
# pivot) and on a nearly singular one (eps = 1e-15: condition number 1e15)
_EXACT, _NEAR = 0.0, 1e-15


def _diag_1_a(eps):
    """diag(1, a(t) + eps)."""
    return sd.PolynomialMatrixFunction.from_entries(
        [[[1.0], [0.0]], [[0.0], [_A_OF_T[0] + eps, *_A_OF_T[1:]]]]
    )


def _singular_congruence(grid, eps):
    pair = sd.MatrixPair(sd.identity(2), sd.zero(2, 2), grid)
    sd.apply_congruence(pair, sd.CongruenceTransform.from_function(_diag_1_a(eps)),
                        check_grid=grid)


def _singular_inverse(grid, eps):
    sd.invert(sd.CongruenceTransform.from_function(_diag_1_a(eps)), grid)


def _index1_singular_2x2_algebraic_block(grid, eps):
    # the kernel block diag(1, a + eps); a nonzero 1 x 1 block is perfectly
    # conditioned, so only a 2 x 2 one can be nearly singular
    A = sd.PolynomialMatrixFunction.from_entries([
        [[-1.0], [0.0], [0.0]], [[0.0], [1.0], [0.0]],
        [[0.0], [0.0], [_A_OF_T[0] + eps, *_A_OF_T[1:]]],
    ])
    pair = sd.MatrixPair(sd.constant(np.diag([1.0, 0.0, 0.0])), A, grid)
    sd.index1_reduce(pair, sd.zero(3, 1), grid)


def _singular_cayley_step(grid, eps):
    # M = diag(0, m) with m = 64 t^2 - 64 t + 23 - 8 eps: at the midpoints
    # 0.375 and 0.625 of the steps h = 0.25, I - h/2 M = diag(1, eps)
    M = sd.PolynomialMatrixFunction.from_entries(
        [[[0.0], [0.0]], [[0.0], [23.0 - 8.0 * eps, -64.0, 64.0]]]
    )
    sd.fundamental_solution(M, grid)


def _rows(run, error, first):
    return [pytest.param(lambda grid, eps=eps: run(grid, eps), error, first,
                         id=f"{run.__name__}-{name}")
            for name, eps in (("exact", _EXACT), ("near", _NEAR))]


@pytest.mark.parametrize("run, error, first", [
    (_index1_singular_algebraic_block, RegularityError, 0.25),
    (_skew_singular_algebraic_block, RegularityError, 0.25),
    (_basis_rank_loss, BasisDeficiencyError, 0.25),
    *_rows(_singular_congruence, SingularityError, 0.25),
    *_rows(_singular_inverse, SingularityError, 0.25),
    *_rows(_index1_singular_2x2_algebraic_block, RegularityError, 0.25),
    *_rows(_singular_cayley_step, SingularityError, 0.375),
])
def test_grid_guards_name_the_first_failing_time(run, error, first):
    with pytest.raises(error) as err:
        run(sd.TimeGrid.uniform(0.0, 1.0, 5))
    assert err.value.t == first
    assert f"t={first}" in str(err.value)


def test_circuit_reduction_guards_each_matrix_once(monkeypatch):
    from structdae import structure

    guard = structure._require_nonsingular
    seen = []

    def counting(F, *args, **kwargs):
        seen.append(np.array(F))
        return guard(F, *args, **kwargs)

    monkeypatch.setattr(structure, "_require_nonsingular", counting)
    grid = sd.TimeGrid.uniform(0.0, 10.0, 201)
    model = sd.build_circuit(1.0, 1.5, 0.7, interval=grid)
    pair = sd.MatrixPair(model.E, model.coefficient(), grid)
    u = sd.from_callable(lambda t: [[np.sin(t)]], grid, dfn=lambda t: [[np.cos(t)]])
    # the reducer alone, and the whole simulation (whose Cayley steps add
    # the one midpoint guard, over one matrix per distinct step length of the
    # constant core)
    lengths = np.unique(np.diff(grid.points)).size
    runs = [
        (lambda: sd.semidefinite_skew_reduce(pair, sd.mf_matmul(model.G, u), grid), []),
        (lambda: sd.simulate_phdae(model, u, np.zeros(5), grid), [(lengths, 1, 1)]),
    ]
    for run, steps in runs:
        seen.clear()
        run()
        # the 2 x 2 constraint block C2 (also solved as C2^T) and the 1 x 1
        # dynamic E block, one sample each of the constant pair; the index-1
        # block of this circuit is empty
        assert [F.shape for F in seen if F.size] == [(1, 2, 2), (1, 1, 1)] + steps
        for i, F in enumerate(seen):
            for G in seen[i + 1:]:
                assert not np.array_equal(F, G)
                assert not np.array_equal(F, np.swapaxes(G, 1, 2))


def test_congruence_arrays_constant_stage_and_matrix_function_agree():
    from structdae.structure import _congruence_arrays

    rng = np.random.default_rng(4)
    pair = random_skew_adjoint_poly_pair(rng, 4, 2, GRID)
    Ev, Ed, Av = pair.E.eval_on(GRID), pair.E.derivative_on(GRID), pair.A.eval_on(GRID)
    # a constant (2-D) Q with Qd=None is the product rule with Qdot = 0
    Qc = rng.standard_normal((4, 4))
    E2, E2d, A2 = _congruence_arrays(Ev, Ed, Av, Qc)
    assert np.allclose(E2, Qc.T @ Ev @ Qc, rtol=0, atol=1e-13)
    assert np.allclose(E2d, Qc.T @ Ed @ Qc, rtol=0, atol=1e-13)
    assert np.allclose(A2, Qc.T @ Av @ Qc, rtol=0, atol=1e-13)
    # a time-varying Q gives the grid values of apply_congruence's pair
    T = random_poly_congruence(rng, 4, 2)
    E2, E2d, A2 = _congruence_arrays(Ev, Ed, Av, T.Q.eval_on(GRID), T.Qdot.eval_on(GRID))
    moved = sd.apply_congruence(pair, T)
    assert np.allclose(E2, moved.E.eval_on(GRID), rtol=0, atol=1e-12)
    assert np.allclose(E2d, moved.E.derivative_on(GRID), rtol=0, atol=1e-12)
    assert np.allclose(A2, moved.A.eval_on(GRID), rtol=0, atol=1e-12)


def _dense_congruence(Ev, Ed, Av, Q, Qd):
    """The product rule on whole matrices, the reference for the block kernel."""
    QT = np.swapaxes(Q, -1, -2)
    E2 = QT @ Ev @ Q
    A2 = QT @ Av @ Q - QT @ Ev @ Qd
    E2d = None if Ed is None else np.swapaxes(Qd, -1, -2) @ Ev @ Q + QT @ Ed @ Q + QT @ Ev @ Qd
    return E2, E2d, A2


def _close(got, want, rel=1e-13):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


# (rows, cols): a diagonal block, a shear that leaves rows and columns 2 and 3
# alone, and the whole matrix
BLOCKS = {
    "diagonal": (slice(2, 5), slice(2, 5)),
    "shear": (slice(0, 2), slice(4, 7)),
    "whole": (slice(None), slice(None)),
}


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("K", [1, 6])
@pytest.mark.parametrize("with_xd", [False, True])
@pytest.mark.parametrize("with_ed", [False, True])
def test_congruence_arrays_block_matches_the_dense_product_rule(block, K, with_xd, with_ed):
    from structdae.structure import _congruence_arrays

    rows, cols = BLOCKS[block]
    n = 7
    rng = np.random.default_rng(11)
    Ev, Ed, Av = (rng.standard_normal((K, n, n)) for _ in range(3))
    Ed = Ed if with_ed else None
    b = np.ones((n, n))[rows, cols].shape
    X = rng.standard_normal((K, *b)) if K > 1 else rng.standard_normal(b)
    Xd = rng.standard_normal((K, *b)) if with_xd else None
    Q = np.array(np.broadcast_to(np.eye(n), (K, n, n)))
    Q[:, rows, cols] = X
    Qd = np.zeros((K, n, n))
    if with_xd:
        Qd[:, rows, cols] = Xd
    want = _dense_congruence(Ev, Ed, Av, Q, Qd)
    inputs = [None if x is None else x.copy() for x in (Ev, Ed, Av)]

    got = _congruence_arrays(Ev, Ed, Av, X, Xd, rows, cols)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None:
            assert g.shape == w.shape and _close(g, w)
    if block == "whole":
        # a covering block returns new arrays and leaves its operands alone
        for x, x0 in zip((Ev, Ed, Av), inputs):
            assert x is None or np.array_equal(x, x0)
    else:
        # any other block is written into its operands
        assert got[0] is Ev and got[1] is Ed and got[2] is Av


def test_congruence_arrays_rejects_an_overlapping_block():
    from structdae.errors import DimensionError
    from structdae.structure import _congruence_arrays

    Ev = np.zeros((1, 5, 5))
    with pytest.raises(DimensionError, match="neither diagonal nor"):
        _congruence_arrays(Ev, None, Ev.copy(), np.ones((3, 3)), None, slice(0, 3), slice(2, 5))


@pytest.mark.parametrize("with_xd", [False, True])
def test_congruence_arrays_of_a_constant_e_match_a_grid_of_zero_edot(with_xd):
    # a constant E has one zero sample of Edot, for which the kernel forms no
    # Q^T Edot Q; the result is that of K zero samples, bit for bit
    from structdae.structure import _congruence_arrays

    K, n = 6, 7
    rng = np.random.default_rng(13)
    Ev, Av = rng.standard_normal((2, 1, n, n))
    X, Xd = rng.standard_normal((2, K, n, n))
    Xd = Xd if with_xd else None
    one = _congruence_arrays(Ev, np.zeros((1, n, n)), Av, X, Xd)
    grid = _congruence_arrays(Ev, np.zeros((K, n, n)), Av, X, Xd)
    for a, b in zip(one, grid):
        assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("rows, cols", [(slice(15), slice(15, 45)), (slice(15, 45), slice(15, 45))])
def test_block_congruence_stage_stays_within_three_grid_arrays(rows, cols):
    import tracemalloc

    from structdae.structure import _congruence_arrays

    K, n = 101, 45
    rng = np.random.default_rng(2)
    Ev, Ed, Av = (rng.standard_normal((K, n, n)) for _ in range(3))
    b = np.ones((n, n))[rows, cols].shape
    X, Xd = rng.standard_normal((K, *b)), rng.standard_normal((K, *b))
    tracemalloc.start()
    try:
        _congruence_arrays(Ev, Ed, Av, X, Xd, rows, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense product rule reads about 6 (K, n, n) arrays here
    assert peak < 3 * Ev.nbytes


def test_pipeline_block_stages_write_in_place_and_accumulate_the_transform():
    from structdae.canonical import _Pipeline

    n = 6
    rng = np.random.default_rng(5)
    E = rng.standard_normal((n, n))
    Kc = rng.standard_normal((n, n))
    pair = sd.MatrixPair(sd.constant(E + E.T), sd.constant(Kc - Kc.T), GRID)
    pipe = _Pipeline(pair, GRID, "skew_adjoint")
    assert len(pipe.Ev) == 1
    ts = GRID.points[:, None, None]
    # a diagonal stage by a moving X = I + t B, then a shear by N(t) = t C
    B, C = 0.3 * rng.standard_normal((2, 2)), rng.standard_normal((3, 3))
    stages = [(slice(1, 3), slice(1, 3), np.eye(2) + ts * B, np.broadcast_to(B, (len(ts), 2, 2))),
              (slice(3), slice(3, 6), ts * C, np.broadcast_to(C, (len(ts), 3, 3)))]
    Qall = np.eye(n)[None]
    Qall_d = np.zeros((1, n, n))
    for k, (rows, cols, X, Xd) in enumerate(stages):
        arrays = pipe.Ev, pipe.Ed, pipe.Av, pipe.Qv, pipe.Qd
        pipe.apply(f"stage {k}", rows, cols, X, Xd)
        # the first block stage gives the one-sample arrays the grid axis
        # once; after that every stage writes into the same arrays
        if k:
            assert all(x is y for x, y in zip(arrays, (pipe.Ev, pipe.Ed, pipe.Av, pipe.Qv, pipe.Qd)))
        Q = np.array(np.broadcast_to(np.eye(n), (len(ts), n, n)))
        Q[:, rows, cols] = X
        Qd = np.zeros(Q.shape)
        Qd[:, rows, cols] = Xd
        Qall, Qall_d = Qall @ Q, Qall_d @ Q + Qall @ Qd
    assert pipe.Ev.shape == (len(ts), n, n)
    assert _close(pipe.Qv, Qall) and _close(pipe.Qd, Qall_d)
    want = _dense_congruence((E + E.T)[None], np.zeros((1, n, n)), (Kc - Kc.T)[None],
                             Qall, Qall_d)
    for x, y in zip((pipe.Ev, pipe.Ed, pipe.Av), want):
        assert _close(x, y, 1e-12)


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
def test_classify_rejects_a_non_positive_tolerance(tol):
    from structdae.errors import ParameterError

    pair = sd.build_circuit(1.0, 1.0, 1.0, interval=GRID).lossless_pair()
    with pytest.raises(ParameterError, match="classification tolerance"):
        sd.classify(pair, GRID, tol)


def _norm_operands():
    """(Ev, Ed, Av) cases: C-contiguous, transposed, row- and column-sliced
    grid arrays, one sample of E against grid arrays, and empty blocks."""
    K, n = 7, 5
    rng = np.random.default_rng(9)
    G = [rng.standard_normal((K, 2 * n, 2 * n)) for _ in range(3)]
    cases = {
        "contiguous": [g[:, :n, :n].copy() for g in G],
        "transposed": [np.swapaxes(g[:, :n, :n].copy(), 1, 2) for g in G],
        "row-sliced": [g[:, ::2, :n] for g in G],
        "column-sliced": [g[:, :n, 1::2] for g in G],
        "one-sample": [G[0][:1, :n, :n].copy(), G[1][:, :n, :n], G[2][:, :n, :n]],
        "empty": [np.zeros((K, 0, 0)) for _ in range(3)],
    }
    return [pytest.param(*ops, id=name) for name, ops in cases.items()]


def _linalg_maxnorm(x):
    return float(np.linalg.norm(x, axis=(-2, -1)).max()) if x.size else 0.0


@pytest.mark.parametrize("Ev, Ed, Av", _norm_operands())
def test_norm_helpers_equal_numpys_norm_bit_for_bit(Ev, Ed, Av):
    from structdae.structure import SELF_ADJOINT, SKEW_ADJOINT, _defect_norms, _frobenius, _maxnorm

    for x in (Ev, Ed, Av):
        assert np.array_equal(_frobenius(x), np.linalg.norm(x, axis=(-2, -1)))
        assert _maxnorm(x) == _linalg_maxnorm(x)
    before = [x.copy() for x in (Ev, Ed, Av)]
    ET, AT = np.swapaxes(Ev, -1, -2), np.swapaxes(Av, -1, -2)
    assert _defect_norms(SELF_ADJOINT, Ev, Ed, Av) == (
        _linalg_maxnorm(Ev + ET), _linalg_maxnorm(AT - Av - Ed))
    assert _defect_norms(SKEW_ADJOINT, Ev, Ed, Av) == (
        _linalg_maxnorm(Ev - ET), _linalg_maxnorm(AT + Av + Ed))
    assert all(np.array_equal(x, y) for x, y in zip((Ev, Ed, Av), before))


@pytest.mark.parametrize("Ev, Ed, Av", _norm_operands())
@pytest.mark.parametrize("with_rhs", [False, True])
def test_nonsingularity_margin_equals_numpys_norm_bit_for_bit(monkeypatch, Ev, Ed, Av, with_rhs):
    from structdae import structure as st

    n = Av.shape[-1]
    F = Av + 3.0 * np.eye(n)  # nonsingular, in Av's memory layout
    rhs = Ed[..., :1] if with_rhs and n else None
    seen = []
    monkeypatch.setattr(st, "_require_margin", lambda rel, *args, **kw: seen.append(rel))
    out = st._require_nonsingular(F, np.arange(len(F), dtype=float), 1e-12, SingularityError,
                                  "F is singular", rhs)
    want = (1.0 / (np.linalg.norm(F, axis=(-2, -1)) * np.linalg.norm(out[..., -n:], axis=(-2, -1)))
            if n else np.ones(len(F)))
    assert np.array_equal(seen[0], want)


def test_structure_defect_peaks_near_one_grid_array():
    import tracemalloc

    from structdae.structure import SKEW_ADJOINT, _structure

    K, n = 101, 45
    rng = np.random.default_rng(3)
    Ev, Ed, Av = (rng.standard_normal((K, n, n)) for _ in range(3))
    tracemalloc.start()
    try:
        _structure(SKEW_ADJOINT, Ev, Ed, Av)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # both defects share one squared buffer; separate temporaries read 3.0
    assert peak < 1.5 * Ev.nbytes
