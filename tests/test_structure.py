import numpy as np
import pytest

import structdae as sd
from structdae.errors import (
    ConditioningError,
    RegularityError,
    SingularityError,
    StructureError,
    UnsupportedError,
)

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


def test_apply_congruence_circuit_permutation_matches_canonical():
    m = sd.build_circuit(2.0, 3.0, 5.0, RL=0.5, RG=0.25, RR=4.0, interval=GRID)
    can = sd.build_circuit_canonical(2.0, 3.0, 5.0, RL=0.5, RG=0.25, RR=4.0, interval=GRID)
    T = sd.CongruenceTransform.from_function(sd.constant(can.permutation))
    out = sd.apply_congruence(m.pair(), T)
    assert np.array_equal(out.E.eval(0.0), can.pair.E.eval(0.0))
    assert np.array_equal(out.A.eval(0.0), can.pair.A.eval(0.0))
    assert np.array_equal(np.diag(can.pair.E.eval(0.0)), [3.0, 5.0, 2.0, 0.0, 0.0])


def test_apply_congruence_singular_q_names_time():
    pair = sd.MatrixPair(sd.identity(2), sd.zero(2, 2), GRID)
    # Q(t) = diag(1, t - 0.5) is singular at t = 0.5
    Q = sd.PolynomialMatrixFunction.from_entries(
        [[[1.0], [0.0]], [[0.0], [-0.5, 1.0]]]
    )
    with pytest.raises(SingularityError) as err:
        sd.apply_congruence(pair, sd.CongruenceTransform.from_function(Q), check_grid=GRID)
    assert err.value.t == pytest.approx(0.5, abs=1e-12)


def test_apply_equivalence():
    pair = sd.MatrixPair(sd.constant(np.diag([1.0, 0.0])), sd.identity(2), GRID)
    P = sd.constant(np.diag([2.0, 1.0]))
    out = sd.apply_equivalence(pair, P, sd.CongruenceTransform.identity(2))
    assert np.array_equal(out.E.eval(0.1), np.diag([2.0, 0.0]))
    assert np.array_equal(out.A.eval(0.1), np.diag([2.0, 1.0]))

    # P = Q^T reproduces the congruence
    rng = np.random.default_rng(3)
    Qc = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    T = sd.CongruenceTransform.from_function(sd.constant(Qc))
    anypair = sd.MatrixPair(
        sd.constant(rng.standard_normal((3, 3))),
        sd.constant(rng.standard_normal((3, 3))),
        GRID,
    )
    a = sd.apply_congruence(anypair, T)
    b = sd.apply_equivalence(anypair, sd.constant(Qc.T), T)
    assert np.allclose(a.E.eval(0.2), b.E.eval(0.2), atol=0)
    assert np.allclose(a.A.eval(0.2), b.A.eval(0.2), atol=0)


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


# a(t) = (t - 0.25)(t - 0.75) vanishes at the grid node t = 0.25 first;
# b(t) = t - 0.125 vanishes only at the first kernel-frame half step
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


def _kernel_frame_row_rank_loss(grid):
    from structdae.factor import smooth_kernel_frame

    smooth_kernel_frame(sd.PolynomialMatrixFunction.from_entries([[[-0.125, 1.0], [0.0]]]), grid)


@pytest.mark.parametrize("run, error, first", [
    (_index1_singular_algebraic_block, RegularityError, 0.25),
    (_skew_singular_algebraic_block, RegularityError, 0.25),
    (_kernel_frame_row_rank_loss, ConditioningError, 0.125),
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
    # the one midpoint guard)
    runs = [
        (lambda: sd.semidefinite_skew_reduce(pair, sd.mf_matmul(model.G, u), grid), []),
        (lambda: sd.simulate_phdae(model, u, np.zeros(5), grid), [(200, 1, 1)]),
    ]
    for run, steps in runs:
        seen.clear()
        run()
        # the 2 x 2 constraint block C2 (also solved as C2^T) and the 1 x 1
        # dynamic E block; the index-1 block of this circuit is empty
        assert [F.shape for F in seen if F.size] == [(201, 2, 2), (201, 1, 1)] + steps
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
