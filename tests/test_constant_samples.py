"""A constant coefficient is one sample below the public boundary.

`structure._samples` gives a constant as a (1, ., .) stack that broadcasts
against the (K, ., .) grid arrays, and `structure._sampled` turns results
back into functions.  A constant pair is then never evaluated on the grid,
and its reduced data come out bit-identical to those of the same pair
written as K equal samples (a Hermite-sampled copy of the constant).
"""

import numpy as np
import pytest

import structdae as sd

from oracles import seeded_semidefinite_skew_pair

GRID = sd.TimeGrid.uniform(0.0, 10.0, 201)


def _sine(w, grid=GRID):
    w = np.reshape(w, (-1, 1))
    return sd.from_callable(lambda t: w * np.sin(t), grid, dfn=lambda t: w * np.cos(t))


def _circuit(RL=0.0):
    model = sd.build_circuit(1.0, 1.5, 0.7, RL=RL, interval=GRID)
    return model.pair(), sd.mf_matmul(model.G, _sine([1.0]))


def _multibody(grid=GRID):
    return sd.build_multibody(np.diag([1.0, 2.0]), np.diag([0.5, 1.0]), [[1.0, 0.0]],
                              interval=grid)


def _seeded(seed):
    pair, w = seeded_semidefinite_skew_pair(seed, GRID)
    return pair, _sine(w)


def _reduced_data(red):
    """The reduced functions at the grid points, with their kinds."""
    funs = [red.m_fun, red.rx, red.rf, red.rfd, red.projector, red.g_fun.Gf]
    kinds = [type(F) for F in funs]
    values = [F.eval_on(GRID) for F in funs[:-1]] + [red.g_fun.eval_on(GRID)]
    return kinds, values


CASES = {
    "circuit RL=0.3": (lambda: _circuit(RL=0.3), sd.index1_reduce),
    "lossless circuit": (_circuit, sd.semidefinite_skew_reduce),
    "multibody skew": (lambda: (_multibody().skew_pair, _sine(np.arange(1.0, 6.0))),
                       sd.semidefinite_skew_reduce),
    **{f"seeded {seed}": (lambda seed=seed: _seeded(seed), sd.index1_reduce)
       for seed in range(4)},
}


@pytest.mark.parametrize("case", list(CASES))
def test_one_sample_and_equal_samples_reduce_alike(case):
    # E stays constant: a one-sample E against the K samples of A is the
    # mixed path, and both sides take the same constant kernel split
    build, reduce = CASES[case]
    pair, f = build()
    sampled = sd.MatrixPair(pair.E, sd.sample(pair.A, GRID), pair.interval)
    one, equal = reduce(pair, f, GRID), reduce(sampled, f, GRID)
    kinds, values = _reduced_data(one)
    assert kinds == _reduced_data(equal)[0]
    assert kinds == [sd.ConstantMatrixFunction] * 6
    for a, b in zip(values, _reduced_data(equal)[1]):
        assert a.tobytes() == b.tobytes()
    certs = [(c.kind, c.B.tobytes()) if c else None for c in (one.certificate, equal.certificate)]
    assert certs[0] == certs[1]
    assert one.max_f_derivative == equal.max_f_derivative


def test_moving_e_with_a_constant_split_and_one_sample_a():
    # index 2 with E = diag(L(t), C1, C2, 0, 0): the split is one sample, E
    # and M are grid arrays and A is one sample until the chain solve
    grid = sd.TimeGrid.uniform(0.0, 1.0, 51)
    pair, w = seeded_semidefinite_skew_pair(0, grid, index2=True)
    E = sd.poly([pair.E.value, np.diag([0.5, 0.0, 0.0, 0.0, 0.0])])
    f = _sine(w, grid)
    one = sd.index1_reduce(sd.MatrixPair(E, pair.A, grid), f, grid)
    A = sd.sample(pair.A, grid)
    equal = sd.index1_reduce(sd.MatrixPair(E, A, grid), f, grid)
    assert one.dynamic_dim == equal.dynamic_dim == 1
    for F, G in ((one.m_fun, equal.m_fun), (one.rx, equal.rx), (one.rf, equal.rf),
                 (one.rfd, equal.rfd), (one.projector, equal.projector),
                 (one.g_fun, equal.g_fun)):
        assert F.eval_on(grid).tobytes() == G.eval_on(grid).tobytes()


def _counted(pair, calls):
    """Record every evaluation of the pair's E and A in calls: on the grid
    and at single points."""
    for name, F in (("E", pair.E), ("A", pair.A)):
        for method in ("eval", "derivative", "eval_on", "derivative_on", "_eval_at",
                       "_derivative_at"):
            def counting(ts, _f=getattr(F, method), _key=f"{name}.{method}"):
                calls.append(_key)
                return _f(ts)

            setattr(F, method, counting)


def _bits(*funs, grid=GRID):
    """Kinds and grid-value bytes of the functions."""
    return [(type(F), F.eval_on(grid).tobytes()) for F in funs]


def _classified(pair, f, grid):
    tag = sd.classify(pair, grid, sd.default_tolerance(pair, grid))
    return tag.value, tag.tolerance


def _basis(pair, f, grid):
    b = sd.solution_basis_constant(pair, grid)
    return b.d, _bits(b.Phi, sd.mf_derivative_function(b.Phi), b.complement)


def _form_bits(form):
    return (form.p, getattr(form, "q", None), form.stage_residuals,
            _bits(form.Q.Q, form.Q.Qdot, form.E33, form.A33))


def _self_form(pair, f, grid):
    return _form_bits(sd.global_canonical_self(pair, sd.solution_basis_constant(pair, grid), grid))


def _skew_form(pair, f, grid):
    return _form_bits(sd.global_canonical_skew(pair, sd.solution_basis_constant(pair, grid), grid))


def _reducers(pair, f, grid):
    out = []
    for reduce in (sd.index1_reduce, sd.semidefinite_skew_reduce):
        red = reduce(pair, f, grid)
        kinds, values = _reduced_data(red)
        cert = red.certificate
        out.append((red.dynamic_dim, kinds, [v.tobytes() for v in values],
                    cert and (cert.kind, cert.B.tobytes()), red.max_f_derivative))
    return out


COUNTED = {
    "circuit": (_circuit, [_reducers, _classified, _basis, _skew_form]),
    "multibody skew": (lambda: (_multibody().skew_pair, _sine(np.arange(1.0, 6.0))),
                       [_reducers, _classified, _basis, _skew_form]),
    "multibody self": (lambda: (_multibody().self_pair, None),
                       [_classified, _basis, _self_form]),
}


@pytest.mark.parametrize("case", list(COUNTED))
def test_a_constant_pair_is_not_evaluated_on_the_grid(case):
    build, runs = COUNTED[case]
    pair, f = build()
    E, A = pair.E.value.copy(), pair.A.value.copy()
    calls = []
    _counted(pair, calls)
    for run in runs:
        run(pair, f, GRID)
    assert calls == []
    assert np.array_equal(pair.E.value, E) and np.array_equal(pair.A.value, A)


def _degree_0(pair):
    """The pair with E and A written as polynomials of degree 0."""
    return sd.MatrixPair(sd.poly([pair.E.value]), sd.poly([pair.A.value]), pair.interval)


@pytest.mark.parametrize("case", list(COUNTED))
def test_a_degree_0_polynomial_pair_gives_the_constant_pairs_bits(case):
    # a degree-0 polynomial is one sample too: no grid evaluation, same bits
    build, runs = COUNTED[case]
    pair, f = build()
    poly = _degree_0(pair)
    assert type(poly.E) is type(poly.A) is sd.PolynomialMatrixFunction
    calls = []
    _counted(poly, calls)
    for run in runs:
        assert run(poly, f, GRID) == run(pair, f, GRID)
    assert calls == []


def test_remark1_accepts_a_degree_0_polynomial_pair():
    rng = np.random.default_rng(5)
    S = rng.standard_normal((4, 4))
    pair = sd.MatrixPair(sd.constant(np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(2))),
                         sd.constant(S + S.T), GRID)
    one, poly = sd.remark1_convert(pair), sd.remark1_convert(_degree_0(pair))
    assert _bits(one.E, one.A) == _bits(poly.E, poly.A)


def test_samples_of_a_constant_do_not_alias_its_value():
    from structdae.structure import _samples

    F = sd.constant([[1.0, 2.0], [3.0, 4.0]])
    vals, ders = _samples(F, GRID), _samples(F, GRID, derivative=True)
    assert vals.shape == ders.shape == (1, 2, 2)
    assert not np.shares_memory(vals, F.value)
    assert not ders.any()


def test_sampled_with_derivative_samples_is_a_constant_only_when_they_vanish():
    from structdae.structure import _sampled

    M = np.array([[1.0, -2.0], [0.5, 3.0]])
    vals = np.broadcast_to(M, (GRID.n, 2, 2)).copy()
    ders = np.zeros_like(vals)
    const = _sampled(GRID, vals, ders)
    assert isinstance(const, sd.ConstantMatrixFunction)
    assert np.array_equal(const.value, M) and not np.shares_memory(const.value, vals)
    # equal samples with a nonzero derivative are the Hermite cubic through both
    ders[5, 0, 1] = 1e-300
    herm = _sampled(GRID, vals, ders)
    assert isinstance(herm, sd.SampledMatrixFunction)
    assert herm.derivative_on(GRID).tobytes() == ders.tobytes()
    assert not np.shares_memory(herm.values, vals)
    # moving samples give the Hermite cubic itself, bit for bit off the nodes
    moving = vals + GRID.points[:, None, None]
    ones = np.ones_like(moving)
    want = sd.SampledMatrixFunction(GRID, moving, deriv_values=ones)
    ts = np.linspace(0.0, 10.0, 37)
    assert _sampled(GRID, moving, ones)._eval_at(ts).tobytes() == want._eval_at(ts).tobytes()
    ders[5, 0, 1] = np.inf
    with pytest.raises(sd.ConstructionError):
        _sampled(GRID, vals, ders)


def _kinds(*funs):
    return [type(F) for F in funs]


def test_a_bitwise_constant_form_block_is_a_constant():
    # d = 0: the whole congruence is the constant complement, so every block
    # of the skew form and its transform come back as constants
    J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    pair = sd.MatrixPair(sd.zero(2, 2), sd.constant(J2), GRID)
    basis = sd.solution_basis_constant(pair, GRID)
    assert basis.d == 0
    assert (_kinds(basis.Phi, sd.mf_derivative_function(basis.Phi))
            == [sd.ConstantMatrixFunction] * 2)
    assert basis.Phi.shape == (2, 0)
    form = sd.global_canonical_skew(pair, basis, GRID)
    funs = (form.E33, form.A33, form.Q.Q, form.Q.Qdot, form.pair_transformed.E,
            form.pair_transformed.A)
    assert _kinds(*funs) == [sd.ConstantMatrixFunction] * 6
    assert np.array_equal(form.A33.value, form.Q.Q.value.T @ J2 @ form.Q.Q.value)
    assert not form.Q.Qdot.value.any()
    assert sd.verify_skew_global_form(form, GRID).passes()
    # the multibody skew form's algebraic blocks are bitwise constant too,
    # while its transform moves with the solution basis
    mb = _multibody().skew_pair
    form = sd.global_canonical_skew(mb, sd.solution_basis_constant(mb, GRID), GRID)
    assert _kinds(form.E33, form.A33) == [sd.ConstantMatrixFunction] * 2
    assert _kinds(form.Q.Q, form.Q.Qdot) == [sd.SampledMatrixFunction] * 2


def test_invert_reads_a_constant_transform_once():
    Q = np.array([[2.0, 1.0], [0.0, 1.0]])
    inv = sd.invert(sd.CongruenceTransform.from_function(sd.constant(Q)), GRID)
    assert _kinds(inv.Q, inv.Qdot) == [sd.ConstantMatrixFunction] * 2
    assert np.array_equal(inv.Q.value, np.linalg.inv(Q[None])[0])
    assert not inv.Qdot.value.any()
    with pytest.raises(sd.SingularityError, match="t=0.0"):
        sd.invert(sd.CongruenceTransform.from_function(sd.constant(np.ones((2, 2)))), GRID)
