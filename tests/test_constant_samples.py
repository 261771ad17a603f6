"""A constant coefficient is one sample below the public boundary.

`structure._samples` gives a constant as a (1, ., .) stack that broadcasts
against the (K, ., .) grid arrays, and `structure._sampled` turns results
back into functions.  A constant pair is then never evaluated on the grid,
and its reduced data come out bit-identical to those of the same pair
written as K equal samples (a degree-0 polynomial).
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
    poly = sd.MatrixPair(pair.E, sd.poly([pair.A.value]), pair.interval)
    one, equal = reduce(pair, f, GRID), reduce(poly, f, GRID)
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
    equal = sd.index1_reduce(sd.MatrixPair(E, sd.poly([pair.A.value]), grid), f, grid)
    assert one.dynamic_dim == equal.dynamic_dim == 1
    for F, G in ((one.m_fun, equal.m_fun), (one.rx, equal.rx), (one.rf, equal.rf),
                 (one.rfd, equal.rfd), (one.projector, equal.projector),
                 (one.g_fun, equal.g_fun)):
        assert F.eval_on(grid).tobytes() == G.eval_on(grid).tobytes()


def _counted(pair, calls):
    """Record every grid evaluation of the pair's E and A in calls."""
    for name, F in (("E", pair.E), ("A", pair.A)):
        for method in ("eval_on", "derivative_on", "_eval_at", "_derivative_at"):
            def counting(ts, _f=getattr(F, method), _key=f"{name}.{method}"):
                calls.append(_key)
                return _f(ts)

            setattr(F, method, counting)


def _classified(pair, f, grid):
    return sd.classify(pair, grid, sd.default_tolerance(pair, grid))


def _self_form(pair, f, grid):
    return sd.global_canonical_self(pair, sd.solution_basis_constant(pair, grid), grid)


def _skew_form(pair, f, grid):
    return sd.global_canonical_skew(pair, sd.solution_basis_constant(pair, grid), grid)


def _reducers(pair, f, grid):
    sd.index1_reduce(pair, f, grid)
    sd.semidefinite_skew_reduce(pair, f, grid)


COUNTED = {
    "circuit": (_circuit, [_reducers, _classified, _skew_form]),
    "multibody skew": (lambda: (_multibody().skew_pair, _sine(np.arange(1.0, 6.0))),
                       [_reducers, _classified, _skew_form]),
    "multibody self": (lambda: (_multibody().self_pair, None), [_classified, _self_form]),
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


def test_samples_of_a_constant_do_not_alias_its_value():
    from structdae.structure import _samples

    F = sd.constant([[1.0, 2.0], [3.0, 4.0]])
    vals, ders = _samples(F, GRID), _samples(F, GRID, derivative=True)
    assert vals.shape == ders.shape == (1, 2, 2)
    assert not np.shares_memory(vals, F.value)
    assert not ders.any()
