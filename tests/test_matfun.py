import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline

import structdae as sd
from structdae.errors import ConstructionError, DimensionError, DomainError

from oracles import overflowing_poly_pair


def test_time_grid_validation():
    g = sd.TimeGrid.uniform(0.0, 1.0, 5)
    assert g.t0 == 0.0 and g.tf == 1.0 and g.n == 5
    with pytest.raises(ConstructionError):
        sd.TimeGrid([0.0, 0.0, 1.0])
    with pytest.raises(ConstructionError):
        sd.TimeGrid.uniform(1.0, 0.0, 5)
    with pytest.raises(ConstructionError):
        sd.TimeGrid([0.5])


def test_constant_eval_and_derivative():
    f = sd.constant(np.eye(2))
    assert np.array_equal(f.eval(0.7), np.eye(2))
    assert np.array_equal(f.derivative(0.3), np.zeros((2, 2)))


def test_poly_eval_horner_and_derivative():
    # t^2 as per-entry coefficients, lowest degree first
    f = sd.PolynomialMatrixFunction.from_entries([[[0.0, 0.0, 1.0]]])
    assert f.eval(3.0)[0, 0] == pytest.approx(9.0, abs=0)
    assert f.derivative(1.0)[0, 0] == pytest.approx(2.0, abs=0)


def test_poly_central_difference_consistency():
    rng = np.random.default_rng(0)
    f = sd.poly(rng.standard_normal((4, 3, 3)))
    h = 1e-5
    for t in (0.25, 0.5, 0.75):
        fd = (f.eval(t + h) - f.eval(t - h)) / (2 * h)
        assert np.linalg.norm(fd - f.derivative(t)) < 1e-9


def test_sampled_cubic_reproduces_cubic():
    # four samples determine a cubic under the not-a-knot rule
    cube = sd.PolynomialMatrixFunction.from_entries([[[0.0, 0.0, 0.0, 1.0]]])
    s = sd.sample(cube, sd.TimeGrid.uniform(0.0, 1.0, 4))
    assert abs(s.eval(0.25)[0, 0] - 0.015625) < 1e-12


def test_sampled_sine_derivative():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 2001)
    s = sd.from_callable(lambda t: [[np.sin(t)]], grid)
    assert abs(s.derivative(0.5)[0, 0] - np.cos(0.5)) < 1e-8


def test_sample_exp_interpolation_error():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 101)
    e = sd.from_callable(lambda t: [[np.exp(t)]], grid)
    ts = np.linspace(0.0, 1.0, 1001)
    err = max(abs(e.eval(t)[0, 0] - np.exp(t)) for t in ts)
    assert err <= 1e-7


def test_sample_roundtrip_exact_at_nodes():
    grid = sd.TimeGrid.uniform(0.0, 2.0, 17)
    f = sd.poly(np.random.default_rng(1).standard_normal((3, 2, 2)))
    s = sd.sample(f, grid)
    for t in grid.points:
        assert np.array_equal(s.eval(t), s.eval(t))  # deterministic
        assert np.allclose(s.eval(t), f.eval(t), atol=1e-13)


def test_sample_constant_and_linear():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 6)
    s = sd.sample(sd.identity(3), grid)
    for t in grid.points:
        assert np.allclose(s.eval(t), np.eye(3), atol=0)
    lin = sd.PolynomialMatrixFunction.from_entries([[[0.0, 1.0]]])
    s2 = sd.sample(lin, sd.TimeGrid.uniform(0.0, 1.0, 2))
    assert s2.eval(0.5)[0, 0] == pytest.approx(0.5, abs=0)


def test_domain_errors():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 5)
    s = sd.sample(sd.identity(2), grid)
    with pytest.raises(DomainError):
        s.eval(1.5)
    with pytest.raises(DomainError):
        s.derivative(-0.2)
    with pytest.raises(DomainError):
        sd.sample(s, sd.TimeGrid.uniform(0.0, 2.0, 5))


def test_a_sampled_domain_error_stores_the_time_it_names():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 5)
    f = sd.from_callable(lambda t: [[t]], grid)
    for call, t in ((lambda: f.eval(2.0), 2.0), (lambda: f.derivative(-0.5), -0.5),
                    (lambda: f.eval_on(sd.TimeGrid.uniform(0.0, 3.0, 5)), 1.5)):
        with pytest.raises(DomainError, match=f"^t={t} outside") as err:
            call()
        assert err.value.t == t


def test_construction_errors():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 3)
    with pytest.raises(ConstructionError):
        sd.SampledMatrixFunction(grid, np.zeros((2, 2, 2)))  # wrong point count
    with pytest.raises(ConstructionError):
        sd.constant([[np.inf]])


def test_hermite_samples_consistent_with_derivative():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 21)
    s = sd.from_callable(
        lambda t: [[np.sin(3 * t)]], grid, dfn=lambda t: [[3 * np.cos(3 * t)]]
    )
    for t in grid.points:
        assert s.derivative(t)[0, 0] == 3 * np.cos(3 * t)
    # between nodes the Hermite interpolant is accurate to O(h^4);
    # h = 0.05 and |f''''| = 81 give an error scale of a few 1e-6
    assert abs(s.eval(0.517)[0, 0] - np.sin(3 * 0.517)) < 5e-6


def test_block_and_algebra_kind_promotion():
    t = sd.PolynomialMatrixFunction.from_entries([[[0.0, 1.0]]])
    blk = sd.mf_block([[sd.identity(1), t], [sd.zero(1, 1), sd.identity(1)]])
    assert isinstance(blk, sd.PolynomialMatrixFunction)
    assert np.allclose(blk.eval(0.5), [[1.0, 0.5], [0.0, 1.0]])
    prod = sd.mf_matmul(blk, blk)
    assert np.allclose(prod.eval(0.5), [[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(prod.derivative(0.5), [[0.0, 2.0], [0.0, 0.0]])
    tr = sd.mf_transpose(blk)
    assert np.allclose(tr.eval(0.25), [[1.0, 0.0], [0.25, 1.0]])


# The algebra closes over two kinds: a result is sampled when an operand is,
# else a polynomial, and a polynomial of degree 0 is a constant.
KIND_GRID = sd.TimeGrid.uniform(0.0, 1.0, 11)
KIND_POINTS = KIND_GRID.points[[0, 4, 10]]
_C = np.random.default_rng(7).standard_normal((6, 2, 2))
OPERANDS = {
    "constant": lambda: sd.constant(_C[0]),
    "degree 0": lambda: sd.poly([_C[1]]),
    "degree 1": lambda: sd.poly([_C[2], _C[3]]),
    "sampled": lambda: sd.sample(sd.poly([_C[4], _C[5], _C[0]]), KIND_GRID),
}


def _result_kind(*names):
    if "sampled" in names:
        return sd.SampledMatrixFunction
    if "degree 1" in names:
        return sd.PolynomialMatrixFunction
    return sd.ConstantMatrixFunction


def _check_values(F, expected, exact):
    for t in KIND_POINTS:
        if exact:
            assert F.eval(t).tobytes() == expected(t).tobytes()
        else:
            assert np.allclose(F.eval(t), expected(t), rtol=1e-13, atol=1e-13)


BINARY = {
    "mf_add": (sd.mf_add, lambda x, y: x + y),
    "mf_sub": (sd.mf_sub, lambda x, y: x - y),
    "mf_matmul": (sd.mf_matmul, lambda x, y: x @ y),
}


@pytest.mark.parametrize("op", list(BINARY))
@pytest.mark.parametrize("left", list(OPERANDS))
@pytest.mark.parametrize("right", list(OPERANDS))
def test_binary_kind_table(op, left, right):
    fun, expr = BINARY[op]
    a, b = OPERANDS[left](), OPERANDS[right]()
    F = fun(a, b)
    kind = _result_kind(left, right)
    if op == "mf_sub" and left == right == "degree 1":
        kind = sd.ConstantMatrixFunction  # a - a: the higher coefficients cancel
    assert type(F) is kind
    # two constants give the numpy expression of their values bit for bit
    exact = kind is sd.ConstantMatrixFunction
    _check_values(F, lambda t: expr(a.eval(t), b.eval(t)), exact)
    if exact:
        assert F.value.tobytes() == expr(a.eval(0.0), b.eval(0.0)).tobytes()


UNARY = {
    "mf_scale": (lambda a: sd.mf_scale(a, -2.5), lambda a, t: -2.5 * a.eval(t)),
    "mf_transpose": (sd.mf_transpose, lambda a, t: a.eval(t).T),
    "mf_derivative_function": (sd.mf_derivative_function, lambda a, t: a.derivative(t)),
}


@pytest.mark.parametrize("op", list(UNARY))
@pytest.mark.parametrize("name", list(OPERANDS))
def test_unary_kind_table(op, name):
    fun, expr = UNARY[op]
    a = OPERANDS[name]()
    F = fun(a)
    kind = _result_kind(name)
    if op == "mf_derivative_function" and name == "degree 1":
        kind = sd.ConstantMatrixFunction  # the derivative has degree 0
    assert type(F) is kind
    _check_values(F, lambda t: expr(a, t), kind is sd.ConstantMatrixFunction)


@pytest.mark.parametrize("left", list(OPERANDS))
@pytest.mark.parametrize("right", list(OPERANDS))
def test_block_kind_table(left, right):
    a, b = OPERANDS[left](), OPERANDS[right]()
    F = sd.mf_block([[a, b], [b, np.ones((2, 2))]])
    assert type(F) is _result_kind(left, right)
    _check_values(F, lambda t: np.block([[a.eval(t), b.eval(t)], [b.eval(t), np.ones((2, 2))]]),
                  exact=True)


def test_a_constant_stores_no_derivative_matrix():
    F = sd.constant(_C[0])
    assert F.value.shape == (2, 2)
    assert F._dcoeffs.strides == (0, 0, 0)
    assert not F._dcoeffs.flags.writeable


@pytest.mark.parametrize("kind", ["constant", "polynomial", "sampled"])
def test_block_shapes_are_checked_for_every_kind(kind):
    make = {
        "constant": sd.constant,
        "polynomial": lambda x: sd.poly([x, np.ones_like(x)]),
        "sampled": lambda x: sd.sample(sd.poly([x, x]), KIND_GRID),
    }[kind]
    with pytest.raises(DimensionError, match=r"block \(0, 1\) has 1 rows, row 0 has 2"):
        sd.mf_block([[make(np.eye(2)), np.ones((1, 1))]])
    with pytest.raises(DimensionError, match="row 1 ends at column 3, row 0 at column 2"):
        sd.mf_block([[make(np.eye(2))], [make(np.ones((1, 3)))]])


def test_matrix_function_json_roundtrip():
    grid = sd.TimeGrid.uniform(0.0, 1.0, 5)
    cases = [
        sd.constant([[1.0, 2.0], [3.0, 4.0]]),
        sd.PolynomialMatrixFunction.from_entries([[[1.0, 2.0], [0.0]], [[3.0], [0.0, 0.0, 1.0]]]),
        sd.from_callable(lambda t: [[t, t * t]], grid, dfn=lambda t: [[1.0, 2 * t]]),
        sd.SampledMatrixFunction(grid, np.linspace(0, 1, 5)[:, None, None] ** 3),
    ]
    for f in cases:
        obj = sd.matrix_function_to_json(f)
        g = sd.matrix_function_from_json(obj)
        assert g.shape == f.shape
        for t in grid.points:
            assert np.allclose(g.eval(t), f.eval(t), atol=0)
            assert np.allclose(g.derivative(t), f.derivative(t), atol=0)
    # the last case, sampled: files from before the cubic was the only
    # interpolant record "order": 3 and load as that cubic; any other order
    # raises rather than be reread
    assert "order" not in obj["data"]
    obj["data"]["order"] = 3
    assert np.array_equal(sd.matrix_function_from_json(obj).eval(0.3), f.eval(0.3))
    for order in (1, 2, "3", None):
        obj["data"]["order"] = order
        with pytest.raises(ConstructionError, match="interpolation order"):
            sd.matrix_function_from_json(obj)


def test_pair_json_roundtrip():
    grid = sd.TimeGrid.uniform(0.0, 2.0, 2)
    pair = sd.MatrixPair(sd.constant(np.eye(2)), sd.constant(np.ones((2, 2))), grid)
    obj = sd.pair_to_json(pair)
    back = sd.pair_from_json(obj)
    assert np.array_equal(back.E.eval(1.0), np.eye(2))
    assert back.interval.tf == 2.0


def test_sampled_derivative_node_rule():
    # arbitrary derivative samples: a point within 1e-14 of a node returns the
    # stored sample exactly, anything farther the Hermite spline's derivative
    rng = np.random.default_rng(3)
    grid = sd.TimeGrid.uniform(0.0, 1.0, 11)
    vals = rng.standard_normal((11, 2, 2))
    ders = rng.standard_normal((11, 2, 2))
    s = sd.SampledMatrixFunction(grid, vals, deriv_values=ders)
    dspline = CubicHermiteSpline(grid.points, vals, ders, axis=0).derivative()
    for i in (0, 4, 10):
        x = grid.points[i]
        for t in (x - 5e-15, x, x + 5e-15):
            assert np.array_equal(s.derivative(t), ders[i])
    t = grid.points[4] + 1e-9
    assert np.array_equal(s.derivative(t), dspline(t))
    assert not np.array_equal(s.derivative(t), ders[4])
    # the batched path follows the same rule
    other = sd.TimeGrid([0.4 - 5e-15, 0.4 + 1e-9, 0.55, 0.6 + 5e-15, 1.0])
    want = np.stack([ders[4], dspline(0.4 + 1e-9), dspline(0.55), ders[6], ders[10]])
    assert np.array_equal(s.derivative_on(other), want)


@pytest.mark.parametrize("tf", [1.0, 1e-13, 1e6])
def test_domain_slack_is_relative_to_the_grid(tf):
    # the same relative overshoot is inside the slack on every scale; on
    # [0, 1e-13] an absolute floor of 1 took in five times the interval
    s = sd.sample(sd.identity(2), sd.TimeGrid.uniform(0.0, tf, 5))
    assert np.array_equal(s.eval(tf * (1 + 5e-13)), np.eye(2))
    for t in (tf * (1 + 1e-9), 5 * tf, -1e-9 * tf):
        with pytest.raises(DomainError):
            s.eval(t)


def test_derivative_node_snap_is_relative_to_the_grid():
    # on [0, 1e-12] a midpoint lies 5e-15 from its nodes: it takes the
    # Hermite cubic's derivative there, not a node's derivative sample
    grid = sd.TimeGrid.uniform(0.0, 1e-12, 101)
    s = sd.from_callable(lambda t: [[np.sin(1e12 * t)]], grid,
                         dfn=lambda t: [[1e12 * np.cos(1e12 * t)]])
    dspline = CubicHermiteSpline(grid.points, s.values, s.deriv_values, axis=0).derivative()
    t = 0.5 * (grid.points[10] + grid.points[11])
    assert np.array_equal(s.derivative(t), dspline(t))
    assert not np.array_equal(s.derivative(t), s.deriv_values[10])
    assert np.array_equal(s.derivative(grid.points[10]), s.deriv_values[10])


def test_a_cubic_whose_powers_overflow_names_the_time():
    # on [0, 1e308] the power sum's s^3 overflows between the nodes, though
    # every sample is finite: DomainError at the earliest such time, with no
    # numpy warning, while the nodes below tf still read their samples
    grid = sd.TimeGrid.uniform(0.0, 1e308, 4)
    s = sd.from_callable(lambda t: [[np.sin(t)]], grid, dfn=lambda t: [[np.cos(t)]])
    mids = sd.TimeGrid(0.5 * (grid.points[:-1] + grid.points[1:]))
    for run in (lambda: s.eval_on(mids), lambda: s.derivative_on(mids)):
        with pytest.raises(DomainError, match="not finite") as err:
            run()
        assert err.value.t == mids.points[0]
        assert f"t={mids.points[0]}" in str(err.value)
    assert np.array_equal(np.stack([s.eval(t) for t in grid.points[:-1]]), s.values[:-1])
    # a polynomial's values and derivatives overflow at the first node after 0
    E = overflowing_poly_pair().E
    assert isinstance(E, sd.PolynomialMatrixFunction) and E.degree == 4
    for run in (lambda: E.eval_on(grid), lambda: E.derivative_on(grid)):
        with pytest.raises(DomainError, match="not finite") as err:
            run()
        assert err.value.t == grid.points[1]
    assert np.array_equal(E.eval(0.0), [[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("with_derivatives", [False, True])
def test_sampled_eval_on_foreign_grid_matches_pointwise(with_derivatives):
    rng = np.random.default_rng(4)
    grid = sd.TimeGrid.uniform(0.0, 2.0, 9)
    vals = rng.standard_normal((9, 3, 2))
    ders = rng.standard_normal((9, 3, 2)) if with_derivatives else None
    s = sd.SampledMatrixFunction(grid, vals, deriv_values=ders)
    other = sd.TimeGrid(np.sort(np.concatenate([rng.uniform(0.0, 2.0, 25),
                                                grid.points[[0, 3, 8]]])))
    assert other != grid
    assert np.array_equal(s.eval_on(other), np.stack([s.eval(t) for t in other.points]))
    assert np.array_equal(
        s.derivative_on(other), np.stack([s.derivative(t) for t in other.points])
    )
    spline = (CubicSpline(grid.points, vals, axis=0) if ders is None
              else CubicHermiteSpline(grid.points, vals, ders, axis=0))
    assert np.array_equal(s.eval_on(other), np.stack([spline(t) for t in other.points]))


def test_poly_eval_on_matches_pointwise():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((4, 2, 3))
    f = sd.PolynomialMatrixFunction(c)
    grid = sd.TimeGrid.uniform(-1.0, 2.0, 17)
    ts = grid.points
    assert np.array_equal(f.eval_on(grid), np.stack([f.eval(t) for t in ts]))
    assert np.array_equal(f.derivative_on(grid), np.stack([f.derivative(t) for t in ts]))
    ref = np.stack([sum(c[k] * t**k for k in range(4)) for t in ts])
    dref = np.stack([sum(k * c[k] * t ** (k - 1) for k in range(1, 4)) for t in ts])
    assert np.allclose(f.eval_on(grid), ref, rtol=1e-13, atol=1e-13)
    assert np.allclose(f.derivative_on(grid), dref, rtol=1e-13, atol=1e-13)
    const = sd.PolynomialMatrixFunction(c[:1])
    assert np.array_equal(const.eval_on(grid), np.broadcast_to(c[0], (17, 2, 3)))
    assert np.array_equal(const.derivative_on(grid), np.zeros((17, 2, 3)))


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _algebra_polys(rng, deg, shape):
    """A random polynomial f of degree deg and shape, and the algebra's
    results from it: its transpose and its products with polynomials of
    degree 1 (0 for a constant f) on the right and deg // 2 on the left."""
    rows, cols = shape
    f = sd.poly(rng.standard_normal((deg + 1, rows, cols)))
    g = sd.poly(rng.standard_normal((1, cols, cols)) if deg == 0
                else [*rng.standard_normal((2, cols, cols))])
    h = sd.poly(rng.standard_normal((deg // 2 + 1, rows, rows)))
    return [f, sd.mf_transpose(f), sd.mf_matmul(f, g), sd.mf_matmul(h, f)]


@pytest.mark.parametrize("deg", range(7))
@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (20, 20)])
def test_power_sum_on_many_points_is_the_pointwise_value_bit_for_bit(deg, shape):
    # the power sum's entry at one t does not depend on how many points are
    # evaluated together, for the algebra's transposes and products too
    rng = np.random.default_rng(deg + 10 * shape[0])
    point_sets = [np.array([0.7]), np.array([-1.5, 2.25]),
                  sd.TimeGrid.uniform(-3.0, 3.0, 401).points]
    for f in _algebra_polys(rng, deg, shape):
        for ts in point_sets:
            for many, one in ((f._eval_at, f.eval), (f._derivative_at, f.derivative)):
                assert np.array_equal(_bits(many(ts)), _bits(np.stack([one(t) for t in ts])))
        grid = sd.TimeGrid(point_sets[2])
        assert np.array_equal(_bits(f.eval_on(grid)), _bits(f._eval_at(grid.points)))


@pytest.mark.parametrize("deg", range(9))
def test_power_sum_error_is_within_the_summation_bound(deg):
    # against Horner in extended precision: |error| <= 4 (d + 1) eps
    # sum_k |c_k| |t|^k, the bound of a sum of d + 1 rounded products
    rng = np.random.default_rng(100 + deg)
    c = rng.standard_normal((deg + 1, 4, 3)) * 10.0 ** rng.uniform(-3, 3, (deg + 1, 1, 1))
    ts = np.concatenate([rng.uniform(-10.0, 10.0, 200), [-10.0, 0.0, 10.0]])
    got = sd.poly(c)._eval_at(ts)
    cl, tl = c.astype(np.longdouble), ts.astype(np.longdouble)[:, None, None]
    ref = np.zeros((ts.size, 4, 3), dtype=np.longdouble)
    for k in range(deg, -1, -1):
        ref = ref * tl + cl[k]
    scale = sum(np.abs(c[k]) * np.abs(ts[:, None, None]) ** k for k in range(deg + 1))
    err = np.abs(got.astype(np.longdouble) - ref).astype(float)
    assert np.all(err <= 4 * (deg + 1) * np.finfo(float).eps * scale)


def test_a_polynomial_whose_top_power_overflows_names_the_time():
    # the power sum forms t**k itself: where |t|**d overflows the value is
    # not finite, however small the coefficient it multiplies (a nested
    # Horner evaluation would read 1e-300 t^2 = 1e100 at t = 1e200); the
    # derivative, of degree 1, stays finite
    f = sd.poly([[[1.0], [2.0]], [[0.0], [0.0]], [[1e-300], [0.0]]])
    grid = sd.TimeGrid([0.0, 1.0, 1e150, 1e200])
    for run in (lambda: f.eval_on(grid), lambda: f.eval(1e200)):
        with pytest.raises(DomainError, match="not finite") as err:
            run()
        assert err.value.t == 1e200
        assert "t=1e+200" in str(err.value)
    assert np.isfinite(f.derivative_on(grid)).all()
    assert np.array_equal(f.eval(1e150), [[2.0], [2.0]])
    # the overflowing pair still fails at the first node after 0, with no
    # numpy warning (warnings are errors in this suite)
    pair = overflowing_poly_pair()
    for run in (lambda: pair.E.eval_on(pair.interval), lambda: pair.A.derivative_on(pair.interval)):
        with pytest.raises(DomainError) as err:
            run()
        assert err.value.t == pair.interval.points[1]


def _assert_matches_scipy(grid, with_derivatives, seed):
    # values and derivatives, zero signs included, at the nodes, tf, the
    # midpoints and random interior points
    rng = np.random.default_rng(seed)
    x = grid.points
    vals = rng.standard_normal((grid.n, 2, 3))
    vals[0, 0, 0] = -0.0
    ders = rng.standard_normal((grid.n, 2, 3)) if with_derivatives else None
    s = sd.SampledMatrixFunction(grid, vals, deriv_values=ders)
    spline = (CubicSpline(x, vals, axis=0) if ders is None
              else CubicHermiteSpline(x, vals, ders, axis=0))
    inner = np.concatenate([0.5 * (x[:-1] + x[1:]), rng.uniform(x[0], x[-1], 7)])
    ts = np.concatenate([x, inner])
    got, want = s._eval_at(ts), spline(ts)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(s.eval(x[-1]), spline(x[-1]))
    # with derivative samples the nodes return the samples (node rule)
    dts = ts if ders is None else inner
    assert np.array_equal(s._derivative_at(dts), spline.derivative()(dts))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("with_derivatives", [False, True])
def test_cubic_interpolant_is_scipys_bit_for_bit(n, with_derivatives):
    _assert_matches_scipy(sd.TimeGrid.uniform(-1.0, 2.0, n), with_derivatives, seed=n)


@pytest.mark.parametrize("with_derivatives", [False, True])
def test_cubic_interpolant_is_scipys_on_a_nonuniform_grid(with_derivatives):
    grid = sd.TimeGrid([0.0, 0.1, 0.15, 0.4, 1.0, 1.05, 2.5, 3.0])
    _assert_matches_scipy(grid, with_derivatives, seed=7)


def test_node_evaluation_builds_no_slopes():
    rng = np.random.default_rng(8)
    grid = sd.TimeGrid.uniform(0.0, 1.0, 6)
    vals = rng.standard_normal((6, 2, 2))
    vals[2, 1, 0] = -0.0
    s = sd.SampledMatrixFunction(grid, vals)
    spline = CubicSpline(grid.points, vals, axis=0)
    nodes = grid.points[[4, 0, 2]]
    got = s._eval_at(nodes)
    assert s._slopes is None
    assert np.array_equal(got, spline(nodes))
    assert np.array_equal(np.signbit(got), np.signbit(spline(nodes)))
    # tf lies in the last interval, as in scipy, and needs the slopes
    assert np.array_equal(s.eval(1.0), spline(1.0))
    assert s._slopes is not None


def test_dynamic_from_full_at_t0_builds_no_projector_slopes():
    grid = sd.TimeGrid.uniform(0.0, 2.0, 41)
    mb = sd.build_multibody(np.diag([1.0, 2.0, 1.5]), np.diag([1.0, 0.5, 0.7]),
                            [[1.0, 0.0, 1.0]], interval=grid)
    n = mb.skew_pair.n
    g = np.ones((n, 1))
    f = sd.from_callable(lambda t: g * np.sin(t), grid, dfn=lambda t: g * np.cos(t))
    red = sd.semidefinite_skew_reduce(mb.skew_pair, f, grid)
    x0 = np.arange(n, dtype=float)
    x2 = red.dynamic_from_full(grid.t0, x0)
    # a constant pair has a constant projector: no samples, no spline
    assert isinstance(red.projector, sd.ConstantMatrixFunction)
    assert np.array_equal(x2, red.projector.value @ x0)


def test_dynamic_from_full_at_t0_builds_no_slopes_of_a_time_varying_projector():
    from oracles import random_poly_congruence

    grid = sd.TimeGrid.uniform(0.0, 1.0, 41)
    E0 = np.diag([1.0, 2.0, 0.0, 0.0])
    A0 = np.array([[-0.3, 1.0, 0.2, 0.0], [-1.0, -0.1, 0.0, 0.5],
                   [0.1, 0.0, -1.0, 0.8], [0.0, -0.4, -0.8, -0.5]])
    pair0 = sd.MatrixPair(sd.constant(E0), sd.constant(A0), grid)
    T = random_poly_congruence(np.random.default_rng(4), 4, 2)
    pair = sd.apply_congruence(pair0, T)
    red = sd.index1_reduce(pair, sd.zero(4, 1), grid)
    x0 = np.arange(4, dtype=float)
    x2 = red.dynamic_from_full(grid.t0, x0)
    assert isinstance(red.projector, sd.SampledMatrixFunction)
    assert red.projector._slopes is None
    P0 = CubicSpline(grid.points, red.projector.values, axis=0)(grid.t0)
    assert np.array_equal(x2, P0 @ x0)


def test_derivative_on_foreign_grid_retains_at_most_the_slopes():
    # scipy.linalg, which the slope solve imports, is already loaded by the
    # scipy.interpolate import above, so no module import is traced here
    import tracemalloc

    rng = np.random.default_rng(9)
    grid = sd.TimeGrid.uniform(0.0, 10.0, 401)
    s = sd.SampledMatrixFunction(grid, rng.standard_normal((401, 20, 20)))
    foreign = grid.refine()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d = s.derivative_on(foreign)
        del d
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 1.1 * s.values.nbytes


@pytest.mark.parametrize("bounds", [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)])
def test_uniform_grid_rejects_non_finite_bounds(bounds):
    with pytest.raises(ConstructionError, match="finite"):
        sd.TimeGrid.uniform(*bounds, 2)

