"""Time-dependent matrices on a compact interval.

Two concrete kinds carry matrix data:

  * ``PolynomialMatrixFunction``  -- per-entry polynomials in t, analytic
    derivative, closed under sums/products/transposition.  A constant is
    the polynomial of degree 0, ``ConstantMatrixFunction``: it holds one
    matrix, and every algebra result of degree 0 is one;
  * ``SampledMatrixFunction``     -- values on a grid, piecewise linear
    (order 1) or cubic interpolation (order 3, not-a-knot end rule).
    Optionally carries derivative samples; the interpolant is then the
    piecewise cubic Hermite matching both, which keeps value/derivative
    pairs exactly consistent at the nodes.  The cubic interpolants repeat
    the arithmetic of scipy's ``CubicSpline``/``CubicHermiteSpline``, so
    they agree with them bit for bit; scipy is imported only to solve the
    not-a-knot slope system.

Other modules may define further kinds on the same interface by providing
``_eval_at`` and ``_derivative_at``; the reduced inhomogeneity g of
``reduce.AffineInput`` is one, evaluated from the input wherever it is read.
Such kinds take part in evaluation only, not in the algebra below.

All evaluation is deterministic and side-effect free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, DimensionError, DomainError

def _as_matrix(value, name="matrix", stacked=False):
    """Finite float matrix, or a stack of them along a leading axis."""
    a = np.array(value, dtype=float)
    if a.ndim != 2 + stacked:
        raise ConstructionError(f"{name} must be 2-dimensional, got ndim={a.ndim - stacked}")
    if not np.all(np.isfinite(a)):
        raise ConstructionError(f"{name} has non-finite entries")
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing points spanning a compact interval [t0, tf]."""

    t0: float
    tf: float
    points: np.ndarray = field(repr=False)

    def __init__(self, points):
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        if pts.size < 1 or not np.all(np.isfinite(pts)):
            raise ConstructionError("grid needs at least one finite point")
        if np.any(np.diff(pts) <= 0):
            raise ConstructionError("grid points must be strictly increasing")
        if pts.size < 2:
            raise ConstructionError("grid needs t0 < tf, got a single point")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "t0", float(pts[0]))
        object.__setattr__(self, "tf", float(pts[-1]))

    @classmethod
    def uniform(cls, t0, tf, n):
        if n < 2:
            raise ConstructionError("uniform grid needs n >= 2")
        if not tf > t0:
            raise ConstructionError("grid needs t0 < tf")
        return cls(np.linspace(t0, tf, int(n)))

    @property
    def n(self):
        return int(self.points.size)

    def refine(self):
        """Grid with every interval halved (keeps original points)."""
        mids = 0.5 * (self.points[:-1] + self.points[1:])
        return TimeGrid(np.sort(np.concatenate([self.points, mids])))

    def contains(self, t):
        """Whether t lies in [t0, tf] up to a slack of 1e-12 times the larger
        of 1 and the bounds' magnitudes; elementwise for arrays."""
        slack = 1e-12 * max(1.0, abs(self.t0), abs(self.tf))
        return (self.t0 - slack <= t) & (t <= self.tf + slack)

    def within(self, other):
        """Whether [t0, tf] lies in other's interval, up to other's slack."""
        return bool(other.contains(self.t0) and other.contains(self.tf))

    def __eq__(self, other):
        return (
            isinstance(other, TimeGrid)
            and self.points.shape == other.points.shape
            and np.array_equal(self.points, other.points)
        )

    def __hash__(self):
        return hash((self.t0, self.tf, self.n))


class MatrixFunction:
    """Common interface of the kinds."""

    rows: int
    cols: int

    @property
    def shape(self):
        return (self.rows, self.cols)

    def eval(self, t):
        return self._eval_at(np.array([t], dtype=float))[0]

    def derivative(self, t):
        return self._derivative_at(np.array([t], dtype=float))[0]

    def eval_on(self, grid):
        """Values at all grid points, shape (len(grid), rows, cols)."""
        return self._eval_at(grid.points)

    def derivative_on(self, grid):
        return self._derivative_at(grid.points)

    # Values and derivatives at an array of points, shape (len(ts), rows,
    # cols).  Point arrays need not form a TimeGrid: the midpoints of a
    # two-point grid are a single point.
    def _eval_at(self, ts):
        raise NotImplementedError

    def _derivative_at(self, ts):
        raise NotImplementedError

    def _check_shape_match(self, other):
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch {self.shape} vs {other.shape}")


class PolynomialMatrixFunction(MatrixFunction):
    """Matrix polynomial sum_k coeffs[k] * t**k (lowest degree first)."""

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=float)
        if c.ndim == 2:
            c = c[None, :, :]
        if c.ndim != 3:
            raise ConstructionError("polynomial coefficients must be (deg+1, rows, cols)")
        if not np.all(np.isfinite(c)):
            raise ConstructionError("polynomial coefficients must be finite")
        # trim trailing zero-degree blocks but keep at least the constant term
        deg = c.shape[0] - 1
        while deg > 0 and not np.any(c[deg]):
            deg -= 1
        self.coeffs = c[: deg + 1]
        self.rows, self.cols = c.shape[1], c.shape[2]
        # a constant's zero derivative is a read-only view, not a stored matrix
        self._dcoeffs = (self.coeffs[1:] * np.arange(1, deg + 1)[:, None, None]
                         if deg else np.broadcast_to(0.0, self.coeffs.shape))

    @classmethod
    def from_entries(cls, entries):
        """Build from nested per-entry coefficient lists, lowest degree first.

        An empty coefficient list denotes the zero entry.
        """
        rows = len(entries)
        cols = len(entries[0])
        deg = max(1, max(max(len(e) for e in row) for row in entries)) - 1
        c = np.zeros((deg + 1, rows, cols))
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise ConstructionError("ragged polynomial entry table")
            for j, entry in enumerate(row):
                for k, ck in enumerate(entry):
                    c[k, i, j] = ck
        return cls(c)

    @property
    def degree(self):
        return self.coeffs.shape[0] - 1

    def eval(self, t):
        return _horner(self.coeffs, t)

    def derivative(self, t):
        return _horner(self._dcoeffs, t)

    def _eval_at(self, ts):
        return _horner(self.coeffs, np.asarray(ts, dtype=float)[:, None, None])

    def _derivative_at(self, ts):
        return _horner(self._dcoeffs, np.asarray(ts, dtype=float)[:, None, None])

    def derivative_function(self):
        return _poly(self._dcoeffs)


class ConstantMatrixFunction(PolynomialMatrixFunction):
    """The polynomial of degree 0: one matrix, zero derivative."""

    def __init__(self, value):
        super().__init__(_as_matrix(value, "constant matrix")[None])

    @property
    def value(self):
        return self.coeffs[0]

    # own class entries, which perfbench/spans.py wraps by class and name
    eval_on = MatrixFunction.eval_on
    derivative_on = MatrixFunction.derivative_on


def _poly(c):
    """The polynomial with coefficients c (lowest degree first): a
    ConstantMatrixFunction when its trimmed degree is 0."""
    p = PolynomialMatrixFunction(c)
    return ConstantMatrixFunction(p.coeffs[0]) if p.degree == 0 else p


def _horner(coeffs, t):
    """sum_k coeffs[k] * t**k for a scalar t, or at every point of a (m, 1, 1) array t."""
    out = coeffs[-1] * t**0  # a new array, shaped by t
    for k in range(coeffs.shape[0] - 2, -1, -1):
        out = out * t + coeffs[k]
    return out


def _not_a_knot_slopes(x, y):
    """Node slopes of scipy's not-a-knot CubicSpline through samples y (K, r, c)
    on nodes x, from the same linear system and the same LAPACK solver."""
    from scipy.linalg import solve, solve_banded

    n = x.size
    if y.size == 0:
        return np.zeros_like(y)
    dx = np.diff(x)
    dxr = dx[:, None, None]
    slope = np.diff(y, axis=0) / dxr
    if n == 3:
        # both end rules coincide on two intervals: the parabola through the samples
        A = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]], [0.0, 1.0, 1.0]])
        b = np.stack([2 * slope[0], 3 * (dxr[0] * slope[1] + dxr[1] * slope[0]), 2 * slope[1]])
        s = solve(A, b.reshape(3, -1), overwrite_a=True, overwrite_b=True, check_finite=False)
        return s.reshape(y.shape)
    # tridiagonal system in banded storage: superdiagonal, diagonal, subdiagonal
    A = np.zeros((3, n))
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b = np.empty(y.shape)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    if n == 2:
        # a straight line: both ends take the chord slope
        A[1] = 1.0
        b[0] = b[-1] = slope[0]
    else:
        d = x[2] - x[0]
        A[1, 0], A[0, 1] = dx[1], d
        b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        A[1, -1], A[-1, -2] = dx[-2], d
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    s = solve_banded((1, 1), A, b.reshape(n, -1), overwrite_ab=True, overwrite_b=True,
                     check_finite=False)
    return s.reshape(y.shape)


class SampledMatrixFunction(MatrixFunction):
    def __init__(self, grid, values, order=3, deriv_values=None):
        if order not in (1, 3):
            raise ConstructionError("interpolation order must be 1 or 3")
        vals = np.array(values, dtype=float)
        if vals.ndim == 2:
            vals = vals[:, :, None]
        if vals.ndim != 3 or vals.shape[0] != grid.n:
            raise ConstructionError(
                f"samples must be (len(grid), rows, cols); got {vals.shape} for {grid.n} points"
            )
        if not np.all(np.isfinite(vals)):
            raise ConstructionError("samples must be finite")
        self.grid = grid
        self.values = vals
        self.order = order
        self.rows, self.cols = vals.shape[1], vals.shape[2]
        if deriv_values is not None:
            if order != 3:
                raise ConstructionError("derivative samples require order 3")
            dv = np.array(deriv_values, dtype=float)
            if dv.shape != vals.shape:
                raise ConstructionError("derivative samples must match value shape")
            if not np.all(np.isfinite(dv)):
                raise ConstructionError("derivative samples must be finite")
            self.deriv_values = dv
        else:
            self.deriv_values = None
        self._slopes = None

    # own class entries, which perfbench/spans.py wraps by class and name
    eval = MatrixFunction.eval
    derivative = MatrixFunction.derivative

    def _check_domain(self, ts):
        inside = self.grid.contains(ts)
        if not np.all(inside):
            raise DomainError(
                f"t={ts[np.argmin(inside)]} outside sampled interval "
                f"[{self.grid.t0}, {self.grid.tf}]"
            )

    def _segments(self, ts):
        """Index k of the interval [x_k, x_k+1] holding each t; the last
        interval also takes tf (and points past it within the slack)."""
        x = self.grid.points
        k = np.searchsorted(x, ts, side="right") - 1
        return np.clip(k, 0, x.size - 2)

    def _cubic(self, k):
        """Power-basis coefficients (c0, c1, c2, c3) of the cubic on each
        interval k, in powers 3, 2, 1, 0 of t - x_k; computed as scipy's
        CubicHermiteSpline computes them, for the gathered intervals only."""
        x, y = self.grid.points, self.values
        if self.deriv_values is not None:
            m = self.deriv_values
        else:
            if self._slopes is None:
                self._slopes = _not_a_knot_slopes(x, y)
            m = self._slopes
        dx = (x[k + 1] - x[k])[:, None, None]
        slope = (y[k + 1] - y[k]) / dx
        tt = (m[k] + m[k + 1] - 2 * slope) / dx
        return tt / dx, (slope - m[k]) / dx - tt, m[k], y[k]

    def _eval_at(self, ts):
        ts = np.asarray(ts, dtype=float)
        self._check_domain(ts)
        x = self.grid.points
        k = self._segments(ts)
        s = ts - x[k]
        if self.order == 1:
            w = (s / (x[k + 1] - x[k]))[:, None, None]
            return (1.0 - w) * self.values[k] + w * self.values[k + 1]
        if not np.any(s):
            # every point is a node below tf: the power sum reduces to the
            # sample (+ 0.0 turns a -0.0 sample into 0.0, as the sum does)
            return self.values[k] + 0.0
        c0, c1, c2, c3 = self._cubic(k)
        s = s[:, None, None]
        return (0.0 + c3) + c2 * s + c1 * (s * s) + c0 * (s * s * s)

    def _derivative_at(self, ts):
        ts = np.asarray(ts, dtype=float)
        self._check_domain(ts)
        x = self.grid.points
        k = self._segments(ts)
        if self.order == 1:
            # right-hand slope at the nodes, except tf which takes the left one
            return (self.values[k + 1] - self.values[k]) / (x[k + 1] - x[k])[:, None, None]
        # the derivative's power sum, coefficients (3 c0, 2 c1, c2) as in scipy
        c0, c1, c2, _ = self._cubic(k)
        s = (ts - x[k])[:, None, None]
        out = (0.0 + c2) + (2.0 * c1) * s + (3.0 * c0) * (s * s)
        if self.deriv_values is not None:
            # a point within 1e-14 of a node takes that node's derivative
            # sample (the lower node when two qualify)
            i = np.searchsorted(x, ts)
            lo = np.maximum(i - 1, 0)
            hi = np.minimum(i, x.size - 1)
            node = np.where(np.abs(x[lo] - ts) <= 1e-14, lo, hi)
            hit = np.abs(x[node] - ts) <= 1e-14
            out[hit] = self.deriv_values[node[hit]]
        return out

    def eval_on(self, grid):
        if grid == self.grid:
            return self.values.copy()
        return super().eval_on(grid)

    def derivative_on(self, grid):
        if self.deriv_values is not None and grid == self.grid:
            return self.deriv_values.copy()
        return super().derivative_on(grid)


def constant(value):
    return ConstantMatrixFunction(value)


def poly(coeffs):
    return PolynomialMatrixFunction(coeffs)


def zero(rows, cols):
    return ConstantMatrixFunction(np.zeros((rows, cols)))


def identity(n):
    return ConstantMatrixFunction(np.eye(n))


def sample(fun, grid, order=3, with_derivatives=False):
    """Resample ``fun`` on ``grid``; exact at the grid points by construction."""
    if isinstance(fun, SampledMatrixFunction) and not grid.within(fun.grid):
        raise DomainError("sampling grid extends beyond the source interval")
    values = fun.eval_on(grid)
    deriv = fun.derivative_on(grid) if (with_derivatives and order == 3) else None
    return SampledMatrixFunction(grid, values, order=order, deriv_values=deriv)


def from_callable(fn, grid, dfn=None, order=3):
    """Sampled function from python callables t -> matrix (and derivative)."""
    values = _as_matrix([fn(t) for t in grid.points], "sample", stacked=True)
    deriv = None
    if dfn is not None:
        deriv = _as_matrix([dfn(t) for t in grid.points], "derivative sample", stacked=True)
    return SampledMatrixFunction(grid, values, order=order, deriv_values=deriv)


# ---------------------------------------------------------------------------
# algebra on matrix functions, closed over the two kinds: a result is
# sampled when an operand is, else a polynomial (`_poly`)
# ---------------------------------------------------------------------------

def _result_grid(*funs):
    for f in funs:
        if isinstance(f, SampledMatrixFunction):
            return f.grid
    return None


def _sampled_binary(a, b, grid, op, dop):
    va, vb = a.eval_on(grid), b.eval_on(grid)
    da, db = a.derivative_on(grid), b.derivative_on(grid)
    return SampledMatrixFunction(grid, op(va, vb), order=3, deriv_values=dop(va, vb, da, db))


def mf_add(a, b):
    a._check_shape_match(b)
    grid = _result_grid(a, b)
    if grid is not None:
        return _sampled_binary(a, b, grid, lambda x, y: x + y, lambda x, y, dx, dy: dx + dy)
    c = np.zeros((max(a.degree, b.degree) + 1, a.rows, a.cols))
    c[: a.degree + 1] += a.coeffs
    c[: b.degree + 1] += b.coeffs
    return _poly(c)


def mf_scale(a, s):
    if isinstance(a, PolynomialMatrixFunction):
        return _poly(s * a.coeffs)
    dv = None if a.deriv_values is None else s * a.deriv_values
    return SampledMatrixFunction(a.grid, s * a.values, order=a.order, deriv_values=dv)


def mf_sub(a, b):
    return mf_add(a, mf_scale(b, -1.0))


def mf_matmul(a, b):
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.shape} by {b.shape}")
    grid = _result_grid(a, b)
    if grid is not None:
        return _sampled_binary(
            a, b, grid, lambda x, y: x @ y, lambda x, y, dx, dy: dx @ y + x @ dy
        )
    c = np.zeros((a.degree + b.degree + 1, a.rows, b.cols))
    for i in range(a.degree + 1):
        for j in range(b.degree + 1):
            c[i + j] += a.coeffs[i] @ b.coeffs[j]
    return _poly(c)


def mf_transpose(a):
    if isinstance(a, PolynomialMatrixFunction):
        return _poly(np.transpose(a.coeffs, (0, 2, 1)))
    dv = None if a.deriv_values is None else np.transpose(a.deriv_values, (0, 2, 1))
    return SampledMatrixFunction(
        a.grid, np.transpose(a.values, (0, 2, 1)), order=a.order, deriv_values=dv
    )


def mf_derivative_function(a):
    """The derivative as a MatrixFunction of the same (or simpler) kind."""
    if isinstance(a, PolynomialMatrixFunction):
        return a.derivative_function()
    vals = a.derivative_on(a.grid)
    return SampledMatrixFunction(a.grid, vals, order=a.order if a.order == 1 else 3)


def mf_block(blocks):
    """Assemble a block matrix function from a 2d list of blocks.

    Entries may be MatrixFunction or plain arrays (treated as constants).
    Every block of a row has the row's height and every row the same width.
    """
    norm = [
        [b if isinstance(b, MatrixFunction) else ConstantMatrixFunction(b) for b in row]
        for row in blocks
    ]
    heights = [row[0].rows for row in norm]
    width = sum(b.cols for b in norm[0])
    for i, row in enumerate(norm):
        for j, b in enumerate(row):
            if b.rows != heights[i]:
                raise DimensionError(
                    f"block ({i}, {j}) has {b.rows} rows, row {i} has {heights[i]}"
                )
        end = sum(b.cols for b in row)
        if end != width:
            raise DimensionError(f"row {i} ends at column {end}, row 0 at column {width}")
    funs = [b for row in norm for b in row]
    grid = _result_grid(*funs)
    if grid is not None:
        vals = np.concatenate(
            [np.concatenate([b.eval_on(grid) for b in row], axis=2) for row in norm], axis=1
        )
        dvals = np.concatenate(
            [np.concatenate([b.derivative_on(grid) for b in row], axis=2) for row in norm],
            axis=1,
        )
        return SampledMatrixFunction(grid, vals, order=3, deriv_values=dvals)
    c = np.zeros((max(p.degree for p in funs) + 1, sum(heights), width))
    r0 = 0
    for row, height in zip(norm, heights):
        c0 = 0
        for p in row:
            c[: p.degree + 1, r0 : r0 + height, c0 : c0 + p.cols] = p.coeffs
            c0 += p.cols
        r0 += height
    return _poly(c)


@dataclass(frozen=True)
class MatrixPair:
    """A pair (E, A) of square matrix functions on a shared interval."""

    E: MatrixFunction
    A: MatrixFunction
    interval: TimeGrid

    def __post_init__(self):
        if self.E.rows != self.E.cols or self.A.rows != self.A.cols:
            raise DimensionError("E and A must be square")
        if self.E.shape != self.A.shape:
            raise DimensionError(f"E is {self.E.shape} but A is {self.A.shape}")

    @property
    def n(self):
        return self.E.rows

    def check_grid(self, grid):
        if not grid.within(self.interval):
            raise DomainError("grid extends beyond the pair's interval")


# ---------------------------------------------------------------------------
# JSON serialization:
# {"rows": n, "cols": m, "kind": "constant"|"poly"|"samples", "data": ...}
# ---------------------------------------------------------------------------

def matrix_function_to_json(f):
    if isinstance(f, ConstantMatrixFunction):
        data = f.value.tolist()
        kind = "constant"
    elif isinstance(f, PolynomialMatrixFunction):
        data = [
            [[float(f.coeffs[k, i, j]) for k in range(f.degree + 1)] for j in range(f.cols)]
            for i in range(f.rows)
        ]
        kind = "poly"
    elif isinstance(f, SampledMatrixFunction):
        data = {
            "grid": f.grid.points.tolist(),
            "values": [v.tolist() for v in f.values],
            "order": f.order,
        }
        if f.deriv_values is not None:
            data["derivatives"] = [v.tolist() for v in f.deriv_values]
        kind = "samples"
    else:
        raise ConstructionError(f"cannot serialize {type(f).__name__}")
    return {"rows": f.rows, "cols": f.cols, "kind": kind, "data": data}


def matrix_function_from_json(obj):
    try:
        rows, cols, kind, data = obj["rows"], obj["cols"], obj["kind"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ConstructionError(f"malformed matrix function object: missing {exc}")
    try:
        if kind == "constant":
            f = ConstantMatrixFunction(data)
        elif kind == "poly":
            f = PolynomialMatrixFunction.from_entries(data)
        elif kind == "samples":
            grid = TimeGrid(data["grid"])
            f = SampledMatrixFunction(
                grid,
                np.array(data["values"], dtype=float),
                order=int(data.get("order", 3)),
                deriv_values=(
                    np.array(data["derivatives"], dtype=float)
                    if "derivatives" in data
                    else None
                ),
            )
        else:
            raise ConstructionError(f"unknown matrix function kind {kind!r}")
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConstructionError(
            f"malformed {kind!r} matrix function data ({type(exc).__name__}: {exc})"
        ) from None
    if f.shape != (rows, cols):
        raise ConstructionError(
            f"declared shape ({rows}, {cols}) does not match data shape {f.shape}"
        )
    return f


def pair_to_json(pair):
    return {
        "type": "pair",
        "interval": [pair.interval.t0, pair.interval.tf],
        "E": matrix_function_to_json(pair.E),
        "A": matrix_function_to_json(pair.A),
    }


def json_entry(obj, key, convert, *default):
    """convert(obj[key]) for a top-level entry of a model object.

    Absent optional keys take the default.  A missing required key, or a
    value convert rejects with KeyError, TypeError or ValueError, raises
    ConstructionError naming the key.
    """
    if not isinstance(obj, dict):
        raise ConstructionError(f"model must be a JSON object, got {type(obj).__name__}")
    if key in obj:
        value = obj[key]
    elif default:
        value = default[0]
    else:
        raise ConstructionError(f"model has no {key!r} entry")
    try:
        return convert(value)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConstructionError(f"malformed {key!r} entry: {exc}") from None


def interval_from_json(value):
    """Two-point TimeGrid from an "interval" entry [t0, tf]."""
    t0, tf = value
    return TimeGrid.uniform(float(t0), float(tf), 2)


def pair_from_json(obj):
    return MatrixPair(
        json_entry(obj, "E", matrix_function_from_json),
        json_entry(obj, "A", matrix_function_from_json),
        json_entry(obj, "interval", interval_from_json),
    )


def dump_json(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
