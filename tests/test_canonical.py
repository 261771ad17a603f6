import warnings

import numpy as np
import pytest

import structdae as sd
from structdae.canonical import (
    _expm,
    _skew_pairing_transform,
)
from structdae.errors import (
    BasisDeficiencyError,
    IllPosedRankError,
    ParityError,
    RegularityError,
    StageError,
    StructureError,
    UnsupportedError,
)
from structdae.structure import _J

from oracles import (
    brute_force_dimension,
    multibody_solution_dims,
    seeded_multibody,
    seeded_semidefinite_skew_pair,
)

GRID = sd.TimeGrid.uniform(0.0, 1.0, 201)
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _multibody():
    return sd.build_multibody(np.eye(2), np.eye(2), [[1.0, 0.0]], interval=GRID)


# ---------------------------------------------------------------------------
# solution bases
# ---------------------------------------------------------------------------

def test_solution_basis_rotation_pair():
    pair = sd.MatrixPair(sd.identity(2), sd.constant(J2), GRID)
    basis = sd.solution_basis_constant(pair, GRID)
    assert basis.d == 2
    Ev, Av = np.eye(2), J2
    res = max(
        np.linalg.norm(Ev @ basis.Phi.derivative(t) - Av @ basis.Phi.eval(t))
        for t in GRID.points[::20]
    )
    assert res <= 1e-10


def test_solution_basis_constants_pair():
    pair = sd.MatrixPair(sd.constant(J2), sd.zero(2, 2), GRID)
    basis = sd.solution_basis_constant(pair, GRID)
    assert basis.d == 2
    # constants solve the system: Phidot must vanish
    assert np.linalg.norm(basis.Phi.derivative(0.5)) <= 1e-12


@pytest.mark.parametrize("build, verify, A", [
    (sd.global_canonical_skew, sd.verify_skew_global_form, J2),
    (sd.global_canonical_self, sd.verify_self_global_form, np.eye(2)),
])
def test_pair_without_dynamics_has_an_empty_basis(build, verify, A):
    # E = 0: the solution space is {0}, and the form is all algebraic part
    pair = sd.MatrixPair(sd.zero(2, 2), sd.constant(A), GRID)
    basis = sd.solution_basis_constant(pair, GRID)
    assert basis.d == 0
    form = build(pair, basis, GRID)
    assert (form.p, form.algebraic_dim) == (0, 2)
    assert verify(form, GRID).passes()


def test_solution_basis_margin_on_a_hyperbolic_pencil():
    # finite eigenvalues +-a (real parts spread D = 2a) plus one algebraic
    # variable, moved by an orthogonal congruence; the relative smallest
    # singular value of Phi cannot exceed exp(-D (tf - t0) / 2) at both ends,
    # and the centre-anchored basis attains that bound
    a, t0, tf = np.sqrt(2.0), 0.0, 10.0
    grid = sd.TimeGrid.uniform(t0, tf, 201)
    U, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    E = U.T @ np.diag([1.0, 1.0, 0.0]) @ U
    A = U.T @ np.diag([a, -a, 1.0]) @ U
    basis = sd.solution_basis_constant(sd.MatrixPair(sd.constant(E), sd.constant(A), grid), grid)
    assert basis.d == 2
    s = np.linalg.svd(basis.Phi.eval_on(grid), compute_uv=False)
    margin = (s[:, -1] / s[:, 0]).min()
    bound = np.exp(-2 * a * (tf - t0) / 2)
    assert abs(margin / bound - 1.0) <= 1e-8
    assert margin > sd.canonical.RANK_FLOOR


def test_solution_basis_multibody_dimensions():
    mb = _multibody()
    d_self, d_skew = multibody_solution_dims(2, 1)
    basis_self = sd.solution_basis_constant(mb.self_pair, GRID)
    basis_skew = sd.solution_basis_constant(mb.skew_pair, GRID)
    assert basis_self.d == d_self == 2
    assert basis_skew.d == d_skew == 3
    # cross-check with the independent pencil oracle
    assert brute_force_dimension(mb.self_pair) == d_self
    assert brute_force_dimension(mb.skew_pair) == d_skew


def test_solution_basis_errors():
    # structurally singular pencil: det(lambda E - A) == 0 identically
    E = sd.constant(np.diag([1.0, 0.0]))
    A = sd.zero(2, 2)
    with pytest.raises(RegularityError):
        sd.solution_basis_constant(sd.MatrixPair(E, A, GRID), GRID)
    with pytest.raises(UnsupportedError):
        sd.solution_basis_constant(
            sd.MatrixPair(sd.sample(sd.identity(2), GRID), sd.constant(J2), GRID), GRID
        )


def test_solution_basis_overflow_is_a_basis_deficiency():
    # finite eigenvalues +-40 on [0, 40]: any basis separates like e^(1600),
    # so Phi overflows at both ends of the centre-anchored grid
    grid = sd.TimeGrid.uniform(0.0, 40.0, 201)
    pair = sd.MatrixPair(sd.constant(J2), sd.constant([[0.0, 40.0], [40.0, 0.0]]), grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BasisDeficiencyError, match=r"margin exp\(-1600\)") as err:
            sd.solution_basis_constant(pair, grid)
    assert err.value.t == 0.0


def _stiff_multibody(seed, nq=20, nc=5, K=41):
    """The multibody benchmark inputs with W drawn from U[0.5, 2]."""
    rng = np.random.default_rng(seed)
    M = np.diag(rng.uniform(0.5, 2.0, nq))
    W = np.diag(rng.uniform(0.5, 2.0, nq))
    G = np.eye(nq)[np.sort(rng.choice(nq, nc, replace=False))]
    grid = sd.TimeGrid.uniform(0.0, 10.0, K)
    return sd.build_multibody(M, W, G, interval=grid), grid


@pytest.mark.parametrize("seed", [31, 63, 105, 190, 237, 270, 294])
def test_stiff_multibody_seeds(seed):
    # stiff W perturbs the index-2 infinite eigenvalues to about sqrt(eps), so
    # only a rank decision gets the dimension right
    mb, grid = _stiff_multibody(seed)
    for pair, build, verify in (
        (mb.self_pair, sd.global_canonical_self, sd.verify_self_global_form),
        (mb.skew_pair, sd.global_canonical_skew, sd.verify_skew_global_form),
    ):
        basis = sd.solution_basis_constant(pair, grid)
        assert basis.d == brute_force_dimension(pair)
        assert verify(build(pair, basis, grid), grid).passes()


@pytest.mark.parametrize("c", [1e-9, 1e9])
def test_solution_basis_ignores_the_time_unit(c):
    # c E xdot = A x on a grid stretched by c has the same solutions in the
    # rescaled time, so the deflating subspace and its dimension stay put
    mb, grid = _stiff_multibody(31)
    pair = mb.self_pair
    d = brute_force_dimension(pair)
    V = sd.solution_basis_constant(pair, grid).Phi.eval(grid.points[0])
    scaled = sd.TimeGrid.uniform(0.0, 10.0 * c, grid.n)
    spair = sd.MatrixPair(sd.constant(c * pair.E.value), pair.A, scaled)
    basis = sd.solution_basis_constant(spair, scaled)
    assert basis.d == d
    Vs = basis.Phi.eval(scaled.points[0])
    proj = [X @ np.linalg.pinv(X) for X in (V, Vs)]
    assert np.abs(proj[0] - proj[1]).max() <= 1e-10
    # an RC branch in SI units: 1e-9 F against 1 S on a 20 ns grid
    rc_grid = sd.TimeGrid.uniform(0.0, 2e-8, 41)
    rc = sd.MatrixPair(sd.constant([[1e-9]]), sd.constant([[-1.0]]), rc_grid)
    assert sd.solution_basis_constant(rc, rc_grid).d == 1


@pytest.mark.parametrize("seed", [1, 5])
def test_coupled_multibody_skew_form(seed):
    # non-diagonal SPD M and W: nq = 6 positions, 3 coordinate constraints
    rng = np.random.default_rng(seed)
    M, W = (X @ X.T / 6 + 0.5 * np.eye(6) for X in rng.standard_normal((2, 6, 6)))
    G = np.eye(6)[[0, 2, 5]]
    grid = sd.TimeGrid.uniform(0.0, 1.0, 41)
    pair = sd.build_multibody(M, W, G, interval=grid).skew_pair
    basis = sd.solution_basis_constant(pair, grid)
    assert basis.d == brute_force_dimension(pair) == multibody_solution_dims(6, 3)[1]
    form = sd.global_canonical_skew(pair, basis, grid)
    assert (form.p, form.q) == (9, 0)
    assert sd.verify_skew_global_form(form, grid).passes()


def test_expm_matches_scipy_across_scales():
    from scipy.linalg import expm

    rng = np.random.default_rng(5)
    for nrm in 10.0 ** np.arange(-3, 4):
        X = rng.standard_normal((8, 6, 6))
        X *= nrm / np.abs(X).sum(axis=-2).max(axis=-1)[:, None, None]
        ours = np.concatenate([_expm(M, [1.0]) for M in X])
        ref = expm(X)
        rel = np.abs(ours - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
        # the relative condition number of exp grows like |X|
        assert rel.max() <= 1e-13 * max(1.0, nrm)
    assert np.array_equal(_expm(np.ones((4, 4)), np.zeros(3)),
                          np.broadcast_to(np.eye(4), (3, 4, 4)))
    assert np.array_equal(_expm(np.zeros((4, 4)), [1.0]), np.eye(4)[None])
    S = 30.0 * rng.standard_normal((5, 7, 7))
    Q = np.concatenate([_expm(K, [1.0]) for K in S - S.swapaxes(1, 2)])
    assert np.abs(Q.swapaxes(1, 2) @ Q - np.eye(7)).max() <= 1e-13


def _line_reference(pair, grid):
    """V and M of the basis, by the same deflating subspace, and the basis
    V expm((t - tm) M) from scipy at every node."""
    from scipy.linalg import expm

    from structdae.canonical import _finite_subspace

    E, A = pair.E.value, pair.A.value
    V = _finite_subspace(E, A, np.linalg.norm(E, 2), np.linalg.norm(A, 2))[0]
    M = np.linalg.lstsq(E @ V, A @ V, rcond=None)[0]
    ts = grid.points
    tm = 0.5 * (ts[0] + ts[-1])
    return V, np.stack([V @ expm((t - tm) * M) for t in ts])


@pytest.mark.parametrize("points", [
    np.linspace(0.0, 10.0, 2001),
    # steps between 0.002 and 0.2, no two alike
    np.cumsum(np.r_[0.0, np.random.default_rng(3).uniform(0.002, 0.2, 150)]),
], ids=["uniform-2001", "non-uniform"])
def test_solution_basis_matches_scipy_along_the_line(points):
    grid = sd.TimeGrid(points)
    pair = _stiff_multibody(31, K=2)[0].self_pair
    phi = sd.solution_basis_constant(pair, grid).Phi.eval_on(grid)
    ref = _line_reference(pair, grid)[1]
    rel = np.abs(phi - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert rel.max() <= 1e-12


def test_solution_basis_exponentiates_each_step_length_once(monkeypatch):
    from structdae import canonical

    taus = []

    def counting(M, t):
        taus.append(len(t))
        return _expm(M, t)

    monkeypatch.setattr(canonical, "_expm", counting)
    mb, grid = seeded_multibody(7)
    for pair in (mb.self_pair, mb.skew_pair):
        sd.solution_basis_constant(pair, grid)
    # one Pade evaluation for the anchor and one per distinct signed step
    # (the 100 steps of linspace(0, 10, 101) take 10 distinct values away
    # from the centre), where the stack form took one per node
    assert taus == [11, 11]


def test_solution_basis_is_v_at_an_anchor_on_the_centre():
    pair = _stiff_multibody(31)[0].skew_pair
    grid = sd.TimeGrid.uniform(0.0, 10.0, 41)
    assert grid.points[20] == 5.0
    V = _line_reference(pair, grid)[0]
    assert np.array_equal(sd.solution_basis_constant(pair, grid).Phi.eval_on(grid)[20], V)


@pytest.mark.parametrize("kind", ["self_adjoint", "skew_adjoint"])
def test_first_stage_takes_phi_and_its_complement_as_the_transform(kind):
    from structdae.canonical import _basis_congruence, _Pipeline

    mb, grid = seeded_multibody(0)
    pair = mb.self_pair if kind == "self_adjoint" else mb.skew_pair
    basis = sd.solution_basis_constant(pair, grid)
    pipe = _Pipeline(pair, grid, kind)
    _basis_congruence(pipe, basis)
    C = np.broadcast_to(basis.complement.value, (grid.n, pair.n, pair.n - basis.d))
    assert np.array_equal(pipe.Qv, np.concatenate([basis.Phi.eval_on(grid), C], axis=2))
    assert np.array_equal(pipe.Qd, np.concatenate([basis.Phi.derivative_on(grid), 0 * C], axis=2))


@pytest.mark.parametrize("kind", ["self_adjoint", "skew_adjoint"])
def test_a_roundoff_change_of_phi_moves_q_within_the_gauge(kind):
    # Phi (1 + 1e-15 R), R Gaussian per entry, gives Q' = Q diag(G, I) with G
    # constant and in the group of the leading block: G^T J G = J (self),
    # G^T G = I (skew, q = 0); which G is up to the last bits of Phi
    mb, grid = seeded_multibody(7)
    if kind == "self_adjoint":
        pair, build = mb.self_pair, sd.global_canonical_self
    else:
        pair, build = mb.skew_pair, sd.global_canonical_skew
    basis = sd.solution_basis_constant(pair, grid)
    d = basis.d
    f = 1.0 + 1e-15 * np.random.default_rng(7).standard_normal((grid.n, pair.n, d))
    moved = sd.SolutionBasis(
        sd.SampledMatrixFunction(grid, basis.Phi.eval_on(grid) * f,
                                 deriv_values=basis.Phi.derivative_on(grid) * f),
        d, complement=basis.complement)
    forms = [build(pair, b, grid) for b in (basis, moved)]
    Q, Q2 = (form.Q.Q.eval_on(grid) for form in forms)
    assert not np.array_equal(Q, Q2)
    T = np.linalg.solve(Q, Q2)
    G = T[:, :d, :d].copy()
    T[:, :d, :d] = 0.0
    T[:, d:, d:] -= np.eye(pair.n - d)
    S = _J(d // 2) if kind == "self_adjoint" else np.eye(d)
    assert forms[0].p == forms[1].p
    assert np.abs(T).max() <= 1e-13
    assert np.abs(G - G[0]).max() <= 1e-13
    assert np.abs(G[0].T @ S @ G[0] - S).max() <= 1e-13


def test_skew_pairing_transform_layout():
    # sigma = 2 twice, sigma = 0.5 once, and a 2-dimensional kernel
    rng = np.random.default_rng(9)
    Z, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    D = np.zeros((8, 8))
    for i, sigma in enumerate((2.0, 2.0, 0.5)):
        D[2 * i, 2 * i + 1], D[2 * i + 1, 2 * i] = sigma, -sigma
    S = Z @ D @ Z.T
    U = _skew_pairing_transform(S, 1.0)
    assert np.abs(U.T @ U - np.eye(8)).max() <= 1e-14
    # columns: x_1..x_3, one kernel vector, y_1..y_3, one kernel vector, with
    # S x_j = sigma_j y_j, so the leading 4 x 4 block vanishes
    T = U.T @ S @ U
    sig = np.diag(T[4:7, :3])
    expected = np.zeros((8, 8))
    expected[4:7, :3] = np.diag(sig)
    expected[:3, 4:7] = -np.diag(sig)
    assert np.allclose(np.sort(sig), [0.5, 2.0, 2.0], atol=1e-14, rtol=0.0)
    assert np.abs(T - expected).max() <= 1e-14


# ---------------------------------------------------------------------------
# global canonical forms
# ---------------------------------------------------------------------------

def test_global_self_pure_ode_pair():
    pair = sd.MatrixPair(sd.constant(J2), sd.zero(2, 2), GRID)
    basis = sd.solution_basis_constant(pair, GRID)
    form = sd.global_canonical_self(pair, basis, GRID)
    assert form.p == 1 and form.algebraic_dim == 0
    assert np.allclose(form.pair_transformed.E.eval(0.3), J2, atol=1e-12)
    assert np.linalg.norm(form.pair_transformed.A.eval(0.3)) <= 1e-12
    rec = sd.verify_self_global_form(form, GRID)
    assert rec.worst <= 1e-10


def test_global_self_multibody():
    mb = _multibody()
    basis = sd.solution_basis_constant(mb.self_pair, GRID)
    form = sd.global_canonical_self(mb.self_pair, basis, GRID)
    assert 2 * form.p == basis.d
    rec = sd.verify_self_global_form(form, GRID)
    assert rec.passes(1e-8)
    assert all(res <= 1e-8 for _, res in form.stage_residuals)
    # round-trip: congruence by the accumulated transform reproduces the layout
    out = sd.apply_congruence(mb.self_pair, form.Q)
    scale = 1.0 + np.linalg.norm(mb.self_pair.E.eval(0.0))
    for t in GRID.points[::40]:
        assert np.linalg.norm(out.E.eval(t) - form.pair_transformed.E.eval(t)) <= 1e-8 * scale
        assert np.linalg.norm(out.A.eval(t) - form.pair_transformed.A.eval(t)) <= 1e-8 * scale


def test_global_skew_rotation_pair():
    pair = sd.MatrixPair(sd.identity(2), sd.constant(J2), GRID)
    basis = sd.solution_basis_constant(pair, GRID)
    form = sd.global_canonical_skew(pair, basis, GRID)
    assert (form.p, form.q) == (2, 0)
    assert form.algebraic_dim == 0
    assert sd.verify_skew_global_form(form, GRID).passes(1e-8)


def test_global_skew_already_canonical():
    pair = sd.MatrixPair(sd.constant(np.diag([1.0, -1.0])), sd.zero(2, 2), GRID)
    basis = sd.solution_basis_constant(pair, GRID)
    form = sd.global_canonical_skew(pair, basis, GRID)
    assert (form.p, form.q) == (1, 1)
    assert np.allclose(form.pair_transformed.E.eval(0.5), np.diag([1.0, -1.0]), atol=1e-10)


def test_global_skew_indefinite_with_algebraic_part():
    # p = q = 1 signature plus a 2x2 purely algebraic block
    E = np.diag([1.0, -1.0, 0.0, 0.0])
    A = np.zeros((4, 4))
    A[2:, 2:] = J2
    pair = sd.MatrixPair(sd.constant(E), sd.constant(A), GRID)
    assert sd.skew_adjoint_residual(pair, GRID).max_residual == 0.0
    basis = sd.solution_basis_constant(pair, GRID)
    assert basis.d == 2
    form = sd.global_canonical_skew(pair, basis, GRID)
    assert (form.p, form.q) == (1, 1)
    assert form.algebraic_dim == 2
    assert sd.verify_skew_global_form(form, GRID).passes(1e-10)


def test_global_skew_multibody_corollary():
    mb = _multibody()
    basis = sd.solution_basis_constant(mb.skew_pair, GRID)
    form = sd.global_canonical_skew(mb.skew_pair, basis, GRID)
    assert form.p + form.q == basis.d == 3
    # E positive semidefinite forces an orthogonal (not just O(p,q)) flow
    assert form.q == 0
    rec = sd.verify_skew_global_form(form, GRID)
    assert rec.passes(1e-8)
    assert all(res <= 1e-8 for _, res in form.stage_residuals)
    # the algebraic part must be uniquely solvable: E33 x3dot = A33 x3
    # has only the trivial solution, i.e. the shifted block is nonsingular
    E33 = form.E33.eval(0.0)
    A33 = form.A33.eval(0.0)
    assert np.linalg.matrix_rank(1.37 * E33 - A33) == form.algebraic_dim


def test_global_self_parity_error():
    pair = sd.MatrixPair(sd.constant(J2), sd.zero(2, 2), GRID)
    phi = sd.from_callable(lambda t: [[1.0], [0.0]], GRID, dfn=lambda t: [[0.0], [0.0]])
    odd = sd.SolutionBasis(phi, 1)
    with pytest.raises(ParityError):
        sd.global_canonical_self(pair, odd, GRID)


def test_global_skew_basis_deficiency():
    pair = sd.MatrixPair(sd.constant(np.diag([1.0, -1.0])), sd.zero(2, 2), GRID)
    # Phi = (1, 1)/sqrt(2) solves the homogeneous system but E11 = 0
    phi = sd.from_callable(
        lambda t: [[2 ** -0.5], [2 ** -0.5]], GRID, dfn=lambda t: [[0.0], [0.0]]
    )
    bad = sd.SolutionBasis(phi, 1)
    with pytest.raises(BasisDeficiencyError):
        sd.global_canonical_skew(pair, bad, GRID)


def test_singular_algebraic_block_is_a_basis_deficiency():
    # a zero algebraic block is a singular pencil, reported against the basis
    zero = np.zeros((3, 2, 2))
    with pytest.raises(BasisDeficiencyError, match="algebraic part.*not uniquely solvable"):
        sd.canonical._check_algebraic_block_static(zero, zero, "skew-adjoint", 1.0, 1.0)


def test_global_skew_incomplete_basis_fails_staged_checks():
    pair = sd.MatrixPair(sd.identity(2), sd.constant(J2), GRID)
    # only one of the two rotation solutions
    phi = sd.from_callable(
        lambda t: [[np.cos(t)], [-np.sin(t)]], GRID,
        dfn=lambda t: [[-np.sin(t)], [-np.cos(t)]],
    )
    bad = sd.SolutionBasis(phi, 1)
    with pytest.raises((StageError, BasisDeficiencyError)):
        sd.global_canonical_skew(pair, bad, GRID)


def _transformed_multibody(which, seed):
    """Multibody pair pushed through a known polynomial congruence, plus the
    correspondingly transformed solution basis (y = Q^{-1} x)."""
    mb = _multibody()
    pair0 = mb.self_pair if which == "self" else mb.skew_pair
    basis0 = sd.solution_basis_constant(pair0, GRID)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((3, 5, 5))
    coeffs *= 0.3 / sum(np.linalg.norm(c, 2) for c in coeffs)
    coeffs[0] += np.eye(5)
    T = sd.CongruenceTransform.from_function(sd.poly(coeffs))
    pair1 = sd.apply_congruence(pair0, T)
    Tinv = sd.invert(T, GRID)
    phiv = basis0.Phi.eval_on(GRID)
    phid = basis0.Phi.derivative_on(GRID)
    Qi = Tinv.Q.eval_on(GRID)
    Qid = Tinv.Qdot.eval_on(GRID)
    phi1 = Qi @ phiv
    phi1d = Qid @ phiv + Qi @ phid
    Phi1 = sd.SampledMatrixFunction(GRID, phi1, deriv_values=phi1d)
    return pair1, sd.SolutionBasis(Phi1, basis0.d, complement=None)


def test_global_self_optimal_control_pair():
    pair = sd.build_optimal_control(
        [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]], interval=GRID
    )
    basis = sd.solution_basis_constant(pair, GRID)
    assert basis.d == brute_force_dimension(pair) == 2
    form = sd.global_canonical_self(pair, basis, GRID)
    assert form.p == 1 and form.algebraic_dim == 1
    assert sd.verify_self_global_form(form, GRID).worst <= 1e-8


def test_global_self_grid_robustness():
    # residuals stay at roundoff across grid resolutions
    for npts in (26, 101, 401):
        grid = sd.TimeGrid.uniform(0.0, 1.0, npts)
        mb = sd.build_multibody(np.eye(2), np.eye(2), [[1.0, 0.0]], interval=grid)
        basis = sd.solution_basis_constant(mb.self_pair, grid)
        form = sd.global_canonical_self(mb.self_pair, basis, grid)
        assert sd.verify_self_global_form(form, grid).worst <= 1e-10


def test_global_forms_time_varying_pair():
    # genuinely time-varying pairs, numerically-built completions included
    pair_s, basis_s = _transformed_multibody("self", 8)
    form_s = sd.global_canonical_self(pair_s, basis_s, GRID)
    assert form_s.p == 1
    assert sd.verify_self_global_form(form_s, GRID).worst <= 1e-8

    pair_k, basis_k = _transformed_multibody("skew", 4)
    form_k = sd.global_canonical_skew(pair_k, basis_k, GRID)
    assert (form_k.p, form_k.q) == (3, 0)
    assert sd.verify_skew_global_form(form_k, GRID).worst <= 1e-8


def test_basis_without_a_complement_is_decomposed_once(svd_calls):
    # the completion and the "Phi loses rank" guard come from one SVD of the
    # (K, d, n) stack Phi^T: no guard decomposes Phi itself, nor Phi^T Phi at
    # the nodes and midpoints
    pair, basis = _transformed_multibody("skew", 4)
    K, n, d = GRID.n, pair.n, basis.d
    svd_calls.clear()
    form = sd.global_canonical_skew(pair, basis, GRID)
    assert (form.p, form.q) == (3, 0)
    assert svd_calls.count((K, d, n)) == 1
    assert (K, n, d) not in svd_calls
    assert (2 * K - 1, d, d) not in svd_calls


def test_empty_basis_without_a_complement_is_completed():
    # a pair with no dynamics: the stage completes the empty Phi by a full
    # orthonormal frame, and its rank guard passes the empty block
    grid = sd.TimeGrid.uniform(0.0, 1.0, 5)
    empty = sd.SolutionBasis(sd.zero(2, 0), 0)
    pair = sd.MatrixPair(sd.zero(2, 2), sd.constant(J2), grid)
    form = sd.global_canonical_skew(pair, empty, grid)
    assert (form.p, form.q, form.algebraic_dim) == (0, 0, 2)
    assert sd.verify_skew_global_form(form, grid).worst == 0.0


def test_accumulated_transform_derivative_consistency():
    # the declared Qdot of the accumulated transform must be the actual
    # derivative of the Q samples, up to central-difference truncation
    mb = _multibody()
    h = GRID.points[1] - GRID.points[0]
    for pair, build in ((mb.self_pair, sd.global_canonical_self),
                        (mb.skew_pair, sd.global_canonical_skew)):
        basis = sd.solution_basis_constant(pair, GRID)
        form = build(pair, basis, GRID)
        Qv = form.Q.Q.eval_on(GRID)
        Qd = form.Q.Qdot.eval_on(GRID)
        fd = (Qv[2:] - Qv[:-2]) / (2 * h)
        assert np.abs(fd - Qd[1:-1]).max() <= 1e-5  # O(h^2) truncation headroom


def test_verify_self_global_form_detects_defects():
    mb = _multibody()
    basis = sd.solution_basis_constant(mb.self_pair, GRID)
    form = sd.global_canonical_self(mb.self_pair, basis, GRID)
    # corrupt A22: symmetric-defect residual equals ||D - D^T||_F
    form_bad = sd.SelfAdjointGlobalForm(
        p=form.p,
        E33=form.E33,
        A22=sd.constant(np.array([[0.0, 1.0], [0.0, 0.0]])[: form.p, : form.p] if form.p > 1
             else np.array([[0.0]])),
        A23=form.A23, A32=form.A32, A33=form.A33,
        Q=form.Q, grid=GRID, n=form.n, pair_transformed=None,
    )
    rec = sd.verify_self_global_form(form_bad, GRID)
    assert rec.entries["A22_symmetric"] == 0.0  # 1x1 block stays symmetric

    bad2 = sd.SelfAdjointGlobalForm(
        p=1,
        E33=sd.zero(1, 1),
        A22=sd.constant([[1.0]]),
        A23=sd.constant([[2.0]]),
        A32=sd.constant([[5.0]]),
        A33=sd.zero(1, 1),
        Q=sd.CongruenceTransform.identity(3),
        grid=GRID, n=3,
    )
    rec2 = sd.verify_self_global_form(bad2, GRID)
    assert rec2.entries["A32_transpose_A23"] == pytest.approx(3.0)

    bad3 = sd.SelfAdjointGlobalForm(
        p=2,
        E33=sd.zero(0, 0),
        A22=sd.constant(np.array([[0.0, 1.0], [0.0, 0.0]])),
        A23=sd.zero(2, 0), A32=sd.zero(0, 2), A33=sd.zero(0, 0),
        Q=sd.CongruenceTransform.identity(4),
        grid=GRID, n=4,
    )
    rec3 = sd.verify_self_global_form(bad3, GRID)
    assert rec3.entries["A22_symmetric"] == pytest.approx(np.sqrt(2.0))


def test_verify_skew_global_form_detects_corruption():
    rng = np.random.default_rng(2)
    E33 = rng.standard_normal((3, 3))
    E33 = E33 + E33.T
    corrupt = E33 + np.outer(np.eye(3)[0], np.eye(3)[1])
    form = sd.SkewAdjointGlobalForm(
        p=0, q=0,
        E33=sd.constant(corrupt),
        A33=sd.constant(np.zeros((3, 3))),
        Q=sd.CongruenceTransform.identity(3),
        grid=GRID, n=3,
    )
    rec = sd.verify_skew_global_form(form, GRID)
    assert rec.entries["E33_symmetric"] == pytest.approx(np.sqrt(2.0))

    pure_alg = sd.SkewAdjointGlobalForm(
        p=0, q=0, E33=sd.zero(2, 2), A33=sd.identity(2),
        Q=sd.CongruenceTransform.identity(2), grid=GRID, n=2,
    )
    rec2 = sd.verify_skew_global_form(pure_alg, GRID)
    # E33 = 0 is symmetric; A33 = I has skew-adjointness defect ||2 I||_F
    assert rec2.entries["E33_symmetric"] == 0.0
    assert rec2.entries["A33_skew_adjoint"] == pytest.approx(2 * np.sqrt(2.0))


def _coupled_multibody_self(seed, K):
    rng = np.random.default_rng(seed)
    M, W = (X @ X.T / 6 + 0.5 * np.eye(6) for X in rng.standard_normal((2, 6, 6)))
    grid = sd.TimeGrid.uniform(0.0, 1.0, K)
    return sd.build_multibody(M, W, np.eye(6)[:3], interval=grid).self_pair, grid


@pytest.mark.parametrize("seed", range(4))
def test_coupled_multibody_self_form(seed):
    # non-diagonal SPD M and W make E22 vary in time after the row
    # normalization; the decoupling stage carries its own derivative, so the
    # form is still exact at roundoff
    pair, grid = _coupled_multibody_self(seed, 41)
    form = sd.global_canonical_self(pair, sd.solution_basis_constant(pair, grid), grid)
    assert form.p == 3
    rec = sd.verify_self_global_form(form, grid)
    assert rec.passes() and rec.worst <= 1e-13
    assert sd.self_adjoint_dynamic_extract(form, grid).certificate_defect(grid) <= 1e-14


def test_coupled_multibody_self_form_derivative_is_consistent():
    # Q and Qdot of the form agree to the central difference's O(h^2)
    mismatch = []
    for K in (41, 161, 641):
        pair, grid = _coupled_multibody_self(0, K)
        form = sd.global_canonical_self(pair, sd.solution_basis_constant(pair, grid), grid)
        Qv, Qd = form.Q.Q.eval_on(grid), form.Q.Qdot.eval_on(grid)
        h = grid.points[1] - grid.points[0]
        mismatch.append(np.abs((Qv[2:] - Qv[:-2]) / (2 * h) - Qd[1:-1]).max())
    orders = np.log(np.array(mismatch[:-1]) / mismatch[1:]) / np.log(4.0)
    assert np.all(orders >= 1.8), mismatch


def test_skew_form_of_generic_index1_pairs():
    # E33 = E / E11 vanishes in exact arithmetic; decided against the pair's
    # norms, its roundoff carries no rank and no finite dynamics
    for seed in range(40):
        pair, _ = seeded_semidefinite_skew_pair(seed, GRID)
        form = sd.global_canonical_skew(pair, sd.solution_basis_constant(pair, GRID), GRID)
        assert (form.p, form.q) == (4, 0), seed
        assert sd.verify_skew_global_form(form, GRID).passes(), seed


@pytest.mark.parametrize("sign, pq", [(1.0, (4, 0)), (-1.0, (2, 2))])
def test_skew_form_of_definite_and_indefinite_pairs(sign, pq):
    E = np.diag([1.0, 2.0, sign, 0.5 * sign, 0.0, 0.0])
    S0 = np.random.default_rng(3).standard_normal((6, 6))
    A = 0.5 * (S0 - S0.T)
    A[4:, 4:] = [[0.0, 0.8], [-0.8, 0.0]]
    pair = sd.MatrixPair(sd.constant(E), sd.constant(A), GRID)
    form = sd.global_canonical_skew(pair, sd.solution_basis_constant(pair, GRID), GRID)
    assert (form.p, form.q) == pq
    assert sd.verify_skew_global_form(form, GRID).passes()


@pytest.mark.parametrize("delta, ill", [(5e-8, True), (1e-6, False)])
def test_e11_rank_near_the_threshold_is_ill_posed(delta, ill):
    # E11 = Phi^T E Phi with an eigenvalue (skew: a pair +-i delta) within a
    # factor 10 of RANK_TOL times the pair's norm is neither singular nor
    # clearly nonsingular: both forms raise rather than guess.  The small
    # part sits beside a unit block, since a pair that is uniformly small is
    # just the same pair in other units
    skew = sd.MatrixPair(sd.constant(np.diag([1.0, delta])), sd.zero(2, 2), GRID)
    E = np.zeros((4, 4))
    E[:2, :2], E[2:, 2:] = J2, delta * J2
    selfp = sd.MatrixPair(sd.constant(E), sd.zero(4, 4), GRID)
    for build, pair in ((sd.global_canonical_skew, skew), (sd.global_canonical_self, selfp)):
        basis = sd.SolutionBasis(sd.identity(pair.n), pair.n)
        if ill:
            with pytest.raises(IllPosedRankError):
                build(pair, basis, GRID)
        else:
            assert build(pair, basis, GRID).p == 2


# ---------------------------------------------------------------------------
# failure paths: each known limit raises a typed error naming its stage
# ---------------------------------------------------------------------------

GRID41 = sd.TimeGrid.uniform(0.0, 1.0, 41)


def _limit_multibody():
    return sd.build_multibody(np.eye(2), np.diag([1.0, 2.0]), [[1.0, 0.0]], interval=GRID41)


def _scaled(pair, e, a):
    return sd.MatrixPair(sd.mf_scale(pair.E, e), sd.mf_scale(pair.A, a), pair.interval)


def _residual(err):
    return float(str(err).rsplit(" ", 1)[1].rstrip(")"))


@pytest.mark.parametrize("c, residual", [(1e-8, 2.340e-08), (1e-9, 2.925e-07)])
def test_self_form_in_small_units_fails_at_row_normalization(c, residual):
    pair = _scaled(_limit_multibody().self_pair, c, c)
    basis = sd.solution_basis_constant(pair, GRID41)
    with pytest.raises(StageError, match="structure lost after stage 'row normalization'") as err:
        sd.global_canonical_self(pair, basis, GRID41)
    assert err.value.stage == "row normalization"
    assert _residual(err.value) == pytest.approx(residual, rel=0.1)


def test_skew_form_with_a_small_e_fails_at_inertia_normalization():
    pair = _scaled(_limit_multibody().skew_pair, 1e-9, 1.0)
    basis = sd.solution_basis_constant(pair, GRID41)
    with pytest.raises(StageError, match="after stage 'inertia normalization'") as err:
        sd.global_canonical_skew(pair, basis, GRID41)
    assert err.value.stage == "inertia normalization"
    assert _residual(err.value) == pytest.approx(2.525e-07, rel=0.1)


def test_row_normalization_decomposes_e12_e13_once(svd_calls):
    # the stage's rank guard, its right inverse and its kernel frame all come
    # from one SVD of the (K, p, n - p) stack B = [E12 E13]; no second guard
    # decomposes B B^T at the nodes and midpoints
    mb, grid = seeded_multibody(7)
    basis = sd.solution_basis_constant(mb.self_pair, grid)
    form = sd.global_canonical_self(mb.self_pair, basis, grid)
    assert (form.p, form.algebraic_dim) == (15, 15)
    assert svd_calls.count((101, 15, 30)) == 1
    assert (201, 15, 15) not in svd_calls


def test_row_rank_loss_names_its_time():
    # E = (t - 1/2)(e1 e3^T - e3 e1^T) and A = -e1 e3^T + e3 e3^T form a
    # self-adjoint pair solved by Phi = [e1 e2]; E11 = 0, and
    # B = [E12 E13] = [0, t - 1/2] vanishes at t = 1/2
    grid = sd.TimeGrid.uniform(0.0, 1.0, 5)
    Ec = np.zeros((2, 3, 3))
    Ec[:, 0, 2] = [-0.5, 1.0]
    Ec[:, 2, 0] = [0.5, -1.0]
    A = np.zeros((3, 3))
    A[0, 2], A[2, 2] = -1.0, 1.0
    pair = sd.MatrixPair(sd.poly(Ec), sd.constant(A), grid)
    eye = np.eye(3)
    basis = sd.SolutionBasis(sd.constant(eye[:, :2]), 2,
                             complement=sd.constant(eye[:, 2:]))
    with pytest.raises(StageError, match=r"\[E12 E13\] loses row rank at t=0.5") as err:
        sd.global_canonical_self(pair, basis, grid)
    assert err.value.t == 0.5
    assert err.value.stage == "row normalization"


def test_basis_with_a_wrong_derivative_is_a_basis_deficiency():
    pair = _limit_multibody().skew_pair
    basis = sd.solution_basis_constant(pair, GRID41)
    phi = basis.Phi
    wrong = sd.SolutionBasis(
        sd.SampledMatrixFunction(GRID41, phi.values, deriv_values=2.0 * phi.deriv_values),
        basis.d, complement=basis.complement)
    with pytest.raises(BasisDeficiencyError, match="Phi does not solve the homogeneous DAE") as err:
        sd.global_canonical_skew(pair, wrong, GRID41)
    assert _residual(err.value) == pytest.approx(2.974, rel=0.1)


@pytest.mark.parametrize("build", [sd.global_canonical_self, sd.global_canonical_skew])
@pytest.mark.parametrize("broken", ["inside range(Phi)", "not orthonormal"])
def test_a_bad_complement_is_named_at_its_first_node(build, broken):
    # the complement's contract (C^T Phi = 0, C^T C = I) is checked before
    # the congruence, rather than blamed later on the basis
    mb = sd.build_multibody(np.eye(2), np.eye(2), [[1.0, 0.0]])
    pair = mb.self_pair if build is sd.global_canonical_self else mb.skew_pair
    basis = sd.solution_basis_constant(pair, GRID41)
    C = basis.complement.eval_on(GRID41)[0].copy()
    if broken == "inside range(Phi)":
        phi0 = basis.Phi.eval_on(GRID41)[0, :, 0]
        C[:, 0] = phi0 / np.linalg.norm(phi0)
    else:
        C[:, 0] *= 1.5
    bad = sd.SolutionBasis(basis.Phi, basis.d, complement=sd.constant(C))
    with pytest.raises(BasisDeficiencyError, match=r"complement is not an orthonormal "
                                                   r"basis of range\(Phi\)\^perp at t=0\.0"):
        build(pair, bad, GRID41)


def test_global_forms_reject_a_pair_of_the_other_structure():
    # the multibody skew pair's E is symmetric, not skew: the self-adjoint
    # pipeline refuses it at its input test, and the other way round
    mb = _multibody()
    for build, pair, what in ((sd.global_canonical_self, mb.skew_pair, "self-adjoint"),
                              (sd.global_canonical_skew, mb.self_pair, "skew-adjoint")):
        basis = sd.solution_basis_constant(pair, GRID)
        with pytest.raises(StructureError, match=f"pair is not {what}"):
            build(pair, basis, GRID)
