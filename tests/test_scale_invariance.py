"""Structure decisions made against the norm of the pair they test.

A pair written in other units (every coefficient times one factor) is the
same pair, so every self-/skew-adjoint classification, conversion, reduction
and canonical form must come out the same as in unit scale.
"""

import dataclasses
import json

import numpy as np
import pytest

import structdae as sd
from structdae.canonical import STAGE_TOL
from structdae.cli import main
from structdae.errors import StructureError

from oracles import random_poly_congruence, seeded_semidefinite_skew_pair

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
GRID41 = sd.TimeGrid.uniform(0.0, 1.0, 41)
GRID201 = sd.TimeGrid.uniform(0.0, 1.0, 201)


def _scaled(pair, e, a):
    return sd.MatrixPair(sd.mf_scale(pair.E, e), sd.mf_scale(pair.A, a), pair.interval)


def _multibody_skew(dissipative=False):
    """Skew pair of the multibody system nq=2, M=I, W=diag(1, 2), G=[1, 0],
    optionally with A - R, R = diag(0.5, 0, ..., 0)."""
    pair = sd.build_multibody(np.eye(2), np.diag([1.0, 2.0]), [[1.0, 0.0]],
                              interval=GRID41).skew_pair
    if dissipative:
        R = np.zeros((pair.n, pair.n))
        R[0, 0] = 0.5
        pair = sd.MatrixPair(pair.E, sd.mf_sub(pair.A, sd.constant(R)), pair.interval)
    return pair


@pytest.mark.parametrize("dissipative, tag", [(True, "none"), (False, "skew_adjoint")])
def test_classify_a_pair_in_small_units(dissipative, tag):
    pair = _scaled(_multibody_skew(dissipative), 1e-12, 1e-12)
    assert sd.classify(pair, GRID41, sd.default_tolerance(pair, GRID41)).value == tag


def test_check_rejects_a_dissipative_pair_in_small_units(tmp_path):
    model, rep = tmp_path / "m.json", tmp_path / "rep.json"
    pair = _scaled(_multibody_skew(dissipative=True), 1e-12, 1e-12)
    model.write_text(json.dumps(sd.pair_to_json(pair)))
    assert main(["check", "--model", str(model), "--grid", "41", "--out", str(rep)]) == 1
    assert json.loads(rep.read_text())["tag"] == "none"


def test_check_evaluates_the_pair_once(tmp_path, monkeypatch):
    # without --tol the default tolerance comes from the same samples; a
    # constant pair is one sample each and is not evaluated on the grid
    from structdae import cli

    circuit, moved = tmp_path / "circuit.json", tmp_path / "moved.json"
    assert main(["demo", "circuit", "--out", str(circuit)]) == 0
    # the demo circuit moved by a degree-1 polynomial congruence
    pair = cli.model_pair(json.loads(circuit.read_text()))
    T = random_poly_congruence(np.random.default_rng(2), pair.n, 1)
    moved.write_text(json.dumps(sd.pair_to_json(sd.apply_congruence(pair, T))))
    calls = []
    model_pair = cli.model_pair

    def counted(obj):
        pair = model_pair(obj)
        for name, F in (("E", pair.E), ("A", pair.A)):
            for method in ("eval_on", "derivative_on"):
                def counting(grid, _f=getattr(F, method), _key=f"{name}.{method}"):
                    calls.append(_key)
                    return _f(grid)

                setattr(F, method, counting)
        return pair

    monkeypatch.setattr(cli, "model_pair", counted)
    for model, want in ((circuit, []), (moved, ["A.eval_on", "E.derivative_on", "E.eval_on"])):
        calls.clear()
        assert main(["check", "--model", str(model), "--out", str(tmp_path / "rep.json")]) == 0
        assert sorted(calls) == want, model.name


def test_remark1_rejects_a_small_pair_that_is_not_self_adjoint():
    pair = sd.MatrixPair(sd.constant(1e-12 * J2),
                         sd.constant(1e-12 * np.array([[2.0, 0.3], [0.5, 1.0]])), GRID41)
    with pytest.raises(StructureError, match="not self-adjoint"):
        sd.remark1_convert(pair)


def test_skew_reduce_names_the_structure_of_a_small_dissipative_pair():
    pair = _scaled(_multibody_skew(dissipative=True), 1e-12, 1e-12)
    with pytest.raises(StructureError, match="pair is not skew-adjoint"):
        sd.semidefinite_skew_reduce(pair, sd.zero(pair.n, 1), GRID41)


@pytest.mark.parametrize("c", [1e-9, 1e-12])
def test_skew_form_of_seeded_pairs_in_small_units(c):
    for seed in range(40):
        pair, _ = seeded_semidefinite_skew_pair(seed, GRID201)
        pair = _scaled(pair, c, c)
        form = sd.global_canonical_skew(pair, sd.solution_basis_constant(pair, GRID201),
                                        GRID201)
        assert (form.p, form.q) == (4, 0), seed
        assert max(res for _, res in form.stage_residuals) <= STAGE_TOL, seed


def test_skew_form_with_a_large_a():
    pair = _scaled(_multibody_skew(), 1.0, 1e9)
    basis = sd.solution_basis_constant(pair, GRID41)
    form = sd.global_canonical_skew(pair, basis, GRID41)
    assert (basis.d, form.p, form.q) == (3, 3, 0)


def test_self_form_of_a_small_symplectic_pair():
    pair = sd.MatrixPair(sd.constant(5e-8 * J2), sd.zero(2, 2), GRID201)
    basis = sd.SolutionBasis(sd.identity(2), 2)
    form = sd.global_canonical_self(pair, basis, GRID201)
    assert form.p == 1
    assert sd.verify_self_global_form(form, GRID201).passes()


@pytest.mark.parametrize("e, a", [(1e-14, 1.0), (1.0, 1.0), (1e6, 1.0), (1e-12, 1e-12),
                                  (1e12, 1e12)])
def test_circuit_reads_the_input_derivative_in_every_unit(e, a):
    # E xdot = A x + f with E times e and A, f times a: IG = (e / a) C1 u'
    # at every scale, since the fdot weights are judged in the pair's own
    # time unit |E| / |A|, not against an absolute floor
    grid = sd.TimeGrid.uniform(0.0, 10.0, 201)
    m = sd.build_circuit(1.0, 1.5, 0.7, interval=grid)
    u = sd.from_callable(lambda t: [[a * np.sin(t)]], grid, dfn=lambda t: [[a * np.cos(t)]])
    red = sd.index1_reduce(_scaled(m.pair(), e, a), sd.mf_matmul(m.G, u), grid)
    assert red.max_f_derivative == 1
    assert np.abs(red.rfd.eval(0.0)).max() == pytest.approx(1.5 * e / a**2)


def _circuit_model(c, RL, grid):
    """build_circuit(1, 1, 1) with R = diag(RL, 0, 0, 0, 0) and E, J, R times c."""
    m = sd.build_circuit(1.0, 1.0, 1.0, interval=grid)
    R = np.diag([RL, 0.0, 0.0, 0.0, 0.0])
    return dataclasses.replace(m, E=sd.mf_scale(m.E, c), J=sd.mf_scale(m.J, c),
                               R=sd.constant(c * R))


@pytest.mark.parametrize("c", [1.0, 1e-9, 1e9])
def test_dissipation_monitor_flags_energy_growth_in_every_unit(c):
    grid = sd.TimeGrid.uniform(0.0, 10.0, 201)
    x0 = np.eye(5)[0]
    # a negative resistor feeds energy in: H grows from 0.5 c to about 1.36 c
    m = _circuit_model(c, -0.05, grid)
    traj, _ = sd.simulate_phdae(m, None, x0, grid)
    rep = sd.dissipation_monitor(m, traj)
    assert rep.checked and not rep.nonincreasing
    assert rep.hamiltonian[-1] > 2.0 * rep.hamiltonian[0]
    # the lossless circuit conserves H up to roundoff at every scale
    m = _circuit_model(c, 0.0, grid)
    traj, _ = sd.simulate_phdae(m, None, x0, grid)
    rep = sd.dissipation_monitor(m, traj)
    assert rep.checked and rep.nonincreasing and rep.max_violation == 0.0


def test_dissipation_monitor_checks_only_an_exactly_zero_input():
    grid = sd.TimeGrid.uniform(0.0, 10.0, 201)
    m = _circuit_model(1.0, 0.0, grid)
    traj, _ = sd.simulate_phdae(m, None, np.eye(5)[0], grid)
    tiny = sd.from_callable(lambda t: [[1e-20 * np.sin(t)]], grid)
    assert sd.dissipation_monitor(m, traj, sd.zero(1, 1)).checked
    assert not sd.dissipation_monitor(m, traj, tiny).checked
