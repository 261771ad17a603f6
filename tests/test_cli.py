import json
import warnings

import numpy as np

from structdae.cli import main


def run(args):
    return main(args)


def test_demo_check_roundtrip_circuit(tmp_path):
    model = tmp_path / "m.json"
    assert run(["demo", "circuit", "--RL", "0", "--RG", "0", "--RR", "0",
                "--out", str(model)]) == 0
    rep = tmp_path / "rep.json"
    code = run(["check", "--model", str(model), "--structure", "skew",
                "--grid", "401", "--tol", "1e-10", "--out", str(rep)])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["skew_adjoint"]["e_residual"] == 0.0
    assert report["skew_adjoint"]["a_residual"] == 0.0
    assert report["tag"] == "skew_adjoint"


def test_demo_roundtrip_reproduces_matrices(tmp_path):
    model = tmp_path / "m.json"
    run(["demo", "circuit", "--L", "2", "--C1", "3", "--C2", "5", "--out", str(model)])
    obj = json.loads(model.read_text())
    import structdae as sd

    E = sd.matrix_function_from_json(obj["E"]).eval(0.0)
    assert np.array_equal(np.diag(E), [2.0, 3.0, 5.0, 0.0, 0.0])


def test_check_fails_on_unstructured_pair(tmp_path):
    import structdae as sd

    rng = np.random.default_rng(0)
    pair = sd.MatrixPair(
        sd.constant(rng.standard_normal((3, 3))),
        sd.constant(rng.standard_normal((3, 3))),
        sd.TimeGrid.uniform(0.0, 1.0, 2),
    )
    path = tmp_path / "random.json"
    path.write_text(sd.dump_json(sd.pair_to_json(pair)))
    assert run(["check", "--model", str(path), "--tol", "1e-10"]) == 1


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["check", "--model", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert run(["check", "--model", str(missing)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"type": "mystery"}))
    assert run(["check", "--model", str(wrong)]) == 2


def test_simulate_constant_current_csv(tmp_path):
    model = tmp_path / "m.json"
    run(["demo", "circuit", "--out", str(model)])
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--model", str(model), "--x0", "1,0,0,0,0",
                "--t0", "0", "--tf", "10", "--steps", "200", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:7] == ["t", "I", "V1", "V2", "IG", "IR", "H"]
    for line in lines[1:]:
        vals = line.split(",")
        assert float(vals[1]) == 1.0  # constant current
    # deterministic output: a second run is byte identical
    out2 = tmp_path / "traj2.csv"
    run(["simulate", "--model", str(model), "--x0", "1,0,0,0,0",
         "--t0", "0", "--tf", "10", "--steps", "200", "--out", str(out2)])
    assert out.read_text() == out2.read_text()


def test_simulate_with_flow_column(tmp_path):
    model = tmp_path / "m.json"
    run(["demo", "circuit", "--out", str(model)])
    out = tmp_path / "traj.csv"
    run(["simulate", "--model", str(model), "--x0", "1,0,0,0,0", "--steps", "50",
         "--flow", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[-1] == "flow_defect"
    assert all(float(line.split(",")[-1]) <= 1e-12 for line in lines[1:])


def test_simulate_flow_column_empty_without_certificate(tmp_path, monkeypatch):
    import structdae.flow as fl

    model = tmp_path / "m.json"
    run(["demo", "circuit", "--RL", "0.3", "--RG", "0.2", "--RR", "0.5", "--out", str(model)])
    # a dissipative core carries no certificate: nothing to measure its flow against
    monkeypatch.setattr(fl, "fundamental_solution", None)
    out = tmp_path / "traj.csv"
    run(["simulate", "--model", str(model), "--x0", "1,0,0,0,0", "--steps", "2000",
         "--input", "sin", "--flow", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[-1] == "flow_defect"
    assert len(lines) == 2002
    assert all(line.endswith(",") for line in lines[1:])


def test_canonical_cli_multibody(tmp_path, capsys):
    model = tmp_path / "mb.json"
    run(["demo", "multibody", "--form", "skew", "--out", str(model)])
    assert run(["canonical", "--model", str(model), "--structure", "skew",
                "--grid", "101"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p"] == 3 and out["q"] == 0
    assert max(out["residuals"].values()) <= 1e-8


def test_canonical_cli_reads_a_degree_0_polynomial_pair_as_a_constant(tmp_path, capsys):
    import structdae as sd

    model = tmp_path / "mb.json"
    run(["demo", "multibody", "--form", "skew", "--out", str(model)])
    obj = json.loads(model.read_text())
    for key in ("E", "A"):
        value = sd.matrix_function_from_json(obj[key]).value
        obj[key] = sd.matrix_function_to_json(sd.poly([value]))
        assert obj[key]["kind"] == "poly"
    poly = tmp_path / "mb_poly.json"
    poly.write_text(sd.dump_json(obj))
    outs = []
    for path in (model, poly):
        assert run(["canonical", "--model", str(path), "--structure", "skew",
                    "--emit-transform"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_canonical_cli_emit_transform_roundtrip(tmp_path, capsys):
    import structdae as sd

    model = tmp_path / "mb.json"
    run(["demo", "multibody", "--form", "self", "--out", str(model)])
    dest = tmp_path / "canon.json"
    assert run(["canonical", "--model", str(model), "--structure", "self",
                "--grid", "101", "--emit-transform", "--out", str(dest)]) == 0
    out = json.loads(dest.read_text())
    Q = sd.matrix_function_from_json(out["transform"]["Q"])
    Qdot = sd.matrix_function_from_json(out["transform"]["Qdot"])
    # applying the emitted transform reproduces the canonical leading block
    pair = sd.pair_from_json(json.loads(model.read_text()))
    moved = sd.apply_congruence(pair, sd.CongruenceTransform(Q, Qdot))
    J_lead = np.array([[0.0, 1.0], [-1.0, 0.0]])
    E_lead = moved.E.eval(0.5)[:2, :2]
    assert np.linalg.norm(E_lead - J_lead) <= 1e-8


def test_reduce_cli_semidefinite_and_stokes(tmp_path, capsys):
    model = tmp_path / "m.json"
    run(["demo", "circuit", "--out", str(model)])
    assert run(["reduce", "--model", str(model), "--pipeline", "semidefinite",
                "--grid", "101", "--input", "sin"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dynamic_dim"] == 1
    assert out["certificate"] == "orthogonal"
    assert out["max_inhomogeneity_derivative"] == 1

    smodel = tmp_path / "s.json"
    run(["demo", "stokes", "--nv", "4", "--np", "2", "--out", str(smodel)])
    assert run(["reduce", "--model", str(smodel), "--pipeline", "stokes",
                "--grid", "101"]) == 0
    out2 = json.loads(capsys.readouterr().out)
    assert out2["dynamic_dim"] == 2
    assert out2["lie_algebra_defect"] <= 1e-10


def test_reduce_cli_flags_fdot_only_for_live_inputs(tmp_path, capsys):
    # the lossless Stokes demo has f = 0: the index-2 elimination has fdot
    # weights, but they act on a zero input, so no derivative is read
    smodel = tmp_path / "s.json"
    run(["demo", "stokes", "--nv", "4", "--np", "2", "--out", str(smodel)])
    for pipeline in ("semidefinite", "stokes"):
        capsys.readouterr()
        assert run(["reduce", "--model", str(smodel), "--pipeline", pipeline]) == 0
        assert json.loads(capsys.readouterr().out)["max_inhomogeneity_derivative"] == 0


def test_reduce_cli_damped_stokes_is_a_structural_failure(tmp_path, capsys):
    smodel = tmp_path / "s.json"
    run(["demo", "stokes", "--nv", "4", "--np", "2", "--damped", "--out", str(smodel)])
    for pipeline in ("semidefinite", "stokes"):
        capsys.readouterr()
        assert run(["reduce", "--model", str(smodel), "--pipeline", pipeline]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "structural failure" in captured.err


def test_factor_and_flow_cli(tmp_path, capsys):
    model = tmp_path / "mb.json"
    run(["demo", "multibody", "--form", "skew", "--out", str(model)])
    assert run(["factor", "--model", str(model), "--grid", "51"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rank"] == 4
    assert out["orthogonality_defect"] <= 1e-12

    # a bare matrix-function file works too
    import structdae as sd

    efile = tmp_path / "E.json"
    efile.write_text(sd.dump_json(sd.matrix_function_to_json(
        sd.constant(np.diag([2.0, 1.0, 0.0])))))
    assert run(["factor", "--model", str(efile), "--grid", "21"]) == 0
    out_e = json.loads(capsys.readouterr().out)
    assert out_e["rank"] == 2

    circ = tmp_path / "c.json"
    run(["demo", "circuit", "--out", str(circ)])
    assert run(["flow", "--model", str(circ), "--grid", "201"]) == 0
    out2 = json.loads(capsys.readouterr().out)
    assert out2["kind"] == "orthogonal" and out2["max_defect"] <= 1e-10


def test_reduce_cli_dissipative_model_exits_1(tmp_path):
    model = tmp_path / "lossy.json"
    run(["demo", "circuit", "--RL", "1", "--RG", "1", "--RR", "1",
         "--out", str(model)])
    # the structured pipeline requires the skew-adjoint core
    assert run(["reduce", "--model", str(model), "--pipeline", "semidefinite",
                "--grid", "51"]) == 1


def test_demo_ocp_is_self_adjoint(tmp_path):
    model = tmp_path / "ocp.json"
    run(["demo", "ocp", "--out", str(model)])
    assert run(["check", "--model", str(model), "--structure", "self"]) == 0


def test_demo_ocp_canonical_self_form_passes_its_verifier(tmp_path, capsys):
    import structdae as sd

    model = tmp_path / "ocp.json"
    run(["demo", "ocp", "--out", str(model)])
    capsys.readouterr()
    assert run(["canonical", "--model", str(model), "--structure", "self"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["solution_space_dim"] == 2 and out["p"] == 1
    assert max(out["residuals"].values()) <= 1e-8
    assert max(out["stage_residuals"].values()) <= 1e-8
    # the same form, checked with the verifier's rank floor on Phi
    pair = sd.pair_from_json(json.loads(model.read_text()))
    grid = sd.TimeGrid.uniform(pair.interval.t0, pair.interval.tf, 201)
    form = sd.global_canonical_self(pair, sd.solution_basis_constant(pair, grid), grid)
    assert sd.verify_self_global_form(form, grid).passes()


def test_demo_seed_env_override(tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("STRUCT_DAE_SEED", "5")
    run(["demo", "stokes", "--seed", "1", "--out", str(a)])
    monkeypatch.delenv("STRUCT_DAE_SEED")
    run(["demo", "stokes", "--seed", "5", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_demo_json_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["demo", "stokes", "--seed", "9", "--out", str(a)])
    run(["demo", "stokes", "--seed", "9", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_malformed_model_entries_exit_2(tmp_path, capsys):
    model = tmp_path / "m.json"
    run(["demo", "circuit", "--out", str(model)])
    good = json.loads(model.read_text())
    broken = {
        "no_interval": {k: v for k, v in good.items() if k != "interval"},
        "null_interval": {**good, "interval": None},
        "long_interval": {**good, "interval": [0.0, 1.0, 2.0]},
        "no_E": {k: v for k, v in good.items() if k != "E"},
        "bad_labels": {**good, "labels": 5},
        "not_an_object": [1, 2],
    }
    for name, obj in broken.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        code = run(["simulate", "--model", str(path), "--x0", "1,0,0,0,0", "--steps", "10"])
        err = capsys.readouterr().err
        assert code == 2, name
        assert err.startswith("error: ") and err.count("\n") == 1, (name, err)

    stokes = tmp_path / "s.json"
    run(["demo", "stokes", "--out", str(stokes)])
    good = json.loads(stokes.read_text())
    for name, obj in {"no_M": {k: v for k, v in good.items() if k != "M"},
                      "scalar_B": {**good, "B": 3.0},
                      "null_seed": {**good, "seed": None}}.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run(["reduce", "--pipeline", "stokes", "--model", str(path)]) == 2, name
        assert capsys.readouterr().err.count("\n") == 1

    pair = tmp_path / "p.json"
    run(["demo", "multibody", "--out", str(pair)])
    obj = json.loads(pair.read_text())
    del obj["A"]
    pair.write_text(json.dumps(obj))
    assert run(["check", "--model", str(pair)]) == 2

    # bare matrix-function files with missing or ill-typed nested data
    bare = {"rows": 1, "cols": 1}
    for name, obj in {"samples_without_grid": {**bare, "kind": "samples", "data": {}},
                      "poly_scalar_data": {**bare, "kind": "poly", "data": 5}}.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run(["factor", "--model", str(path)]) == 2, name
        assert capsys.readouterr().err.count("\n") == 1, name


def test_check_computes_each_residual_report_once(tmp_path, monkeypatch):
    import structdae as sd
    from structdae import structure
    from structdae.cli import model_pair

    model = tmp_path / "m.json"
    run(["demo", "circuit", "--out", str(model)])
    pair = model_pair(json.loads(model.read_text()))
    grid = sd.TimeGrid.uniform(pair.interval.t0, pair.interval.tf, 401)
    reports = {kind: fn(pair, grid) for kind, fn in
               (("self_adjoint", sd.self_adjoint_residual),
                ("skew_adjoint", sd.skew_adjoint_residual))}
    tol = sd.default_tolerance(pair, grid)
    want = {
        "tolerance": tol,
        "tag": sd.classify(pair, grid, tol).value,
        **{kind: {"e_residual": r.e_residual, "a_residual": r.a_residual}
           for kind, r in reports.items()},
        "grid_points": 401,
    }
    calls = []
    residuals = structure._residuals

    def counting(*args):
        calls.append(args[2])
        return residuals(*args)

    monkeypatch.setattr(structure, "_residuals", counting)
    rep = tmp_path / "rep.json"
    assert run(["check", "--model", str(model), "--grid", "401", "--out", str(rep)]) == 0
    assert sorted(calls) == ["self_adjoint", "skew_adjoint"]
    assert json.loads(rep.read_text()) == want


def test_reduce_cli_recovery_lists(tmp_path, capsys):
    circ, stokes, mb = (tmp_path / name for name in ("c.json", "s.json", "mb.json"))
    run(["demo", "circuit", "--out", str(circ)])
    run(["demo", "stokes", "--nv", "4", "--np", "2", "--out", str(stokes)])
    run(["demo", "multibody", "--form", "skew", "--out", str(mb)])
    capsys.readouterr()
    cases = [
        (["--model", str(circ), "--input", "sin", "--grid", "101"],
         [("constraint variables", 2), ("chain variables", 2)]),
        (["--model", str(stokes), "--pipeline", "stokes", "--grid", "101"],
         [("pressure", 2)]),
        (["--model", str(mb)], [("constraint variables", 1), ("chain variables", 1)]),
    ]
    for args, want in cases:
        assert run(["reduce", *args]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["recovery"] == [{"name": name, "rows": rows} for name, rows in want]


def test_canonical_cli_overflowing_basis_exits_1(tmp_path, capsys):
    # J2 against 40 [[0, 1], [1, 0]] on [0, 40]: no basis keeps rank there
    import structdae as sd

    pair = sd.MatrixPair(sd.constant([[0.0, 1.0], [-1.0, 0.0]]),
                         sd.constant([[0.0, 40.0], [40.0, 0.0]]),
                         sd.TimeGrid.uniform(0.0, 40.0, 2))
    model = tmp_path / "m.json"
    model.write_text(sd.dump_json(sd.pair_to_json(pair)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["canonical", "--model", str(model), "--structure", "self"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("structural failure: Phi overflows")


def test_simulate_circuit_in_non_diagonal_coordinates(tmp_path):
    # the demo circuit written in coordinates x = Q y must simulate to the
    # same closed form: I = 1, V1 = -sin t, V2 = 0, IG = cos t, IR = 1
    from structdae.cli import phdae_from_json, phdae_to_json
    import structdae as sd

    model = tmp_path / "m.json"
    run(["demo", "circuit", "--L", "1", "--C1", "1", "--C2", "1", "--out", str(model)])
    m = phdae_from_json(json.loads(model.read_text()))
    Q = np.eye(5) + 0.3 * np.random.default_rng(7).standard_normal((5, 5))
    t0 = m.interval.t0

    def congruent(F):
        return sd.constant(Q.T @ F.eval(t0) @ Q)

    moved = sd.PHDAEModel(
        E=congruent(m.E), J=congruent(m.J), R=congruent(m.R), K=m.K,
        G=sd.constant(Q.T @ m.G.eval(t0)), P=sd.constant(Q.T @ m.P.eval(t0)),
        S=m.S, N=m.N, interval=m.interval, labels=m.labels, meta=m.meta,
    )
    model.write_text(json.dumps(phdae_to_json(moved)))
    y0 = np.linalg.solve(Q, [1.0, 0.0, 0.0, 1.0, 1.0])
    out = tmp_path / "traj.csv"
    assert run(["simulate", "--model", str(model), "--x0", ",".join(str(float(v)) for v in y0),
                "--input", "sin", "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    t, y, H = data[:, 0], data[:, 1:6], data[:, 6]
    exact = np.stack([np.ones_like(t), -np.sin(t), 0 * t, np.cos(t), np.ones_like(t)], axis=1)
    assert np.abs(y @ Q.T - exact).max() <= 1e-5
    assert np.abs(H - 0.5 * (1.0 + np.sin(t) ** 2)).max() <= 1e-5
