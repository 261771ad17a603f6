import json

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


def test_canonical_cli_multibody(tmp_path, capsys):
    model = tmp_path / "mb.json"
    run(["demo", "multibody", "--form", "skew", "--out", str(model)])
    assert run(["canonical", "--model", str(model), "--structure", "skew",
                "--grid", "101"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p"] == 3 and out["q"] == 0
    assert max(out["residuals"].values()) <= 1e-8


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
