"""Command-line front-end.

Subcommands: demo, check, factor, canonical, reduce, simulate, flow.
Models travel as JSON ({"type": "pair" | "phdae" | "stokes", ...}); matrix
functions use the {"rows", "cols", "kind", "data"} schema.  Trajectories are
CSV.  Exit codes: 0 success, 1 structural check failed, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import canonical as cn
from . import factor as fa
from . import flow as fl
from . import matfun as mf
from . import models as mo
from . import reduce as rd
from . import structure as st
from .errors import (
    ConstructionError,
    DimensionError,
    DomainError,
    ParameterError,
    StructDaeError,
    UnsupportedError,
)

USAGE_ERRORS = (
    ConstructionError,
    DimensionError,
    DomainError,
    ParameterError,
    UnsupportedError,
    json.JSONDecodeError,
    OSError,
    ValueError,
)


def _emit(obj, path=None):
    text = mf.dump_json(obj, path)
    if path is None:
        print(text)
    return text


def _fmt(x):
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def load_model(path):
    with open(path) as fh:
        obj = json.load(fh)
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind not in ("pair", "phdae", "stokes"):
        raise ConstructionError(f"unknown model type {kind!r} in {path}")
    return obj


def model_interval(obj):
    return mf.json_entry(obj, "interval", mf.interval_from_json)


def model_pair(obj):
    """The (E, A) pair a model describes (phdae uses A = J - R - E K)."""
    if obj["type"] == "pair":
        return mf.pair_from_json(obj)
    if obj["type"] == "phdae":
        model = phdae_from_json(obj)
        return model.pair()
    stokes = stokes_from_json(obj)
    return stokes.pair()


def model_input_map(obj):
    if obj["type"] == "phdae" or "G" in obj:
        return mf.json_entry(obj, "G", mf.matrix_function_from_json)
    return None


def phdae_to_json(model):
    out = {"type": "phdae", "interval": [model.interval.t0, model.interval.tf]}
    for name in ("E", "J", "R", "K", "G", "P", "S", "N"):
        out[name] = mf.matrix_function_to_json(getattr(model, name))
    if model.labels:
        out["labels"] = list(model.labels)
    if model.meta:
        out["meta"] = model.meta
    return out


def phdae_from_json(obj):
    fields = {
        name: mf.json_entry(obj, name, mf.matrix_function_from_json)
        for name in ("E", "J", "R", "K", "G", "P", "S", "N")
    }
    return mo.PHDAEModel(
        interval=model_interval(obj),
        labels=mf.json_entry(obj, "labels", tuple, ()),
        meta=mf.json_entry(obj, "meta", dict, {}),
        **fields,
    )


def stokes_to_json(model):
    return {
        "type": "stokes",
        "interval": [model.interval.t0, model.interval.tf],
        "M": model.M.tolist(),
        "A_S": model.A_S.tolist(),
        "A_H": model.A_H.tolist(),
        "C": model.C.tolist(),
        "B": model.B.tolist(),
        "seed": model.seed,
        "damped": model.damped,
    }


def _matrix(value):
    a = np.array(value, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix (list of rows), got ndim={a.ndim}")
    return a


def stokes_from_json(obj):
    arrays = {name: mf.json_entry(obj, name, _matrix) for name in ("M", "A_S", "A_H", "C", "B")}
    return mo.StokesModel(
        interval=model_interval(obj),
        damped=mf.json_entry(obj, "damped", bool, False),
        seed=mf.json_entry(obj, "seed", int, 0),
        **arrays,
    )


def _grid(args, interval):
    n = int(args.grid)
    if n < 2:
        raise ParameterError("--grid must be at least 2")
    return mf.TimeGrid.uniform(interval.t0, interval.tf, n)


def _input_function(name, scale, grid):
    if name == "zero":
        return None
    if name == "sin":
        return mf.from_callable(
            lambda t: [[scale * np.sin(t)]], grid, dfn=lambda t: [[scale * np.cos(t)]]
        )
    if name == "cos":
        return mf.from_callable(
            lambda t: [[scale * np.cos(t)]], grid, dfn=lambda t: [[-scale * np.sin(t)]]
        )
    raise ParameterError(f"unknown input shape {name!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_demo(args):
    seed_env = os.environ.get("STRUCT_DAE_SEED")
    seed = int(seed_env) if seed_env is not None else args.seed
    interval = mf.TimeGrid.uniform(args.t0, args.tf, 2)
    if args.system == "circuit":
        model = mo.build_circuit(args.L, args.C1, args.C2, args.RL, args.RG, args.RR,
                                 interval=interval)
        obj = phdae_to_json(model)
    elif args.system == "stokes":
        model = mo.build_stokes(args.nv, args.np, seed=seed, damped=args.damped,
                                interval=interval)
        obj = stokes_to_json(model)
    elif args.system == "multibody":
        system = mo.build_multibody(np.eye(args.nq), np.eye(args.nq),
                                    np.eye(args.nq)[: args.nc], interval=interval)
        pair = system.self_pair if args.form == "self" else system.skew_pair
        obj = mf.pair_to_json(pair)
        obj["meta"] = {"kind": "multibody", "form": args.form}
    else:  # ocp
        pair = mo.build_optimal_control(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]],
            interval=interval,
        )
        obj = mf.pair_to_json(pair)
        obj["meta"] = {"kind": "ocp"}
    _emit(obj, args.out)
    return 0


def cmd_check(args):
    obj = load_model(args.model)
    pair = model_pair(obj)
    grid = _grid(args, pair.interval)
    tol = args.tol if args.tol is not None else st.default_tolerance(pair, grid)
    rep_self = st.self_adjoint_residual(pair, grid)
    rep_skew = st.skew_adjoint_residual(pair, grid)
    tag = st.classify(pair, grid, tol)
    out = {
        "tolerance": tol,
        "tag": tag.value,
        "self_adjoint": {"e_residual": rep_self.e_residual, "a_residual": rep_self.a_residual},
        "skew_adjoint": {"e_residual": rep_skew.e_residual, "a_residual": rep_skew.a_residual},
        "grid_points": grid.n,
    }
    _emit(out, args.out)
    want = args.structure
    ok = {
        "self": tag.value in ("self_adjoint", "both"),
        "skew": tag.value in ("skew_adjoint", "both"),
        "any": tag.value != "none",
    }[want]
    return 0 if ok else 1


def cmd_factor(args):
    with open(args.model) as fh:
        raw = json.load(fh)
    if isinstance(raw, dict) and "kind" in raw:
        # a bare matrix-function file
        target = mf.matrix_function_from_json(raw)
        interval = (
            target.grid
            if isinstance(target, mf.SampledMatrixFunction)
            else mf.TimeGrid.uniform(args.t0, args.tf, 2)
        )
        grid = _grid(args, interval)
    else:
        obj = load_model(args.model)
        pair = model_pair(obj)
        grid = _grid(args, pair.interval)
        target = pair.E if args.what == "E" else pair.A
    split = fa.rank_split(target, grid, gap_tol=args.gap_tol)
    Uv = split.U.eval_on(grid)
    Vv = split.V.eval_on(grid)
    vals = target.eval_on(grid)
    r = split.r
    recon = Uv[:, :, :r].transpose(0, 2, 1) @ vals @ Vv[:, :, :r]
    sig = split.Sigma.eval_on(grid)
    out = {
        "what": args.what,
        "rank": r,
        "orthogonality_defect": max(
            float(np.linalg.norm(Uv.transpose(0, 2, 1) @ Uv - np.eye(Uv.shape[1]), axis=(1, 2)).max()),
            float(np.linalg.norm(Vv.transpose(0, 2, 1) @ Vv - np.eye(Vv.shape[1]), axis=(1, 2)).max()),
        ),
        "reconstruction_residual": float(np.linalg.norm(recon - sig, axis=(1, 2)).max()),
        "max_factor_jump": fa.max_jump(Uv),
        "grid_points": grid.n,
    }
    _emit(out, args.out)
    return 0


def cmd_canonical(args):
    obj = load_model(args.model)
    pair = model_pair(obj)
    grid = _grid(args, pair.interval)
    basis = cn.solution_basis_constant(pair, grid)
    if args.structure == "self":
        form = cn.global_canonical_self(pair, basis, grid)
        record = cn.verify_self_global_form(form, grid)
        dims = {"p": form.p, "q": None, "algebraic_dim": form.algebraic_dim}
    else:
        form = cn.global_canonical_skew(pair, basis, grid)
        record = cn.verify_skew_global_form(form, grid)
        dims = {"p": form.p, "q": form.q, "algebraic_dim": form.algebraic_dim}
    out = {
        "structure": args.structure,
        "n": pair.n,
        "solution_space_dim": basis.d,
        **dims,
        "residuals": record.entries,
        "stage_residuals": dict(form.stage_residuals),
    }
    if args.emit_transform:
        out["transform"] = {
            "Q": mf.matrix_function_to_json(form.Q.Q),
            "Qdot": mf.matrix_function_to_json(form.Q.Qdot),
        }
    _emit(out, args.out)
    return 0


def cmd_reduce(args):
    obj = load_model(args.model)
    if args.pipeline == "stokes":
        if obj["type"] != "stokes":
            raise ConstructionError("--pipeline stokes needs a stokes model file")
        model = stokes_from_json(obj)
        grid = _grid(args, model.interval)
        Jfun = mf.constant(model.A_S)
        f = mf.zero(model.nv, 1)
        red = rd.stokes_reduce(model.M, model.B, Jfun, f, grid)
    else:
        pair = model_pair(obj)
        grid = _grid(args, pair.interval)
        G = model_input_map(obj)
        u = _input_function(args.input, args.input_scale, grid)
        if G is not None and u is not None:
            f = mf.mf_matmul(G, u)
        else:
            f = mf.zero(pair.n, 1)
        red = rd.semidefinite_skew_reduce(pair, f, grid)
    out = {
        "pipeline": args.pipeline,
        "dynamic_dim": red.dynamic_dim,
        "certificate": red.certificate.kind,
        "lie_algebra_defect": red.certificate_defect(grid),
        "max_inhomogeneity_derivative": red.max_f_derivative,
        "recovery": [
            {"name": rec.name, "rows": rec.coef_x.rows} for rec in red.recovery
        ],
        "grid_points": grid.n,
    }
    _emit(out, args.out)
    return 0


def cmd_simulate(args):
    obj = load_model(args.model)
    if obj["type"] != "phdae":
        raise ConstructionError("simulate expects a phdae model file")
    model = phdae_from_json(obj)
    grid = mf.TimeGrid.uniform(args.t0, args.tf, args.steps + 1)
    model = mo.PHDAEModel(
        E=model.E, J=model.J, R=model.R, K=model.K, G=model.G, P=model.P,
        S=model.S, N=model.N, interval=grid, labels=model.labels, meta=model.meta,
    )
    u = _input_function(args.input, args.input_scale, grid)
    x0 = np.array([float(v) for v in args.x0.split(",")])
    traj, red = fl.simulate_phdae(model, u, x0, grid)
    defects = None
    if args.flow:
        fund = fl.fundamental_solution(red.m_fun, grid)
        B = red.certificate.B if red.certificate else np.eye(red.dynamic_dim)
        defects = fl.flow_defect_series(fund, B)
    labels = list(model.labels) if model.labels else [f"x{i+1}" for i in range(model.n)]
    lines = []
    header = ["t"] + labels + ["H"] + (["flow_defect"] if defects is not None else [])
    lines.append(",".join(header))
    for k, t in enumerate(grid.points):
        row = [_fmt(t)] + [_fmt(v) for v in traj.states[k]] + [_fmt(traj.hamiltonian[k])]
        if defects is not None:
            row.append(_fmt(defects[k]))
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_flow(args):
    obj = load_model(args.model)
    pair = model_pair(obj)
    grid = _grid(args, pair.interval)
    red = rd.semidefinite_skew_reduce(pair, mf.zero(pair.n, 1), grid)
    diag = fl.certify_flow(red.m_fun, grid, red.certificate)
    out = {
        "kind": diag.kind,
        "max_defect": diag.max_defect,
        "dynamic_dim": red.dynamic_dim,
        "steps": grid.n - 1,
    }
    _emit(out, args.out)
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="struct-dae", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("demo", help="write an example model as JSON")
    d.add_argument("system", choices=["circuit", "stokes", "multibody", "ocp"])
    d.add_argument("--out", default=None)
    d.add_argument("--t0", type=float, default=0.0)
    d.add_argument("--tf", type=float, default=10.0)
    d.add_argument("--L", type=float, default=1.0)
    d.add_argument("--C1", type=float, default=1.0)
    d.add_argument("--C2", type=float, default=1.0)
    d.add_argument("--RL", type=float, default=0.0)
    d.add_argument("--RG", type=float, default=0.0)
    d.add_argument("--RR", type=float, default=0.0)
    d.add_argument("--nv", type=int, default=3)
    d.add_argument("--np", type=int, default=1)
    d.add_argument("--nq", type=int, default=2)
    d.add_argument("--nc", type=int, default=1)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--damped", action="store_true")
    d.add_argument("--form", choices=["self", "skew"], default="self")
    d.set_defaults(func=cmd_demo)

    c = sub.add_parser("check", help="structure residuals and classification")
    c.add_argument("--model", required=True)
    c.add_argument("--grid", type=int, default=401)
    c.add_argument("--tol", type=float, default=None)
    c.add_argument("--structure", choices=["self", "skew", "any"], default="any")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_check)

    f = sub.add_parser("factor", help="constant-rank orthogonal splitting")
    f.add_argument("--model", required=True,
                   help="model file, or a bare matrix-function JSON file")
    f.add_argument("--grid", type=int, default=201)
    f.add_argument("--what", choices=["E", "A"], default="E")
    f.add_argument("--gap-tol", type=float, default=fa.DEFAULT_GAP_TOL)
    f.add_argument("--t0", type=float, default=0.0)
    f.add_argument("--tf", type=float, default=1.0)
    f.add_argument("--out", default=None)
    f.set_defaults(func=cmd_factor)

    k = sub.add_parser("canonical", help="global canonical form under congruence")
    k.add_argument("--model", required=True)
    k.add_argument("--structure", choices=["self", "skew"], required=True)
    k.add_argument("--grid", type=int, default=201)
    k.add_argument("--emit-transform", action="store_true")
    k.add_argument("--out", default=None)
    k.set_defaults(func=cmd_canonical)

    r = sub.add_parser("reduce", help="extract the dynamic core")
    r.add_argument("--model", required=True)
    r.add_argument("--pipeline", choices=["semidefinite", "stokes"], default="semidefinite")
    r.add_argument("--grid", type=int, default=201)
    r.add_argument("--input", choices=["zero", "sin", "cos"], default="zero")
    r.add_argument("--input-scale", type=float, default=1.0)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_reduce)

    s = sub.add_parser("simulate", help="integrate a phdae model, emit CSV")
    s.add_argument("--model", required=True)
    s.add_argument("--x0", required=True, help="comma separated initial state")
    s.add_argument("--t0", type=float, default=0.0)
    s.add_argument("--tf", type=float, default=10.0)
    s.add_argument("--steps", type=int, default=2000)
    s.add_argument("--input", choices=["zero", "sin", "cos"], default="zero")
    s.add_argument("--input-scale", type=float, default=1.0)
    s.add_argument("--flow", action="store_true",
                   help="co-compute the fundamental solution and its group defect")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_simulate)

    w = sub.add_parser("flow", help="certify the flow of the dynamic core")
    w.add_argument("--model", required=True)
    w.add_argument("--grid", type=int, default=2001)
    w.add_argument("--out", default=None)
    w.set_defaults(func=cmd_flow)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructDaeError as exc:
        print(f"structural failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
