"""The benchmark's workloads: seeded inputs, library pipelines, CLI commands,
independent references and accuracy gates.

Inputs are plain numpy arrays drawn from the seed; every library object is
built from them inside the timed operation, because users pay the lazy
spline builds on every run.  References never call ``structdae``: the
circuit has a closed form, the multibody dimensions follow from counting,
and the time-varying case is checked against a dense ``solve_ivp`` of the
untransformed constant DAE.
"""

from __future__ import annotations

import csv
import json

import numpy as np


class GateFailure(Exception):
    """An accuracy gate was breached; the operation counts as failed."""


def _gate(name, value, limit):
    if not value <= limit:
        raise GateFailure(f"{name} = {value!r} exceeds its limit {limit!r}")


def _require(name, got, want):
    if got != want:
        raise GateFailure(f"{name}: got {got!r}, expected {want!r}")


def _maxnorm(x):
    return float(np.linalg.norm(x, axis=(1, 2)).max()) if x.size else 0.0


# ---------------------------------------------------------------------------
# circuit-index2: the lossless RLC circuit, index 2, one-dimensional core
# ---------------------------------------------------------------------------

class CircuitIndex2:
    name = "circuit-index2"
    L, C1, C2 = 1.0, 1.5, 0.7
    t0, tf = 0.0, 10.0
    K = 2001

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        # nonzero inductor current, the only free initial value
        return {"I0": float(rng.uniform(0.5, 2.0))}

    def record(self, inp):
        return {"n": 5, "K": self.K, "interval": [self.t0, self.tf],
                "params": {"L": self.L, "C1": self.C1, "C2": self.C2, **inp},
                "input_signal": "u(t) = sin t, u'(t) = cos t (exact)"}

    def x0(self, inp):
        # consistent at t=0: V1 = -u(0) = 0, V2 = 0, IG = C1 u'(0), IR = I
        return np.array([inp["I0"], 0.0, 0.0, self.C1, inp["I0"]])

    def reference(self, inp):
        t = np.linspace(self.t0, self.tf, self.K)
        I0 = inp["I0"]
        return np.column_stack([np.full_like(t, I0), -np.sin(t), np.zeros_like(t),
                                self.C1 * np.cos(t), np.full_like(t, I0)])

    def build_model(self, sd, inp):
        grid = sd.TimeGrid.uniform(self.t0, self.tf, self.K)
        return sd.build_circuit(self.L, self.C1, self.C2, interval=grid), grid

    def library_op(self, sd, inp):
        model, grid = self.build_model(sd, inp)
        u = sd.from_callable(lambda t: [[np.sin(t)]], grid, dfn=lambda t: [[np.cos(t)]])
        traj, red = sd.simulate_phdae(model, u, self.x0(inp), grid)
        diag = sd.certify_flow(red.m_fun, grid, red.certificate)
        return {"states": traj.states, "flow_defect": diag.max_defect,
                "lie_defect": red.certificate_defect(grid)}

    def check(self, out, ref):
        err = float(np.abs(out["states"] - ref).max())
        _gate("oracle_err", err, 1e-9)
        _gate("flow_defect", out["flow_defect"], 1e-12)
        _gate("structure_residual", out["lie_defect"], 1e-10)
        return {"oracle_err": err, "flow_defect": out["flow_defect"],
                "structure_residual": out["lie_defect"]}

    def cli_input(self, sd, inp, workdir):
        model, _ = self.build_model(sd, inp)
        path = workdir / "circuit.json"
        from structdae import cli
        sd.dump_json(cli.phdae_to_json(model), str(path))
        out = workdir / "circuit.csv"
        x0 = ",".join("%.17g" % v for v in self.x0(inp))
        argv = ["simulate", "--model", str(path), "--x0", x0, "--t0", str(self.t0),
                "--tf", str(self.tf), "--steps", str(self.K - 1), "--input", "sin",
                "--flow", "--out", str(out)]
        return argv, out

    def check_cli(self, out, ref):
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        _require("csv header", rows[0], ["t", "I", "V1", "V2", "IG", "IR", "H", "flow_defect"])
        data = np.array(rows[1:], dtype=float)
        _require("csv rows", data.shape[0], self.K)
        err = float(np.abs(data[:, 1:6] - ref).max())
        _gate("cli oracle_err", err, 1e-9)
        _gate("cli flow_defect", float(data[:, 7].max()), 1e-12)


# ---------------------------------------------------------------------------
# multibody-forms: wide constant pairs, both canonical forms, orthogonal core
# ---------------------------------------------------------------------------

class MultibodyForms:
    name = "multibody-forms"
    t0, tf = 0.0, 10.0
    nq, nc, K = 20, 5, 101

    @property
    def n(self):
        return 2 * self.nq + self.nc

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        nq, nc = self.nq, self.nc
        # diagonal M and W, W from U[0.25, 1]: coupled inputs and stiffer W
        # fail today (see "Known limits" in README.md)
        M = np.diag(rng.uniform(0.5, 2.0, nq))
        W = np.diag(rng.uniform(0.25, 1.0, nq))
        G = np.eye(nq)[np.sort(rng.choice(nq, nc, replace=False))]
        g = rng.standard_normal((self.n, 1))
        x0 = rng.standard_normal(self.n)
        return {"M": M, "W": W, "G": G, "g": g, "x0": x0}

    def record(self, inp):
        return {"n": self.n, "K": self.K, "interval": [self.t0, self.tf],
                "params": {"nq": self.nq, "nc": self.nc,
                           "constrained": np.nonzero(inp["G"])[1].tolist()},
                "input_signal": "f(t) = g sin t, g ~ N(0, I) seeded"}

    def reference(self, inp):
        # closed-form solution-space dimensions of the two structured forms
        nq, nc = self.nq, self.nc
        return {"self_d": 2 * (nq - nc), "self_p": nq - nc,
                "skew_d": 2 * nq - nc, "skew_p": 2 * nq - nc, "skew_q": 0}

    def build_model(self, sd, inp):
        grid = sd.TimeGrid.uniform(self.t0, self.tf, self.K)
        return sd.build_multibody(inp["M"], inp["W"], inp["G"], interval=grid), grid

    def library_op(self, sd, inp):
        mb, grid = self.build_model(sd, inp)
        sb = sd.solution_basis_constant(mb.self_pair, grid)
        sf = sd.global_canonical_self(mb.self_pair, sb, grid)
        srec = sd.verify_self_global_form(sf, grid)
        kb = sd.solution_basis_constant(mb.skew_pair, grid)
        kf = sd.global_canonical_skew(mb.skew_pair, kb, grid)
        krec = sd.verify_skew_global_form(kf, grid)
        g = inp["g"]
        f = sd.from_callable(lambda t: g * np.sin(t), grid, dfn=lambda t: g * np.cos(t))
        red = sd.semidefinite_skew_reduce(mb.skew_pair, f, grid)
        traj = sd.integrate_reduced(red, red.dynamic_from_full(grid.t0, inp["x0"]), grid)
        diag = sd.certify_flow(red.m_fun, grid, red.certificate)
        return {"self_d": sb.d, "self_p": sf.p, "skew_d": kb.d, "skew_p": kf.p,
                "skew_q": kf.q, "self_ok": srec.passes(), "skew_ok": krec.passes(),
                "residuals": [srec.worst, krec.worst,
                              *(v for _, v in sf.stage_residuals),
                              *(v for _, v in kf.stage_residuals),
                              red.certificate_defect(grid)],
                "stages": len(sf.stage_residuals) + len(kf.stage_residuals),
                "finite": bool(np.all(np.isfinite(traj.states))),
                "flow_defect": diag.max_defect}

    def check(self, out, ref):
        for key, want in ref.items():
            _require(key, out[key], want)
        _require("self verifier passes", out["self_ok"], True)
        _require("skew verifier passes", out["skew_ok"], True)
        _require("finite trajectory", out["finite"], True)
        worst = max(out["residuals"])
        _gate("structure_residual", worst, 1e-8)
        _gate("flow_defect", out["flow_defect"], 1e-10)
        return {"flow_defect": out["flow_defect"], "structure_residual": worst}

    def cli_input(self, sd, inp, workdir):
        mb, _ = self.build_model(sd, inp)
        path = workdir / "multibody_self.json"
        sd.dump_json(sd.pair_to_json(mb.self_pair), str(path))
        out = workdir / "canonical.json"
        argv = ["canonical", "--model", str(path), "--structure", "self",
                "--grid", str(self.K), "--out", str(out)]
        return argv, out

    def check_cli(self, out, ref):
        with open(out) as fh:
            obj = json.load(fh)
        _require("cli solution_space_dim", obj["solution_space_dim"], ref["self_d"])
        _require("cli p", obj["p"], ref["self_p"])
        _require("cli n", obj["n"], self.n)
        worst = max([*obj["residuals"].values(), *obj["stage_residuals"].values()])
        _gate("cli structure_residual", worst, 1e-8)


# ---------------------------------------------------------------------------
# tv-index1: a dissipative pHDAE under a time-varying congruence
# ---------------------------------------------------------------------------

class TvIndex1:
    name = "tv-index1"
    t0, tf = 0.0, 10.0
    n, r, K = 20, 16, 401

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        n, r = self.n, self.r
        B = rng.standard_normal((r, r))
        E = np.zeros((n, n))
        E[:r, :r] = B @ B.T / r + np.eye(r)
        Jr = rng.standard_normal((n, n))
        J = 0.5 * (Jr - Jr.T)
        C = rng.standard_normal((n, n))
        R = 0.1 * C @ C.T / n
        R[r:, r:] += np.eye(n - r)  # makes the algebraic block nonsingular
        G = rng.standard_normal((n, 1))
        # Q(t) = I + eps s P1 + eps s^2 P2 with s = t/tf and ||eps P1|| + ||eps P2|| <= 1/2
        P1 = rng.standard_normal((n, n))
        P2 = rng.standard_normal((n, n))
        P1 *= 0.25 / np.linalg.norm(P1, 2)
        P2 *= 0.25 / np.linalg.norm(P2, 2)
        x1 = rng.standard_normal(r)
        return {"E": E, "J": J, "R": R, "G": G, "P1": P1, "P2": P2, "x1": x1}

    def record(self, inp):
        return {"n": self.n, "K": self.K, "interval": [self.t0, self.tf],
                "params": {"rank_E": self.r, "Q": "I + (t/tf) P1 + (t/tf)^2 P2",
                           "Q_perturbation_norm_bound": 0.5},
                "input_signal": "f(t) = G sin t, G ~ N(0, I) seeded"}

    def _Q(self, inp, t):
        s = np.asarray(t)[:, None, None] / self.tf
        return np.eye(self.n) + s * inp["P1"] + s * s * inp["P2"]

    def _consistent_x0(self, inp):
        r = self.r
        A = inp["J"] - inp["R"]
        x2 = -np.linalg.solve(A[r:, r:], A[r:, :r] @ inp["x1"])  # f(0) = 0
        return np.concatenate([inp["x1"], x2])

    def reference(self, inp):
        """Dense adaptive solve of the untransformed DAE, mapped by Q(t)^-1."""
        from scipy.integrate import solve_ivp  # kept out of the set-up probe's imports

        r = self.r
        E, A, G = inp["E"], inp["J"] - inp["R"], inp["G"][:, 0]
        A22inv = np.linalg.inv(A[r:, r:])
        S = E[:r, :r]
        Ceff = np.linalg.solve(S, A[:r, :r] - A[:r, r:] @ A22inv @ A[r:, :r])
        Geff = np.linalg.solve(S, G[:r] - A[:r, r:] @ A22inv @ G[r:])
        t = np.linspace(self.t0, self.tf, self.K)
        sol = solve_ivp(lambda s, y: Ceff @ y + Geff * np.sin(s), (self.t0, self.tf),
                        inp["x1"], method="DOP853", t_eval=t, rtol=1e-12, atol=1e-12)
        x1 = sol.y.T
        x2 = -(A22inv @ (A[r:, :r] @ x1.T + np.outer(G[r:], np.sin(t)))).T
        x = np.concatenate([x1, x2], axis=1)
        Qv = self._Q(inp, t)
        z = np.linalg.solve(Qv, x[:, :, None])[:, :, 0]
        # independent dissipative-structure target: A2 + A2^T + E2dot = -2 Q^T R Q
        twoQRQ = 2.0 * np.transpose(Qv, (0, 2, 1)) @ inp["R"] @ Qv
        return {"z": z, "twoQRQ": twoQRQ}

    def build_model(self, sd, inp):
        grid = sd.TimeGrid.uniform(self.t0, self.tf, self.K)
        pair = sd.MatrixPair(sd.constant(inp["E"]), sd.constant(inp["J"] - inp["R"]), grid)
        Q = sd.poly([np.eye(self.n), inp["P1"] / self.tf, inp["P2"] / self.tf ** 2])
        return pair, sd.CongruenceTransform.from_function(Q), grid

    def library_op(self, sd, inp):
        pair, T, grid = self.build_model(sd, inp)
        pair2 = sd.apply_congruence(pair, T, check_grid=grid)
        tag = sd.classify(pair2, grid, sd.default_tolerance(pair2, grid))
        u = sd.from_callable(lambda t: [[np.sin(t)]], grid, dfn=lambda t: [[np.cos(t)]])
        f2 = sd.mf_matmul(sd.mf_transpose(T.Q), sd.mf_matmul(sd.constant(inp["G"]), u))
        red = sd.index1_reduce(pair2, f2, grid)
        z0 = np.linalg.solve(T.Q.eval(grid.t0), self._consistent_x0(inp))
        traj = sd.integrate_reduced(red, red.dynamic_from_full(grid.t0, z0), grid)
        mon = sd.dissipation_monitor(pair2, traj, u)
        E2 = pair2.E.eval_on(grid)
        A2 = pair2.A.eval_on(grid)
        E2d = pair2.E.derivative_on(grid)
        return {"tag": tag.value, "dynamic_dim": red.dynamic_dim, "states": traj.states,
                "energy_finite": bool(np.all(np.isfinite(mon.hamiltonian))),
                "E2": E2, "A2": A2, "E2d": E2d}

    def check(self, out, ref):
        _require("classification", out["tag"], "none")  # R != 0: neither structure
        _require("dynamic_dim", out["dynamic_dim"], self.r)
        _require("finite energy", out["energy_finite"], True)
        z = ref["z"]
        err = float(np.abs(out["states"] - z).max() / np.abs(z).max())
        # the midpoint rule is second order; over seeds 0-149 the error was
        # at most 5.4 h^2 (median 1.1 h^2), and a first-order error would
        # be about h, well above 20 h^2
        h = (self.tf - self.t0) / (self.K - 1)
        _gate("oracle_err", err, 20.0 * h * h)
        E2, A2 = out["E2"], out["A2"]
        scale = 1.0 + max(_maxnorm(E2), _maxnorm(A2))
        resid = max(_maxnorm(E2 - np.transpose(E2, (0, 2, 1))),
                    _maxnorm(A2 + np.transpose(A2, (0, 2, 1)) + out["E2d"] + ref["twoQRQ"]))
        _gate("structure_residual", resid / scale, 1e-12)
        return {"oracle_err": err, "structure_residual": resid / scale}

    def cli_input(self, sd, inp, workdir):
        pair, T, grid = self.build_model(sd, inp)
        path = workdir / "tv_pair.json"
        sd.dump_json(sd.pair_to_json(sd.apply_congruence(pair, T)), str(path))
        out = workdir / "factor.json"
        argv = ["factor", "--model", str(path), "--what", "E", "--grid", str(self.K),
                "--out", str(out)]
        return argv, out

    def check_cli(self, out, ref):
        with open(out) as fh:
            obj = json.load(fh)
        _require("cli rank", obj["rank"], self.r)
        _require("cli grid_points", obj["grid_points"], self.K)
        _gate("cli orthogonality_defect", obj["orthogonality_defect"], 1e-10)
        _gate("cli reconstruction_residual", obj["reconstruction_residual"], 1e-8)


WORKLOADS = {w.name: w for w in (CircuitIndex2(), MultibodyForms(), TvIndex1())}
