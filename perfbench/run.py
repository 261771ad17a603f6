"""struct-dae benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
``src/``).  One operation at a time, each started when the previous one has
finished:

* a library operation is the workload's full pipeline, inputs built inside
  the timed region, checked against an independent reference;
* a CLI operation is one fresh ``python -m structdae.cli ...`` process whose
  output file is checked the same way;
* a set-up probe is a fresh interpreter timed until ``import structdae``
  and the workload model are ready.

Operations run in a fixed cycle (a set-up probe, then a library and a CLI
operation twice) until ``--seconds`` have passed.  With
``--trace 0`` nothing is instrumented and the end-to-end metrics are
printed; with ``--trace 1`` the library's public functions are wrapped
(see spans.py) and the per-layer metrics are printed.  Every operation that
raises, exits non-zero or breaches an accuracy gate counts as failed, and
the run then exits with code 1.  The last stdout line is the result
object; the line before it is a record of the inputs, the environment, the
raw samples and the accuracy figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# one BLAS thread in this process and in every child it starts
BLAS_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# share of a traced operation's wall time its layer self times must cover
MIN_ATTRIBUTED = 0.9
CHILD_TIMEOUT_S = 60
WORKLOAD_NAMES = ("circuit-index2", "multibody-forms", "tv-index1")
# per-layer metrics taken from the traced operations (cli.* from the CLI ones)
PER_LAYER = (
    "matfun.self_s", "matfun.point_evals", "matfun.sampled_bytes",
    "structure.self_s", "factor.self_s", "factor.points",
    "canonical.self_s", "canonical.stages",
    "reduce.self_s", "reduce.reconstruct_s", "reduce.reconstruct_calls",
    "reduce.attempts", "reduce.failed_attempts", "reduce.wasted_s",
    "flow.self_s", "flow.steps", "models.self_s",
    "cli.self_s", "cli.output_bytes",
    "trace.failed_calls", "trace.failed_s",
)


def child_env():
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe_setup(name, seed):
    """Seconds from starting a fresh interpreter until the model is built."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), "setup", name, str(seed)],
                          cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            if not select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
                raise TimeoutError(f"set-up probe silent for {CHILD_TIMEOUT_S} s")
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()  # the with block then waits for it
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
    return elapsed


def probe_import():
    """Seconds `import structdae.cli` takes in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), "import"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.strip())


def run_cli(argv):
    """One CLI process; raises when it exits non-zero."""
    proc = subprocess.run([sys.executable, "-m", "structdae.cli", *argv], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"CLI exited {proc.returncode}: {proc.stderr.strip()}")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():  # keep git from finding an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpu": cpu_model(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": dict(BLAS_ENV),
            "git_commit": git_commit()}


class RunLog:
    """Counts operations and keeps the samples of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.samples = {}

    def _record(self, kind, measure):
        """Count one operation; keep measure()'s seconds, or its failure."""
        self.attempted += 1
        try:
            seconds = measure()
        except Exception as exc:  # any failure of the code under test counts
            self.failed += 1
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            print(f"operation failed: {self.errors[-1]}", file=sys.stderr)
            return
        self.samples.setdefault(kind, []).append(seconds)

    def attempt(self, kind, fn, check=None):
        """Time fn() as one operation, then check(result) outside the timing."""
        def measure():
            gc.collect()
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            if check is not None:
                check(result)
            return elapsed
        self._record(kind, measure)

    def probe(self, kind, fn):
        """One operation that measures itself: fn() returns its seconds."""
        self._record(kind, fn)


def stat(fn, values):
    """fn(values), or None when there are no samples (every attempt failed)."""
    return fn(values) if values else None


def run_workload(workload, seed, seconds, trace, sd):
    """One benchmark run; returns (record, metrics, log)."""
    inputs = workload.inputs(seed)
    ref = workload.reference(inputs)
    log = RunLog()
    gates = {}

    def library_op():
        return workload.library_op(sd, inputs)

    def check_library(out):
        gates.update(workload.check(out, ref))

    def check_cli(_):
        workload.check_cli(cli_out, ref)

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        cli_argv, cli_out = workload.cli_input(sd, inputs, workdir)
        if not trace:
            solve_op = partial(log.attempt, "solve", library_op, check_library)
            cli_op = partial(log.attempt, "cli", lambda: run_cli(cli_argv), check_cli)
            # set-up probes spread over the run like the other operations;
            # two tries of each operation per cycle, because the host's
            # speed changes within seconds and its fast windows are short
            ops = [partial(log.probe, "setup", lambda: probe_setup(workload.name, seed)),
                   solve_op, cli_op, solve_op, cli_op]
        else:
            from spans import Tracer
            from structdae import cli

            tracer = Tracer(sd)
            layers = []

            def traced(fn):
                def op():
                    with tracer.recording():
                        start = time.perf_counter()
                        out = fn()
                        return out, time.perf_counter() - start
                return op

            def check_traced(kind, check):
                def run(result):
                    out, wall = result
                    check(out)
                    summary = tracer.summary()
                    attributed = sum(v for k, v in summary.items() if k.endswith(".self_s"))
                    # at most the wall time by construction; well below it
                    # when the operation runs library code left unwrapped
                    if not MIN_ATTRIBUTED * wall <= attributed <= wall:
                        raise RuntimeError(f"layer self times {attributed:.6f} s cover "
                                           f"{attributed / wall:.1%} of the traced wall time "
                                           f"{wall:.6f} s, not {MIN_ATTRIBUTED:.0%} to 100%")
                    if kind == "cli":
                        summary["cli.output_bytes"] = cli_out.stat().st_size
                    layers.append((kind, summary, tracer.functions()))
                return run

            def cli_main():
                code = cli.main(cli_argv)
                if code != 0:
                    raise RuntimeError(f"cli.main returned {code}")

            ops = [partial(log.probe, "cli_import", probe_import),
                   partial(log.attempt, "traced_solve", traced(library_op),
                           check_traced("solve", check_library)),
                   partial(log.attempt, "solve", library_op, check_library),
                   partial(log.attempt, "traced_cli", traced(cli_main),
                           check_traced("cli", check_cli))]
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(ops) or time.perf_counter() < deadline:
            ops[i % len(ops)]()
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    s = log.samples
    functions = layers[-1][2] if trace and layers else None
    if not trace:
        # fastest operation: see "Timing on a shared host" in README.md
        metrics = {
            "solve_s": (stat(min, s.get("solve")), "s"),
            "cli_s": (stat(min, s.get("cli")), "s"),
            "setup_s": (stat(min, s.get("setup")), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        by_kind = {"solve": [], "cli": []}
        for kind, summary, _ in layers:
            by_kind[kind].append(summary)
        metrics = {}
        for key in PER_LAYER:
            kind = "cli" if key in ("cli.self_s", "cli.output_bytes") else "solve"
            unit = "s" if key.endswith("_s") else ("bytes" if key.endswith("_bytes") else "count")
            values = [summ[key] for summ in by_kind[kind]]
            # counts repeat exactly between operations; keep them whole
            middle = statistics.median if unit == "s" else statistics.median_low
            metrics[key] = (stat(middle, values), unit)
        metrics["cli.import_s"] = (stat(statistics.median, s.get("cli_import")), "s")
        traced_s = stat(statistics.median, s.get("traced_solve"))
        untraced_s = stat(statistics.median, s.get("solve"))
        metrics["trace.overhead_s"] = (
            traced_s - untraced_s if None not in (traced_s, untraced_s) else None, "s")

    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, **workload.record(inputs), "environment": environment(),
              "samples": s, "gates": gates, "errors": log.errors}
    if functions is not None:
        record["functions"] = functions
    return record, metrics, log


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None, workloads=None):
    args = parse_args(argv)
    if not (SRC / "structdae" / "__init__.py").is_file():
        print(f"error: no structdae sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import structdae as sd
    from workloads import WORKLOADS

    workload = (workloads or WORKLOADS)[args.workload]
    record, metrics, log = run_workload(workload, args.seed, args.seconds, args.trace, sd)
    correct = log.failed == 0
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
