"""The package imports numpy only; scipy loads only for the not-a-knot slopes
of time-varying reduced cores and for the QZ dimension oracle."""

import os
import subprocess
import sys
from pathlib import Path

import structdae

SRC = str(Path(structdae.__file__).resolve().parent.parent)


def _python(code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_import_loads_no_scipy(tmp_path):
    loaded = _python(
        "import sys, structdae, structdae.cli\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        tmp_path,
    )
    assert loaded == []


def _scipy_modules_after_simulate(cwd, demo_args):
    """scipy modules loaded by one CLI `simulate --input sin --flow` of a demo circuit."""
    return _python(
        "import sys\n"
        "from structdae.cli import main\n"
        f"assert main(['demo', 'circuit', *{demo_args!r}, '--out', 'm.json']) == 0\n"
        "assert main(['simulate', '--model', 'm.json', '--x0', '1,0,0,0,0', '--steps', '200',\n"
        "             '--input', 'sin', '--flow', '--out', 'traj.csv']) == 0\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        cwd,
    )


def test_cli_simulate_loads_no_scipy_interpolate(tmp_path):
    # the lossless circuit reduces to constant data: no scipy module at all
    assert _scipy_modules_after_simulate(tmp_path, []) == []
    assert (tmp_path / "traj.csv").stat().st_size > 0


def test_cli_simulate_dissipative_circuit_loads_no_scipy(tmp_path):
    # resistors route the model through index1_reduce
    demo = ["--RL", "0.3", "--RG", "0.2", "--RR", "0.5"]
    assert _scipy_modules_after_simulate(tmp_path, demo) == []
    assert (tmp_path / "traj.csv").stat().st_size > 0


def _scipy_modules_after_canonical(cwd, demo_args, canonical_args):
    """scipy modules loaded by one CLI `canonical` run on a demo model."""
    return _python(
        "import sys\n"
        "from structdae.cli import main\n"
        f"assert main(['demo', *{demo_args!r}, '--out', 'm.json']) == 0\n"
        f"assert main(['canonical', '--model', 'm.json', *{canonical_args!r},\n"
        "             '--out', 'form.json']) == 0\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        cwd,
    )


def test_cli_canonical_loads_no_scipy(tmp_path):
    runs = [
        (["multibody"], ["--structure", "self"]),
        (["multibody", "--form", "skew"], ["--structure", "skew", "--emit-transform"]),
        (["ocp"], ["--structure", "self"]),
    ]
    for demo_args, canonical_args in runs:
        assert _scipy_modules_after_canonical(tmp_path, demo_args, canonical_args) == []
        assert (tmp_path / "form.json").stat().st_size > 0
