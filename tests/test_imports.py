"""The package imports numpy only; scipy loads where a LAPACK kernel is used."""

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


def test_cli_simulate_loads_no_scipy_interpolate(tmp_path):
    out = _python(
        "import sys\n"
        "from structdae.cli import main\n"
        "assert main(['demo', 'circuit', '--out', 'm.json']) == 0\n"
        "assert main(['simulate', '--model', 'm.json', '--x0', '1,0,0,0,0', '--steps', '200',\n"
        "             '--input', 'sin', '--flow', '--out', 'traj.csv']) == 0\n"
        "print('scipy.interpolate' in sys.modules)",
        tmp_path,
    )
    assert out == ["False"]
    assert (tmp_path / "traj.csv").stat().st_size > 0
