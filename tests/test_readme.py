"""The README's Library tour and Command line block run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import structdae

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading, lang):
    """The first ```lang block under the README's ## heading."""
    text = README.read_text()
    section = text[text.index(f"## {heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _run(argv, cwd):
    paths = [str(Path(structdae.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)


def test_library_tour_runs(tmp_path):
    proc = _run([sys.executable, "-c", _block("Library tour", "python")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "skew_adjoint" in proc.stdout
    assert "3 0" in proc.stdout.splitlines()


def test_command_line_block_runs(tmp_path):
    lines = [line for line in _block("Command line", "sh").splitlines() if line.strip()]
    assert lines
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "struct-dae"
        proc = _run([sys.executable, "-m", "structdae.cli", *argv[1:]], tmp_path)
        assert proc.returncode == 0, f"{line}: {proc.stderr}"
