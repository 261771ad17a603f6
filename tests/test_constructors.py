"""Grid arrays become functions in one place: `structure._sampled` (the
constant or the cubic, Hermite when derivative samples are given).  Only
`matfun`, whose algebra builds its own results, calls the sampled
constructor otherwise."""

import ast
from pathlib import Path

import structdae

PACKAGE = Path(structdae.__file__).resolve().parent


def _sampled_constructor_calls(path):
    """(enclosing function, line) of every SampledMatrixFunction(...) call."""
    calls = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "SampledMatrixFunction":
                    calls.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(path.read_text()), None)
    return calls


def test_only_sampled_turns_grid_arrays_into_functions():
    found = {path.name: _sampled_constructor_calls(path)
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "matfun.py"}
    assert [where for where, _ in found.pop("structure.py")] == ["_sampled"]
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_the_scan_sees_every_form_of_the_call(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "def f(g, v):\n"
        "    return mf.SampledMatrixFunction(g, v)\n"
        "x = SampledMatrixFunction(1, 2)\n"
        "class C:\n"
        "    def m(self):\n"
        "        return [structdae.matfun.SampledMatrixFunction(g, v, deriv_values=d)]\n"
    )
    assert _sampled_constructor_calls(src) == [("f", 2), (None, 3), ("m", 6)]
