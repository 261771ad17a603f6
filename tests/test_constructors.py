"""Rules kept in one place, read off the source.

Grid arrays become functions in one place: `structure._sampled` (the
constant or the cubic, Hermite when derivative samples are given).  Only
`matfun`, whose algebra builds its own results, calls the sampled
constructor otherwise.  A rank change is reported by one builder,
`factor._rank_changed`, and `structure.invert` takes Q's derivative from Q
itself, never from the transform's rebuilt `Qdot`.  Per-sample Frobenius
norms come from one helper, `structure._frobenius`, never from
`np.linalg.norm(..., axis=...)`."""

import ast
from pathlib import Path

import structdae

PACKAGE = Path(structdae.__file__).resolve().parent


def _nodes(path, match):
    """(enclosing function, line) of every node of the source that match
    accepts."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if match(child):
                found.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(path.read_text()), None)
    return found


def _calls(path, name):
    """(enclosing function, line) of every name(...) call, plain or dotted."""
    def match(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        return (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == name

    return _nodes(path, match)


def _sampled_constructor_calls(path):
    """(enclosing function, line) of every SampledMatrixFunction(...) call."""
    return _calls(path, "SampledMatrixFunction")


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


def test_one_builder_reports_a_rank_change():
    found = {path.name: [where for where, _ in _calls(path, "RankDropError")]
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: wheres for name, wheres in found.items() if wheres} == {
        "factor.py": ["_rank_changed"]}


def test_invert_reads_q_and_its_guard_alone():
    path = PACKAGE / "structure.py"
    qdot = _nodes(path, lambda node: isinstance(node, ast.Attribute) and node.attr == "Qdot")
    assert [line for where, line in qdot if where == "invert"] == []
    assert [where for where, _ in _calls(path, "check_nonsingular")].count("invert") == 1
    assert "invert" not in [where for where, _ in _calls(path, "_require_nonsingular")]


def _axis_norm_calls(path):
    """(enclosing function, line) of every linalg.norm(..., axis=...) call."""
    def match(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "norm" and any(k.arg == "axis" for k in node.keywords))

    return _nodes(path, match)


def test_per_sample_norms_come_from_one_helper():
    found = {path.name: _axis_norm_calls(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_the_norm_scan_sees_the_axis_keyword(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "def f(x):\n"
        "    return np.linalg.norm(x, axis=(1, 2)) + np.linalg.norm(x)\n"
        "y = linalg.norm(z, 2, axis=-1)\n"
    )
    assert _axis_norm_calls(src) == [("f", 2), (None, 3)]
