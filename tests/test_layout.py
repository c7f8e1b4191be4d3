"""Module boundaries of the package, read from its source with `ast`.

- P and Q are private to `characteristics` (and the antiderivatives of
  `quadrature`): no other module reads a trace context's P or Q, or imports
  a private name from `characteristics`.  Other modules take what they need
  through its public functions (`xi`, `carry`, `flow_stretch`, the origin
  solvers), so the way P and Q are stored can change in those two files
  alone.
- The die balance g and its partials are written once, in `model`: no other
  module reads the die constants K_d or B.
"""

import ast
from pathlib import Path

import extrusim

PACKAGE = Path(extrusim.__file__).resolve().parent
PQ_ATTRIBUTES = {"_P", "_Q", "_PQ", "_P_nodes", "_Q_nodes"}
PQ_OWNERS = {"characteristics.py", "quadrature.py"}
DIE_CONSTANTS = {"K_d", "B"}


def parsed_modules(package: Path = PACKAGE):
    for path in sorted(package.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def pq_reads(package: Path = PACKAGE) -> list:
    """(module, line, what) of every P or Q access outside its owners."""
    found = []
    for name, tree in parsed_modules(package):
        if name in PQ_OWNERS:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in PQ_ATTRIBUTES:
                found.append((name, node.lineno, f".{node.attr}"))
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("characteristics"):
                found += [(name, node.lineno, f"import {alias.name}")
                          for alias in node.names if alias.name.startswith("_")]
    return sorted(found)


def die_constant_reads(package: Path = PACKAGE) -> list:
    """(module, line, attribute) of every K_d or B access outside `model`."""
    return sorted(
        (name, node.lineno, node.attr)
        for name, tree in parsed_modules(package)
        if name != "model.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in DIE_CONSTANTS
    )


def test_the_package_is_found():
    names = {name for name, _ in parsed_modules()}
    assert {"characteristics.py", "control.py", "lintransport.py", "model.py",
            "wellposed.py"} <= names


def test_p_and_q_stay_inside_characteristics():
    assert pq_reads() == []


def test_die_balance_constants_stay_inside_model():
    assert die_constant_reads() == []


def test_the_checks_see_each_kind_of_access(tmp_path):
    (tmp_path / "model.py").write_text("k = params.K_d * params.B\n")
    (tmp_path / "user.py").write_text(
        "from .characteristics import _xi_from, xi\n"
        "g = params.K_d\n"
        "p0 = ctx._PQ(0.0)[0]\n"
        "ctx._P_nodes[1] = 0.0\n"
    )
    assert pq_reads(tmp_path) == [
        ("user.py", 1, "import _xi_from"),
        ("user.py", 3, "._PQ"),
        ("user.py", 4, "._P_nodes"),
    ]
    assert die_constant_reads(tmp_path) == [("user.py", 2, "K_d")]
