"""Every name a package module imports is used in that module, no module
imports the scipy subpackages that cost every command its start-up, and
every public name of the package has a caller in the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qnls"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names re-exported through __all__ count as used
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


# each costs every command about 0.5 s of import time; numpy does the work
_SLOW = ("scipy.integrate", "scipy.signal")
# numpy.fft does scipy.fft's work; scipy.special is loaded only by the
# commands that build a boundary field, inside the function that needs it
_NEVER, _IN_FUNCTIONS = ("scipy.fft",), ("scipy.special",)


def _imported(nodes) -> set[str]:
    """The scipy.x level of every module the import statements among nodes name."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found.update(".".join(m.split(".")[:2]) for m in modules)
    return found


def _at_import(tree):
    """Every node that runs when the module is imported: all but function bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _slow_imports(source: str) -> list[str]:
    """Every scipy.integrate or scipy.signal import, at any depth of the module."""
    return sorted(_imported(ast.walk(ast.parse(source))) & set(_SLOW))


def _start_up_imports(source: str) -> list[str]:
    """Every scipy.fft import, and every scipy.special import that runs on import."""
    tree = ast.parse(source)
    return sorted((_imported(ast.walk(tree)) & set(_NEVER))
                  | (_imported(_at_import(tree)) & set(_IN_FUNCTIONS)))


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import numpy as np\nfrom .errors import A, B\nA()\n") == \
        ["B", "np"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_guard_sees_a_slow_import_inside_a_function():
    source = ("import scipy.fft\nfrom scipy import integrate\n"
              "def f():\n    from scipy.signal import fftconvolve\n    import scipy.integrate\n")
    assert _slow_imports(source) == ["scipy.integrate", "scipy.signal"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_integrate_or_signal(path):
    assert _slow_imports(path.read_text()) == []


def test_the_guard_sees_scipy_fft_anywhere_and_scipy_special_on_import():
    source = ("from scipy import fft\nclass C:\n    import scipy.special\n"
              "def f():\n    from scipy.special import fresnel\n")
    assert _start_up_imports(source) == ["scipy.fft", "scipy.special"]
    assert _start_up_imports("def f():\n    from scipy.special import fresnel\n"
                             "    import scipy.fft as sp_fft\n") == ["scipy.fft"]
    assert _start_up_imports("def f():\n    from scipy.special import fresnel\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_loads_scipy_fft_or_special_on_import(path):
    assert _start_up_imports(path.read_text()) == []


@pytest.mark.parametrize("command", ["region-map", "j-sweep"])
def test_import_and_command_leave_slow_scipy_subpackages_unloaded(command, tmp_path):
    # each costs every command tens of ms of start-up or more; neither
    # command builds a boundary field, so neither needs scipy.special
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    slow = _SLOW + _NEVER + _IN_FUNCTIONS
    code = ("import sys, qnls.cli\n"
            f"def loaded():\n    return [m for m in {slow!r} if m in sys.modules]\n"
            "print(loaded())\n"
            f"qnls.cli.run_experiment({command!r}, {{}}, 0, {str(tmp_path)!r})\n"
            "print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", ""]


# Public names that no package code calls yet, each kept for the open
# ROADMAP item that will call it.  The guard reads top-level names only:
# methods and dataclass fields are not covered.
RESERVED = {
    "boundary.pde_residual": "item 3: the oracle of the Laplace-domain evaluator",
    "boundary.boundary_estimate_ratio": "item 9: contraction evidence in the paper's norms",
    "spectral.smoothing_ratio": "item 12: the Duhamel-trace command",
    "spectral.inhomog_estimate_ratio": "item 12: the Duhamel-trace command",
}


def _defined(stmt) -> list[str]:
    """The public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def _referred(stmt) -> set[str]:
    """Every name a statement reads: a Name, an Attribute or an imported alias."""
    found = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def _uncalled(sources: dict[str, str]) -> list[str]:
    """module.name for each public top-level name that no statement reads
    outside the one that defines it, in any of the modules."""
    stmts = [(module, stmt) for module, source in sources.items()
             for stmt in ast.parse(source).body]
    reads = [_referred(stmt) for _, stmt in stmts]
    return sorted(f"{module}.{name}" for i, (module, stmt) in enumerate(stmts)
                  for name in _defined(stmt)
                  if not any(name in r for j, r in enumerate(reads) if j != i))


def test_the_guard_sees_a_name_only_its_definition_reads():
    sources = {"a": "def f():\n    return f()\nX = 1\nclass C:\n    y = X\n",
               "b": "from .a import C\nZ: int = 2\nP, Q = 3, 4\nprint(Q)\n"}
    assert _uncalled(sources) == ["a.f", "b.P", "b.Z"]


def test_every_public_name_has_a_program_caller():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _uncalled(sources) == sorted(RESERVED)
