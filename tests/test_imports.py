"""Static guards on the package source: its imports, its public names and defaults,
and the one home of each idea it states once, one row of GUARDS per idea."""

import ast
import os
import re
import subprocess
import sys
from itertools import pairwise
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qnls"
SOURCES = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


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


# Public names that no package code calls, each with the reason it stays in
# the package.  The caller guard reads the top-level names of each module:
# functions, classes and constants, not methods.  The parameter guard reads
# the defaulted parameters of public top-level functions and the defaulted
# fields of public dataclasses, not those of methods; it exempts every
# parameter of a RESERVED function.
RESERVED = {
    "boundary.boundary_estimate_ratio":
        "the only caller of boundary's bourgain_norm import, which "
        "perfbench/tracing.IMPORTED_BINDINGS binds as boundary.bourgain_norm; "
        "it moves to tests/oracles.py once that binding is dropped (ROADMAP item 1)",
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
    assert _uncalled(SOURCES) == sorted(RESERVED)


# Defaulted parameters that no package call sets, each with its reason.
UNSET = {
    "cli.run_experiment.jobs": "item 1: perfbench/worker.py passes it",
    "cli.main.argv": "tests drive the command line through it",
    "ibvp.simulate.sources": "the seam of the manufactured-solution oracle",
    "ibvp.SolverConfig.nonlinearity_iters": "item 5: the sweep count becomes a cap",
}


def _defaulted(stmt) -> list[tuple[str, str, int | None]]:
    """(callee, parameter, position) of each parameter with a default that a
    top-level statement defines: of a public function, or a field of a public
    dataclass.  A keyword-only parameter has position None."""
    if getattr(stmt, "name", "_").startswith("_"):
        return []
    if isinstance(stmt, ast.FunctionDef):
        args = stmt.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        return ([(stmt.name, a.arg, k) for k, a in enumerate(positional) if k >= first]
                + [(stmt.name, a.arg, None)
                   for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])
    if isinstance(stmt, ast.ClassDef) and any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in stmt.decorator_list):
        fields = [f for f in stmt.body if isinstance(f, ast.AnnAssign)]
        return [(stmt.name, f.target.id, k) for k, f in enumerate(fields)
                if f.value is not None]
    return []


def _calls(stmt) -> list[tuple[str | None, int, set]]:
    """(callee name, positional arguments before any *args, keywords) of
    every call in a statement."""
    found = []
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            n_pos = next((k for k, a in enumerate(node.args) if isinstance(a, ast.Starred)),
                         len(node.args))
            found.append((name, n_pos, {k.arg for k in node.keywords}))
    return found


def _unset(sources: dict[str, str]) -> list[str]:
    """module.callee.parameter for each defaulted parameter that no call sets,
    by keyword or by position, outside the statement that defines it."""
    stmts = [(module, stmt) for module, source in sources.items()
             for stmt in ast.parse(source).body]
    calls = [_calls(stmt) for _, stmt in stmts]
    return sorted(f"{module}.{callee}.{param}" for i, (module, stmt) in enumerate(stmts)
                  for callee, param, pos in _defaulted(stmt)
                  if not any(name == callee and (param in keywords
                                                 or pos is not None and pos < n_pos)
                             for j, cs in enumerate(calls) if j != i
                             for name, n_pos, keywords in cs))


def test_the_guard_sees_a_default_only_its_definition_sets():
    sources = {"a": ("def f(x, k=1, *, m=2):\n    return f(x, k=2, m=3)\n"
                     "def g(x, y=0, z=0):\n    return x\n"
                     "def _h(x, y=0):\n    return x\n"
                     "@dataclass\nclass C:\n    p: int\n    q: int = 1\n    r: int = 2\n"),
               "b": ("from .a import C, g\nargs = (1, 2)\n"
                     "print(g(*args), g(1, 2), C(1, r=3), C(*args))\n")}
    assert _unset(sources) == ["a.C.q", "a.f.k", "a.f.m", "a.g.z"]


def test_every_optional_parameter_is_set_by_the_package():
    unset = [u for u in _unset(SOURCES) if u.rsplit(".", 1)[0] not in RESERVED]
    assert unset == sorted(UNSET)


# Each decision that depends on a, and each numerical idea, is stated once
# (ROADMAP aim 2): GUARDS gives each rule the exact sites that state it.


def _sites(module: str, source: str, rule) -> list[str]:
    """The qualified name of the function or class around each node ("module"
    outside any), once for every hit that rule(tree) reports at the node."""
    hits = rule(tree := ast.parse(source))
    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        yield from [where] * hits(node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)
    return list(visit(tree, module))


def _name(node) -> str | None:
    """The name an attribute (np.interp), a bare name or an imported name uses."""
    return (node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name)
            else node.name if isinstance(node, ast.alias) else None)


def _uses(*names):
    """A rule: each use of one of names."""
    return lambda tree: lambda node: _name(node) in names


def _a_vs_half(tree):
    """A rule: each comparison of a name `a` or an attribute `.a` with 0.5."""
    return lambda node: (sum(_name(u) == "a" and isinstance(w, ast.Constant) and w.value == 0.5
                             for x, y in pairwise([node.left] + node.comparators)
                             for u, w in ((x, y), (y, x)))
                         if isinstance(node, ast.Compare) else 0)


def _bindings(tree):
    """(name, value) of every assignment to a name, tuples unpacked item by item."""
    for node in ast.walk(tree):
        for target in node.targets if isinstance(node, ast.Assign) else ():
            pairs = (zip(target.elts, node.value.elts) if isinstance(target, ast.Tuple)
                     and isinstance(node.value, ast.Tuple) else [(target, node.value)])
            yield from ((t.id, v) for t, v in pairs if isinstance(t, ast.Name))


def _tracked(leaf):
    """A rule: each comparison operand that is a leaf, a name bound anywhere in the
    module to such an operand, an item of such a name, or a product with one."""
    def rule(tree):
        bindings, bound = list(_bindings(tree)), set()
        def hit(node) -> bool:
            base = node.value if isinstance(node, ast.Subscript) else node
            return (leaf(node) or isinstance(base, ast.Name) and base.id in bound
                    or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                    and (hit(node.left) or hit(node.right)))
        while not (new := {name for name, value in bindings if hit(value)}) <= bound:
            bound |= new
        return lambda node: (sum(map(hit, [node.left] + node.comparators))
                             if isinstance(node, ast.Compare) else 0)
    return rule


def _times(constant, factor=lambda node: True):
    """Whether a node is a product of the constant with a factor."""
    return lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and any(
        isinstance(x, ast.Constant) and x.value == constant and factor(y)
        for x, y in ((node.left, node.right), (node.right, node.left)))


def _radius(node) -> bool:
    """Whether node is the small ball's radius (2a - 1)/4, read back as source."""
    return isinstance(node, ast.expr) and bool(re.fullmatch(
        r"\(2(\.0)? \* (\w+\.)?a - 1(\.0)?\) / 4(\.0)?", ast.unparse(node)))


GUARDS = {
    "a-vs-half": (_a_vs_half, ["dispersion.classify_regime"] * 2),
    "radius-comparison": (_tracked(_radius), ["dispersion.outside_small_ball"] * 2),
    "radius-expression": (lambda tree: _radius, ["dispersion.outside_small_ball",
                                                 "dispersion.small_ball_edges"]),
    "interp": (_uses("interp"), ["grids._interp"] * 2),
    "fftfreq": (_uses("fftfreq"), ["spectral._xi_grid"]),
    "savetxt-writer": (_uses("savetxt", "writer"), ["grids.write_csv"]),
    "geterr-FloatingPointError": (_uses("geterr", "FloatingPointError"),
                                  ["errors.float_faults_raise"] * 2),
    "leggauss": (_uses("leggauss"), ["quadrature._gl"]),
    "five-percent": (_tracked(_times(0.05)), ["bilinear._tail_dominates"]),
    "twice-abs": (_tracked(_times(2, lambda y: isinstance(y, ast.Call) and _name(y.func) == "abs")),
                  ["bilinear._pieces.f"]),
}

_NAMES = ("import numpy as np\nfrom csv import writer\n"
          "def f(x):\n    return np.interp(x, x, x.real) + 1j * np.fft.fftfreq(4)\n"
          "class C:\n    def g(self, fh):\n        return writer(fh), np.savetxt\n")
# A source, module "m", and the sites each rule must see in it.
SEES = {
    "a-vs-half": ("def f(a, p):\n    if a == 0.5 or 0.5 < p.a:\n        return a < 0.5\n"
                  "    return 0 < a <= 0.5\n"
                  "class C:\n    def g(self, a, s):\n        return s != 0.5 and a - 0.5 > 0\n"
                  "X = [q for q in (1,) if q.a > 0.5]\n", ["m.f"] * 4 + ["m"]),
    "radius-comparison": (
        "def f(x, y, p):\n    c = (2.0 * p.a - 1.0) / 4.0\n    cy = c * abs(y)\n"
        "    return (x >= cy) | (abs(x) < y * c) | (c > 0) | (x > 2 * y)\ndef g(P, a):\n"
        "    c = (2 * a - 1) / 4\n    cP, h = c * abs(P), 0.5 * P\n    def k(r):\n"
        "        cPr = cP[r]\n        return (P[r] >= cP[r]) | (h[r] > 0) | (P[r] < cPr)\n"
        "    return k\n", ["m.f"] * 3 + ["m.g.k"] * 2),
    "radius-expression": (
        "c = (2 * a - 1) / 4\ndef f(p):\n"
        "    return 3 * ((2.0 * p.a - 1.0) / 4.0) + (2 * p.a - 1) / 2\nclass C:\n"
        "    def g(self, a):\n        return [(2 * a - 1.0) / 4 for _ in a]\n",
        ["m", "m.f", "m.C.g"]),
    "interp": (_NAMES, ["m.f"]),
    "fftfreq": (_NAMES, ["m.f"]),
    "savetxt-writer": (_NAMES, ["m", "m.C.g", "m.C.g"]),
    "geterr-FloatingPointError": ("from numpy import geterr\ndef f(np):\n"
                                  "    return np.geterr() or FloatingPointError\n",
                                  ["m", "m.f", "m.f"]),
    "leggauss": ("from numpy.polynomial.legendre import leggauss\nclass R:\n    def gl(self, n):\n"
                 "        return np.polynomial.legendre.leggauss(n)\n", ["m", "m.R.gl"]),
    "five-percent": ("def f(t, v):\n    if t > 0.05 * max(abs(v), 1e-300):\n        return 1\n"
                     "    return [k for k in t if 2 * (v * 0.05) < k], max(t, 0.05), t > 0.5 * v\n",
                     ["m.f"] * 2),
    "twice-abs": ("import numpy as np\ndef f(P, Q, q):\n    lhs, k = 2 * np.abs(Q + P * P), 3\n"
                  "    def g(r, y):\n        return (lhs[r] >= np.abs(y)) | (2.0 * abs(q) < y)\n"
                  "    return g, np.abs(q) <= abs(P) * 2, q > 2 * P, k > 1\n"
                  "class C:\n    def h(self, x):\n        return [2 * np.abs(v) for v in x if v]\n",
                  ["m.f.g", "m.f.g", "m.f"]),
}


def test_every_guard_has_one_example():
    assert sorted(SEES) == sorted(GUARDS)


@pytest.mark.parametrize("rule", list(SEES))
def test_the_guard_sees(rule):
    source, sites = SEES[rule]
    assert _sites("m", source, GUARDS[rule][0]) == sites


@pytest.mark.parametrize("rule", list(GUARDS))
def test_each_idea_has_one_home(rule):
    check, sites = GUARDS[rule]
    assert [site for module, source in SOURCES.items()
            for site in _sites(module, source, check)] == sites
