"""The package imports nothing at run time but the standard library and numpy,
ships no code that only tests call, and its README examples run.

numpy is its only runtime dependency; mpmath and the other test tools may
appear in tests only.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kedlaya"
ALLOWED = sys.stdlib_module_names | {"numpy", "kedlaya"}


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not `from . import`
            yield node.module


def test_runtime_imports_are_the_stdlib_numpy_or_the_package():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = [f"{path.name}: {name}" for path in files for name in _imported_modules(path)
               if name.split(".")[0] not in ALLOWED]
    assert outside == []


# ---------------------------------------------------------------------------
# Every library definition has a caller
# ---------------------------------------------------------------------------

# The one allow-list: definitions that no file of this repository calls, each
# with the user who calls it.
USERS = {
    "MeanHandle.custom_deviation":
        "a caller with a deviation E(x, y) of their own: the only way to build its mean",
    "MeanHandle.homogeneous_deviation":
        "a caller with an f of their own: the only way to build its homogeneous deviation mean",
}
CALLER_DIRS = ("demos", "bench", "perfbench")
# perfbench/tracing.py wraps library functions by name, through getattr, so an
# identifier string there reads the function it names (ROADMAP item 7 moves
# the names only the tracer reads out of the library).
BY_NAME = ("perfbench",)
_PROPERTIES = {"property", "cached_property"}
_UNSET = object()


def _readme_blocks(language: str) -> list:
    """The fenced code blocks of README.md tagged ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```", (ROOT / "README.md").read_text(),
                      re.M | re.S)


class _Library:
    """The definitions of the package: each module-level function and class,
    and each public method of a module-level class, by qualified name."""

    def __init__(self, sources: dict):
        self.defs, self.classes, self.functions = {}, {}, {}
        self.modules = {Path(name).stem for name in sources}
        for name, text in sources.items():
            for node in ast.parse(text, name).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    assert node.name not in self.defs, node.name  # one definition a name
                    self.defs[node.name] = (name, node)
                if isinstance(node, ast.FunctionDef):
                    self.functions[node.name] = node
                elif isinstance(node, ast.ClassDef):
                    self.classes[node.name] = node
                    self.defs.update((f"{node.name}.{item.name}", (name, item))
                                     for item in node.body if isinstance(item, ast.FunctionDef)
                                     and not item.name.startswith("_"))

    def mro(self, cls: str):
        yield cls
        for base in self.classes[cls].bases:
            if isinstance(base, ast.Name) and base.id in self.classes:
                yield from self.mro(base.id)

    def member(self, cls: str, attr: str):
        """``(qualified name or None, type)`` of ``attr`` read on ``cls`` or
        an instance of it: a method, property or annotated field."""
        for c in self.mro(cls):
            for item in self.classes[c].body:
                if isinstance(item, ast.AnnAssign) and getattr(item.target, "id", None) == attr:
                    return None, self.annotation(item.annotation)
                if isinstance(item, ast.FunctionDef) and item.name == attr:
                    qual = f"{c}.{attr}" if f"{c}.{attr}" in self.defs else None
                    if {getattr(d, "id", None) for d in item.decorator_list} & _PROPERTIES:
                        return qual, self.annotation(item.returns)
                    return qual, ("func", item)
        return None, None

    def annotation(self, node):
        """The type an annotation names, where it names a library class."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self.annotation(ast.parse(node.value, mode="eval").body)
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "Optional":
            return self.annotation(node.slice)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):  # X | None
            return self.annotation(node.left) or self.annotation(node.right)
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        return ("inst", name) if name in self.classes else None

    def named(self, name: str):
        if name in self.classes:
            return "cls", name
        if name in self.functions:
            return "func", self.functions[name]
        return None


class _Reader(ast.NodeVisitor):
    """The definitions one file reads, with the line of each read.

    A method is read through its receiver's class where that is known: a
    class, ``self`` or ``cls``, an annotated parameter or field, or a name
    bound once to a call whose result is annotated.  A read on a receiver of
    unknown class reads every method of that name.
    """

    def __init__(self, lib: _Library, by_name: bool):
        self.lib, self.by_name = lib, by_name
        self.env, self.cls = {}, None
        self.reads = []  # (qualified name, line)

    def read(self, tree: ast.Module) -> list:
        self.env = self._bindings(tree.body, {})
        self.visit(tree)
        return self.reads

    def type_of(self, node):
        if isinstance(node, ast.Name):
            t = self.env.get(node.id, _UNSET)
            return self.lib.named(node.id) if t is _UNSET else t
        if isinstance(node, ast.Attribute):
            t = self.type_of(node.value)
            if t == ("mod",):
                return ("mod",) if node.attr in self.lib.modules else self.lib.named(node.attr)
            return self.lib.member(t[1], node.attr)[1] if t and t[0] in ("inst", "cls") else None
        if isinstance(node, ast.Call):
            t = self.type_of(node.func)
            if t and t[0] == "cls":
                return "inst", t[1]
            return self.lib.annotation(t[1].returns) if t and t[0] == "func" else None
        return None

    def _bindings(self, body: list, env: dict) -> dict:
        """``env`` with the names ``body`` binds outside nested scopes: a
        module's imported library modules, and names assigned one type."""
        env, seen = dict(env), set()
        stack = list(body)
        while stack:
            node = stack.pop(0)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            pairs = []
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                pairs = [(a.asname or a.name.split(".")[0], ("mod",)) for a in node.names
                         if a.name.split(".")[-1] in self.lib.modules | {"kedlaya"}]
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                    pairs = list(zip(target.elts, value.elts))
                else:
                    pairs = [(target, value)]
                self.env = env
                pairs = [(t.id, self.type_of(v)) for t, v in pairs if isinstance(t, ast.Name)]
            for name, t in pairs:
                env[name] = t if name not in seen or env.get(name) == t else None
                seen.add(name)
            stack[:0] = list(ast.iter_child_nodes(node))
        return env

    def visit_ClassDef(self, node):
        outer, self.cls = self.cls, node.name
        self.generic_visit(node)
        self.cls = outer

    def visit_FunctionDef(self, node):
        outer, cls = self.env, self.cls
        env = dict(outer)
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        for a in args + [node.args.vararg, node.args.kwarg]:
            if a is not None:
                env[a.arg] = self.lib.annotation(a.annotation)
        if cls in self.lib.classes and args:
            decorators = {getattr(d, "id", None) for d in node.decorator_list}
            if "staticmethod" not in decorators:
                env[args[0].arg] = ("cls" if "classmethod" in decorators else "inst", cls)
        self.cls = None  # a nested definition's first argument is no receiver
        self.env = self._bindings(node.body, env)
        self.generic_visit(node)
        self.env, self.cls = outer, cls

    def visit_Lambda(self, node):
        outer = self.env
        self.env = dict(outer, **{a.arg: None for a in node.args.args})
        self.generic_visit(node)
        self.env = outer

    def visit_Name(self, node):
        if (isinstance(node.ctx, ast.Load) and node.id in self.lib.defs
                and self.env.get(node.id, _UNSET) is _UNSET):
            self.reads.append((node.id, node.lineno))

    def visit_Constant(self, node):
        if self.by_name and isinstance(node.value, str) and node.value in self.lib.functions:
            self.reads.append((node.value, node.lineno))

    def visit_Attribute(self, node):
        t = self.type_of(node.value)
        if t and t[0] in ("inst", "cls"):
            qual = self.lib.member(t[1], node.attr)[0]
            self.reads += [(qual, node.lineno)] if qual else []
        else:  # a module, or a receiver of unknown class
            self.reads += [(q, node.lineno) for q in self.lib.defs
                           if q == node.attr or (t is None and q.endswith(f".{node.attr}"))]
        self.generic_visit(node)


def _uncalled(sources: dict, callers: dict, by_name=()) -> set:
    """The definitions of the package ``sources`` (file name -> text) that
    neither its own files, outside the definition's body, nor ``callers``
    (file name -> text) read; a caller file whose name starts with one of
    ``by_name`` also reads a function through a string of its name."""
    lib = _Library(sources)
    called = set()
    for name, text in {**sources, **callers}.items():
        reader = _Reader(lib, name.startswith(by_name))
        for qual, line in reader.read(ast.parse(text, name)):
            path, node = lib.defs[qual]
            if path != name or not node.lineno <= line <= node.end_lineno:
                called.add(qual)
    return set(lib.defs) - called


def test_every_library_definition_has_a_caller():
    # a function, class or public method that only tests call belongs in tests/
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = {str(p.relative_to(ROOT)): p.read_text()
               for d in CALLER_DIRS for p in sorted((ROOT / d).glob("*.py"))
               if not p.name.startswith("test_")}
    callers.update((f"README.md[{i}]", block)
                   for i, block in enumerate(_readme_blocks("python")))
    uncalled = _uncalled(sources, callers, BY_NAME)
    assert sorted(uncalled - set(USERS)) == []
    # a definition that gains a caller here leaves the allow-list
    assert set(USERS) <= uncalled


class TestGuard:
    """The guard's resolution rules, on a package of two modules."""

    LIB = {"a.py": "class A:\n    def contains(self, v): return v\n"
                   "    def size(self) -> int: return 1\n"
                   "    def twice(self): return self.size() * 2\n"
                   "class B:\n    def contains(self, v): return v\n"
                   "def make() -> 'A': return A()\n"
                   "def alone(): return alone()\n",
           "b.py": "from a import A\ndef use(a: A): return a.contains(1)\n"}

    def test_a_method_read_on_a_known_class_calls_that_class_only(self):
        # a.contains is A's, self.size is A's, and alone only calls itself
        assert _uncalled(self.LIB, {}) == {"A.twice", "B", "B.contains", "make", "alone", "use"}

    def test_a_result_annotation_types_a_name_and_an_unknown_receiver_calls_all(self):
        callers = {"demo.py": "from a import make\nm = make()\nm.twice()\n"
                              "def f(x):\n    return x.contains(2)\n"}
        assert _uncalled(self.LIB, callers) == {"B", "alone", "use"}

    def test_names_in_strings_are_read_only_in_the_named_callers(self):
        callers = {"trace.py": "getattr(mod, 'alone')\n"}
        assert "alone" in _uncalled(self.LIB, callers)
        assert "alone" not in _uncalled(self.LIB, callers, ("trace",))


# ---------------------------------------------------------------------------
# The README's examples run
# ---------------------------------------------------------------------------

def _commented_values(comment: str) -> list:
    """The literal values of a comment such as ``1.5, 1.5811..., 0.08...``:
    ``(text, exact)`` pairs, where a number ending in ``...`` is a prefix of
    its value's digits.  A comment that is not such a list gives none."""
    items = [item.strip() for item in comment.split(",")]
    for item in items:
        try:
            ast.literal_eval(item.removesuffix("..."))
        except (ValueError, SyntaxError):
            return []
    return [(item.removesuffix("..."), not item.endswith("...")) for item in items]


def test_readme_python_blocks_run_and_give_their_commented_values():
    # the guard counts these blocks as callers, so each must run
    checked = {}
    for block in _readme_blocks("python"):
        namespace = {}
        for node in ast.parse(block).body:
            code = ast.get_source_segment(block, node)
            if not isinstance(node, ast.Expr):
                exec(code, namespace)
                continue
            value = eval(code, namespace)
            expected = _commented_values(block.splitlines()[node.lineno - 1].partition("#")[2])
            if not expected:
                continue
            got = value if isinstance(value, tuple) else (value,)
            assert len(got) == len(expected), code
            for v, (text, exact) in zip(got, expected):
                if exact:
                    assert v == ast.literal_eval(text), code
                else:
                    assert repr(v).startswith(text), code
            checked[code] = got
    # the quick start's lhs 1.5, rhs 1.5811..., gap 0.0811... and verdict
    assert checked["report.lhs, report.rhs, report.gap"][0] == 1.5
    assert checked["report.verdict"] == ("holds",)
