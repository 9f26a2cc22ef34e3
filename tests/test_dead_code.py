"""Every module-level function and class in the package has a caller, and
every name a package module imports is used by that module."""

import ast
from pathlib import Path

import twistedmaps

SRC = Path(twistedmaps.__file__).resolve().parent

# test and demo references that live in the package until they move out
NO_SRC_CALLER = {"act_quad", "brute_reflexible", "is_reflexible",
                 "self_duality", "all_group_elements", "naive_order"}


def _sources():
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(SRC.glob("*.py"))}


def _uncalled(sources):
    """Module-level functions and classes of sources ({file: code}) that no
    code other than their own body names, as a name or an attribute."""
    defined, used = set(), set()
    for code in sources.values():
        for node in ast.parse(code).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                owner = node.name
                defined.add(owner)
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    name = n.id
                elif isinstance(n, ast.Attribute):
                    name = n.attr
                else:
                    continue
                if name != owner:
                    used.add(name)
    return defined - used - set(twistedmaps.__all__)


def _unused_imports(sources):
    """(file, name) for each name a module of sources ({file: code})
    imports and never reads; a name in the module's __all__ is read."""
    out = set()
    for path, code in sources.items():
        tree = ast.parse(code)
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {(a.asname or a.name).split(".")[0]
                             for a in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["__all__"]):
                used |= set(ast.literal_eval(node.value))
        out |= {(path, name) for name in imported - used}
    return out


def test_every_package_def_has_a_caller():
    assert _uncalled(_sources()) == NO_SRC_CALLER


def test_guard_flags_a_quad_helper_left_without_a_caller():
    for stale in ("def pair_quad(F, cls, x):\n"
                  "    return matrix_quad(F, cls, x.matrix)\n",
                  "def _order4_partner(F, cls, quad):\n"
                  "    return _order4_partner(F, cls, quad[::-1])\n"):
        sources = _sources()
        sources["oracle.py"] += "\n\n" + stale
        name = stale[4:stale.index("(")]
        assert _uncalled(sources) == NO_SRC_CALLER | {name}


def test_every_package_import_is_used():
    assert _unused_imports(_sources()) == set()


def test_guard_flags_an_import_left_without_a_use():
    sources = _sources()
    sources["gfield.py"] = sources["gfield.py"].replace(
        "from .numth import ", "from .numth import is_prime, ", 1)
    assert _unused_imports(sources) == {("gfield.py", "is_prime")}
