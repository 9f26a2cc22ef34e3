"""Every module-level function and class in the package has a caller."""

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
