"""Every module-level function and class in the package has a caller, so
does every method of a package class, and every name a package module
imports is used by that module.  The test references live in
tests/reference.py and nowhere in the package."""

import ast
from collections import Counter
from pathlib import Path

import twistedmaps
from twistedmaps import oracle

SRC = Path(twistedmaps.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"

# no package code calls act_quad; perfbench's oracle.act_quad_us probe
# reads it, so it stays in the package for as long as that probe does.
# Nor class_quads, since orbit_partition scans the log grid itself: the
# tests and perfbench/probes.py, which samples quads from it, read it
NO_SRC_CALLER = {"act_quad", "class_quads"}

# no package code calls these methods; each stays for the reader named
UNCALLED_METHODS = {
    # tests, the field-tower demo and the planned subfield-embedding level
    "Field.embed_from": TESTS.parent / "demos" / "field_tower.py",
    # the reference order by repeated products stops on it
    "TwElem.is_identity": TESTS / "reference.py",
}

# perfbench wraps these oracle attributes, though the package dropped them;
# their metrics read 0
GONE_STAGES = {"is_reflexible", "self_duality", "order"}


def _sources(root=SRC):
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(root.glob("*.py"))}


def _defs(code):
    """Names of the module-level functions and classes in code."""
    return {node.name for node in ast.parse(code).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def _forked(sources, reference):
    """Module-level defs of the reference code that sources ({file: code})
    also define."""
    return _defs(reference) & set().union(*map(_defs, sources.values()))


def _imported_modules(code):
    """Top-level names of the modules that code imports from."""
    out = set()
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module.split(".")[0])
    return out


def _oracle_reads(sources):
    """Attribute names that sources ({file: code}) read as oracle.<name>."""
    return {n.attr for code in sources.values()
            for n in ast.walk(ast.parse(code))
            if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "oracle"}


def _traced_oracle_names(code):
    """Names in ORACLE_STAGES and the keys of ORACLE_IMPORTS, as assigned
    at the top level of code (perfbench/spans.py)."""
    values = {t.id: node.value for node in ast.parse(code).body
              if isinstance(node, ast.Assign) for t in node.targets}
    return (set(ast.literal_eval(values["ORACLE_STAGES"]))
            | set(ast.literal_eval(values["ORACLE_IMPORTS"])))


def _reads(node):
    """How often node reads each name, as a name or an attribute."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
    return out


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
            used |= set(_reads(node)) - {owner}
    return defined - used - set(twistedmaps.__all__)


def _uncalled_methods(sources):
    """"Class.method" for each non-dunder method of a module-level class of
    sources ({file: code}) that no code other than its own body names."""
    trees = [ast.parse(code) for code in sources.values()]
    reads = sum(map(_reads, trees), Counter())
    return {"%s.%s" % (cls.name, m.name)
            for tree in trees for cls in tree.body
            if isinstance(cls, ast.ClassDef) for m in cls.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not m.name.startswith("__")
            and reads[m.name] == _reads(m)[m.name]}


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


def test_every_package_method_has_a_caller():
    assert _uncalled_methods(_sources()) == set(UNCALLED_METHODS)


def test_guard_flags_a_method_left_without_a_caller():
    sources = _sources()
    sources["twisted_group.py"] = sources["twisted_group.py"].replace(
        "    def inv(self):\n",
        "    def square(self):\n"
        "        return self.square() if self.i else self * self\n\n"
        "    def inv(self):\n", 1)
    assert _uncalled_methods(sources) == set(UNCALLED_METHODS) | {
        "TwElem.square"}


def test_each_allowlisted_method_is_read_by_its_reader():
    for name, path in UNCALLED_METHODS.items():
        code = path.read_text(encoding="utf-8")
        assert _reads(ast.parse(code))[name.split(".")[1]], name


def test_each_allowlisted_name_is_read_by_perfbench():
    assert NO_SRC_CALLER <= _oracle_reads(_sources(PERFBENCH))


def test_no_test_reference_is_forked_into_the_package():
    reference = (TESTS / "reference.py").read_text(encoding="utf-8")
    sources = _sources()
    assert _defs(reference) and _forked(sources, reference) == set()
    for code in sources.values():
        assert not _imported_modules(code) & {"reference", "tests"}


def test_guard_flags_a_reference_copied_back_into_the_package():
    reference = (TESTS / "reference.py").read_text(encoding="utf-8")
    sources = _sources()
    sources["twisted_group.py"] += ("\n\ndef naive_order(x, cap=10 ** 6):\n"
                                    "    return cap\n")
    assert _forked(sources, reference) == {"naive_order"}


def test_every_package_import_is_used():
    assert _unused_imports(_sources()) == set()


def test_guard_flags_an_import_left_without_a_use():
    sources = _sources()
    sources["gfield.py"] = sources["gfield.py"].replace(
        "from .numth import ", "from .numth import is_prime, ", 1)
    assert _unused_imports(sources) == {("gfield.py", "is_prime")}


def test_every_traced_stage_is_an_oracle_attribute():
    # perfbench skips a name the oracle lacks, so a renamed stage would
    # silently read 0 in its per-layer metrics
    spans = (PERFBENCH / "spans.py").read_text(encoding="utf-8")
    names = _traced_oracle_names(spans)
    assert GONE_STAGES <= names
    assert {n for n in names if not hasattr(oracle, n)} == GONE_STAGES
