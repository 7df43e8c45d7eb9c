"""Every top-level definition in ``src/delpezzo`` is reached from what users run.

The roots are ``cli.main`` and ``cli.run`` (the ``acm`` console script and
``python -m delpezzo.cli``), the names that ``scripts/*.py`` import, and the
functions the benchmark tracer wraps (``SPANS`` and ``COUNTS`` of
``bench/tracing.py``).  A name that ``delpezzo.__all__`` lists is no root:
exporting a name is no use of it, so a public name needs a user path too.
A definition reaches each package name its body mentions: a bare name bound
in its module, by a definition or a relative import, or ``m.name`` for a
package module ``m`` imported with ``from . import m``.  Module-level
statements that define nothing run at import, so the names they mention are
roots as well.  The graph is read with ``ast``; nothing is imported.  Code
that only the tests reach belongs in the tests (``tests/paper_values.py``),
not in the package.  Under ``tests/`` every top-level helper must be used by
another statement, so a retired test leaves no orphaned oracle or sample
behind.
"""

import ast
from pathlib import Path

from test_tracer_contract import traced_names

ROOT = Path(__file__).parent.parent
PACKAGE = "delpezzo"
PACKAGE_DIR = ROOT / "src" / PACKAGE
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)


def module_sources(directory):
    """{module: source} for each module in ``directory``, ``__init__`` included."""
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(directory.glob("*.py"))}


def defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


class Graph:
    def __init__(self, sources):
        self.bindings = {}  # module -> {name: ("def",) | ("import", module, name) | ("module", module)}
        self.bodies = {}  # (module, name) -> the statements that define it
        self.import_time = {}  # module -> the statements that run at import and define nothing
        self.all_names = []
        for module, source in sources.items():
            bound = self.bindings[module] = {}
            self.import_time[module] = []
            for node in ast.parse(source).body:
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        name = alias.asname or alias.name
                        bound[name] = ("import", node.module, alias.name) if node.module else ("module", alias.name)
                elif isinstance(node, DEFINITIONS):
                    for name in defined_names(node):
                        bound[name] = ("def",)
                        self.bodies.setdefault((module, name), []).append(node)
                        if (module, name) == ("__init__", "__all__"):
                            self.all_names = ast.literal_eval(node.value)
                elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                    self.import_time[module].append(node)

    def resolve(self, module, name):
        """The (module, name) of the definition that ``name`` denotes in ``module``, or None."""
        binding = self.bindings.get(module, {}).get(name)
        if binding is None or binding[0] == "module":
            return None
        if binding[0] == "import":
            return self.resolve(binding[1], binding[2])
        return module, name

    def references(self, module, nodes):
        for tree in nodes:
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    target = self.resolve(module, node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    binding = self.bindings[module].get(node.value.id, ("",))
                    target = self.resolve(binding[1], node.attr) if binding[0] == "module" else None
                else:
                    continue
                if target is not None:
                    yield target

    def roots(self, external):
        """The definitions named by ``external`` ((module, name) pairs from outside the package), by
        ``cli.main`` and ``cli.run``, and by every module's import-time statements.  The ``__all__``
        assignment is a root (it mentions no definition), the names it lists are not."""
        pairs = [("cli", "main"), ("cli", "run"), ("__init__", "__all__")] + list(external)
        found = [target for pair in pairs if (target := self.resolve(*pair))]
        for module, nodes in self.import_time.items():
            found.extend(self.references(module, nodes))
        return found

    def unreachable(self, external):
        seen, stack = set(), self.roots(external)
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(self.references(node[0], self.bodies[node]))
        return sorted(set(self.bodies) - seen)


def script_imports():
    """(module, name) for each ``from delpezzo[.module] import name`` in ``scripts/*.py``."""
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == PACKAGE:
                module = node.module.partition(".")[2] or "__init__"
                yield from ((module, alias.name) for alias in node.names)


def traced_imports():
    """(module, name) for each function that ``bench/tracing.py`` wraps."""
    for pairs in traced_names().values():
        for module, name in pairs:
            yield module.removeprefix(PACKAGE + "."), name


def external_roots():
    return list(script_imports()) + list(traced_imports())


def test_the_roots_resolve_to_definitions():
    graph = Graph(module_sources(PACKAGE_DIR))
    assert graph.resolve("cli", "main") == ("cli", "main")
    assert graph.resolve("__init__", "parse_divisor") == ("picard", "parse_divisor")
    assert "DivisorClass" in graph.all_names
    assert all(graph.resolve("__init__", name) for name in graph.all_names)  # each is bound in the package
    for pair in external_roots():
        assert graph.resolve(*pair) is not None, pair
    assert ("wild", "find_wild_pairs") in external_roots()  # scripts/family_report.py
    assert ("acm", "enumerate_acm") in external_roots()  # the tracer's span


def test_every_definition_is_reached_from_a_user_path():
    assert Graph(module_sources(PACKAGE_DIR)).unreachable(external_roots()) == []


def unused_test_helpers(sources):
    """(module, name) for each top-level helper under ``tests/`` that no other statement there mentions.

    A helper is a top-level definition other than a ``test_*`` function, a fixture and a ``pytest_*``
    conftest hook.  A statement mentions it by its bare name in its own module or in a module that
    imports it with ``from module import name``, the one way the tests share helpers.  Imports
    themselves are no mention, and neither is the helper's own definition (a recursive call).
    """
    helpers, mentions = {}, set()  # (module, name) -> its statement; (module, name, mentioning statement)
    for module, source in sources.items():
        body = ast.parse(source).body
        imported = {  # local name -> the (module, name) it denotes
            alias.asname or alias.name: (node.module, alias.name)
            for node in body
            if isinstance(node, ast.ImportFrom) and node.module in sources
            for alias in node.names
        }
        for k, node in enumerate(body):
            statement = module, k
            if isinstance(node, DEFINITIONS):
                fixture = any("fixture" in ast.unparse(d) for d in getattr(node, "decorator_list", []))
                for name in defined_names(node):
                    if not (name.startswith(("test_", "pytest_")) or fixture):
                        helpers[module, name] = statement
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    mentions.add(imported.get(sub.id, (module, sub.id)) + (statement,))
    used = {(module, name) for module, name, statement in mentions if helpers.get((module, name)) not in (None, statement)}
    return sorted(set(helpers) - used)


def test_every_test_helper_is_used_by_another_statement():
    """A retired test leaves no orphaned oracle or sample behind; a planted one is reported."""
    tests = module_sources(ROOT / "tests")
    assert unused_test_helpers(tests) == []
    tests["test_geometry"] += "\n\ndef orphan(D):\n    return orphan(D)\n\n\nORPHAN_BOX = range(3)\n"
    tests["paper_values"] += "\n\ndef imported_only(D):\n    return D\n"
    tests["test_wild"] += "\nfrom paper_values import imported_only\n"
    found = set(unused_test_helpers(tests))
    assert found == {("test_geometry", "orphan"), ("test_geometry", "ORPHAN_BOX"), ("paper_values", "imported_only")}


def test_a_planted_definition_is_reported():
    sources = module_sources(PACKAGE_DIR)
    before = set(Graph(sources).unreachable(external_roots()))
    sources["geometry"] += "\n\ndef planted(D):\n    return _helper(D)\n\n\ndef _helper(D):\n    return moving_part(D)\n"
    sources["wild"] += "\n\nPLANTED = RELATIONS\n"
    # a function that only __all__ exports has no user path either
    sources["picard"] += "\n\ndef exported_only(D):\n    return D\n"
    sources["__init__"] = sources["__init__"].replace("from .picard import (\n", "from .picard import (\n    exported_only,\n")
    sources["__init__"] = sources["__init__"].replace("__all__ = [\n", '__all__ = [\n    "exported_only",\n')
    assert "exported_only" in Graph(sources).all_names
    found = set(Graph(sources).unreachable(external_roots())) - before
    assert found == {("geometry", "_helper"), ("geometry", "planted"), ("wild", "PLANTED"), ("picard", "exported_only")}
    # a caller that a root reaches makes them reachable, and so does a script's import of the public name
    sources["cli"] += "\n\ndef _uses(D):\n    return geometry.planted(D), wild.PLANTED\n"
    users = [("cli", "_uses"), ("__init__", "exported_only")]
    assert set(Graph(sources).unreachable(external_roots() + users)) == before
