"""Every engine function that the benchmark tracer patches exists in ``src``.

``bench/tracing.py`` names the functions it wraps in ``SPANS`` and
``COUNTS`` and looks each one up when a traced run starts, so a renamed or
removed function would crash that run.  The names are read with ``ast``;
``bench`` is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

from delpezzo import DivisorClass

ROOT = Path(__file__).parent.parent


def traced_names():
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] in (["SPANS"], ["COUNTS"]):
            names[node.targets[0].id] = ast.literal_eval(node.value)
    return names


def test_the_tracer_lists_spans_and_counts():
    names = traced_names()
    assert set(names) == {"SPANS", "COUNTS"}
    assert all(names.values())


@pytest.mark.parametrize("module, name", [pair for pairs in traced_names().values() for pair in pairs])
def test_each_traced_name_resolves_in_src(module, name):
    loaded = importlib.import_module(module)
    assert Path(loaded.__file__).resolve().is_relative_to((ROOT / "src").resolve())
    assert callable(getattr(loaded, name))


def test_the_counted_construction_hook_exists():
    # the tracer also counts DivisorClass constructions through this hook
    assert callable(DivisorClass.__post_init__)
