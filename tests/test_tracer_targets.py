"""The benchmark tracer's contract: every name it wraps exists where it looks it up.

``bench/spans.py`` replaces each ``(module, attribute)`` of its ``TARGETS``
with a timing wrapper; a name that moved or lost its import breaks the
traced benchmark.  The file is compiled from its source and executed in a
fresh namespace, so nothing under ``bench/`` is imported or cached.
"""

import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def tracer_targets():
    """(span name, module, attribute) of each wrapped name; none without a bench/ beside tests/."""
    if not SPANS.is_file():
        return []
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return [(name, module, attr) for name, pairs in namespace["TARGETS"].items()
            for module, attr in pairs]


TARGETS = tracer_targets()


@pytest.mark.parametrize("name, module, attr", TARGETS,
                         ids=[f"{module}.{attr}" for _, module, attr in TARGETS])
def test_target_resolves(name, module, attr):
    owner = importlib.import_module(module)
    assert callable(getattr(owner, attr, None)), f"{name}: {module}.{attr} does not resolve"
