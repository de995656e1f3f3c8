"""The benchmark's tracer wraps deepconn from outside; it looks each target
up with `vars(owner)[attr]`, so a method must stay defined on the class the
benchmark names (an inherited one is not in `vars`)."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize("owner, attr, span", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in TARGETS])
def test_span_target_is_defined_on_its_owner(owner, attr, span):
    assert callable(vars(owner).get(attr)), \
        f"{owner.__name__}.{attr} (span {span}) is not defined on {owner.__name__}"
