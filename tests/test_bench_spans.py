"""The benchmark's tracer wraps deepconn from outside; it looks each target
up with `vars(owner)[attr]`, so a method must stay defined on the class the
benchmark names (an inherited one is not in `vars`)."""

import importlib.util
from pathlib import Path

import pytest

from deepconn import ingest, synthetic, text, train

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = _load_spans()
TARGETS = SPANS_MODULE.TARGETS


@pytest.mark.parametrize("owner, attr, span", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in TARGETS])
def test_span_target_is_defined_on_its_owner(owner, attr, span):
    assert callable(vars(owner).get(attr)), \
        f"{owner.__name__}.{attr} (span {span}) is not defined on {owner.__name__}"


def test_a_traced_store_build_spans_one_build_document_per_document():
    records = synthetic.make_sample_corpus(n_reviews=60, n_users=8, n_items=6, seed=3)
    table = text.EmbeddingTable(8, synthetic.make_token_vectors(dim=8, seed=4))
    tracer = SPANS_MODULE.Tracer()
    undo = SPANS_MODULE.instrument(tracer)
    try:
        train.DocumentStore(records, table, doc_length=12)
    finally:
        undo()
    names, codes, *_ = tracer.arrays()
    groups = ingest.group_reviews(records)
    counted = [names[c] for c in codes]
    assert counted.count("text.build_document") == len(groups.by_user) + len(groups.by_item)
    assert counted.count("train.store_build") == 1
