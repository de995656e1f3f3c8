"""Span recorder wrapped around deepconn's public calls from the outside.

`instrument` replaces module functions and class methods with wrappers
that record one span per call: name, start, end and parent.  Spans stay
in compact in-memory arrays and are written out once, when the run ends.
A layer's self time is its span's duration minus the time its child
spans cover.  Nothing here is active unless the benchmark runs with
--trace 1.
"""

import time
from array import array

import numpy as np

from deepconn import baseline, gradcheck, ingest, layers, model, optim, text, train


class Tracer:
    """Spans in parallel arrays; `active` False lets wrapped calls pass untraced."""

    def __init__(self):
        self.names = []
        self._codes = {}
        self.name_code = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.active = True

    def _code(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, name, fn):
        code = self._code(name)
        stack, clock = self._stack, time.perf_counter
        name_code, parent, start, end = self.name_code, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(start)
            name_code.append(code)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        """(names, name codes, parents, durations, self times) as numpy arrays."""
        codes = np.array(self.name_code, dtype=np.intp)
        parents = np.array(self.parent, dtype=np.int64)
        durations = np.array(self.end) - np.array(self.start)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=durations[has_parent],
                              minlength=len(durations))
        return self.names, codes, parents, durations, durations - covered

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            name_code=np.array(self.name_code),
                            parent=np.array(self.parent), start=np.array(self.start),
                            end=np.array(self.end))


def _traced_gradient_check(tracer, original):
    """gradient_check with each loss evaluation in its own span."""
    def gradient_check(loss_fn, params, *args, **kwargs):
        return original(tracer.wrap("gradcheck.loss_eval", loss_fn), params,
                        *args, **kwargs)
    return gradient_check


# (owner, attribute, span name).  Names imported into another module are
# wrapped where the caller looks them up: DocumentStore reaches
# build_document and embed through deepconn.train.
TARGETS = (
    (ingest, "parse_reviews_file", "ingest.parse"),
    (ingest, "split_dataset", "ingest.split"),
    (text, "load_embeddings", "text.load_embeddings"),
    (train, "build_document", "text.build_document"),
    (train, "embed", "text.embed"),
    (train.DocumentStore, "__init__", "train.store_build"),
    (train, "fit", "train.fit"),
    (train, "evaluate", "train.evaluate"),
    (train, "save_checkpoint", "train.checkpoint_write"),
    (train, "load_checkpoint", "train.checkpoint_load"),
    (model.DeepConn, "forward", "model.forward"),
    (model.DeepConn, "backward", "model.backward"),
    (model.Tower, "forward", "model.tower_fwd"),
    (model.Tower, "backward", "model.tower_bwd"),
    (model.DpHead, "predict", "model.head_fwd"),
    (model.DpHead, "backward", "model.head_bwd"),
    (model.FmHead, "predict_z", "model.head_fwd"),
    (model.FmHead, "backward_z", "model.head_bwd"),
    (layers.Conv1d, "forward", "layers.conv1d_fwd"),
    (layers.Conv1d, "backward", "layers.conv1d_bwd"),
    (layers.MaxPoolOverTime, "forward", "layers.maxpool_fwd"),
    (layers.MaxPoolOverTime, "backward", "layers.maxpool_bwd"),
    (layers.Dense, "forward", "layers.dense_fwd"),
    (layers.Dense, "backward", "layers.dense_bwd"),
    (layers.Dropout, "forward", "layers.dropout_fwd"),
    (layers.Dropout, "backward", "layers.dropout_bwd"),
    (layers.GruCell, "step", "layers.gru_step_fwd"),
    (layers.GruCell, "backward_step", "layers.gru_step_bwd"),
    (layers.LstmCell, "step", "layers.lstm_step_fwd"),
    (layers.LstmCell, "backward_step", "layers.lstm_step_bwd"),
    (optim.Adam, "step", "optim.step"),
    (optim.RMSprop, "step", "optim.step"),
    (baseline.RatingMatrix, "__init__", "baseline.matrix"),
    (baseline, "item_similarity", "baseline.similarity"),
    (baseline, "evaluate_cf", "baseline.evaluate"),
)


def instrument(tracer):
    """Wrap every target in a span; returns a function that undoes it."""
    saved = []
    for owner, attr, name in TARGETS:
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original))
    original = vars(gradcheck)["gradient_check"]
    saved.append((gradcheck, "gradient_check", original))
    gradcheck.gradient_check = tracer.wrap(
        "gradcheck.gradient_check", _traced_gradient_check(tracer, original))

    def undo():
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
    return undo


class SpanStats:
    """Per-name totals over a finished trace, normalised per iteration."""

    def __init__(self, tracer, iterations):
        names, codes, parents, durations, self_times = tracer.arrays()
        self.iterations = iterations
        self._code = {name: i for i, name in enumerate(names)}
        self._codes = codes
        self._durations = durations
        self._self = self_times
        parent_codes = np.where(parents >= 0, codes[np.maximum(parents, 0)], -1)
        self._parent_codes = parent_codes
        self.spans = len(durations)

    def _mask(self, name, under=None, not_under=None):
        code = self._code.get(name, -1)
        mask = self._codes == code
        if under is not None:
            mask &= self._parent_codes == self._code.get(under, -2)
        if not_under is not None:
            mask &= self._parent_codes != self._code.get(not_under, -2)
        return mask

    def calls(self, name, **where):
        return int(np.count_nonzero(self._mask(name, **where))) / self.iterations

    def seconds(self, name, **where):
        """Inclusive time per iteration."""
        return float(self._durations[self._mask(name, **where)].sum()) / self.iterations

    def self_seconds(self, name, **where):
        return float(self._self[self._mask(name, **where)].sum()) / self.iterations

    def per_call_us(self, name, **where):
        mask = self._mask(name, **where)
        n = np.count_nonzero(mask)
        return float(self._durations[mask].sum()) / n * 1e6 if n else 0.0
