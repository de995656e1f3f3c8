"""Training loop, evaluation, checkpointing, and run reports.

`fit` and `evaluate` read the user, item and rating of each parsed
`ingest.ReviewRecord`, never its text.  Documents are kept as token ids;
the towers read a micro-batch's (B, T) ids through the frozen embedding
table and gather the rows themselves.
`fit` runs each mini-batch as micro-batches of MICRO_BATCH pairs, one
forward and one backward each; the gradients add up and the optimizer
steps once per mini-batch.  Within a micro-batch each tower encodes each
distinct user's or item's document once, and the gradients of the pairs
that share it add up before the encoder's backward; under recurrent
dropout every pair draws its own mask and runs its own document.
`evaluate` encodes each distinct user and item once per call,
MICRO_BATCH at a time, and then runs the head once over every predicted
pair; on large calls the item tower runs in a forked child, and the whole
call runs at one BLAS thread.

Every tower runs up to 32 documents per pass: at 4 a recurrent step is
mostly numpy per-call overhead, and few pairs of 4 share a document.
Each encoder gathers one chunk of about layers.CHUNK_ROWS rows at a
time; a cell keeps only one state per chunk between its passes, so its
memory grows with B**2 * T / layers.CHUNK_ROWS.  The cap of 32 keeps
`fit` over 32 pairs at T=300 and H=64 near 5.3 MB at its peak when no
two pairs share a user or an item, the worst case.
"""

import ctypes
import functools
import json
import math
import mmap
import os
import pickle
import signal
import struct
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (CheckpointError, ConfigError, DataFormatError,
                     NumericFault, ShapeError, UnknownEntityError)
from .ingest import group_reviews
from .model import DeepConn, ModelConfig, mse, parameter_shapes
from .optim import make_optimizer
from .text import build_document, embed

# Pairs per forward/backward pass of `fit`, documents per tower pass of `evaluate`.
MICRO_BATCH = 32
# Distinct documents a side needs before `evaluate` forks for the items.
SPLIT_ABOVE = 2 * MICRO_BATCH


def pairs_from_records(records):
    """The records as a list: `fit` and `evaluate` take records as they are,
    and only the benchmark still calls this."""
    return list(records)


class DocumentStore:
    """User and item documents, as token ids, built from a fixed review corpus.

    Each user and item keeps its `EncodedDocument` (T int32 ids) into the
    one frozen `table`.  `user_tokens`/`item_tokens` stack the (B, T) ids
    the towers read; the one-pair `user_embedding`/`item_embedding` gather
    a fresh (T, d) matrix.  Pass only training-portion records to keep test
    reviews out of every document (the default protocol); pass the full
    record list to study the leaky variant.
    """

    def __init__(self, records, table, doc_length):
        groups = group_reviews(records)
        self.table = table
        memo = {}   # each review joins two documents but is tokenized once
        self._user_documents, self._item_documents = (
            {entity_id: build_document([text for _, text in reviews], doc_length,
                                       table, owner=entity_id, memo=memo)
             for entity_id, reviews in by_entity.items()}
            for by_entity in (groups.by_user, groups.by_item))
        ratings = [r.rating for r in records]
        self.global_mean = float(np.mean(ratings)) if ratings else 0.0

    def has_user(self, user_id):
        return user_id in self._user_documents

    def has_item(self, item_id):
        return item_id in self._item_documents

    def user_embedding(self, user_id):
        return embed(self._user_documents[user_id], self.table)

    def item_embedding(self, item_id):
        return embed(self._item_documents[item_id], self.table)

    def user_tokens(self, user_ids):
        return np.stack([self._user_documents[e].ids for e in user_ids])

    def item_tokens(self, item_ids):
        return np.stack([self._item_documents[e].ids for e in item_ids])


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    validation_loss: float | None
    seconds: float  # cumulative wall-clock since fit() started


@dataclass
class TrainReport:
    config: dict
    seed: int
    epochs: list = field(default_factory=list)
    test_mse: float | None = None
    best_validation_epoch: int | None = None
    optimizer_steps: int = 0
    cold_start_counts: dict | None = None
    # in-memory snapshot of the best-validation parameters; never serialized
    best_parameters: list | None = field(default=None, repr=False)

    def curves_csv(self):
        """Loss-curve table: epoch,train_loss,val_loss,seconds."""
        lines = ["epoch,train_loss,val_loss,seconds"]
        for e in self.epochs:
            val = repr(e.validation_loss) if e.validation_loss is not None else ""
            lines.append(f"{e.epoch},{e.train_loss!r},{val},{e.seconds:.3f}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        payload = {
            "config": self.config,
            "seed": self.seed,
            "epochs": [{"epoch": e.epoch, "train_loss": e.train_loss,
                        "validation_loss": e.validation_loss,
                        "seconds": e.seconds} for e in self.epochs],
            "test_mse": self.test_mse,
            "best_validation_epoch": self.best_validation_epoch,
            "optimizer_steps": self.optimizer_steps,
            "cold_start_counts": self.cold_start_counts,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Inverse of to_json; anything else is a DataFormatError."""
        try:
            payload = json.loads(text)
            report = cls(config=payload["config"], seed=payload["seed"],
                         test_mse=payload.get("test_mse"),
                         best_validation_epoch=payload.get("best_validation_epoch"),
                         optimizer_steps=payload.get("optimizer_steps", 0),
                         cold_start_counts=payload.get("cold_start_counts"))
            for e in payload["epochs"]:
                val = e["validation_loss"]
                report.epochs.append(EpochStats(
                    int(e["epoch"]), float(e["train_loss"]),
                    None if val is None else float(val), float(e["seconds"])))
        except KeyError as exc:
            raise DataFormatError(f"report lacks the key {exc}") from exc
        except (ValueError, TypeError, AttributeError, OverflowError) as exc:
            raise DataFormatError(f"not a training report ({exc})") from exc
        return report


def fit(model, store, train_pairs, validation_pairs=None, optimizer="adam",
        learning_rate=0.001, epochs=10, batch_size=32, seed=0,
        record_timing=True):
    """Mini-batch training on review records; returns a TrainReport.

    Per epoch: shuffle under the seed, iterate batches, run each batch as
    micro-batches of MICRO_BATCH pairs (train-mode forward over the
    micro-batch's distinct documents, MSE gradient, backward), step the
    optimizer once per batch, then run a full eval-mode validation pass.
    A training record whose user or item has no document is an
    UnknownEntityError before any step.  Deterministic
    given (model, data, seed); wall-clock can be suppressed
    (record_timing=False) when byte-identical reports matter more than
    timing.
    """
    if not train_pairs:
        raise ConfigError("fit needs a non-empty training set")
    if epochs < 0 or batch_size < 1:
        raise ConfigError("epochs must be >= 0 and batch_size >= 1")
    for k, pair in enumerate(train_pairs):
        if not (store.has_user(pair.user_id) and store.has_item(pair.item_id)):
            missing = "item" if store.has_user(pair.user_id) else "user"
            raise UnknownEntityError(
                f"training pair {k} (user {pair.user_id!r}, item "
                f"{pair.item_id!r}): the store has no document for its {missing}")
    shuffle_seq, dropout_seq = np.random.SeedSequence(seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    dropout_rng = np.random.default_rng(dropout_seq)

    opt = make_optimizer(optimizer, model.parameters(), learning_rate=learning_rate)
    report = TrainReport(config={
        "model": model.config.to_dict(),
        "optimizer": optimizer,
        "learning_rate": learning_rate,
        "epochs": epochs,
        "batch_size": batch_size,
        "seed": seed,
    }, seed=seed)

    targets = np.array([p.rating for p in train_pairs])
    n = len(train_pairs)

    best_val = np.inf
    best_snapshot = None
    started = time.monotonic()
    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(n)
        sq_error_sum = 0.0
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            residuals = np.empty(len(batch))
            for m in range(0, len(batch), MICRO_BATCH):
                micro = batch[m:m + MICRO_BATCH]
                users, user_rows = _distinct([train_pairs[k].user_id for k in micro])
                items, item_rows = _distinct([train_pairs[k].item_id for k in micro])
                y = model.forward(store.user_tokens(users), store.item_tokens(items),
                                  store.table.matrix, dropout_rng, user_rows, item_rows)
                bad = np.flatnonzero(~np.isfinite(y))
                if bad.size:
                    idx = micro[bad[0]]
                    pair = train_pairs[idx]
                    raise NumericFault(
                        f"epoch {epoch}, batch at {start}, pair {idx} (user "
                        f"{pair.user_id!r}, item {pair.item_id!r}): "
                        "non-finite prediction")
                residuals[m:m + len(micro)] = y - targets[micro]
                model.backward(2.0 * residuals[m:m + len(micro)] / len(batch))
            sq_error_sum += float(np.sum(residuals ** 2))
            try:
                opt.step()
            except NumericFault as exc:
                raise NumericFault(
                    f"epoch {epoch}, batch at {start}: {exc}") from exc
        train_loss = sq_error_sum / n

        val_loss = None
        if validation_pairs:
            val_loss, _ = evaluate(model, store, validation_pairs)
            if val_loss < best_val:
                best_val = val_loss
                best_snapshot = [p.value.copy() for p in model.parameters()]
                report.best_validation_epoch = epoch
        seconds = (time.monotonic() - started) if record_timing else 0.0
        report.epochs.append(EpochStats(epoch, train_loss, val_loss, seconds))

    report.optimizer_steps = opt.step_count
    report.best_parameters = best_snapshot
    return report


def restore_parameters(model, snapshot):
    """Copy a fit() best-parameter snapshot back into the model."""
    params = model.parameters()
    if snapshot is None or len(snapshot) != len(params):
        raise ConfigError("snapshot does not match the model's parameter list")
    for p, value in zip(params, snapshot):
        if p.value.shape != value.shape:
            raise ShapeError(f"snapshot shape mismatch for {p.name}")
        p.value[...] = value


def evaluate(model, store, pairs, clamp=False):
    """Eval-mode MSE over review records, each one (user, item, rating)
    pair; a record's text is not read.

    Users or items without documents fall back to the store's global mean
    rating.  Returns (mse, counters); counters tallies "predicted",
    "cold_start_user", "cold_start_item".  It changes no parameter, and
    leaves neither the towers nor the head holding a cache, so no backward
    can follow it.

    Eval-mode towers are deterministic, so each distinct user and item is
    encoded once, MICRO_BATCH documents at a time, and the head runs
    once over every predicted pair.  The predictions equal a `model.predict`
    call per pair within rounding, not always bit for bit: a BLAS product
    over several rows can round a row in another way than over that row
    alone (up to 1.1e-16 at 64 units).

    The call runs at one OpenBLAS thread, so its result does not depend on
    the count.  When both sides hold more than SPLIT_ABOVE distinct
    documents, a child made with `os.fork` encodes the items into shared
    memory meanwhile: the same bits, as the towers share nothing.  A child
    that dies is a ChildProcessError; its error is raised here, after any
    user-side error.  A CNN tower at T=300 and 64 units took 4.8/5.3 ms
    serial/split at 31 documents a side, 8.6/7.5 at 62, 17.6/12.4 at 126
    and 34.8/22.4 at 248.  Without `os.fork`, a settable OpenBLAS or a sole
    Python thread, both sides run here (unpinned without that OpenBLAS).
    """
    if not pairs:
        raise ConfigError("cannot evaluate on an empty pair list")
    counters = {"predicted": 0, "cold_start_user": 0, "cold_start_item": 0}
    preds = np.full(len(pairs), store.global_mean)
    targets = np.array([p.rating for p in pairs], dtype=np.float64)
    rows = []
    for j, pair in enumerate(pairs):
        if not store.has_user(pair.user_id):
            counters["cold_start_user"] += 1
        elif not store.has_item(pair.item_id):
            counters["cold_start_item"] += 1
        else:
            rows.append(j)
    counters["predicted"] = len(rows)
    if rows:
        users, user_rows = _distinct([pairs[j].user_id for j in rows])
        items, item_rows = _distinct([pairs[j].item_id for j in rows])
        with _one_blas_thread() as pinned:
            if pinned and min(len(users), len(items)) > SPLIT_ABOVE and \
                    hasattr(os, "fork") and threading.active_count() == 1:
                x_u, x_i = _encode_twins(model, store, users, items)
            else:
                x_u = _encode(model.user_tower, store.user_tokens,
                              store.table.matrix, users)
                x_i = _encode(model.item_tower, store.item_tokens,
                              store.table.matrix, items)
            preds[rows] = model.head.predict(x_u[user_rows], x_i[item_rows])
        model.head.release()
    if clamp:
        preds = np.clip(preds, 1.0, 5.0)
    return mse(preds, targets), counters


def _encode(tower, tokens, matrix, distinct):
    """Eval-mode latents, one row per distinct id, MICRO_BATCH documents at
    a time.  No backward follows, so the tower keeps none of its layers'
    caches afterwards."""
    latents = [tower.forward(tokens(distinct[k:k + MICRO_BATCH]), matrix)
               for k in range(0, len(distinct), MICRO_BATCH)]
    tower.release()
    return np.concatenate(latents)


def _encode_twins(model, store, users, items):
    """(user latents, item latents), the item tower's from a forked child."""
    matrix, width = store.table.matrix, model.config.tower.dense_units
    x_i = np.frombuffer(mmap.mmap(-1, 8 * len(items) * width)).reshape(-1, width)
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:   # the child: whatever happens, it leaves through os._exit
        try:
            x_i[...] = _encode(model.item_tower, store.item_tokens, matrix, items)
            os._exit(0)
        except BaseException as exc:
            try:
                os.write(write_end, pickle.dumps(exc))
            finally:
                os._exit(1)
    os.close(write_end)
    report = None
    with open(read_end, "rb") as pipe:
        try:
            x_u = _encode(model.user_tower, store.user_tokens, matrix, users)
            model.item_tower.release()   # its forward ran in the child
            report = pipe.read()
        finally:
            if report is None:   # unwinding: the child's latents are not needed
                os.kill(pid, signal.SIGKILL)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if report and code == 1:
        raise pickle.loads(report)
    if code:
        ended = signal.Signals(-code).name if code < 0 else f"status {code}"
        raise ChildProcessError(f"the item tower's process ended with {ended}")
    return x_u, x_i


@contextmanager
def _one_blas_thread():
    """Run the block at one OpenBLAS thread, then restore the count; yields
    whether there was a count to set."""
    threads = _openblas_threads()
    if threads is None:
        yield False
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, found in
    this process's library list, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line[line.find("/"):].strip() for line in fh
                     if "/" in line and "openblas" in line.rpartition("/")[2]}
        for lib in map(ctypes.CDLL, sorted(paths)):
            get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
            set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
            if get and set_:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    except OSError:
        pass
    return None


def _distinct(entity_ids):
    """(distinct, rows): the ids in order of first appearance, and the
    (len(entity_ids),) index of each id in that list."""
    row = {}
    rows = np.array([row.setdefault(e, len(row)) for e in entity_ids], dtype=np.intp)
    return list(row), rows


def mean_predictor_mse(pairs, mean):
    """MSE of the constant predictor at `mean` over the records' ratings —
    the beats-the-mean reference."""
    targets = np.array([p.rating for p in pairs])
    return mse(np.full(len(pairs), float(mean)), targets)


@contextmanager
def atomic_open(path):
    """A binary file handle whose contents replace `path` only on success.

    Writes go to a temp file beside `path`, which `os.replace` moves into
    place once the block ends.  If the block raises, the temp file is
    removed and any existing file at `path` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# Checkpoint format: 8-byte magic, little-endian uint64 manifest length,
# JSON manifest (names, shapes, precision, model config, zlib.crc32 of the
# parameter bytes), then each parameter's raw float64 little-endian bytes in
# manifest order.  A version-1 manifest written without "crc32" still loads.

CHECKPOINT_MAGIC = b"DCNCKPT1"


def save_checkpoint(model, path):
    params = model.parameters()
    payload = [np.ascontiguousarray(p.value, dtype="<f8").tobytes() for p in params]
    crc = 0
    for raw in payload:
        crc = zlib.crc32(raw, crc)
    manifest = {
        "format": "deepconn-checkpoint",
        "version": 1,
        "precision": "float64",
        "config": model.config.to_dict(),
        "params": [{"name": p.name, "shape": list(p.shape)} for p in params],
        "crc32": crc,
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for raw in payload:
            fh.write(raw)


def _read_manifest(path, manifest):
    """The model config, the (name, shape) entries and the payload's crc32
    (None when absent) of a version-1 manifest."""
    if not isinstance(manifest, dict) or \
            manifest.get("format") != "deepconn-checkpoint":
        raise CheckpointError(f"{path}: unknown manifest format")
    version = manifest.get("version")
    if type(version) is not int or version != 1:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}")
    crc = manifest.get("crc32")
    if crc is not None and type(crc) is not int:
        raise CheckpointError(f"{path}: malformed manifest (crc32 {crc!r})")
    try:
        entries = [(e["name"], tuple(e["shape"])) for e in manifest["params"]]
        config = ModelConfig.from_dict(manifest["config"])
        problems = config.validate()
    except KeyError as exc:
        raise CheckpointError(f"{path}: manifest lacks the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed manifest ({exc})") from exc
    if problems:
        raise CheckpointError(
            f"{path}: manifest config does not fit: {'; '.join(problems)}")
    return config, entries, crc


def load_checkpoint(path):
    """Rebuild a model from a checkpoint; bit-exact round trip.

    A manifest whose length runs past the end of the file, or whose config
    does not validate, is a CheckpointError.  Before any model is built,
    the manifest's parameter list must match `parameter_shapes` of its
    config: a list of another length is a CheckpointError, another name or
    shape a ShapeError naming the parameter.  So must the payload's length,
    or it is a CheckpointError.  Parameter bytes whose crc32 differs from
    the manifest's are a CheckpointError.
    """
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        data = fh.read()
    if len(data) < 8:
        raise CheckpointError(f"{path}: truncated manifest length")
    (manifest_len,) = struct.unpack_from("<Q", data)
    offset = 8 + manifest_len
    if offset > len(data):
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(data[8:offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable manifest ({exc})") from exc
    config, entries, crc = _read_manifest(path, manifest)
    # Sized from the config before DeepConn(config) allocates anything, so
    # a small file cannot make it build a model the file does not hold.
    expected = parameter_shapes(config)
    if len(entries) != len(expected):
        raise CheckpointError(f"{path}: checkpoint has {len(entries)} "
                              f"parameters, its config implies {len(expected)}")
    for (name, shape), (model_name, model_shape) in zip(entries, expected):
        if model_name != name:
            raise ShapeError(
                f"parameter order mismatch: model {model_name!r} vs "
                f"checkpoint {name!r}")
        if model_shape != shape:
            raise ShapeError(
                f"parameter {model_name!r}: checkpoint shape {shape}, "
                f"model shape {model_shape}")
    payload = 8 * sum(math.prod(shape) for _, shape in expected)
    if len(data) - offset < payload:
        raise CheckpointError(f"{path}: truncated parameter data "
                              f"({len(data) - offset} of {payload} bytes)")
    if len(data) - offset > payload:
        raise CheckpointError(f"{path}: trailing bytes after parameter data")
    model = DeepConn(config)
    payload_crc = 0
    for p in model.parameters():
        raw = data[offset:offset + 8 * p.value.size]
        offset += 8 * p.value.size
        payload_crc = zlib.crc32(raw, payload_crc)
        p.value[...] = np.frombuffer(raw, dtype="<f8").reshape(p.value.shape)
    if crc is not None and crc != payload_crc:
        raise CheckpointError(
            f"{path}: parameter data fails its checksum "
            f"(crc32 {payload_crc:#010x}, manifest {crc:#010x})")
    return model
