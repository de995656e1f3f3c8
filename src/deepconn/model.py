"""Twin-tower rating predictor.

Two parallel encoders (one over the user's review document, one over the
item's) each produce a latent vector; a coupling head — plain dot product
or a factorization machine — turns the pair into a rating estimate.
Towers never share parameters.

Everything runs on batches: a tower maps (B, T) token ids into a
read-only (V, d) embedding matrix to (B, m) latents, and a head maps two
(B, m) batches to (B,) ratings.  In train mode `DeepConn.forward` draws
every dropout uniform of the batch in one block and hands each tower its
slice, so a batch of B pairs gets the masks the B pairs would get one at
a time.
"""

from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, NumericFault, ShapeError
from .layers import (Conv1d, Dense, Dropout, GruCell, Layer, LstmCell, Parameter,
                     glorot_uniform)

TOWER_KINDS = ("cnn", "lstm", "gru")
HEAD_KINDS = ("dp", "fm")
PRESETS = ("comparison", "baseline-replica")


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value):
    return _is_int(value) or isinstance(value, float)


@dataclass
class TowerConfig:
    kind: str = "cnn"
    embedding_dim: int = 50
    hidden_units: int = 64            # conv channels for cnn, recurrent units otherwise
    kernel: int = 8
    stride: int = 6
    dense_units: int = 64
    dropout_rate: float = 0.10
    recurrent_dropout_rate: float = 0.0

    def validate(self):
        problems = []
        if self.kind not in TOWER_KINDS:
            problems.append(f"tower kind must be one of {TOWER_KINDS}, got {self.kind!r}")
        for name in ("embedding_dim", "hidden_units", "kernel", "stride", "dense_units"):
            value = getattr(self, name)
            if not _is_int(value):
                problems.append(f"{name} must be an integer, got {value!r}")
            elif value < 1:
                problems.append(f"{name} must be >= 1, got {value}")
        for name in ("dropout_rate", "recurrent_dropout_rate"):
            rate = getattr(self, name)
            if not _is_number(rate):
                problems.append(f"{name} must be a number, got {rate!r}")
            elif not 0.0 <= rate < 1.0:
                problems.append(f"{name} must be in [0, 1), got {rate}")
        if self.kind == "cnn" and _is_number(self.recurrent_dropout_rate) \
                and self.recurrent_dropout_rate > 0.0:
            problems.append("recurrent_dropout_rate applies only to gru/lstm "
                            f"towers, got {self.recurrent_dropout_rate} with cnn")
        return problems


@dataclass
class ModelConfig:
    tower: TowerConfig = field(default_factory=TowerConfig)
    head: str = "dp"
    fm_rank: int = 8
    pure_dot: bool = False
    preset: str = "comparison"

    def validate(self):
        problems = self.tower.validate()
        if self.head not in HEAD_KINDS:
            problems.append(f"head must be one of {HEAD_KINDS}, got {self.head!r}")
        if not _is_int(self.fm_rank):
            problems.append(f"fm_rank must be an integer, got {self.fm_rank!r}")
        elif self.fm_rank < 1:
            problems.append(f"fm_rank must be >= 1, got {self.fm_rank}")
        if not isinstance(self.pure_dot, bool):
            problems.append(f"pure_dot must be true or false, got {self.pure_dot!r}")
        if self.pure_dot and self.head != "dp":
            problems.append(
                f"pure_dot applies only to the dp head, got head {self.head!r}")
        return problems

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        tower = TowerConfig(**d.pop("tower"))
        return cls(tower=tower, **d)


def build_config(preset="comparison", kind="cnn", embedding_dim=50, head="dp",
                 **overrides):
    """Assemble a ModelConfig from a named preset plus explicit overrides.

    "comparison" is the experiment grid setup: 64 hidden units, 64 dense
    units, dropout 0.10, ReLU for the CNN path and tanh recurrence.
    "baseline-replica" is the original CNN-only stack: conv (kernel 8,
    stride 6) -> max-pool -> flatten -> dense-32, no dropout.
    """
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}, expected one of {PRESETS}")
    if preset == "baseline-replica":
        tower = TowerConfig(kind="cnn", embedding_dim=embedding_dim,
                            hidden_units=64, dense_units=32, dropout_rate=0.0)
        if kind != "cnn":
            raise ConfigError("baseline-replica preset is CNN-only")
    else:
        tower = TowerConfig(kind=kind, embedding_dim=embedding_dim,
                            hidden_units=64, dense_units=64, dropout_rate=0.10)
    tower_fields = {f for f in TowerConfig.__dataclass_fields__}
    config = ModelConfig(tower=tower, head=head, preset=preset)
    for key, value in overrides.items():
        if key in tower_fields:
            setattr(tower, key, value)
        elif key in ("fm_rank", "pure_dot"):
            setattr(config, key, value)
        else:
            raise ConfigError(f"unknown config override {key!r}")
    problems = config.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    return config


class Tower:
    """One encoder: a (B, T) batch of review documents' token ids, read
    through a (V, embedding_dim) table -> (B, dense_units) latent vectors.

    cnn:      Conv1d (conv1d -> max-pool over time -> flatten) -> [dropout]
              -> dense(relu)
    lstm/gru: recurrence over T steps (tanh candidate), final state
              -> [dropout] -> dense(relu)

    `n_masks` is the number of dropout masks a sample draws in train mode:
    one for recurrent dropout, one for feature dropout, each when its rate
    is nonzero.
    """

    def __init__(self, config, rng, name):
        problems = config.validate()
        if problems:
            raise ConfigError("; ".join(problems))
        self.config = config
        self.name = name
        self.kind = config.kind
        d = config.embedding_dim
        if self.kind == "cnn":
            self.encoder = Conv1d(d, config.hidden_units, config.kernel,
                                  config.stride, rng, f"{name}.conv")
        else:
            cell_cls = GruCell if self.kind == "gru" else LstmCell
            self.encoder = cell_cls(d, config.hidden_units, rng, f"{name}.{self.kind}")
        self.dropout = Dropout() if config.dropout_rate > 0 else None
        self.dense = Dense(config.hidden_units, config.dense_units, "relu", rng,
                           f"{name}.dense")
        self.n_masks = int(config.recurrent_dropout_rate > 0.0) \
            + int(self.dropout is not None)

    def parameters(self):
        return self.encoder.parameters() + self.dense.parameters()

    def release(self):
        """Drop every layer's cache of the latest forward, whose backward
        can then no longer run."""
        for layer in (self.encoder, self.dropout, self.dense):
            if layer is not None:
                layer.release()

    def stack(self):
        """Layer descriptors in forward order, for structural inspection."""
        c = self.config
        if self.kind == "cnn":
            layers = [("conv1d", {"channels": c.hidden_units, "kernel": c.kernel,
                                  "stride": c.stride, "activation": "relu"}),
                      ("maxpool_over_time", {}),
                      # The paper's flatten: the pooled (C,) vector is already flat.
                      ("flatten", {})]
        else:
            layers = [(self.kind, {"units": c.hidden_units, "activation": "tanh"})]
        if self.dropout is not None:
            layers.append(("dropout", {"rate": c.dropout_rate}))
        layers.append(("dense", {"units": c.dense_units, "activation": "relu"}))
        return layers

    def forward(self, ids, matrix, draws=None, rows=None):
        """Latent vectors of the (B, T) ids into the (V, d) `matrix`.  `draws`,
        a (B, n_masks, hidden_units) block of uniforms, means train mode:
        sample b's recurrent mask is made from draws[b, 0], then its
        feature mask from the next row.  Without draws it runs in eval mode.

        `rows`, a (B,) index into the ids, gives sample b the document
        ids[rows[b]]: the encoder runs once per document, and each sample
        keeps its own feature mask and dense row.  Without rows, document
        b is sample b.  A train-mode recurrent mask is drawn per sample, so
        under recurrent dropout each sample runs its document itself."""
        rate = self.config.recurrent_dropout_rate
        if rows is not None and draws is not None and rate > 0.0:
            ids, rows = ids[rows], None
        if self.kind == "cnn":
            feat = self.encoder.forward(ids, matrix)
        else:
            # One mask per sequence, applied to the state input at every step.
            mask = _keep_mask(draws, 0, rate) if rate > 0.0 else None
            feat = self.encoder.forward(ids, matrix, mask)
        self._rows, self._documents = rows, len(ids)
        if rows is not None:
            feat = feat[rows]
        if self.dropout is not None:
            feat = self.dropout.forward(
                feat, _keep_mask(draws, -1, self.config.dropout_rate))
        return self.dense.forward(feat)

    def backward(self, dvec):
        """Accumulate the tower's parameter gradients given the (B,
        dense_units) gradient of its latents.  The gradients of samples
        that share a document add up in its row before the encoder's
        backward.  Returns nothing: the input documents are frozen
        embeddings, which take no gradient."""
        dfeat = self.dense.backward(dvec)
        if self.dropout is not None:
            dfeat = self.dropout.backward(dfeat)
        if self._rows is not None:
            per_document = np.zeros((self._documents, dfeat.shape[1]))
            np.add.at(per_document, self._rows, dfeat)
            dfeat = per_document
        self.encoder.backward(dfeat)


def _keep_mask(draws, row, rate):
    """1/(1 - rate) where draws[:, row] >= rate, else 0; None without draws."""
    return None if draws is None else (draws[:, row] >= rate) / (1.0 - rate)


class DpHead(Layer):
    """Dot-product coupling: y = beta0 + w . z + x_u . x_i, z = concat(x_u, x_i).

    pure_dot drops the trainable first-order part and predicts x_u . x_i alone.
    Each pair's sums run along its own row, so a pair's rating has the same
    bits in any batch.
    """

    def __init__(self, latent_dim, pure_dot=False, name="head"):
        self.latent_dim = latent_dim
        self.pure_dot = pure_dot
        self.beta0 = Parameter(0.0, f"{name}.beta0")
        self.w = Parameter(np.zeros(2 * latent_dim), f"{name}.w")

    def parameters(self):
        return [] if self.pure_dot else [self.beta0, self.w]

    def predict(self, x_u, x_i):
        """(B,) ratings from (B, m) user and item latents."""
        x_u = np.asarray(x_u, dtype=np.float64)
        x_i = np.asarray(x_i, dtype=np.float64)
        m = self.latent_dim
        if x_u.shape != x_i.shape or x_u.ndim != 2 or x_u.shape[1] != m:
            raise ShapeError(f"dp head expected two (B, {m}) latents, "
                             f"got {x_u.shape} and {x_i.shape}")
        self._cache = (x_u, x_i)
        if self.pure_dot:
            return (x_u * x_i).sum(axis=1)
        w = self.w.value
        return (x_u * (x_i + w[:m]) + x_i * w[m:]).sum(axis=1) + self.beta0.value

    def backward(self, dy):
        """(dx_u, dx_i) given the (B,) gradient of the ratings."""
        x_u, x_i = self._cache
        m = self.latent_dim
        dy = np.asarray(dy, dtype=np.float64)[:, None]
        dx_u = dy * x_i
        dx_i = dy * x_u
        if not self.pure_dot:
            self.beta0.grad += dy.sum()
            self.w.grad += np.concatenate([dx_i, dx_u], axis=1).sum(axis=0)
            dx_u = dx_u + dy * self.w.value[:m]
            dx_i = dx_i + dy * self.w.value[m:]
        return dx_u, dx_i


class FmHead(Layer):
    """Factorization-machine coupling over z = concat(x_u, x_i):

        y = beta0 + w . z + sum_{i<j} <v_i, v_j> z_i z_j

    evaluated through the low-rank identity
    0.5 * sum_f [ (sum_i V_if z_i)^2 - sum_i V_if^2 z_i^2 ].
    """

    def __init__(self, latent_dim, rank, rng, name="head"):
        if rank < 1:
            raise ConfigError(f"fm rank must be >= 1, got {rank}")
        self.latent_dim = latent_dim
        self.rank = rank
        self.beta0 = Parameter(0.0, f"{name}.beta0")
        self.w = Parameter(np.zeros(2 * latent_dim), f"{name}.w")
        self.V = Parameter(glorot_uniform((2 * latent_dim, rank), rng), f"{name}.V")

    def parameters(self):
        return [self.beta0, self.w, self.V]

    def predict_z(self, z):
        """(B,) ratings from the (B, 2m) concatenated latents; the sums run
        along the last axis, so one 2m-vector gives one rating."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape[-1:] != (2 * self.latent_dim,):
            raise ShapeError(
                f"fm head expected (B, {2 * self.latent_dim}) input, got {z.shape}")
        V = self.V.value
        s = z @ V                       # per-factor weighted sums
        q = (z * z) @ (V * V)
        self._cache = (z, s)
        return self.beta0.value + (z * self.w.value).sum(axis=-1) \
            + 0.5 * (s * s - q).sum(axis=-1)

    def predict(self, x_u, x_i):
        """(B,) ratings from (B, m) user and item latents."""
        return self.predict_z(np.concatenate([x_u, x_i], axis=1))

    def backward_z(self, dy):
        """(B, 2m) gradient of z given the (B,) gradient of the ratings."""
        z, s = self._cache
        V = self.V.value
        dy = np.asarray(dy, dtype=np.float64)
        self.beta0.grad += dy.sum()
        self.w.grad += dy @ z
        self.V.grad += z.T @ (dy[:, None] * s) - V * (dy @ (z * z))[:, None]
        return dy[:, None] * (self.w.value + s @ V.T - (V * V).sum(axis=1) * z)

    def backward(self, dy):
        dz = self.backward_z(dy)
        m = self.latent_dim
        return dz[:, :m], dz[:, m:]


class DeepConn:
    """The full twin-tower model: two independent towers plus a coupling head.

    forward() takes a batch of B pairs and must be followed by backward()
    before the next forward when training: layer caches hold one batch.
    """

    def __init__(self, config, seed=0):
        problems = config.validate()
        if problems:
            raise ConfigError("; ".join(problems))
        self.config = config
        rng = np.random.default_rng(seed)
        self.user_tower = Tower(config.tower, rng, "user_tower")
        self.item_tower = Tower(config.tower, rng, "item_tower")
        m = config.tower.dense_units
        if config.head == "dp":
            self.head = DpHead(m, pure_dot=config.pure_dot, name="head")
        else:
            self.head = FmHead(m, config.fm_rank, rng, name="head")

    def parameters(self):
        return (self.user_tower.parameters() + self.item_tower.parameters()
                + self.head.parameters())

    def forward(self, user_ids, item_ids, matrix, rng=None, user_rows=None,
                item_rows=None):
        """(B,) predicted ratings of B pairs, given as the users' and the
        items' token ids into the (V, d) `matrix`.

        Without rows, `user_ids` and `item_ids` are (B, T), one document per
        pair.  `user_rows` (B,) indexes the rows of `user_ids` instead, so a
        user's document is encoded once however many pairs share it;
        `item_rows` does the same for the items (see `Tower.forward`).

        An rng means train mode.  One `rng.random((B, 2n, hidden_units))`
        block holds every dropout draw, pair b's in row b, in the order
        user recurrent, user feature, item recurrent, item feature: the
        uniforms the B pairs would draw run one at a time.
        """
        user_draws = item_draws = None
        if rng is not None:
            n = self.user_tower.n_masks
            B = len(user_ids if user_rows is None else user_rows)
            draws = rng.random((B, 2 * n, self.config.tower.hidden_units))
            user_draws, item_draws = draws[:, :n], draws[:, n:]
        x_u = self.user_tower.forward(user_ids, matrix, user_draws, user_rows)
        x_i = self.item_tower.forward(item_ids, matrix, item_draws, item_rows)
        return self.head.predict(x_u, x_i)

    def backward(self, dy):
        """Accumulate every parameter gradient given the (B,) gradient of the
        ratings.  Returns nothing: the documents are frozen embeddings."""
        dx_u, dx_i = self.head.backward(dy)
        self.user_tower.backward(dx_u)
        self.item_tower.backward(dx_i)

    def predict(self, user_doc_embedding, item_doc_embedding):
        """Eval-mode rating of one pair of embedded (T, d) documents, as a
        float.  Each document is read as a table of its own T rows."""
        user = np.asarray(user_doc_embedding, dtype=np.float64)
        item = np.asarray(item_doc_embedding, dtype=np.float64)
        x_u = self.user_tower.forward(np.arange(len(user))[None], user)
        x_i = self.item_tower.forward(np.arange(len(item))[None], item)
        return float(self.head.predict(x_u, x_i)[0])


def parameter_shapes(config):
    """The (name, shape) of each array `DeepConn(config).parameters()`
    returns, in that order, worked out from the config alone so that a
    checkpoint can be sized before any model is built."""
    t = config.tower
    d, H, m = t.embedding_dim, t.hidden_units, t.dense_units
    shapes = []
    for tower in ("user_tower", "item_tower"):
        if t.kind == "cnn":
            shapes += [(f"{tower}.conv.kernels", (H, t.kernel, d)),
                       (f"{tower}.conv.bias", (H,))]
        elif t.kind == "gru":
            shapes += [(f"{tower}.gru.{w}_{g}", shape)
                       for w, shape in (("U", (d, H)), ("W", (H, H))) for g in "zrh"]
        else:
            shapes += [(f"{tower}.lstm.{w}_{g}", shape) for g in LstmCell.GATES
                       for w, shape in (("U", (d, H)), ("W", (H, H)), ("b", (H,)))]
        shapes += [(f"{tower}.dense.W", (H, m)), (f"{tower}.dense.b", (m,))]
    if not config.pure_dot:
        shapes += [("head.beta0", ()), ("head.w", (2 * m,))]
    if config.head == "fm":
        shapes.append(("head.V", (2 * m, config.fm_rank)))
    return shapes


def mse(predictions, targets):
    """Mean squared error (1/N) sum (r_n - rhat_n)^2."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeError(f"mse length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ConfigError("mse needs at least one prediction")
    if not (np.isfinite(p).all() and np.isfinite(t).all()):
        raise NumericFault("non-finite value in mse inputs")
    return float(np.mean((t - p) ** 2))
