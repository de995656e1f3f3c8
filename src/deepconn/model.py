"""Twin-tower rating predictor.

Two parallel encoders (one over the user's review document, one over the
item's) each produce a latent vector; a coupling head — plain dot product
or a factorization machine — turns the pair into a rating estimate.
Towers never share parameters.
"""

from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, NumericFault, ShapeError
from .layers import (Conv1d, Dense, Dropout, GruCell, LstmCell,
                     MaxPoolOverTime, Parameter, glorot_uniform)

TOWER_KINDS = ("cnn", "lstm", "gru")
HEAD_KINDS = ("dp", "fm")
PRESETS = ("comparison", "baseline-replica")


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
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("dropout_rate", "recurrent_dropout_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                problems.append(f"{name} must be in [0, 1), got {rate}")
        if self.kind == "cnn" and self.recurrent_dropout_rate > 0.0:
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
        if self.fm_rank < 1:
            problems.append(f"fm_rank must be >= 1, got {self.fm_rank}")
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
    """One encoder: review document matrix (T, embedding_dim) -> latent vector.

    cnn:      conv1d -> max-pool over time -> flatten -> [dropout] -> dense(relu)
    lstm/gru: recurrence over T steps (tanh candidate), final state
              -> [dropout] -> dense(relu)
    """

    def __init__(self, config, rng, name):
        problems = config.validate()
        if problems:
            raise ConfigError("; ".join(problems))
        self.config = config
        self.name = name
        self.kind = config.kind
        d = config.embedding_dim
        self.conv = self.cell = None
        if self.kind == "cnn":
            self.conv = Conv1d(d, config.hidden_units, config.kernel,
                               config.stride, rng, f"{name}.conv")
            self.pool = MaxPoolOverTime()
        else:
            cell_cls = GruCell if self.kind == "gru" else LstmCell
            self.cell = cell_cls(d, config.hidden_units, rng, f"{name}.{self.kind}")
        self.dropout = Dropout(config.dropout_rate) if config.dropout_rate > 0 else None
        self.dense = Dense(config.hidden_units, config.dense_units, "relu", rng,
                           f"{name}.dense")

    def parameters(self):
        encoder = self.conv if self.kind == "cnn" else self.cell
        return encoder.parameters() + self.dense.parameters()

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

    def forward(self, doc_embedding, rng=None):
        """Latent vector of a (T, embedding_dim) document.  An rng means
        train mode: the tower draws its recurrent, then its feature
        dropout mask from it.  Without one it runs in eval mode."""
        x = np.asarray(doc_embedding, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.embedding_dim:
            raise ShapeError(
                f"{self.name}: expected (T, {self.config.embedding_dim}) "
                f"document embedding, got {x.shape}")
        units = self.config.hidden_units
        if self.kind == "cnn":
            feat = self.pool.forward(self.conv.forward(x))
        else:
            rate = self.config.recurrent_dropout_rate
            mask = None
            if rng is not None and rate > 0.0:
                # One mask per sequence, applied to the state input at every step.
                mask = (rng.random(units) >= rate) / (1.0 - rate)
            feat = self.cell.forward(x, mask)
        if self.dropout is not None:
            mask = None if rng is None else rng.random(units) >= self.dropout.rate
            feat = self.dropout.forward(feat, mask)
        return self.dense.forward(feat)

    def backward(self, dvec):
        dfeat = self.dense.backward(dvec)
        if self.dropout is not None:
            dfeat = self.dropout.backward(dfeat)
        if self.kind == "cnn":
            return self.conv.backward(self.pool.backward(dfeat))
        return self.cell.backward(dfeat)


class DpHead:
    """Dot-product coupling: y = beta0 + w . z + x_u . x_i, z = concat(x_u, x_i).

    pure_dot drops the trainable first-order part and predicts x_u . x_i alone.
    """

    def __init__(self, latent_dim, pure_dot=False, name="head"):
        self.latent_dim = latent_dim
        self.pure_dot = pure_dot
        self.beta0 = Parameter(0.0, f"{name}.beta0")
        self.w = Parameter(np.zeros(2 * latent_dim), f"{name}.w")
        self._cache = None

    def parameters(self):
        return [] if self.pure_dot else [self.beta0, self.w]

    def predict(self, x_u, x_i):
        x_u = np.asarray(x_u, dtype=np.float64)
        x_i = np.asarray(x_i, dtype=np.float64)
        if x_u.shape != (self.latent_dim,) or x_i.shape != (self.latent_dim,):
            raise ShapeError(
                f"dp head expected two ({self.latent_dim},) vectors, "
                f"got {x_u.shape} and {x_i.shape}")
        self._cache = (x_u, x_i)
        y = float(x_u @ x_i)
        if not self.pure_dot:
            z = np.concatenate([x_u, x_i])
            y += float(self.beta0.value) + float(self.w.value @ z)
        return y

    def backward(self, dy):
        x_u, x_i = self._cache
        m = self.latent_dim
        dx_u = dy * x_i
        dx_i = dy * x_u
        if not self.pure_dot:
            z = np.concatenate([x_u, x_i])
            self.beta0.grad += dy
            self.w.grad += dy * z
            dx_u = dx_u + dy * self.w.value[:m]
            dx_i = dx_i + dy * self.w.value[m:]
        return dx_u, dx_i


class FmHead:
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
        self._cache = None

    def parameters(self):
        return [self.beta0, self.w, self.V]

    def predict_z(self, z):
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (2 * self.latent_dim,):
            raise ShapeError(
                f"fm head expected ({2 * self.latent_dim},) input, got {z.shape}")
        V = self.V.value
        s = z @ V                       # per-factor weighted sums
        q = (z * z) @ (V * V)
        self._cache = (z, s)
        return float(self.beta0.value) + float(self.w.value @ z) \
            + 0.5 * float(np.sum(s * s - q))

    def predict(self, x_u, x_i):
        return self.predict_z(np.concatenate([x_u, x_i]))

    def backward_z(self, dy):
        z, s = self._cache
        V = self.V.value
        self.beta0.grad += dy
        self.w.grad += dy * z
        self.V.grad += dy * (np.outer(z, s) - V * (z * z)[:, None])
        return dy * (self.w.value + V @ s - (V * V).sum(axis=1) * z)

    def backward(self, dy):
        dz = self.backward_z(dy)
        m = self.latent_dim
        return dz[:m], dz[m:]


class DeepConn:
    """The full twin-tower model: two independent towers plus a coupling head.

    forward() must be followed by backward() before the next forward when
    training — layer caches hold exactly one sample.
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

    def forward(self, user_doc_embedding, item_doc_embedding, rng=None):
        """Predicted rating; an rng means train mode, and both towers draw
        their dropout masks from it, user tower first."""
        x_u = self.user_tower.forward(user_doc_embedding, rng)
        x_i = self.item_tower.forward(item_doc_embedding, rng)
        return self.head.predict(x_u, x_i)

    def backward(self, dy):
        dx_u, dx_i = self.head.backward(dy)
        du = self.user_tower.backward(dx_u)
        di = self.item_tower.backward(dx_i)
        return du, di

    def predict(self, user_doc_embedding, item_doc_embedding):
        """Eval-mode forward: deterministic, no dropout."""
        return self.forward(user_doc_embedding, item_doc_embedding)


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
