"""The benchmark's workloads, run through deepconn's public calls.

Every workload follows one protocol.  `prepare` makes the inputs from the
seed and is not timed.  Each iteration then runs `setup` (timed as one
setup_s sample) and `body` (the rest of the CLI path); setup plus body is
one run_s sample.  `verify` checks the iteration's outputs outside the
timed region, and `properties` measures the input properties that an
optimisation may depend on.

All models run at the paper's shapes: T=300 tokens per document, d=50,
64 units (the "comparison" preset) and mini-batches of B=32.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from checks import (check_beats_mean, check_gradients, check_mse,
                    check_same_bits)
from deepconn import baseline, gradcheck, ingest, model, synthetic, text, train

DOC_LENGTH = 300
DIM = 50
BATCH_SIZE = 32
LEARNING_RATE = 0.001
TRAIN_FRACTION = 0.81   # the CLI's default split
VAL_FRACTION = 0.09
RELOAD_PAIRS = 4        # test pairs re-predicted after a checkpoint round trip

clock = time.perf_counter


@dataclass
class Inputs:
    """What `prepare` made: the files and anything computed before timing."""
    seed: int
    workdir: object
    data: object = None
    embeddings: object = None
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """One iteration: its work, the phase rates, the outputs to check and the
    per-call results (evaluation counters, gradient-check errors) behind them."""
    items: int
    work_s: float
    phases: dict
    outputs: dict
    details: dict


def write_inputs(workdir, seed, n_reviews, n_users, n_items):
    records = synthetic.make_sample_corpus(n_reviews, n_users, n_items, seed=seed)
    inputs = Inputs(seed, workdir, workdir / "reviews.jsonl", workdir / "embeddings.txt")
    inputs.data.write_text(ingest.serialize_reviews(records), encoding="utf-8")
    inputs.embeddings.write_text(synthetic.embedding_file_text(dim=DIM, seed=seed),
                                 encoding="utf-8")
    return inputs


def load_data(inputs):
    """Parse, split, load embeddings and build the document store."""
    parsed = ingest.parse_reviews_file(inputs.data)
    split = ingest.split_dataset(parsed.records, TRAIN_FRACTION, VAL_FRACTION,
                                 seed=inputs.seed)
    table = text.load_embeddings(inputs.embeddings, DIM)
    store = train.DocumentStore(split.train + split.validation, table, DOC_LENGTH)
    return {"parsed": parsed, "split": split, "table": table, "store": store}


def known_pairs(store, pairs, n):
    """The first n pairs whose user and item both have documents."""
    return [p for p in pairs if store.has_user(p.user_id)
            and store.has_item(p.item_id)][:n]


def predictions(net, store, pairs):
    return [net.predict(store.user_embedding(p.user_id),
                        store.item_embedding(p.item_id)) for p in pairs]


def data_properties(state, outcome):
    """Input properties of the text data path and the test pairs."""
    split, table = state["split"], state["table"]
    groups = ingest.group_reviews(split.train + split.validation)
    pads = 0
    for by_entity in (groups.by_user, groups.by_item):
        for texts in by_entity.values():
            doc = text.build_document([t for _, t in texts], DOC_LENGTH, table)
            pads += int(np.count_nonzero(doc.ids == text.PAD_ID))
    entities = len(groups.by_user) + len(groups.by_item)
    test = train.pairs_from_records(split.test)
    store = state["store"]
    known = known_pairs(store, test, len(test))
    distinct = len({p.user_id for p in known}) + len({p.item_id for p in known})
    counters = outcome.details.get("evaluate", {})
    return {
        "ingest.records": len(state["parsed"].records),
        "ingest.skipped": len(state["parsed"].skips),
        "text.pad_share": pads / (entities * DOC_LENGTH),
        "train.store_entities": entities,
        "train.store_bytes": entities * DOC_LENGTH * DIM * 8,
        "train.distinct_entity_share": distinct / (2 * len(known)) if known else 0.0,
        "train.cold_start_share": (counters.get("cold_start_user", 0)
                                   + counters.get("cold_start_item", 0)) / len(test),
    }


@dataclass(frozen=True)
class TrainWorkload:
    """`deepconn train`: fit with validation, test evaluation, checkpoints."""
    tower: str
    head: str
    optimizer: str
    n_reviews: int
    n_users: int
    n_items: int
    epochs: int
    beats_mean: bool

    def prepare(self, workdir, seed):
        return write_inputs(workdir, seed, self.n_reviews, self.n_users, self.n_items)

    def setup(self, inputs):
        state = load_data(inputs)
        config = model.build_config("comparison", kind=self.tower,
                                    embedding_dim=DIM, head=self.head)
        state["net"] = model.DeepConn(config, seed=inputs.seed)
        return state

    def body(self, inputs, state):
        net, store, split = state["net"], state["store"], state["split"]
        train_pairs = train.pairs_from_records(split.train)
        started = clock()
        report = train.fit(net, store, train_pairs,
                           validation_pairs=train.pairs_from_records(split.validation),
                           optimizer=self.optimizer, learning_rate=LEARNING_RATE,
                           epochs=self.epochs, batch_size=BATCH_SIZE, seed=inputs.seed)
        fit_s = clock() - started
        test_pairs = train.pairs_from_records(split.test)
        started = clock()
        test_mse, counters = train.evaluate(net, store, test_pairs)
        eval_s = clock() - started
        checkpoint = inputs.workdir / "model.ckpt"
        train.save_checkpoint(net, checkpoint)
        if report.best_parameters is not None:
            final = [p.value.copy() for p in net.parameters()]
            train.restore_parameters(net, report.best_parameters)
            train.save_checkpoint(net, inputs.workdir / "model.best.ckpt")
            train.restore_parameters(net, final)
        mean_mse = train.mean_predictor_mse(test_pairs, store.global_mean)
        samples = len(report.epochs) * len(train_pairs)
        return Outcome(
            items=samples, work_s=fit_s,
            phases={"train_samples_per_s": samples / fit_s,
                    "eval_pairs_per_s": len(test_pairs) / eval_s},
            outputs={"test_mse": test_mse, "mean_predictor_mse": mean_mse},
            details={"evaluate": counters})

    def verify(self, inputs, state, outcome, checks, reference, first):
        test_mse = outcome.outputs["test_mse"]
        check_mse(checks, "test_mse", test_mse, reference.get("test_mse"),
                  first and first.outputs["test_mse"])
        if self.beats_mean:
            check_beats_mean(checks, test_mse, outcome.outputs["mean_predictor_mse"])
        store = state["store"]
        pairs = known_pairs(store, train.pairs_from_records(state["split"].test),
                            RELOAD_PAIRS)
        reloaded = train.load_checkpoint(inputs.workdir / "model.ckpt")
        check_same_bits(checks, "checkpoint reload",
                        predictions(state["net"], store, pairs),
                        predictions(reloaded, store, pairs))

    def properties(self, state, outcome):
        return data_properties(state, outcome)


@dataclass(frozen=True)
class EvaluateWorkload:
    """`deepconn evaluate` + `deepconn baseline` on one split: forward only."""
    n_reviews: int
    n_users: int
    n_items: int
    checkpoint_pairs: int   # training pairs behind the checkpoint made in prepare

    def prepare(self, workdir, seed):
        inputs = write_inputs(workdir, seed, self.n_reviews, self.n_users, self.n_items)
        state = load_data(inputs)
        config = model.build_config("comparison", kind="cnn", embedding_dim=DIM,
                                    head="dp")
        net = model.DeepConn(config, seed=seed)
        split, store = state["split"], state["store"]
        fit_pairs = train.pairs_from_records(split.train[:self.checkpoint_pairs])
        train.fit(net, store, fit_pairs, learning_rate=LEARNING_RATE, epochs=1,
                  batch_size=BATCH_SIZE, seed=seed)
        inputs.extra["checkpoint"] = inputs.workdir / "model.ckpt"
        train.save_checkpoint(net, inputs.extra["checkpoint"])
        pairs = known_pairs(store, train.pairs_from_records(split.test), RELOAD_PAIRS)
        inputs.extra["reload_pairs"] = pairs
        inputs.extra["reload_predictions"] = predictions(net, store, pairs)
        return inputs

    def setup(self, inputs):
        state = load_data(inputs)
        state["net"] = train.load_checkpoint(inputs.extra["checkpoint"])
        return state

    def body(self, inputs, state):
        net, store, split = state["net"], state["store"], state["split"]
        test_pairs = train.pairs_from_records(split.test)
        started = clock()
        test_mse, counters = train.evaluate(net, store, test_pairs)
        eval_s = clock() - started
        mean_mse = train.mean_predictor_mse(test_pairs, store.global_mean)
        started = clock()
        matrix = baseline.RatingMatrix(split.train + split.validation)
        sims = baseline.item_similarity(matrix)
        cf_mse, cf_counters = baseline.evaluate_cf(matrix, sims, split.test)
        cf_s = clock() - started
        return Outcome(
            items=len(test_pairs), work_s=eval_s + cf_s,
            phases={"eval_pairs_per_s": len(test_pairs) / eval_s,
                    "cf_pairs_per_s": len(test_pairs) / cf_s},
            outputs={"test_mse": test_mse, "cf_test_mse": cf_mse,
                     "mean_predictor_mse": mean_mse},
            details={"evaluate": counters, "evaluate_cf": cf_counters})

    def verify(self, inputs, state, outcome, checks, reference, first):
        for name in ("test_mse", "cf_test_mse"):
            check_mse(checks, name, outcome.outputs[name], reference.get(name),
                      first and first.outputs[name])
        reloaded = train.load_checkpoint(inputs.extra["checkpoint"])
        check_same_bits(checks, "checkpoint reload",
                        inputs.extra["reload_predictions"],
                        predictions(reloaded, state["store"],
                                    inputs.extra["reload_pairs"]))

    def properties(self, state, outcome):
        props = data_properties(state, outcome)
        cf = outcome.details["evaluate_cf"]
        props["baseline.cf_share"] = cf["cf"] / sum(cf.values())
        return props


# The battery runs at the CLI's default seed, which is the program's own
# gradient gate (acceptance criterion 1), whatever --seed says.  At other
# seeds the battery's relative error flags correct gradients: an entry of
# about 1e-7 against a loss of about 16 is lost in the central difference's
# rounding at eps=1e-5 (seed 1346559176: full_model_gru_fm at 6.9e-4).
BATTERY_SEED = 0


@dataclass(frozen=True)
class GradcheckWorkload:
    """`deepconn gradcheck`: the finite-difference battery at tiny shapes."""

    def prepare(self, workdir, seed):
        return Inputs(seed, workdir)

    def setup(self, inputs):
        # The battery's layers and miniature models, built exactly as
        # standard_checks builds them; their sizes give the loss-evaluation count.
        cases = [build(np.random.default_rng(BATTERY_SEED + i))
                 for i, (_, build) in enumerate(gradcheck.STANDARD_CASES)]
        return {"loss_evals": sum(1 + 2 * sum(p.value.size for p in params)
                                  for _, params in cases)}

    def body(self, inputs, state):
        started = clock()
        results = gradcheck.standard_checks(seed=BATTERY_SEED)
        battery_s = clock() - started
        return Outcome(
            items=state["loss_evals"], work_s=battery_s,
            phases={"loss_evals_per_s": state["loss_evals"] / battery_s},
            outputs={"max_rel_error": max(err for _, err in results)},
            details={"results": results})

    def verify(self, inputs, state, outcome, checks, reference, first):
        check_gradients(checks, outcome.details["results"],
                        gradcheck.DEFAULT_THRESHOLD)

    def properties(self, state, outcome):
        return {"gradcheck.loss_evals": state["loss_evals"],
                "gradcheck.max_rel_error": outcome.outputs["max_rel_error"]}


WORKLOADS = {
    "train-cnn": TrainWorkload("cnn", "dp", "adam", n_reviews=1000, n_users=50,
                               n_items=40, epochs=2, beats_mean=True),
    "train-lstm": TrainWorkload("lstm", "fm", "rmsprop", n_reviews=40, n_users=10,
                                n_items=8, epochs=1, beats_mean=False),
    "evaluate-large": EvaluateWorkload(n_reviews=20000, n_users=1000, n_items=800,
                                       checkpoint_pairs=256),
    "gradcheck": GradcheckWorkload(),
}
