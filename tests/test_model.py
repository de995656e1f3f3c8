import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepconn.errors import ConfigError, ShapeError
from deepconn.gradcheck import gradient_check, miniature_model
from deepconn.model import (DeepConn, DpHead, FmHead, ModelConfig, Tower,
                            TowerConfig, build_config, mse, parameter_shapes)

from fm_oracle import check_fm_head, check_random_fm_head
from per_sample import table


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestConfig:
    def test_invalid_values_are_all_reported(self):
        config = ModelConfig(tower=TowerConfig(kind="mlp", embedding_dim=0,
                                               dropout_rate=1.5),
                             head="sum", fm_rank=0)
        problems = config.validate()
        assert len(problems) == 5

    def test_build_config_presets(self):
        base = build_config("baseline-replica")
        assert base.tower.dense_units == 32 and base.tower.dropout_rate == 0.0
        comp = build_config("comparison", kind="gru", embedding_dim=100)
        assert comp.tower.hidden_units == 64 and comp.tower.dropout_rate == 0.10

    def test_build_config_rejects_unknown_preset_and_override(self):
        with pytest.raises(ConfigError):
            build_config("original")
        with pytest.raises(ConfigError):
            build_config("comparison", learning_rate=0.1)
        with pytest.raises(ConfigError, match="recurrent_dropout_rate"):
            build_config("comparison", kind="cnn", recurrent_dropout_rate=0.2)
        assert build_config("comparison", kind="gru",
                            recurrent_dropout_rate=0.2).tower.recurrent_dropout_rate

    def test_baseline_replica_is_cnn_only(self):
        with pytest.raises(ConfigError):
            build_config("baseline-replica", kind="gru")

    def test_config_dict_round_trip(self):
        config = build_config("comparison", kind="lstm", head="fm", fm_rank=4)
        assert ModelConfig.from_dict(config.to_dict()) == config

    def test_pure_dot_needs_the_dp_head(self):
        with pytest.raises(ConfigError, match="pure_dot"):
            build_config("comparison", head="fm", pure_dot=True)
        with pytest.raises(ConfigError, match="pure_dot"):
            DeepConn(ModelConfig(head="fm", pure_dot=True))
        assert build_config("comparison", head="dp", pure_dot=True).pure_dot


class TestTower:
    def test_cnn_shape_chain(self):
        # T=300, d=50, 64 channels: conv 49x64 -> pooled 64 -> dense latent.
        config = TowerConfig(kind="cnn", embedding_dim=50, hidden_units=64,
                             dense_units=64, dropout_rate=0.0)
        tower = Tower(config, _rng(), "t")
        assert tower.encoder.output_length(300) == 49
        out = tower.forward(*table(_rng(1).standard_normal((1, 300, 50))))
        assert out.shape == (1, 64)

    def test_relu_output_nonnegative_on_zero_input(self):
        config = TowerConfig(kind="cnn", embedding_dim=8, hidden_units=4,
                             kernel=4, stride=2, dense_units=4, dropout_rate=0.0)
        tower = Tower(config, _rng(2), "t")
        out = tower.forward(*table(np.zeros((1, 12, 8))))
        assert np.all(out >= 0.0)

    @pytest.mark.parametrize("kind", ["cnn", "gru", "lstm"])
    def test_eval_mode_deterministic(self, kind):
        config = TowerConfig(kind=kind, embedding_dim=8, hidden_units=4,
                             kernel=4, stride=2, dense_units=4)
        tower = Tower(config, _rng(3), "t")
        ids, matrix = table(_rng(4).standard_normal((1, 10, 8)))
        npt.assert_array_equal(tower.forward(ids, matrix), tower.forward(ids, matrix))

    def test_wrong_embedding_dim(self):
        config = TowerConfig(kind="cnn", embedding_dim=8, kernel=4)
        tower = Tower(config, _rng(), "t")
        with pytest.raises(ShapeError):
            tower.forward(*table(np.zeros((1, 10, 9))))

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_recurrent_dropout_gradient(self, kind):
        # Variational mask on the recurrent state input, verified end to end.
        config = TowerConfig(kind=kind, embedding_dim=5, hidden_units=4,
                             dense_units=3, dropout_rate=0.0,
                             recurrent_dropout_rate=0.5)
        tower = Tower(config, _rng(5), "t")
        doc = table(_rng(6).standard_normal((1, 4, 5)))
        w = _rng(7).standard_normal((1, 3))
        # gradient_check re-evaluates the loss; the mask must not move
        draws = np.linspace(0.1, 0.9, 4).reshape(1, 1, 4)

        def loss_fn():
            out = tower.forward(*doc, draws)
            return float(np.sum(w * out)), lambda: tower.backward(w)

        assert gradient_check(loss_fn, tower.parameters()) < 1e-4

    @pytest.mark.parametrize("kind", ["cnn", "gru", "lstm"])
    def test_rng_draws_recurrent_then_feature_mask(self, kind):
        # Draws mean train mode: one row of H uniforms per mask, recurrent
        # mask first.  No draws means eval mode, with no mask at all.
        recurrent = 0.0 if kind == "cnn" else 0.2
        config = TowerConfig(kind=kind, embedding_dim=5, hidden_units=4,
                             kernel=2, stride=1, dense_units=3, dropout_rate=0.3,
                             recurrent_dropout_rate=recurrent)
        tower = Tower(config, _rng(5), "t")
        assert tower.n_masks == (1 if kind == "cnn" else 2)
        doc = table(_rng(6).standard_normal((1, 6, 5)))
        draws = _rng(7).random((1, tower.n_masks, 4))
        out = tower.forward(*doc, draws)

        def features(recurrent_mask):
            if kind == "cnn":
                return tower.encoder.forward(*doc)
            return tower.encoder.forward(*doc, recurrent_mask)

        uniforms = iter(_rng(7).random((tower.n_masks, 4)))
        mask = None
        if kind != "cnn":
            mask = (next(uniforms) >= recurrent)[None] / (1.0 - recurrent)
        feat = features(mask) * ((next(uniforms) >= 0.3) / (1.0 - 0.3))
        npt.assert_array_equal(out, tower.dense.forward(feat))
        npt.assert_array_equal(tower.forward(*doc),
                               tower.dense.forward(features(None)))


class TestDpHead:
    def test_plain_dot_product(self):
        head = DpHead(3)
        x = np.array([[1.0, 2.0, 3.0]])
        assert head.predict(x, x) == pytest.approx([14.0])

    def test_zero_user_vector_kills_dot_term(self):
        head = DpHead(3)
        head.beta0.value[...] = 0.7
        head.w.value[:] = np.arange(6, dtype=float)
        x_i = np.array([[1.0, 1.0, 1.0]])
        expected = 0.7 + head.w.value[3:] @ x_i[0]
        assert head.predict(np.zeros((1, 3)), x_i) == pytest.approx([expected])

    def test_bias_only_for_orthogonal_vectors(self):
        head = DpHead(2)
        head.beta0.value[...] = 0.5
        assert head.predict(np.array([[1.0, 0.0]]),
                            np.array([[0.0, 1.0]])) == pytest.approx([0.5])

    def test_bilinear_in_user_vector_when_first_order_zero(self):
        head = DpHead(3)
        rng = _rng(8)
        x_u, x_i = rng.standard_normal((1, 3)), rng.standard_normal((1, 3))
        base = head.predict(x_u, x_i)
        assert head.predict(2.5 * x_u, x_i) == pytest.approx(2.5 * base)

    def test_pure_dot_disables_first_order(self):
        head = DpHead(2, pure_dot=True)
        head.beta0.value[...] = 9.0
        head.w.value[:] = 9.0
        x = np.array([[1.0, 2.0]])
        assert head.predict(x, x) == pytest.approx([5.0])
        assert head.parameters() == []

    def test_dimension_mismatch(self):
        head = DpHead(3)
        with pytest.raises(ShapeError):
            head.predict(np.zeros((1, 3)), np.zeros((1, 4)))


class TestFmHead:
    def test_single_nonzero_entry_has_no_pairwise_term(self):
        head = FmHead(5, rank=3, rng=_rng())
        head.beta0.value[...] = 0.25
        head.w.value[:] = np.arange(10, dtype=float) / 10.0
        z = np.zeros((2, 10))
        z[0, 0] = 1.0
        z[1, 3] = 1.0
        assert head.predict_z(z) == pytest.approx([0.25 + 0.0, 0.25 + 0.3])

    def test_hand_worked_two_variable_example(self):
        head = FmHead(1, rank=2, rng=_rng())
        head.beta0.value[...] = 0.1
        head.w.value[:] = [0.5, 0.5]
        head.V.value[:] = [[1.0, 0.0], [0.2, 0.0]]
        assert head.predict_z(np.array([[1.0, 1.0]])) == pytest.approx([1.3])

    def test_low_rank_identity_matches_double_loop_seeded(self):
        rng = _rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            k = int(rng.integers(1, 5))
            z = rng.standard_normal(n)
            V = rng.standard_normal((n, k))
            w = rng.standard_normal(n)
            beta0 = float(rng.standard_normal())
            if n % 2 == 1:
                continue  # head input is a concatenation of two equal halves
            check_fm_head(FmHead(n // 2, rank=k, rng=rng), z, V, w, beta0)

    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_low_rank_identity_property(self, half, k, seed):
        check_random_fm_head(np.random.default_rng(seed), half, k)


class TestMse:
    def test_perfect_predictions(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_arithmetic(self):
        assert mse([2.0, 4.0], [1.0, 2.0]) == pytest.approx(2.5)

    def test_constant_mean_predictor_gives_variance(self):
        rng = _rng(10)
        targets = rng.uniform(1, 5, size=200)
        preds = np.full_like(targets, targets.mean())
        assert mse(preds, targets) == pytest.approx(np.var(targets))

    def test_empty_and_mismatched_inputs(self):
        with pytest.raises(ConfigError):
            mse([], [])
        with pytest.raises(ShapeError):
            mse([1.0], [1.0, 2.0])

    def test_nonnegative_and_zero_iff_equal(self):
        rng = _rng(11)
        p = rng.standard_normal(50)
        t = rng.standard_normal(50)
        assert mse(p, t) > 0.0


class TestDeepConn:
    @pytest.mark.parametrize("kind", ["cnn", "gru", "lstm"])
    @pytest.mark.parametrize("head, pure_dot", [("dp", False), ("dp", True),
                                                ("fm", False)])
    def test_parameter_shapes_match_the_built_model(self, kind, head, pure_dot):
        # Every size differs from every other, so a swapped axis shows.
        config = ModelConfig(tower=TowerConfig(
            kind=kind, embedding_dim=5, hidden_units=3, kernel=7, stride=2,
            dense_units=4), head=head, fm_rank=2, pure_dot=pure_dot)
        built = [(p.name, p.shape) for p in DeepConn(config).parameters()]
        assert parameter_shapes(config) == built

    def _docs(self, seed=12, T=12, d=8):
        rng = _rng(seed)
        return rng.standard_normal((T, d)), rng.standard_normal((T, d))

    @pytest.mark.parametrize("kind", ["cnn", "gru", "lstm"])
    @pytest.mark.parametrize("head", ["dp", "fm"])
    def test_untrained_model_outputs_finite(self, kind, head):
        model = miniature_model(kind, head, seed=1)
        user_doc, item_doc = self._docs()
        assert np.isfinite(model.predict(user_doc, item_doc))

    def test_towers_are_not_shared(self):
        model = miniature_model("cnn", "dp", seed=2)
        user_doc, item_doc = self._docs(13)
        assert model.predict(user_doc, item_doc) != pytest.approx(
            model.predict(item_doc, user_doc))
        user_params = {id(p) for p in model.user_tower.parameters()}
        item_params = {id(p) for p in model.item_tower.parameters()}
        assert not user_params & item_params

    @pytest.mark.parametrize("kind", ["cnn", "lstm"])
    def test_rng_block_holds_the_per_pair_draws_in_order(self, kind):
        # One rng.random((B, 2n, H)) block: pair b gets the uniforms that B
        # pairs run one at a time would draw, user recurrent, user feature,
        # item recurrent, item feature, and nothing more is drawn.
        config = ModelConfig(tower=TowerConfig(
            kind=kind, embedding_dim=5, hidden_units=4, kernel=2, stride=1,
            dense_units=3, dropout_rate=0.3,
            recurrent_dropout_rate=0.0 if kind == "cnn" else 0.2), head="fm")
        model = DeepConn(config, seed=8)
        ids, matrix = table(_rng(9).standard_normal((6, 6, 5)))
        user_ids, item_ids = ids[:3], ids[3:]
        rng, one_at_a_time = _rng(10), _rng(10)
        y = model.forward(user_ids, item_ids, matrix, rng)
        n = model.user_tower.n_masks
        for b in range(3):
            draws = np.array([one_at_a_time.random(4) for _ in range(2 * n)])
            x_u = model.user_tower.forward(user_ids[b:b + 1], matrix, draws[None, :n])
            x_i = model.item_tower.forward(item_ids[b:b + 1], matrix, draws[None, n:])
            npt.assert_allclose(y[b], model.head.predict(x_u, x_i)[0],
                                rtol=1e-12, atol=0)
        assert rng.random() == one_at_a_time.random()  # no further draws

    @pytest.mark.parametrize("kind, recurrent", [
        ("cnn", 0.0), ("gru", 0.0), ("lstm", 0.0), ("gru", 0.2), ("lstm", 0.2)])
    @pytest.mark.parametrize("user_rows, item_rows", [
        ([0, 0, 0, 0, 0], [0, 0, 0, 0, 0]),     # every pair shares one document
        ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0]),     # every document is its own
        ([0, 1, 0, 2, 1], [2, 2, 0, 1, 2]),     # a mix
    ], ids=["same", "distinct", "mixed"])
    def test_shared_documents_match_one_document_per_pair(
            self, kind, recurrent, user_rows, item_rows):
        # The training path, each document once plus a row per pair, against
        # the same pairs run one document per pair with the same draws: the
        # predictions and every parameter gradient agree within 1e-12 of the
        # array's largest entry, and bit for bit under recurrent dropout,
        # where each pair runs its own document.  T=60 puts a chunk boundary
        # into the unroll of 5 documents but not of 1 to 3.
        config = ModelConfig(tower=TowerConfig(
            kind=kind, embedding_dim=5, hidden_units=4, kernel=2, stride=1,
            dense_units=3, dropout_rate=0.3, recurrent_dropout_rate=recurrent),
            head="fm")
        model = DeepConn(config, seed=11)
        user_rows, item_rows = np.array(user_rows), np.array(item_rows)
        ids, matrix = table(_rng(12).standard_normal((12, 60, 5)))
        user_ids = ids[:user_rows.max() + 1]
        item_ids = ids[6:7 + item_rows.max()]
        dy = _rng(13).standard_normal(5)

        def run(*batch):
            for p in model.parameters():
                p.zero_grad()
            y = model.forward(*batch[:3], _rng(14), *batch[3:])
            model.backward(dy)
            return [y] + [p.grad.copy() for p in model.parameters()]

        shared = run(user_ids, item_ids, matrix, user_rows, item_rows)
        per_pair = run(user_ids[user_rows], item_ids[item_rows], matrix)
        for actual, reference in zip(shared, per_pair):
            if recurrent:
                npt.assert_array_equal(actual, reference)
            else:
                assert np.max(np.abs(actual - reference)) <= \
                    1e-12 * np.max(np.abs(reference))

    def test_eval_mode_is_pure(self):
        model = miniature_model("gru", "fm", seed=4)
        user_doc, item_doc = self._docs(16)
        before = [p.value.copy() for p in model.parameters()]
        y1 = model.predict(user_doc, item_doc)
        y2 = model.predict(user_doc, item_doc)
        assert y1 == y2
        for p, v in zip(model.parameters(), before):
            npt.assert_array_equal(p.value, v)


# The presets' tower stacks, each checked in one place: here and by
# acceptance criterion 8.

def check_baseline_replica_stack(rng):
    stack = Tower(build_config("baseline-replica").tower, rng, "t").stack()
    assert [name for name, _ in stack] == ["conv1d", "maxpool_over_time",
                                           "flatten", "dense"]
    props = dict(stack)
    assert props["conv1d"]["kernel"] == 8 and props["conv1d"]["stride"] == 6
    assert props["dense"]["units"] == 32


def check_comparison_cnn_stack(rng):
    props = dict(Tower(build_config("comparison", kind="cnn").tower, rng, "t").stack())
    assert props["conv1d"]["channels"] == 64
    assert props["conv1d"]["activation"] == "relu"
    assert props["dense"] == {"units": 64, "activation": "relu"}
    assert props["dropout"]["rate"] == pytest.approx(0.10)


def check_comparison_recurrent_stack(kind, rng):
    stack = Tower(build_config("comparison", kind=kind).tower, rng, "t").stack()
    assert stack[0] == (kind, {"units": 64, "activation": "tanh"})
    assert dict(stack)["dropout"]["rate"] == pytest.approx(0.10)
    assert dict(stack)["dense"] == {"units": 64, "activation": "relu"}


class TestStructure:
    def test_baseline_replica_stack_matches_original_recipe(self):
        check_baseline_replica_stack(_rng())

    def test_comparison_preset_cnn(self):
        check_comparison_cnn_stack(_rng())

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_comparison_preset_recurrent(self, kind):
        check_comparison_recurrent_stack(kind, _rng())

    @pytest.mark.parametrize("kind, cell_names", [
        ("gru", ["U_z", "U_r", "U_h", "W_z", "W_r", "W_h"]),
        ("lstm", ["U_i", "W_i", "b_i", "U_f", "W_f", "b_f",
                  "U_o", "W_o", "b_o", "U_g", "W_g", "b_g"]),
    ])
    def test_recurrent_parameter_names_pinned(self, kind, cell_names):
        # These names, in this order, are the v1 checkpoint manifest.
        model = miniature_model(kind, "dp")
        expected = [f"{tower}.{name}" for tower in ("user_tower", "item_tower")
                    for name in [f"{kind}.{n}" for n in cell_names]
                    + ["dense.W", "dense.b"]] + ["head.beta0", "head.w"]
        assert [p.name for p in model.parameters()] == expected

    def test_filters_override_realizes_two_channel_reading(self):
        config = build_config("baseline-replica", hidden_units=2)
        tower = Tower(config.tower, _rng(), "t")
        assert dict(tower.stack())["conv1d"]["channels"] == 2
