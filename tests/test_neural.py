import json
import random
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from grt import neural
from grt.core import IoConstraint, default_grammar
from grt.datagen import gen_crit_dataset
from grt.neural import (
    DegenerateShape,
    EMBED_DIM,
    EMBED_VOCAB,
    NonFiniteLoss,
    ShapeMismatch,
    TrainConfig,
    WeightsFormatError,
    bce_loss,
    encode,
    encode_batch,
    forward,
    hidden_layer_sizes,
    init_weights,
    load_weights,
    loss_and_grads,
    predict_bits,
    save_weights,
    terminal_order_hash,
    train,
)
from grt.neural import _forward_all, _params

FIXTURE_WEIGHTS = Path(__file__).resolve().parent.parent / "perfbench" / "fixture" / "weights.bin"


class TestEncode:
    def test_empty_pair_is_all_zero(self):
        assert encode(IoConstraint(("",), "")).tolist() == [0] * 40

    def test_ascii_codes_and_padding(self):
        codes = encode(IoConstraint(("ab",), "b"))
        assert codes[:3].tolist() == [97, 98, 0]
        assert codes[20:22].tolist() == [98, 0]
        assert codes.sum() == 97 + 98 + 98

    def test_truncation_to_twenty(self):
        long = "123456789012345678901234"
        codes = encode(IoConstraint((long,), "x"))
        assert codes[:20].tolist() == [ord(c) for c in long[:20]]

    def test_multi_variable_separator(self):
        codes = encode(IoConstraint(("a", "b"), ""))
        assert codes[:4].tolist() == [97, 0x1F, 98, 0]

    def test_non_ascii_clamped(self):
        codes = encode(IoConstraint(("é",), ""))
        assert codes.max() == EMBED_VOCAB - 1

    @given(st.lists(st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=127), max_size=20), min_size=2, max_size=8, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_injective_on_ascii_pairs(self, strings):
        pairs = [IoConstraint((s,), t) for s in strings for t in strings]
        seen = {}
        for c in pairs:
            key = tuple(encode(c).tolist())
            if key in seen:
                assert seen[key] == c
            seen[key] = c


class TestHiddenLayerSizes:
    def test_ratio_one_keeps_width(self):
        assert hidden_layer_sizes(100, 100, 3) == [100, 100, 100]

    def test_against_high_precision_evaluation(self):
        getcontext().prec = 60
        inp, out = Decimal(100), Decimal(15)
        for n in (1, 2, 3):
            exact = inp * (out / inp) ** (Decimal(n) / Decimal(6))
            expected = int((exact + Decimal("0.5")).to_integral_value(rounding="ROUND_FLOOR"))
            assert hidden_layer_sizes(100, 15, 3)[n - 1] == expected
        assert hidden_layer_sizes(100, 15, 3) == [73, 53, 39]

    def test_strictly_decreasing_when_shrinking(self):
        sizes = hidden_layer_sizes(100, 15, 3)
        assert sizes == sorted(sizes, reverse=True)
        assert len(set(sizes)) == len(sizes)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateShape):
            hidden_layer_sizes(100, 0, 3)


TERMS = default_grammar().terminal_names


class TestForward:
    def test_zero_weights_give_half(self):
        w = init_weights(TERMS, seed=0)
        for name, p in _params(w):
            p *= 0.0
        probs = forward(w, encode(IoConstraint(("ab",), "c")))
        assert np.allclose(probs, 0.5)

    def test_eval_mode_deterministic(self):
        w = init_weights(TERMS, seed=1)
        codes = encode(IoConstraint(("ab",), "c"))
        assert np.array_equal(forward(w, codes), forward(w, codes))

    def test_train_mode_dropout_varies(self):
        w = init_weights(TERMS, seed=1)
        codes = encode_batch([IoConstraint(("ab",), "c")])
        *_, a = _forward_all(w, codes, 0.2, np.random.default_rng(1))
        *_, b = _forward_all(w, codes, 0.2, np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_shape_mismatch(self):
        w = init_weights(TERMS, seed=0)
        with pytest.raises(ShapeMismatch):
            forward(w, np.zeros((2, 17), dtype=np.int64))

    @pytest.mark.parametrize("code", [-1, EMBED_VOCAB])
    def test_codes_outside_the_vocabulary_rejected(self, code):
        codes = np.zeros((2, 40), dtype=np.int64)
        codes[1, 7] = code
        with pytest.raises(ShapeMismatch):
            forward(init_weights(TERMS, seed=0), codes)

    def test_outputs_in_open_unit_interval(self):
        w = init_weights(TERMS, seed=2)
        probs = forward(w, encode_batch([IoConstraint(("a",), "b"), IoConstraint(("",), "")]))
        assert ((probs > 0) & (probs < 1)).all()

    def test_dropout_expectation_matches_eval(self):
        # inverted scaling: mean train-mode output over many masks ~ eval output
        w = init_weights(TERMS, seed=3)
        codes = encode_batch([IoConstraint(("ab 12",), "ab")])
        rng = np.random.default_rng(0)
        reps = [_forward_all(w, codes, 0.2, rng)[-1] for _ in range(4000)]
        # compare pre-sigmoid-nonlinearity effects loosely at the output level
        assert np.abs(np.mean(reps, axis=0) - forward(w, codes)).max() < 1e-2


class TestGradients:
    def test_matches_central_differences(self, full_grammar):
        rng = random.Random(17)
        samples = gen_crit_dataset(full_grammar, 30, 1, seed=2)
        for config_seed in range(3):
            w = init_weights(TERMS, seed=config_seed)
            batch = rng.sample(samples, 3)
            codes = encode_batch([s.constraint for s in batch])
            labels = np.array([s.label for s in batch], float)
            loss, grads = loss_and_grads(w, codes, labels)
            np_rng = np.random.default_rng(config_seed)
            for name, p in _params(w):
                flat, gflat = p.reshape(-1), grads[name].reshape(-1)
                idxs = np_rng.choice(flat.size, size=min(6, flat.size), replace=False)
                for i in idxs:
                    h = 1e-5
                    old = flat[i]
                    flat[i] = old + h
                    lp, _ = loss_and_grads(w, codes, labels)
                    flat[i] = old - h
                    lm, _ = loss_and_grads(w, codes, labels)
                    flat[i] = old
                    numeric = (lp - lm) / (2 * h)
                    denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                    assert abs(numeric - gflat[i]) / denom < 1e-4, name


class TestTrain:
    def test_single_sample_memorization(self, full_grammar):
        samples = gen_crit_dataset(full_grammar, 1, 1, seed=3)
        config = TrainConfig(epochs=200, batch_size=1, dropout_rate=0.0, seed=0)
        w = train(samples, config, TERMS)
        probs = forward(w, encode(samples[0].constraint))
        assert np.abs(probs - np.array(samples[0].label)).max() < 0.1

    def test_loss_decreases(self, full_grammar):
        samples = gen_crit_dataset(full_grammar, 300, 3, seed=4)
        w = train(samples, TrainConfig(epochs=4, seed=0), TERMS)
        assert w.epoch_losses[-1] <= w.epoch_losses[0]

    def test_dataset_order_irrelevant(self, full_grammar):
        samples = gen_crit_dataset(full_grammar, 80, 2, seed=5)
        shuffled = list(samples)
        random.Random(9).shuffle(shuffled)
        w1 = train(samples, TrainConfig(epochs=2, seed=1), TERMS)
        w2 = train(shuffled, TrainConfig(epochs=2, seed=1), TERMS)
        for (_, a), (_, b) in zip(_params(w1), _params(w2)):
            assert np.array_equal(a, b)

    def test_seeded_determinism(self, full_grammar):
        samples = gen_crit_dataset(full_grammar, 60, 2, seed=6)
        w1 = train(samples, TrainConfig(epochs=2, seed=2), TERMS)
        w2 = train(samples, TrainConfig(epochs=2, seed=2), TERMS)
        for (_, a), (_, b) in zip(_params(w1), _params(w2)):
            assert np.array_equal(a, b)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], TrainConfig(), TERMS)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(dropout_rate=1.0)


class TestPredictBits:
    def test_half_probabilities_threshold_half(self):
        w = init_weights(TERMS, seed=0)
        for name, p in _params(w):
            p *= 0.0
        bits = predict_bits(w, IoConstraint(("a",), "b"))
        assert bits.tolist() == [1] * len(TERMS)


class TestWeightsFile:
    def test_round_trip_byte_equivalent(self, tmp_path, full_grammar):
        samples = gen_crit_dataset(full_grammar, 30, 1, seed=8)
        w = train(samples, TrainConfig(epochs=1, seed=0), TERMS)
        path = tmp_path / "w.bin"
        save_weights(path, w)
        loaded = load_weights(path, TERMS)
        for (na, a), (nb, b) in zip(_params(w), _params(loaded)):
            assert na == nb and np.array_equal(a, b)
        path2 = tmp_path / "w2.bin"
        save_weights(path2, loaded)
        assert path2.read_bytes() == path.read_bytes()

    def test_terminal_hash_mismatch_refused(self, tmp_path):
        w = init_weights(TERMS, seed=0)
        path = tmp_path / "w.bin"
        save_weights(path, w)
        wrong = tuple(reversed(TERMS))
        with pytest.raises(WeightsFormatError):
            load_weights(path, wrong)

    def test_truncated_payload_refused(self, tmp_path):
        w = init_weights(TERMS, seed=0)
        path = tmp_path / "w.bin"
        save_weights(path, w)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(WeightsFormatError):
            load_weights(path, TERMS)

    def test_fixture_file_round_trips_byte_for_byte(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, load_weights(FIXTURE_WEIGHTS, TERMS))
        assert path.read_bytes() == FIXTURE_WEIGHTS.read_bytes()

    @pytest.mark.parametrize("pooling", ["flatten", "max"])
    def test_pooling_other_than_mean_refused(self, tmp_path, pooling):
        header, payload = FIXTURE_WEIGHTS.read_bytes().split(b"\n", 1)
        path = tmp_path / "w.bin"
        path.write_bytes(header.replace(b'"pooling":"mean"', f'"pooling":"{pooling}"'.encode()) + b"\n" + payload)
        with pytest.raises(WeightsFormatError, match="unsupported pooling"):
            load_weights(path, TERMS)

    def test_hash_is_order_sensitive(self):
        assert terminal_order_hash(("a", "b")) != terminal_order_hash(("b", "a"))


def test_bce_loss_matches_direct_formula():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(4, 5))
    labels = rng.integers(0, 2, size=(4, 5)).astype(float)
    probs = 1 / (1 + np.exp(-logits))
    direct = -(labels * np.log(probs) + (1 - labels) * np.log(1 - probs)).mean()
    assert bce_loss(logits, labels) == pytest.approx(direct, rel=1e-9)



CODES = encode_batch([IoConstraint(("a",), "b")])
LABELS = np.zeros((1, len(TERMS)))
DIMS = init_weights(TERMS).layer_dims
CHAIN = [(DIMS[i], DIMS[i + 1]) for i in range(len(DIMS) - 1)]


def reshaped(part):
    w = init_weights(TERMS)
    if part == "embedding":
        w.embedding = np.zeros((3, 3))
    elif part == "layer_dims":
        w.layer_dims = (DIMS[0] + 1, *DIMS[1:])
    else:
        W, b = w.hidden[0]
        w.hidden[0] = (W[:, :-1], b)
    return w


@pytest.mark.parametrize("make, error, message", [
    (lambda: loss_and_grads(reshaped("embedding"), CODES, LABELS), ShapeMismatch,
     f"embedding must be {(EMBED_VOCAB, EMBED_DIM)}"),
    (lambda: loss_and_grads(reshaped("layer_dims"), CODES, LABELS), ShapeMismatch,
     f"first layer width must be {EMBED_DIM}"),
    (lambda: loss_and_grads(reshaped("hidden"), CODES, LABELS), ShapeMismatch,
     f"layer shapes {[(DIMS[0], DIMS[1] - 1), *CHAIN[1:]]} do not chain as {CHAIN}"),
    (lambda: loss_and_grads(init_weights(TERMS), CODES, np.zeros((1, 2))), ShapeMismatch,
     f"labels must be {(1, len(TERMS))}"),
    (lambda: TrainConfig(epochs=0), ValueError, "epochs, batch_size, learning_rate must be positive"),
    (lambda: init_weights(()), DegenerateShape, "need at least one terminal"),
    (lambda: train(gen_crit_dataset(default_grammar(), 2, 1, seed=0), TrainConfig(epochs=1), TERMS[:-1]),
     ShapeMismatch, f"labels have {len(TERMS)} bits for {len(TERMS) - 1} terminals"),
], ids=["embedding", "first-layer", "chain", "labels", "config", "no-terminals", "label-bits"])
def test_each_refusal_names_what_is_wrong(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message


def test_a_loss_that_is_not_finite_stops_training(monkeypatch):
    monkeypatch.setattr(neural, "loss_and_grads", lambda *args: (float("nan"), {}))
    with pytest.raises(NonFiniteLoss, match="^loss became nan at step 0$"):
        train(gen_crit_dataset(default_grammar(), 2, 1, seed=0), TrainConfig(epochs=1), TERMS)

def _header_edited(edit):
    header, payload = FIXTURE_WEIGHTS.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    edit(fields)
    return json.dumps(fields).encode() + b"\n" + payload


@pytest.mark.parametrize("content, message", [
    (b"{not json\n", "bad header: "),
    (_header_edited(lambda h: h.update(version=2)), "unsupported schema/version"),
    (_header_edited(lambda h: h.update(n_terminals=14)), "terminal count mismatch"),
    (_header_edited(lambda h: h["layer_dims"].__setitem__(0, 7)), "inconsistent layer dims (7, "),
], ids=["header", "version", "count", "dims"])
def test_each_weights_file_refusal_names_what_is_wrong(tmp_path, content, message):
    path = tmp_path / "w.bin"
    path.write_bytes(content)
    with pytest.raises(WeightsFormatError) as exc:
        load_weights(path, TERMS)
    assert str(exc.value).startswith(f"{path}: {message}")
