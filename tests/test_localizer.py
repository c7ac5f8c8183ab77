"""Tests for the hand-written MLP localizer."""

import numpy as np
import pytest

from cocktail.errors import DegenerateDataError, DomainError, FormatError, InputError
from cocktail.features import FEATURE_DIM
from cocktail.localizer import (
    AZ_NUM_CLASSES,
    EL_NUM_CLASSES,
    MLPLocalizer,
    azimuth_class,
    elevation_class,
    evaluate_localizer,
    load_localizer,
    loss,
    loss_and_grads,
    new_localizer,
    predict_angles,
    save_localizer,
    train_localizer,
    validation_mask,
)


class FakeRecord:
    def __init__(self, features, azimuth_deg, elevation_deg, episode_id=0):
        self.features = features
        self.azimuth_deg = azimuth_deg
        self.elevation_deg = elevation_deg
        self.episode_id = episode_id


def onehot_records(n, seed=0):
    """Synthetic records whose features encode the classes redundantly."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        az = float(5 * rng.integers(-12, 13))
        el = float(5 * rng.integers(-4, 5))
        feats = rng.normal(0.0, 0.05, FEATURE_DIM)
        feats[2 + azimuth_class(az)] += 1.0
        feats[70 + elevation_class(el)] += 1.0
        records.append(FakeRecord(feats, az, el))
    return records


# ---------------------------------------------------------------------------
# Label quantization


def test_quantization_ties_round_toward_zero():
    assert azimuth_class(2.5) == azimuth_class(0.0)
    assert azimuth_class(-2.5) == azimuth_class(0.0)
    assert azimuth_class(7.5) == azimuth_class(5.0)
    assert azimuth_class(-7.5) == azimuth_class(-5.0)
    assert elevation_class(2.5) == elevation_class(0.0)
    assert azimuth_class(2.6) == azimuth_class(5.0)
    assert azimuth_class(-2.6) == azimuth_class(-5.0)


def test_quantization_covers_label_ranges():
    assert azimuth_class(-160.0) == 0
    assert azimuth_class(160.0) == AZ_NUM_CLASSES - 1
    assert elevation_class(-60.0) == 0
    assert elevation_class(60.0) == EL_NUM_CLASSES - 1
    assert azimuth_class(0.0) == 32
    assert elevation_class(0.0) == 12


def test_quantization_rejects_out_of_range():
    with pytest.raises(DomainError):
        azimuth_class(163.0)
    with pytest.raises(DomainError):
        elevation_class(-63.0)


def test_class_to_degrees_roundtrip(zero_model):
    """``predict_angles`` turns each class back into the angle it quantizes."""
    x = np.zeros(FEATURE_DIM)
    for angle in np.arange(-160.0, 161.0, 5.0):
        zero_model.ba[:] = 0.0
        zero_model.ba[azimuth_class(angle)] = 1.0
        assert predict_angles(zero_model, x)[0][0] == angle
    for angle in np.arange(-60.0, 61.0, 5.0):
        zero_model.be[:] = 0.0
        zero_model.be[elevation_class(angle)] = 1.0
        assert predict_angles(zero_model, x)[1][0] == angle


# ---------------------------------------------------------------------------
# Loss and gradients


def test_zero_model_emits_exactly_uniform_loss(zero_model):
    rng = np.random.default_rng(3)
    for batch in (1, 7):
        x = rng.normal(size=(batch, FEATURE_DIM))
        az = rng.integers(0, AZ_NUM_CLASSES, batch)
        el = rng.integers(0, EL_NUM_CLASSES, batch)
        value = loss(zero_model, x, az, el)
        assert abs(value - (np.log(65) + np.log(25))) < 1e-9


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    model = new_localizer(seed=4)
    x = rng.normal(size=(6, FEATURE_DIM))
    az = rng.integers(0, AZ_NUM_CLASSES, 6)
    el = rng.integers(0, EL_NUM_CLASSES, 6)
    _, grads = loss_and_grads(model, x, az, el)
    eps = 1e-5
    for name, arr in model.parameters():
        flat = arr.reshape(-1)
        grad = grads[name].reshape(-1)
        for i in rng.choice(flat.size, size=min(40, flat.size), replace=False):
            original = flat[i]
            flat[i] = original + eps
            upper = loss(model, x, az, el)
            flat[i] = original - eps
            lower = loss(model, x, az, el)
            flat[i] = original
            numeric = (upper - lower) / (2 * eps)
            denom = max(1e-8, abs(numeric) + abs(grad[i]))
            assert abs(numeric - grad[i]) / denom < 1e-4, name


def test_loss_validates_inputs():
    model = new_localizer()
    with pytest.raises(DomainError):
        loss(model, np.zeros((2, 3)), [0, 0], [0, 0])
    with pytest.raises(DomainError):
        loss(model, np.zeros((0, FEATURE_DIM)), [], [])
    with pytest.raises(DomainError):
        loss(model, np.full((1, FEATURE_DIM), np.nan), [0], [0])
    x = np.zeros((2, FEATURE_DIM))
    with pytest.raises(DomainError):
        loss(model, x, [0], [0, 0])
    with pytest.raises(DomainError):
        loss(model, x, [0, AZ_NUM_CLASSES], [0, 0])
    with pytest.raises(DomainError):
        loss(model, x, [0, 0], [0, -1])


def test_predict_angles_accepts_single_vector(zero_model):
    az, el = predict_angles(zero_model, np.zeros(FEATURE_DIM))
    # All-equal logits argmax to class 0 on both heads.
    assert az.shape == el.shape == (1,)
    assert az[0] == -160.0 and el[0] == -60.0


# ---------------------------------------------------------------------------
# Training


def test_training_learns_separable_synthetic_mapping():
    records = onehot_records(600, seed=1)
    model, stats = train_localizer(records, seed=0, epochs=25)
    assert stats["train_size"] + stats["val_size"] == len(records)
    assert stats["loss_history"][-1] < stats["loss_history"][0]
    assert stats["val_azimuth_within_10_deg"] >= 0.9
    assert stats["val_elevation_within_10_deg"] >= 0.9


def test_training_is_deterministic():
    records = onehot_records(200, seed=2)
    model1, stats1 = train_localizer(records, seed=5, epochs=4)
    model2, stats2 = train_localizer(records, seed=5, epochs=4)
    for (_, a), (_, b) in zip(model1.parameters(), model2.parameters()):
        assert np.array_equal(a, b)
    assert stats1 == stats2
    model3, _ = train_localizer(records, seed=6, epochs=4)
    assert not np.array_equal(model1.w1, model3.w1)


def test_training_validates_parameters():
    records = onehot_records(50)
    with pytest.raises(DomainError):
        train_localizer([], epochs=1)
    with pytest.raises(DomainError):
        train_localizer(records, epochs=0)
    with pytest.raises(DomainError):
        train_localizer(records, batch_size=0)
    with pytest.raises(DomainError):
        train_localizer(records, learning_rate=0.0)
    with pytest.raises(DomainError):
        train_localizer(records, momentum=1.0)


@pytest.mark.parametrize("learning_rate", [float("nan"), float("inf")])
def test_training_rejects_non_finite_learning_rate(learning_rate):
    with pytest.raises(DomainError, match="learning_rate"):
        train_localizer(onehot_records(50), epochs=1, learning_rate=learning_rate)


@pytest.mark.parametrize("epochs, batch_size", [(3, 64), (1, 1000)],
                         ids=["later_epoch", "last_step"])
def test_training_that_diverges_raises_degenerate_data(epochs, batch_size):
    """The first step throws the weights past the float range.  The fit says
    so, whether a later epoch's loss shows it or only the fitted weights do
    (one epoch of one batch), and no numpy warning escapes on the way."""
    with pytest.raises(DegenerateDataError, match="diverged"):
        train_localizer(onehot_records(200), epochs=epochs, batch_size=batch_size,
                        learning_rate=1e300)


def test_validation_mask_is_deterministic_tenth():
    mask = validation_mask(1000)
    assert mask.dtype == bool and mask.size == 1000
    assert np.array_equal(mask, validation_mask(1000))
    assert 0.05 <= mask.mean() <= 0.15
    with pytest.raises(DomainError):
        validation_mask(0)


def test_evaluate_localizer_perfect_on_constant_labels(zero_model):
    # The zero model predicts (-160, -60) everywhere.
    records = [
        FakeRecord(np.zeros(FEATURE_DIM), -160.0, -60.0) for _ in range(4)
    ]
    result = evaluate_localizer(zero_model, records)
    assert result["count"] == 4
    assert result["azimuth_within_10_deg"] == 1.0
    assert result["elevation_within_10_deg"] == 1.0
    assert result["azimuth_mae_deg"] == 0.0
    prefixed = evaluate_localizer(zero_model, records, prefix="val_")
    assert prefixed["val_count"] == 4
    with pytest.raises(DomainError):
        evaluate_localizer(zero_model, [])


# ---------------------------------------------------------------------------
# Persistence


def test_localizer_roundtrip(tmp_path):
    model, _ = train_localizer(onehot_records(80), seed=3, epochs=2)
    path = tmp_path / "model.npz"
    save_localizer(path, model)
    loaded = load_localizer(path)
    for name in MLPLocalizer._SHAPES:
        assert np.array_equal(getattr(model, name), getattr(loaded, name)), name


def test_load_localizer_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_localizer(tmp_path / "none.npz")


def test_load_localizer_garbage(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_text("hello")
    with pytest.raises(FormatError):
        load_localizer(path)


def test_load_localizer_missing_arrays(tmp_path):
    path = tmp_path / "partial.npz"
    with open(path, "wb") as fh:
        np.savez(fh, w1=np.zeros((FEATURE_DIM, 64)))
    with pytest.raises(FormatError):
        load_localizer(path)


def test_load_localizer_bad_shape(tmp_path, zero_model):
    arrays = {name: getattr(zero_model, name) for name in MLPLocalizer._SHAPES}
    arrays["w2"] = np.zeros((2, 2))
    path = tmp_path / "shape.npz"
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(FormatError):
        load_localizer(path)


def test_model_validates_non_finite(tmp_path, zero_model):
    zero_model.w1[0, 0] = np.inf
    with pytest.raises(DomainError):
        MLPLocalizer(**{name: getattr(zero_model, name) for name in MLPLocalizer._SHAPES})
