"""Self-supervised sound localizer: a small MLP over GCC/ILD features.

The network maps the 129-dimensional feature vector of an evidence snapshot
(RNG-free cross-correlation and level-difference statistics, see
:mod:`cocktail.features`) to two independent softmax heads:

* azimuth: 65 classes covering -160..160 degrees in 5-degree steps,
* elevation: 25 classes covering -60..60 degrees in 5-degree steps.

These ranges are the label ranges of the self-supervised dataset -- the
direction of the source *relative to the capture pose* -- so the localizer
learns to answer "where should the head turn" directly from audio.

The whole model is written out by hand with numpy: explicit forward pass,
explicit backpropagation, and SGD with classical momentum.  Keeping the
arithmetic visible makes the gradient checkable against finite differences,
which the test suite does.  Training is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from zlib import crc32

import numpy as np

from .errors import DegenerateDataError, DomainError, load_model, save_model
from .features import FEATURE_DIM

#: Degrees between adjacent classes of either head.
CLASS_STEP_DEG = 5.0

#: Azimuth head: 65 classes for -160..160 degrees.
AZ_NUM_CLASSES = 65
AZ_MIN_DEG = -160.0

#: Elevation head: 25 classes for -60..60 degrees.
EL_NUM_CLASSES = 25
EL_MIN_DEG = -60.0

#: Width of both hidden layers.
HIDDEN_UNITS = 64

#: Every record whose CRC32-of-index ends in this residue is validation.
VAL_FOLD_MODULO = 10

DEFAULT_EPOCHS = 40
DEFAULT_BATCH_SIZE = 64
DEFAULT_LEARNING_RATE = 0.05
DEFAULT_MOMENTUM = 0.9


# ---------------------------------------------------------------------------
# Label quantization


def _quantize(angle_deg: float, min_deg: float, num_classes: int, what: str) -> int:
    """Nearest 5-degree class, ties rounded toward zero degrees."""
    t = float(angle_deg) / CLASS_STEP_DEG
    magnitude = math.ceil(abs(t) - 0.5)
    index = int(math.copysign(magnitude, t)) - int(round(min_deg / CLASS_STEP_DEG))
    if not 0 <= index < num_classes:
        raise DomainError(f"{what} {angle_deg} outside the class range")
    return index


def azimuth_class(angle_deg: float) -> int:
    return _quantize(angle_deg, AZ_MIN_DEG, AZ_NUM_CLASSES, "azimuth")


def elevation_class(angle_deg: float) -> int:
    return _quantize(angle_deg, EL_MIN_DEG, EL_NUM_CLASSES, "elevation")


# ---------------------------------------------------------------------------
# Model


@dataclass
class MLPLocalizer:
    """Weights of the 129-64-64 trunk and the two classification heads.

    ``feat_mean``/``feat_scale`` standardize inputs with statistics of the
    training split; they are part of the model so inference needs no side
    channel.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    wa: np.ndarray
    ba: np.ndarray
    we: np.ndarray
    be: np.ndarray
    feat_mean: np.ndarray
    feat_scale: np.ndarray

    _SHAPES = {
        "w1": (FEATURE_DIM, HIDDEN_UNITS),
        "b1": (HIDDEN_UNITS,),
        "w2": (HIDDEN_UNITS, HIDDEN_UNITS),
        "b2": (HIDDEN_UNITS,),
        "wa": (HIDDEN_UNITS, AZ_NUM_CLASSES),
        "ba": (AZ_NUM_CLASSES,),
        "we": (HIDDEN_UNITS, EL_NUM_CLASSES),
        "be": (EL_NUM_CLASSES,),
        "feat_mean": (FEATURE_DIM,),
        "feat_scale": (FEATURE_DIM,),
    }

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """The trainable arrays (normalization statistics are not trained)."""
        return [(name, getattr(self, name)) for name in self._SHAPES
                if not name.startswith("feat_")]

    def __post_init__(self):
        for name, shape in self._SHAPES.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
            if arr.shape != shape:
                raise DomainError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} contains non-finite values")


def new_localizer(seed: int = 0) -> MLPLocalizer:
    """He-initialized weights, drawn in table order; zero biases; identity
    normalization."""
    rng = np.random.default_rng(seed)

    def init(name, shape):
        if name.startswith("w"):
            return rng.normal(0.0, math.sqrt(2.0 / shape[0]), shape)
        return np.ones(shape) if name == "feat_scale" else np.zeros(shape)

    shapes = MLPLocalizer._SHAPES
    return MLPLocalizer(**{name: init(name, shape) for name, shape in shapes.items()})


# ---------------------------------------------------------------------------
# Forward, loss, gradients


def _check_batch(features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[np.newaxis, :]
    if x.ndim != 2 or x.shape[1] != FEATURE_DIM:
        raise DomainError(
            f"features must be (batch, {FEATURE_DIM}), got shape {x.shape}"
        )
    if x.shape[0] == 0:
        raise DomainError("empty feature batch")
    if not np.all(np.isfinite(x)):
        raise DomainError("features contain non-finite values")
    return x


def _forward(model: MLPLocalizer, x: np.ndarray):
    z = (x - model.feat_mean) / model.feat_scale
    h1 = np.maximum(z @ model.w1 + model.b1, 0.0)
    h2 = np.maximum(h1 @ model.w2 + model.b2, 0.0)
    az_logits = h2 @ model.wa + model.ba
    el_logits = h2 @ model.we + model.be
    return z, h1, h2, az_logits, el_logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss(model: MLPLocalizer, features, az_classes, el_classes) -> float:
    """Mean summed cross-entropy of both heads over the batch."""
    x = _check_batch(features)
    az_idx, el_idx = _check_classes(az_classes, el_classes, x.shape[0])
    _, _, _, az_logits, el_logits = _forward(model, x)
    rows = np.arange(x.shape[0])
    nll = -_log_softmax(az_logits)[rows, az_idx] - _log_softmax(el_logits)[rows, el_idx]
    return float(nll.mean())


def _check_classes(az_classes, el_classes, batch: int):
    az = np.asarray(az_classes, dtype=np.int64).reshape(-1)
    el = np.asarray(el_classes, dtype=np.int64).reshape(-1)
    if az.size != batch or el.size != batch:
        raise DomainError("class arrays must match the batch size")
    if np.any((az < 0) | (az >= AZ_NUM_CLASSES)):
        raise DomainError("azimuth class out of range")
    if np.any((el < 0) | (el >= EL_NUM_CLASSES)):
        raise DomainError("elevation class out of range")
    return az, el


def loss_and_grads(model: MLPLocalizer, features, az_classes, el_classes):
    """The loss plus its gradient for every trainable array.

    Backpropagation is explicit: softmax/cross-entropy gradients at each
    head, summed into the shared trunk, with the ReLU masks applied on the
    way down.
    """
    x = _check_batch(features)
    n = x.shape[0]
    az_idx, el_idx = _check_classes(az_classes, el_classes, n)
    z, h1, h2, az_logits, el_logits = _forward(model, x)
    rows = np.arange(n)

    az_logp = _log_softmax(az_logits)
    el_logp = _log_softmax(el_logits)
    value = float(-(az_logp[rows, az_idx] + el_logp[rows, el_idx]).mean())

    d_az = np.exp(az_logp)
    d_az[rows, az_idx] -= 1.0
    d_az /= n
    d_el = np.exp(el_logp)
    d_el[rows, el_idx] -= 1.0
    d_el /= n

    grads = {
        "wa": h2.T @ d_az,
        "ba": d_az.sum(axis=0),
        "we": h2.T @ d_el,
        "be": d_el.sum(axis=0),
    }
    d_h2 = d_az @ model.wa.T + d_el @ model.we.T
    d_h2[h2 <= 0.0] = 0.0
    grads["w2"] = h1.T @ d_h2
    grads["b2"] = d_h2.sum(axis=0)
    d_h1 = d_h2 @ model.w2.T
    d_h1[h1 <= 0.0] = 0.0
    grads["w1"] = z.T @ d_h1
    grads["b1"] = d_h1.sum(axis=0)
    return value, grads


def predict_angles(model: MLPLocalizer, features):
    """Argmax class of each head, converted back to degrees."""
    x = _check_batch(features)
    _, _, _, az_logits, el_logits = _forward(model, x)
    az = AZ_MIN_DEG + CLASS_STEP_DEG * az_logits.argmax(axis=1)
    el = EL_MIN_DEG + CLASS_STEP_DEG * el_logits.argmax(axis=1)
    return az, el


# ---------------------------------------------------------------------------
# Dataset plumbing


def validation_mask(count: int) -> np.ndarray:
    """Deterministic ~10% validation fold, keyed by record index CRC."""
    if count <= 0:
        raise DomainError(f"count must be positive, got {count}")
    return np.array(
        [crc32(str(i).encode()) % VAL_FOLD_MODULO == 0 for i in range(count)]
    )


def _records_to_arrays(records):
    records = list(records)
    if not records:
        raise DomainError("no records to train on")
    x = np.stack([np.asarray(rec.features, dtype=np.float64) for rec in records])
    if x.shape[1] != FEATURE_DIM:
        raise DomainError(f"records carry {x.shape[1]}-dim features, "
                          f"expected {FEATURE_DIM}")
    az = np.array([azimuth_class(rec.azimuth_deg) for rec in records])
    el = np.array([elevation_class(rec.elevation_deg) for rec in records])
    return x, az, el


def train_localizer(
    records,
    seed: int = 0,
    epochs: int = DEFAULT_EPOCHS,
    batch_size: int = DEFAULT_BATCH_SIZE,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    momentum: float = DEFAULT_MOMENTUM,
):
    """Train on the CRC-split training fold; returns ``(model, stats)``.

    Plain minibatch SGD with classical momentum (``v = mu*v - lr*g``,
    ``p += v``).  The stats dict reports fold sizes, the loss curve, and
    accuracy on the held-out fold (fraction of validation records whose
    predicted angle lies within 10 degrees of the label).  A fit whose loss
    stops being finite, on an epoch or on the fitted weights, raises
    :class:`DegenerateDataError`.
    """
    if epochs <= 0 or batch_size <= 0:
        raise DomainError("epochs and batch_size must be positive")
    if not (math.isfinite(learning_rate) and learning_rate > 0.0):
        raise DomainError(f"learning_rate must be positive and finite, got {learning_rate}")
    if not 0.0 <= momentum < 1.0:
        raise DomainError(f"momentum must be in [0, 1), got {momentum}")
    x, az, el = _records_to_arrays(records)
    val = validation_mask(x.shape[0])
    train_x, train_az, train_el = x[~val], az[~val], el[~val]
    if train_x.shape[0] == 0:
        raise DomainError("training fold is empty")

    model = new_localizer(seed)
    model.feat_mean = train_x.mean(axis=0)
    scale = train_x.std(axis=0)
    scale[scale < 1e-8] = 1.0
    model.feat_scale = scale

    rng = np.random.default_rng(seed)
    velocity = {name: np.zeros_like(arr) for name, arr in model.parameters()}
    params = dict(model.parameters())
    history = []
    # A diverging fit overflows; the finiteness check below reports it,
    # once, in place of numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(epochs):
            order = rng.permutation(train_x.shape[0])
            epoch_loss = 0.0
            for start in range(0, order.size, batch_size):
                batch = order[start : start + batch_size]
                value, grads = loss_and_grads(
                    model, train_x[batch], train_az[batch], train_el[batch]
                )
                epoch_loss += value * batch.size
                for name, grad in grads.items():
                    vel = velocity[name]
                    vel *= momentum
                    vel -= learning_rate * grad
                    params[name] += vel
            history.append(epoch_loss / order.size)
            if not math.isfinite(history[-1]):
                break
        # An epoch's loss scores the weights before its last step, so the
        # fitted weights are scored once more.
        fitted_loss = loss(model, train_x, train_az, train_el)
    if not (math.isfinite(history[-1]) and math.isfinite(fitted_loss)):
        raise DegenerateDataError(
            f"training diverged by epoch {len(history)}: the loss is no longer finite; "
            f"try a learning_rate below {learning_rate}"
        )

    stats = {
        "train_size": int(train_x.shape[0]),
        "val_size": int(val.sum()),
        "epochs": int(epochs),
        "final_train_loss": history[-1],
        "loss_history": tuple(history),
    }
    if val.any():
        stats.update(
            evaluate_localizer(
                model, [rec for rec, keep in zip(records, val) if keep],
                prefix="val_",
            )
        )
    return model, stats


def evaluate_localizer(model: MLPLocalizer, records, prefix: str = "") -> dict:
    """Angular accuracy of the model on labeled records.

    Reports the fraction of records whose predicted azimuth/elevation lies
    within 10 degrees of the label, plus mean absolute errors in degrees.
    """
    records = list(records)
    if not records:
        raise DomainError("no records to evaluate on")
    x = np.stack([np.asarray(rec.features, dtype=np.float64) for rec in records])
    true_az = np.array([rec.azimuth_deg for rec in records])
    true_el = np.array([rec.elevation_deg for rec in records])
    pred_az, pred_el = predict_angles(model, x)
    az_err = np.abs(pred_az - true_az)
    el_err = np.abs(pred_el - true_el)
    return {
        prefix + "count": len(records),
        prefix + "azimuth_within_10_deg": float(np.mean(az_err <= 10.0)),
        prefix + "elevation_within_10_deg": float(np.mean(el_err <= 10.0)),
        prefix + "azimuth_mae_deg": float(az_err.mean()),
        prefix + "elevation_mae_deg": float(el_err.mean()),
    }


# ---------------------------------------------------------------------------
# Persistence


def save_localizer(path, model: MLPLocalizer) -> None:
    """Save all model arrays to ``path`` as a .npz file."""
    save_model(path, {name: getattr(model, name) for name in MLPLocalizer._SHAPES})


def load_localizer(path) -> MLPLocalizer:
    """Load and validate a model written by :func:`save_localizer`."""
    return load_model(path, "localizer file", {
        name: (np.float64, shape) for name, shape in MLPLocalizer._SHAPES.items()}, MLPLocalizer)
