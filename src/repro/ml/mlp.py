"""A two-layer MLP binary classifier trained with Adam.

The paper's detector is "a simple Multilayer Perceptron ... two layers
with ReLU activations" optimised with cross-entropy.  This is a compact
NumPy implementation with mini-batching, class weighting (dirty cells
are the minority class even after augmentation) and early stopping on
training loss plateau.

Two execution engines share one training loop:

* ``exact`` (default) — float64 with a *buffer-reusing* Adam step: all
  six parameter tensors live as views into one flat vector, moments and
  temporaries are preallocated once, and every update runs in place in
  the seed implementation's exact operation order, so the trained
  parameters are **bitwise identical** to the historical per-key
  dict-of-arrays loop (elementwise IEEE ops have no cross-element
  interaction, and each multiply/add keeps its original operands).
* ``fast`` (opt-in) — the same loop in float32: roughly twice the GEMM
  throughput on AVX2 hardware, deterministic under the seed, but
  probabilities (hence downstream masks) may shift within the parity
  band recorded in ``tests/test_step34_engine.py``.

``predict_proba`` is one forward pass in the model's dtype over the rows
it is given; callers bound its memory by the rows they pass
(``ErrorDetector.predict`` passes unique-key blocks).  It reuses
caller-provided workspace buffers, one set per ``(rows, hidden)`` shape,
shared across a table's attributes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError
from repro.ml.rng import RngLike, as_generator

#: Detector execution engines (mirrors ``config.SAMPLING_ENGINES``).
MLP_ENGINES = ("exact", "fast")

_PARAM_KEYS = ("w1", "b1", "w2", "b2", "w3", "b3")


class Workspace:
    """Reusable named scratch buffers keyed by (name, shape, dtype).

    One instance can serve many forward/backward passes and many
    models: a buffer is allocated on first request and handed back on
    every later request with the same name/shape/dtype.  Callers must
    not hold two live references to the same name at once.
    """

    def __init__(self) -> None:
        self._bufs: dict[tuple, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (name, shape, np.dtype(dtype))
        buf = self._bufs.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._bufs[key] = buf
        return buf


class MLPClassifier:
    """Binary classifier: input → hidden(ReLU) → hidden(ReLU) → sigmoid.

    Parameters
    ----------
    hidden:
        Width of the two hidden layers.
    epochs, batch_size, lr:
        Training budget, mini-batch size and Adam learning rate.
    class_weight:
        ``"balanced"`` re-weights the loss inversely to class frequency;
        ``None`` leaves classes unweighted.
    patience:
        Early-stop after this many epochs without loss improvement.
    seed:
        Weight initialisation / shuffling seed.
    engine:
        ``"exact"`` (float64, bitwise-reproducible reference results)
        or ``"fast"`` (float32 forward/backward, see module docstring).
    """

    def __init__(
        self,
        hidden: int = 64,
        epochs: int = 60,
        batch_size: int = 128,
        lr: float = 3e-3,
        class_weight: str | None = "balanced",
        patience: int = 10,
        seed: RngLike = 0,
        engine: str = "exact",
    ) -> None:
        if engine not in MLP_ENGINES:
            raise ValueError(
                f"engine must be one of {MLP_ENGINES}, got {engine!r}"
            )
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.class_weight = class_weight
        self.patience = patience
        self.engine = engine
        self._dtype = np.float64 if engine == "exact" else np.float32
        self._rng = as_generator(seed)
        self._params: dict[str, np.ndarray] | None = None
        self._flat: np.ndarray | None = None
        self.n_features_: int | None = None
        self.loss_history_: list[float] = []

    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "MLPClassifier":
        """Train on ``(x, y)``.

        ``sample_weight`` scales each example's loss contribution — the
        multiplicity channel for training over collapsed duplicate rows
        (class balancing then uses the *weighted* class totals, so the
        objective matches the expanded training set).  ``None`` keeps
        the historical unweighted path bit-for-bit.
        """
        x = np.ascontiguousarray(x, dtype=self._dtype)
        y = np.asarray(y, dtype=self._dtype).ravel()
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("x must be 2-D and aligned with y")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty training set")
        if sample_weight is not None:
            sample_weight = np.asarray(
                sample_weight, dtype=self._dtype
            ).ravel()
            if sample_weight.shape != y.shape:
                raise ValueError("sample_weight must align with y")
            if not np.all(sample_weight > 0):
                raise ValueError("sample_weight entries must be positive")
        n, d = x.shape
        h = self.hidden
        dtype = self._dtype
        flat, views = self._init_flat_params(d)
        weights = self._sample_weights(y, sample_weight)
        # Adam state and temporaries: one flat float vector per role,
        # allocated once and updated in place every step.
        moment1 = np.zeros_like(flat)
        moment2 = np.zeros_like(flat)
        grad_flat = np.empty_like(flat)
        grads = _views_into(grad_flat, d, h)
        tmp = np.empty_like(flat)
        tmp2 = np.empty_like(flat)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        lr = self.lr
        batch = min(self.batch_size, n)
        ws = Workspace()
        xb = ws.get("xb", (batch, d), dtype)
        yb = ws.get("yb", (batch,), dtype)
        wb = ws.get("wb", (batch,), dtype)
        step = 0
        best_loss = np.inf
        stale = 0
        self.loss_history_ = []
        for _epoch in range(self.epochs):
            order = self._rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                nb = len(idx)
                np.take(x, idx, axis=0, out=xb[:nb])
                np.take(y, idx, out=yb[:nb])
                np.take(weights, idx, out=wb[:nb])
                loss = _forward_backward_ws(
                    views, grads, xb[:nb], yb[:nb], wb[:nb], ws
                )
                epoch_loss += loss * nb
                step += 1
                # Adam, in place, in the seed implementation's exact
                # operation order (each line's comment is the historical
                # expression it reproduces bitwise).
                moment1 *= beta1                    # beta1 * m
                np.multiply(grad_flat, 1.0 - beta1, out=tmp)
                moment1 += tmp                      # ... + (1 - beta1) * g
                moment2 *= beta2                    # beta2 * v
                np.multiply(grad_flat, 1.0 - beta2, out=tmp)
                tmp *= grad_flat                    # (1 - beta2) * g * g
                moment2 += tmp
                np.divide(moment1, 1.0 - beta1**step, out=tmp)   # m_hat
                np.divide(moment2, 1.0 - beta2**step, out=tmp2)  # v_hat
                np.sqrt(tmp2, out=tmp2)
                tmp2 += eps                         # sqrt(v_hat) + eps
                tmp *= lr                           # lr * m_hat
                tmp /= tmp2
                flat -= tmp                         # params -= update
            epoch_loss /= n
            self.loss_history_.append(epoch_loss)
            if epoch_loss < best_loss - 1e-5:
                best_loss = epoch_loss
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    break
        self._params = views
        self._flat = flat
        self.n_features_ = d
        return self

    def predict_proba(
        self, x: np.ndarray, workspace: Workspace | None = None
    ) -> np.ndarray:
        """Probability of the positive (erroneous) class per row.

        One forward pass in the model's dtype — float64 on the exact
        engine, the historical arithmetic bit for bit; float32 on the
        fast one.  ``workspace`` supplies reusable activation buffers
        (shared across calls and models with equal row counts); without
        one the buffers are allocated locally.
        """
        if self._params is None:
            raise NotFittedError("MLPClassifier.predict_proba before fit")
        ws = workspace if workspace is not None else Workspace()
        dtype = self._dtype
        x = np.ascontiguousarray(x, dtype=dtype)
        params = self._params
        n = x.shape[0]
        h = self.hidden
        h1 = ws.get("p_h1", (n, h), dtype)
        h2 = ws.get("p_h2", (n, h), dtype)
        logits = ws.get("p_logits", (n, 1), dtype)
        np.matmul(x, params["w1"], out=h1)
        h1 += params["b1"]
        np.maximum(h1, 0.0, out=h1)
        np.matmul(h1, params["w2"], out=h2)
        h2 += params["b2"]
        np.maximum(h2, 0.0, out=h2)
        np.matmul(h2, params["w3"], out=logits)
        logits += params["b3"]
        return np.asarray(_sigmoid(logits.ravel()), dtype=np.float64)

    # ------------------------------------------------------------------
    def export_flat_params(self) -> np.ndarray:
        """The trained parameters as one flat vector (a copy).

        The serialization channel for detector artifacts: together with
        ``n_features_`` and the constructor hyperparameters it restores
        a bitwise-identical model via :meth:`load_flat_params`.
        """
        if self._flat is None:
            raise NotFittedError("export_flat_params before fit")
        return self._flat.copy()

    def load_flat_params(self, flat: np.ndarray, n_features: int) -> "MLPClassifier":
        """Adopt a flat parameter vector exported by a trained model.

        The vector is copied into this model's dtype; a size mismatch
        against ``(n_features, hidden)`` raises ``ValueError`` (the
        artifact layer wraps it in ``ArtifactError``).
        """
        d, h = int(n_features), self.hidden
        expected = d * h + h + h * h + h + h + 1
        flat = np.asarray(flat)
        if flat.ndim != 1 or flat.size != expected:
            raise ValueError(
                f"flat parameter vector has {flat.size} entries, expected "
                f"{expected} for n_features={d}, hidden={h}"
            )
        self._flat = np.array(flat, dtype=self._dtype)  # always a copy
        self._params = _views_into(self._flat, d, h)
        self.n_features_ = d
        return self

    # ------------------------------------------------------------------
    def _init_flat_params(
        self, d: int
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """He-initialised parameters as views into one flat vector."""
        h = self.hidden

        def he(fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
            return self._rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)

        init = {
            "w1": he(d, (d, h)),
            "b1": np.zeros(h),
            "w2": he(h, (h, h)),
            "b2": np.zeros(h),
            "w3": he(h, (h, 1)),
            "b3": np.zeros(1),
        }
        flat = np.empty(d * h + h + h * h + h + h + 1, dtype=self._dtype)
        views = _views_into(flat, d, h)
        for key in _PARAM_KEYS:
            views[key][...] = init[key]
        return flat, views

    def _sample_weights(
        self, y: np.ndarray, sample_weight: np.ndarray | None = None
    ) -> np.ndarray:
        if sample_weight is None:
            # Historical unweighted path, kept bit-for-bit.
            if self.class_weight != "balanced":
                return np.ones_like(y)
            n = len(y)
            n_pos = float(y.sum())
            n_neg = n - n_pos
            if n_pos == 0 or n_neg == 0:
                return np.ones_like(y)
            w_pos = n / (2.0 * n_pos)
            w_neg = n / (2.0 * n_neg)
            return np.where(y > 0.5, w_pos, w_neg).astype(self._dtype)
        if self.class_weight != "balanced":
            combined = np.asarray(sample_weight, dtype=float)
        else:
            # Balanced classes over the *expanded* multiplicities.
            n = float(sample_weight.sum())
            n_pos = float((sample_weight * y).sum())
            n_neg = n - n_pos
            if n_pos == 0 or n_neg == 0:
                combined = np.asarray(sample_weight, dtype=float)
            else:
                w_pos = n / (2.0 * n_pos)
                w_neg = n / (2.0 * n_neg)
                combined = np.where(y > 0.5, w_pos, w_neg) * sample_weight
        # Normalise to mean 1: the expanded-set balanced weights average
        # exactly 1 by construction, so this keeps the loss and gradient
        # scale — hence Adam dynamics and the 1e-5 loss-plateau rule —
        # consistent with training on the expanded rows.
        combined = combined / (combined.sum() / len(combined))
        return combined.astype(self._dtype)


def _views_into(flat: np.ndarray, d: int, h: int) -> dict[str, np.ndarray]:
    """The six parameter tensors as reshaped views of ``flat``."""
    shapes = {
        "w1": (d, h), "b1": (h,), "w2": (h, h), "b2": (h,),
        "w3": (h, 1), "b3": (1,),
    }
    views: dict[str, np.ndarray] = {}
    offset = 0
    for key in _PARAM_KEYS:
        size = int(np.prod(shapes[key]))
        views[key] = flat[offset : offset + size].reshape(shapes[key])
        offset += size
    return views


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward_backward_ws(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    ws: Workspace,
) -> float:
    """Weighted BCE loss + gradients for one batch, into ``grads``.

    Allocation-free reformulation of the historical forward/backward:
    every array lands in a workspace buffer and every elementwise op
    runs in place, but each operation keeps the seed implementation's
    operands and order, so losses and gradients are bitwise identical
    (the ReLU masks use post-activation values — ``h > 0`` and
    ``z > 0`` agree everywhere, including at 0 and NaN).
    """
    n, d = x.shape
    h = params["w2"].shape[0]
    dtype = x.dtype
    z1 = ws.get("z1", (n, h), dtype)
    z2 = ws.get("z2", (n, h), dtype)
    lg = ws.get("lg", (n, 1), dtype)
    mask = ws.get("mask", (n, h), np.bool_)
    t1 = ws.get("t1", (n,), dtype)
    t2 = ws.get("t2", (n,), dtype)
    t3 = ws.get("t3", (n,), dtype)
    # Forward: z1/z2 hold the post-ReLU activations (h1/h2).
    np.matmul(x, params["w1"], out=z1)
    z1 += params["b1"]                       # x @ w1 + b1
    np.maximum(z1, 0.0, out=z1)              # h1
    np.matmul(z1, params["w2"], out=z2)
    z2 += params["b2"]
    np.maximum(z2, 0.0, out=z2)              # h2
    np.matmul(z2, params["w3"], out=lg)
    lg += params["b3"]                       # logits
    logits = lg.ravel()
    p = _sigmoid(logits)
    # The float64 bound is the historical 1e-9 (bitwise-preserved); in
    # float32 `1 - 1e-9` rounds to exactly 1.0 and log(1 - p) would hit
    # -inf, so the fast engine clips at its own representable margin.
    lo = 1e-9 if dtype == np.float64 else 1e-6
    p_clip = np.clip(p, lo, 1.0 - lo)
    # loss = -mean(w * (y*log(p) + (1-y)*log(1-p))), original op order.
    np.log(p_clip, out=t1)
    t1 *= y                                  # y * log(p_clip)
    np.subtract(1.0, y, out=t2)              # 1 - y
    np.subtract(1.0, p_clip, out=t3)
    np.log(t3, out=t3)
    t3 *= t2                                 # (1 - y) * log(1 - p_clip)
    t1 += t3
    t1 *= w                                  # w * (...)
    loss = float(-np.mean(t1))
    # dlogits = (w * (p - y) / n)[:, None]
    np.subtract(p, y, out=t1)
    t1 *= w                                  # w * (p - y)
    t1 /= n
    dlogits = t1.reshape(n, 1)
    dh2 = ws.get("dh2", (n, h), dtype)
    dh1 = ws.get("dh1", (n, h), dtype)
    np.matmul(z2.T, dlogits, out=grads["w3"])     # h2.T @ dlogits
    np.sum(dlogits, axis=0, out=grads["b3"])
    np.matmul(dlogits, params["w3"].T, out=dh2)
    np.greater(z2, 0, out=mask)
    dh2 *= mask                                   # dz2 = dh2 * (z2 > 0)
    np.matmul(z1.T, dh2, out=grads["w2"])         # h1.T @ dz2
    np.sum(dh2, axis=0, out=grads["b2"])
    np.matmul(dh2, params["w2"].T, out=dh1)
    np.greater(z1, 0, out=mask)
    dh1 *= mask                                   # dz1 = dh1 * (z1 > 0)
    np.matmul(x.T, dh1, out=grads["w1"])          # x.T @ dz1
    np.sum(dh1, axis=0, out=grads["b1"])
    return loss
