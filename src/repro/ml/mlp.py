"""A two-layer MLP binary classifier trained with Adam.

The paper's detector is "a simple Multilayer Perceptron ... two layers
with ReLU activations" optimised with cross-entropy.  This is a compact
NumPy implementation with mini-batching, class weighting (dirty cells
are the minority class even after augmentation) and early stopping on
training loss plateau.

Two execution engines share one training loop.  All six parameter
tensors live as views into one flat vector; Adam's moments and
temporaries are preallocated once and every update runs in place.  The
forward/backward step is bound once per batch shape in ``fit`` (the
full batch and the ragged tail): its buffers, transposes and flat
logits view exist before the first step, so a step is only its NumPy
calls, each keeping the seed implementation's operands and order.

* ``exact`` (default) — float64: the trained parameters are **bitwise
  identical** to the historical per-key dict-of-arrays loop
  (elementwise IEEE ops have no cross-element interaction, and each
  multiply/add keeps its original operands).
* ``fast`` (opt-in) — the same loop in float32: roughly twice the GEMM
  throughput on AVX2 hardware, deterministic under the seed, but
  probabilities (hence downstream masks) may shift within the parity
  band recorded in ``tests/test_step34_engine.py``.

``tests/_reference_step34.py`` keeps both earlier trainers — the seed's
dict-of-arrays loop and the flat trainer that looked its buffers up by
name every step.  The tests pin the exact engine to both and the fast
engine to the flat one, bitwise.

``predict_proba`` is one forward pass in the model's dtype over the rows
it is given; callers bound its memory by the rows they pass
(``ErrorDetector.predict`` passes unique-key blocks).  It reuses
caller-provided workspace buffers, one set per ``(rows, hidden)`` shape,
shared across a table's attributes, and the training step's sigmoid.
"""

from __future__ import annotations

import math
from collections.abc import Callable

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
        for name, value in (
            ("hidden", hidden), ("epochs", epochs), ("batch_size", batch_size)
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"lr must be finite and positive, got {lr}")
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
        flat, views = self._init_flat_params(d)
        weights = self._sample_weights(y, sample_weight)
        # Adam state and temporaries: one flat float vector per role,
        # allocated once and updated in place every step.
        moment1 = np.zeros_like(flat)
        moment2 = np.zeros_like(flat)
        grad_flat = np.empty_like(flat)
        grads = _views_into(grad_flat, d, self.hidden)
        tmp = np.empty_like(flat)
        tmp2 = np.empty_like(flat)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        lr = self.lr
        batch_size = self.batch_size
        # One bound step per batch shape: the full batch and, when n is
        # not a multiple of the batch size, the ragged tail.
        steps = {
            nb: _bind_step(nb, views, grads)
            for nb in {min(batch_size, n), n % batch_size} - {0}
        }
        step = 0
        best_loss = np.inf
        stale = 0
        self.loss_history_ = []
        for _epoch in range(self.epochs):
            order = self._rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                nb = len(idx)
                epoch_loss += steps[nb](x, y, weights, idx) * nb
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
    """Logistic function of ``z``, in its dtype.

    ``1 / (1 + e)`` where ``z >= 0`` and ``e / (1 + e)`` elsewhere, with
    ``e = exp(-|z|)``: each element gets the same ``exp`` argument and
    the same division as the branch-per-sign form that indexes the two
    halves apart (kept in ``tests/`` as the reference), so the bits are
    equal, without boolean indexing.
    """
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _bind_step(
    n: int, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
) -> Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], float]:
    """The training step for batches of ``n`` rows.

    Returns ``step(x, y, weights, idx) -> loss``: it gathers rows
    ``idx`` (``n`` of them) into its own buffers, then writes the
    weighted BCE gradients of that batch into ``grads`` and returns the
    batch loss.  Buffers, transposes and the flat logits view are bound
    here once, so a step is only the NumPy calls themselves.  Each call
    keeps the seed implementation's operands and order, so losses and
    gradients are bitwise identical to it:

    * the ``(n, 1) @ (1, h)`` outer product is an elementwise multiply
      plus ``+= 0.0`` — matmul's loop computes ``0 + a*b``, which turns
      ``-0`` into ``+0``;
    * the ReLU masks use post-activation values (``h > 0`` and
      ``z > 0`` agree everywhere, including at 0 and NaN);
    * ``np.add.reduce`` is the reduction the ``np.sum``/``np.mean``
      wrappers call (a float32 mean divides in float64 and rounds once
      more, which equals the float32 quotient).
    """
    w1, b1, w2, b2, w3, b3 = (params[key] for key in _PARAM_KEYS)
    gw1, gb1, gw2, gb2, gw3, gb3 = (grads[key] for key in _PARAM_KEYS)
    d, h = w1.shape
    dtype = w1.dtype
    xb = np.empty((n, d), dtype)
    yb = np.empty(n, dtype)
    wb = np.empty(n, dtype)
    z1 = np.empty((n, h), dtype)            # z1/z2 hold post-ReLU h1/h2
    z2 = np.empty((n, h), dtype)
    dh1 = np.empty((n, h), dtype)
    dh2 = np.empty((n, h), dtype)
    mask = np.empty((n, h), np.bool_)
    lg = np.empty((n, 1), dtype)
    logits = lg.reshape(n)
    t1 = np.empty(n, dtype)
    t2 = np.empty(n, dtype)
    t3 = np.empty(n, dtype)
    p_clip = np.empty(n, dtype)
    dlogits = t1.reshape(n, 1)
    xb_t, z1_t, z2_t, w2_t, w3_t = xb.T, z1.T, z2.T, w2.T, w3.T
    # The float64 bound is the historical 1e-9 (bitwise-preserved); in
    # float32 `1 - 1e-9` rounds to exactly 1.0 and log(1 - p) would hit
    # -inf, so the fast engine clips at its own representable margin.
    lo = 1e-9 if dtype == np.float64 else 1e-6
    hi = 1.0 - lo

    def step(x, y, weights, idx) -> float:
        nonlocal z1, z2, lg, t1, t3, dh1, dh2    # updated in place by `+=`
        # idx is a slice of a permutation, always in range: 'clip'
        # skips the copy-and-write-back that mode='raise' makes of `out`.
        x.take(idx, axis=0, out=xb, mode="clip")
        y.take(idx, out=yb, mode="clip")
        weights.take(idx, out=wb, mode="clip")
        np.matmul(xb, w1, out=z1)
        z1 += b1                                 # x @ w1 + b1
        np.maximum(z1, 0.0, out=z1)              # h1
        np.matmul(z1, w2, out=z2)
        z2 += b2
        np.maximum(z2, 0.0, out=z2)              # h2
        np.matmul(z2, w3, out=lg)
        lg += b3                                 # logits
        p = _sigmoid(logits)
        np.maximum(p, lo, out=p_clip)            # np.clip(p, lo, hi), the
        np.minimum(p_clip, hi, out=p_clip)       # same bits, no wrapper
        # loss = -mean(w * (y*log(p) + (1-y)*log(1-p))), original op order.
        np.log(p_clip, out=t1)
        t1 *= yb                                 # y * log(p_clip)
        np.subtract(1.0, yb, out=t2)             # 1 - y
        np.subtract(1.0, p_clip, out=t3)
        np.log(t3, out=t3)
        t3 *= t2                                 # (1 - y) * log(1 - p_clip)
        t1 += t3
        t1 *= wb                                 # w * (...)
        loss = float(-(np.add.reduce(t1) / n))
        # dlogits = (w * (p - y) / n)[:, None]
        np.subtract(p, yb, out=t1)
        t1 *= wb
        t1 /= n
        np.matmul(z2_t, dlogits, out=gw3)        # h2.T @ dlogits
        np.add.reduce(dlogits, axis=0, out=gb3)
        np.multiply(dlogits, w3_t, out=dh2)      # dlogits @ w3.T
        dh2 += 0.0
        np.greater(z2, 0, out=mask)
        dh2 *= mask                              # dz2 = dh2 * (z2 > 0)
        np.matmul(z1_t, dh2, out=gw2)            # h1.T @ dz2
        np.add.reduce(dh2, axis=0, out=gb2)
        np.matmul(dh2, w2_t, out=dh1)
        np.greater(z1, 0, out=mask)
        dh1 *= mask                              # dz1 = dh1 * (z1 > 0)
        np.matmul(xb_t, dh1, out=gw1)            # x.T @ dz1
        np.add.reduce(dh1, axis=0, out=gb1)
        return loss

    return step
