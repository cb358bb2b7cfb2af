"""Retained per-row reference implementations for Step 3/4.

Copies of the pre-PR 3 hot paths, kept verbatim so the vectorized
rewrites (interned criteria verification, group-by label propagation,
flat in-place Adam) can be pinned against the historical behaviour:
identical propagated dicts (including insertion order), identical
criteria keep/drop decisions, and bitwise-identical trained MLP
parameters.  ``ReferenceFlatMLP`` is the later flat trainer as it was
before its step was bound once per batch shape; both detector engines
are pinned to it bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.criteria import Criterion
from repro.ml.mlp import MLPClassifier, Workspace, _views_into
from repro.ml.rng import RngLike, as_generator


def reference_propagate_labels(sampling, llm_labels, evidence=None):
    """The seed per-cluster ``nonzero``-scan propagation loop."""
    out = {}
    for cluster_id, rep_index in sampling.representative_of.items():
        label = llm_labels.get(rep_index)
        if label is None:
            continue
        members = np.nonzero(sampling.cluster_labels == cluster_id)[0]
        if label == 1 and evidence is not None:
            rep_key = evidence[rep_index]
            members = [i for i in members.tolist() if evidence[i] == rep_key]
        else:
            members = members.tolist()
        for i in members:
            out[i] = label
    out.update(llm_labels)
    return out


def reference_context_row(table, i, attr, correlated):
    row = {attr: table.cell(i, attr)}
    for q in correlated:
        row[q] = table.cell(i, q)
    return row


def reference_verify_criteria(
    criteria: list[Criterion], table, attr, propagated, correlated, config
):
    """The seed accuracy/data-verification loops (Algorithm 1 8-20).

    Returns ``(refined, trusted, removed)`` where ``removed`` is the
    list of right-labeled row indices a per-row re-check of the trusted
    criteria would delete, in deletion order.
    """
    right_rows = [
        (i, reference_context_row(table, i, attr, correlated))
        for i, lab in propagated.items()
        if lab == 0
    ]
    row_dicts = [row for _, row in right_rows]
    refined, trusted = [], []
    for crit in criteria:
        # The seed's per-row pass rate (``accuracy_on`` before it folded).
        accuracy = (
            sum(1 for r in row_dicts if crit.check(r)) / len(row_dicts)
            if row_dicts else 0.0
        )
        if accuracy >= config.criteria_accuracy_threshold:
            refined.append(crit)
            if accuracy >= config.data_verify_accuracy:
                trusted.append(crit)
    removed = []
    if trusted:
        for i, row in right_rows:
            passed = sum(1 for c in trusted if c.check(row))
            if passed / len(trusted) < config.data_pass_threshold:
                removed.append(i)
    return refined, trusted, removed


class ReferenceMLPClassifier:
    """The seed dict-of-arrays MLP trainer (allocating Adam loop)."""

    def __init__(
        self,
        hidden: int = 64,
        epochs: int = 60,
        batch_size: int = 128,
        lr: float = 3e-3,
        class_weight: str | None = "balanced",
        patience: int = 10,
        seed: RngLike = 0,
    ) -> None:
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.class_weight = class_weight
        self.patience = patience
        self._rng = as_generator(seed)
        self._params = None
        self.loss_history_ = []

    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        n, d = x.shape
        params = self._init_params(d)
        weights = self._sample_weights(y)
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v = {k: np.zeros_like(v) for k, v in params.items()}
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        best_loss = np.inf
        stale = 0
        self.loss_history_ = []
        for _epoch in range(self.epochs):
            order = self._rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                xb, yb, wb = x[idx], y[idx], weights[idx]
                loss, grads = _reference_forward_backward(params, xb, yb, wb)
                epoch_loss += loss * len(idx)
                step += 1
                for key, g in grads.items():
                    m[key] = beta1 * m[key] + (1 - beta1) * g
                    v[key] = beta2 * v[key] + (1 - beta2) * g * g
                    m_hat = m[key] / (1 - beta1**step)
                    v_hat = v[key] / (1 - beta2**step)
                    params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + eps)
            epoch_loss /= n
            self.loss_history_.append(epoch_loss)
            if epoch_loss < best_loss - 1e-5:
                best_loss = epoch_loss
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    break
        self._params = params
        return self

    def predict_proba(self, x):
        x = np.asarray(x, dtype=float)
        h1 = np.maximum(x @ self._params["w1"] + self._params["b1"], 0.0)
        h2 = np.maximum(h1 @ self._params["w2"] + self._params["b2"], 0.0)
        logits = h2 @ self._params["w3"] + self._params["b3"]
        return _reference_sigmoid(logits.ravel())

    def _init_params(self, d):
        h = self.hidden

        def he(fan_in, shape):
            return self._rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)

        return {
            "w1": he(d, (d, h)),
            "b1": np.zeros(h),
            "w2": he(h, (h, h)),
            "b2": np.zeros(h),
            "w3": he(h, (h, 1)),
            "b3": np.zeros(1),
        }

    def _sample_weights(self, y):
        if self.class_weight != "balanced":
            return np.ones_like(y)
        n = len(y)
        n_pos = float(y.sum())
        n_neg = n - n_pos
        if n_pos == 0 or n_neg == 0:
            return np.ones_like(y)
        w_pos = n / (2.0 * n_pos)
        w_neg = n / (2.0 * n_neg)
        return np.where(y > 0.5, w_pos, w_neg)


def _reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_forward_backward(params, x, y, w):
    n = x.shape[0]
    z1 = x @ params["w1"] + params["b1"]
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ params["w2"] + params["b2"]
    h2 = np.maximum(z2, 0.0)
    logits = (h2 @ params["w3"] + params["b3"]).ravel()
    p = _reference_sigmoid(logits)
    p_clip = np.clip(p, 1e-9, 1.0 - 1e-9)
    loss = float(
        -np.mean(w * (y * np.log(p_clip) + (1 - y) * np.log(1 - p_clip)))
    )
    dlogits = (w * (p - y) / n)[:, None]
    grads = {
        "w3": h2.T @ dlogits,
        "b3": dlogits.sum(axis=0),
    }
    dh2 = dlogits @ params["w3"].T
    dz2 = dh2 * (z2 > 0)
    grads["w2"] = h1.T @ dz2
    grads["b2"] = dz2.sum(axis=0)
    dh1 = dz2 @ params["w2"].T
    dz1 = dh1 * (z1 > 0)
    grads["w1"] = x.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads


class ReferenceFlatMLP(MLPClassifier):
    """The flat in-place Adam trainer whose step looked every buffer up
    in a ``Workspace`` by name, kept verbatim.

    Its ``fit`` loop and forward/backward are the retained copy; the
    parameter layout, initialisation and class weights are the
    classifier's own (unchanged).  Its sigmoid was
    :func:`_reference_sigmoid`, character for character.
    """

    def fit(self, x, y, sample_weight=None):
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
                loss = _reference_forward_backward_ws(
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


def _reference_forward_backward_ws(
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
    p = _reference_sigmoid(logits)
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
