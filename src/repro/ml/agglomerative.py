"""Average-linkage agglomerative clustering (Table VI baseline).

Used in the clustering-method comparison of the paper (random vs
agglomerative vs k-means sampling).  Built on SciPy's hierarchical
clustering; for large inputs a seeded subsample is clustered and the
remaining points are assigned to the nearest cluster mean, keeping the
comparison tractable at benchmark scale.

SciPy is imported on first use, in :meth:`_cluster_exact`: importing
``repro.ml`` (and so every scoring process) loads no SciPy module.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError
from repro.ml.distance import nearest_centers
from repro.ml.rng import RngLike, as_generator


class AgglomerativeClustering:
    """Average-linkage hierarchical clustering cut at ``n_clusters``."""

    def __init__(
        self,
        n_clusters: int,
        max_points: int = 2000,
        seed: RngLike = 0,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        self.n_clusters = n_clusters
        self.max_points = max_points
        self._rng = as_generator(seed)
        self.labels_: np.ndarray | None = None
        self.cluster_centers_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "AgglomerativeClustering":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("expected a non-empty 2-D matrix")
        n = x.shape[0]
        k = min(self.n_clusters, n)
        if k == 1:
            labels = np.zeros(n, dtype=int)
        elif n <= self.max_points:
            labels = self._cluster_exact(x, k)
        else:
            labels = self._cluster_subsampled(x, k)
        self.labels_ = labels
        self.cluster_centers_ = _centers_from_labels(x, labels)
        return self

    def fit_predict(self, x: np.ndarray) -> np.ndarray:
        self.fit(x)
        assert self.labels_ is not None
        return self.labels_

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.cluster_centers_ is None:
            raise NotFittedError("predict called before fit")
        return _nearest(np.asarray(x, dtype=float), self.cluster_centers_)

    # ------------------------------------------------------------------
    def _cluster_exact(self, x: np.ndarray, k: int) -> np.ndarray:
        from scipy.cluster.hierarchy import fcluster, linkage

        tree = linkage(x, method="average")
        # fcluster labels are 1-based.
        return fcluster(tree, t=k, criterion="maxclust") - 1

    def _cluster_subsampled(self, x: np.ndarray, k: int) -> np.ndarray:
        idx = self._rng.choice(x.shape[0], size=self.max_points, replace=False)
        sample = x[np.sort(idx)]
        sample_labels = self._cluster_exact(sample, k)
        centers = _centers_from_labels(sample, sample_labels)
        return _nearest(x, centers)


def _centers_from_labels(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    ids = np.unique(labels)
    centers = np.empty((len(ids), x.shape[1]))
    for row, cid in enumerate(ids):
        centers[row] = x[labels == cid].mean(axis=0)
    return centers


def _nearest(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # Shared exact kernel; same expansion this function used to inline.
    return nearest_centers(x, centers)
