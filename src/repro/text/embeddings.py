"""FastText-style subword hash embeddings (offline substitute).

The paper uses pre-trained FastText vectors for the semantic feature
block.  Offline we reproduce FastText's *mechanism* — a bag of character
n-grams hashed into a shared vector table — with a seeded random table
instead of pre-trained weights.  The property the pipeline relies on is
preserved: strings sharing subwords map to nearby vectors, so typos sit
close to their clean forms and unrelated values sit far apart.  A cell
embedding is the mean over token vectors, each token vector the mean of
its subword vectors (exactly fastText's composition rule).

The model is a pure function of ``(dim, n_buckets, seed)`` and the
input string, so everything memoizes aggressively: gram→bucket ids and
token vectors are cached per instance, unseen tokens are resolved in
batches (one fancy-indexed mean per distinct gram count instead of one
NumPy call per token), and :meth:`shared` hands out one process-wide
instance per parameter triple so repeated pipeline runs keep their warm
caches.  All fast paths are bit-identical to the naive
mean-of-means definition.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.text.tokenize import char_ngrams, tokenize

#: Unseen tokens resolved per vector-table gather.  One gather holds
#: ``tokens × grams × dim`` floats, so a column of long distinct tokens
#: (account numbers: ~28 grams each) would otherwise allocate hundreds
#: of MB at once.
RESOLVE_BLOCK_TOKENS = 1_024


def _stable_hash(text: str) -> int:
    """Deterministic 64-bit hash, independent of PYTHONHASHSEED."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class SubwordHashEmbedding:
    """Deterministic subword-hash embedding model.

    Parameters
    ----------
    dim:
        Embedding dimensionality (paper uses 300-d FastText; we default
        to a compact 32-d which is plenty for the feature block).
    n_buckets:
        Size of the shared subword vector table.
    seed:
        Seed for the random vector table; the same seed always yields
        the same embeddings.
    """

    _shared_instances: dict[tuple[int, int, int], "SubwordHashEmbedding"] = {}

    def __init__(self, dim: int = 32, n_buckets: int = 4096, seed: int = 13) -> None:
        if dim <= 0 or n_buckets <= 0:
            raise ValueError("dim and n_buckets must be positive")
        self.dim = dim
        self.n_buckets = n_buckets
        rng = np.random.default_rng(seed)
        # Scaled so that averaged vectors keep unit-order magnitude.
        self._table = rng.standard_normal((n_buckets, dim)) / np.sqrt(dim)
        self._token_cache: dict[str, np.ndarray] = {}
        self._bucket_cache: dict[str, int] = {}
        self._value_tokens: dict[str, list[str]] = {}

    @classmethod
    def shared(
        cls, dim: int = 32, n_buckets: int = 4096, seed: int = 13
    ) -> "SubwordHashEmbedding":
        """Process-wide instance for ``(dim, n_buckets, seed)``.

        The model is deterministic and immutable for a given parameter
        triple — instances differ only in their memoization caches — so
        consumers constructed repeatedly (one FeatureSpace per pipeline
        run) can share one instance and keep its warm token/gram
        caches.  Results are identical to a fresh instance.
        """
        key = (dim, n_buckets, seed)
        inst = cls._shared_instances.get(key)
        if inst is None:
            inst = cls(dim=dim, n_buckets=n_buckets, seed=seed)
            if len(cls._shared_instances) < 64:
                cls._shared_instances[key] = inst
        return inst

    # ------------------------------------------------------------------
    def _bucket_rows(self, grams: list[str]) -> list[int]:
        """Vector-table row per gram (blake2b memoized per gram)."""
        cache = self._bucket_cache
        try:
            return [cache[g] for g in grams]
        except KeyError:
            pass
        rows = []
        for g in grams:
            row = cache.get(g)
            if row is None:
                row = _stable_hash(g) % self.n_buckets
                if len(cache) < 1_000_000:
                    cache[g] = row
            rows.append(row)
        return rows

    def _tokens_of(self, value: str) -> list[str]:
        """Memoized ``tokenize`` (values repeat across columns/runs)."""
        tokens = self._value_tokens.get(value)
        if tokens is None:
            tokens = tokenize(value)
            if len(self._value_tokens) < 500_000:
                self._value_tokens[value] = tokens
        return tokens

    def token_vector(self, token: str) -> np.ndarray:
        """Embedding of a single token (mean of its subword vectors)."""
        cached = self._token_cache.get(token)
        if cached is not None:
            return cached
        grams = char_ngrams(token)
        vec = self._table[self._bucket_rows(grams)].mean(axis=0)
        # Cached vectors are handed out by reference (embed's
        # single-token fast path); freeze them so a mutating caller
        # fails loudly instead of corrupting the shared cache.
        vec.setflags(write=False)
        if len(self._token_cache) < 200_000:
            self._token_cache[token] = vec
        return vec

    def _resolve_tokens(self, tokens: list[str]) -> dict[str, np.ndarray]:
        """Vectors for ``tokens``, computing unseen ones in batches.

        Unseen tokens are grouped by gram count so each block of up to
        ``RESOLVE_BLOCK_TOKENS`` tokens costs one fancy-indexed
        ``mean(axis=1)`` — bit-identical to the per-token
        ``mean(axis=0)`` (same elements, same reduction order) but
        without per-token NumPy call overhead.
        """
        cache = self._token_cache
        out: dict[str, np.ndarray] = {}
        pending: set[str] = set()
        by_count: dict[int, list[tuple[str, list[int]]]] = {}
        for t in tokens:
            if t in out or t in pending:
                continue
            vec = cache.get(t)
            if vec is not None:
                out[t] = vec
            else:
                pending.add(t)
                grams = char_ngrams(t)
                by_count.setdefault(len(grams), []).append(
                    (t, self._bucket_rows(grams))
                )
        for entries in by_count.values():
            for start in range(0, len(entries), RESOLVE_BLOCK_TOKENS):
                block = entries[start : start + RESOLVE_BLOCK_TOKENS]
                idx = np.array([rows for _, rows in block], dtype=np.intp)
                vecs = self._table[idx].mean(axis=1)
                vecs.setflags(write=False)
                for (t, _), vec in zip(block, vecs):
                    out[t] = vec
                    if len(cache) < 200_000:
                        cache[t] = vec
        return out

    def embed(self, value: str) -> np.ndarray:
        """Embedding of a cell value (mean over token vectors).

        Empty values (missing cells) map to the zero vector, which keeps
        them maximally distinguishable from every populated value.
        """
        tokens = tokenize(value)
        if not tokens:
            return np.zeros(self.dim)
        if len(tokens) == 1:
            # Mean of one vector is the vector itself, bit-for-bit.
            return self.token_vector(tokens[0])
        return np.mean([self.token_vector(t) for t in tokens], axis=0)

    def embed_uniques(self, values: list[str]) -> np.ndarray:
        """Embed distinct values into an ``(n_unique, dim)`` matrix.

        The columnar fast path: callers factorize a column once (see
        :mod:`repro.data.encoding`), embed only its unique values here,
        and scatter per-row with ``matrix[codes]``.
        """
        token_lists = [self._tokens_of(v) for v in values]
        vectors = self._resolve_tokens(
            [t for tokens in token_lists for t in tokens]
        )
        out = np.empty((len(values), self.dim))
        for i, tokens in enumerate(token_lists):
            if not tokens:
                out[i] = 0.0
            elif len(tokens) == 1:
                out[i] = vectors[tokens[0]]
            else:
                out[i] = np.mean([vectors[t] for t in tokens], axis=0)
        return out
