"""Inputs and oracle, made from ``--seed`` with NumPy only.

The program under test receives only what is generated here: datasets,
the calibrated eps, query batches and the mutable op sequence.  The
oracle is an independent FP64 brute force -- it shares no code with
``repro`` and uses different arithmetic (mean-centred norm expansion),
so agreement is evidence and not a tautology.
"""

from __future__ import annotations

import numpy as np

SIGMA = 0.15
NEIGHBOURS = 64
#: Pairs with |d^2 - eps^2| <= TIE_BAND * eps^2 are don't-care.
TIE_BAND = 1e-9


class Oracle:
    """FP64 brute force over a fixed row set.

    ``ids`` are the sorted global ids the rows answer to (row position
    when omitted), so the same class judges a mutable store's live set.
    """

    def __init__(self, rows: np.ndarray, ids: np.ndarray | None = None) -> None:
        self.mean = rows.mean(axis=0)
        self.rows = rows - self.mean
        self.norms = np.einsum("ij,ij->i", self.rows, self.rows)
        self.ids = np.arange(rows.shape[0], dtype=np.int64) if ids is None else ids

    def sq_dists(self, queries: np.ndarray) -> np.ndarray:
        q = np.asarray(queries, dtype=np.float64) - self.mean
        d2 = np.einsum("ij,ij->i", q, q)[:, None] + self.norms[None, :] - 2.0 * (q @ self.rows.T)
        return np.maximum(d2, 0.0)

    def _positions(self, got) -> np.ndarray | None:
        """Row positions of the returned ids; None if unknown or repeated."""
        got = np.asarray(got, dtype=np.int64).ravel()
        if got.size == 0:
            return got
        pos = np.minimum(np.searchsorted(self.ids, got), self.ids.size - 1)
        if (self.ids[pos] != got).any() or np.unique(got).size != got.size:
            return None
        return pos

    def check_range(self, queries: np.ndarray, eps: float, neighbours) -> bool:
        """A ``/range`` answer holds every sure pair and no sure non-pair."""
        if not isinstance(neighbours, list) or len(neighbours) != len(queries):
            return False
        d2 = self.sq_dists(queries)
        e2 = eps * eps
        for row, got in enumerate(neighbours):
            pos = self._positions(got)
            if pos is None:
                return False
            mask = np.zeros(d2.shape[1], dtype=bool)
            mask[pos] = True
            missing = (d2[row] < e2 * (1.0 - TIE_BAND)) & ~mask
            extra = mask & (d2[row] > e2 * (1.0 + TIE_BAND))
            if missing.any() or extra.any():
                return False
        return True

    def check_knn(self, queries: np.ndarray, k: int, indices) -> bool:
        """k distinct known rows per query, none farther than the true k-th."""
        if not isinstance(indices, list) or len(indices) != len(queries):
            return False
        d2 = self.sq_dists(queries)
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        for row, got in enumerate(indices):
            pos = self._positions(got)
            if pos is None or pos.size != k:
                return False
            if d2[row, pos].max() > kth[row] * (1.0 + TIE_BAND) + 1e-12:
                return False
        return True

    def self_pairs(self, first_rows: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """Sorted keys ``i * n + j`` of the sure and the possible self-join
        pairs with ``i < first_rows`` and ``i != j``."""
        n = self.rows.shape[0]
        d2 = self.sq_dists(self.rows[:first_rows] + self.mean)
        d2[np.arange(first_rows), np.arange(first_rows)] = np.inf
        e2 = eps * eps
        keys = []
        for mask in (d2 < e2 * (1.0 - TIE_BAND), d2 <= e2 * (1.0 + TIE_BAND)):
            i, j = np.nonzero(mask)
            keys.append(i.astype(np.int64) * n + j)
        return keys[0], keys[1]


class Mixture:
    """Gaussian-mixture rows: centres uniform in [0, 40]^d, sigma 0.15.

    Tight clusters far apart make grid cells track clusters, so a
    request's candidate set is its cluster and the working set of a
    traffic mix is the set of clusters it asks for.  ``eps`` is the
    radius at which a typical row has about ``NEIGHBOURS`` neighbours.
    """

    def __init__(self, seed: int, n: int, d: int, clusters: int) -> None:
        rng = np.random.default_rng([seed, n, d, clusters])
        self.centres = rng.uniform(0.0, 40.0, size=(clusters, d))
        labels = rng.integers(0, clusters, size=n)
        self.data = self.centres[labels] + rng.normal(0.0, SIGMA, size=(n, d))
        self.oracle = Oracle(self.data)
        probes = self.data[rng.choice(n, size=min(64, n), replace=False)]
        kth = min(NEIGHBOURS, n - 1)
        d2 = self.oracle.sq_dists(probes)
        self.eps = float(np.sqrt(np.median(np.partition(d2, kth, axis=1)[:, kth])))

    def queries(self, rng: np.random.Generator, count: int, batch: int, zipf: float | None) -> np.ndarray:
        """``(count, batch, d)`` fresh points near cluster centres.

        ``zipf`` skews which clusters are asked for (rank r drawn with
        weight r^-zipf); ``None`` asks uniformly.
        """
        k, d = self.centres.shape
        if zipf is None:
            picks = rng.integers(0, k, size=(count, batch))
        else:
            w = np.arange(1, k + 1, dtype=np.float64) ** -zipf
            picks = rng.choice(k, size=(count, batch), p=w / w.sum())
        return self.centres[picks] + rng.normal(0.0, SIGMA, size=(count, batch, d))


#: Op kinds of ``serve_mutable`` in blocks of ten: 70 % range, 20 %
#: append, 10 % delete.  The pattern is the same for every seed (only rows
#: and queries change), so every run seals and tombstones at the same ops.
OP_PATTERN = ("range", "range", "append", "range", "range", "delete", "range", "append", "range", "range")


def mutable_ops(rng: np.random.Generator, mix: Mixture, n_ops: int,
                batch: int, append_rows: int, delete_ids: int) -> list[tuple]:
    """The fixed op sequence of ``serve_mutable``.

    A delete names ids the sequence owns: base ids drawn here without
    repetition, or -- on every other delete, once enough appends have been
    acknowledged -- the oldest ids its own appends returned, which only
    exist at run time.
    """
    base = rng.permutation(mix.data.shape[0]).tolist()
    ops: list[tuple] = []
    own = False
    for i in range(n_ops):
        kind = OP_PATTERN[i % len(OP_PATTERN)]
        if kind == "range":
            ops.append(("range", mix.queries(rng, 1, batch, None)[0]))
        elif kind == "append":
            ops.append(("append", mix.queries(rng, 1, append_rows, None)[0]))
        else:
            own = not own
            ops.append(("delete", own, [base.pop() for _ in range(delete_ids)]))
    return ops
