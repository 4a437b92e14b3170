"""Reference answers computed without the retrieval module.

Each oracle restates the ranking contract from first principles, so a
change to ``finehash.retrieval`` is checked against something it does not
share code with:

* Hamming distance from the inner product of two +/-1 codes,
  ``d = (bits - u . v) / 2``;
* order by (distance, id) through a stable sort of the distances, which
  keeps ids ascending inside every distance bucket;
* float64 re-ranking of the head by squared Euclidean distance, ties
  broken by id;
* average precision from the positions of the relevant items.

``Tally`` counts attempted and failed operations; every comparison goes
through it, so a mismatch is always recorded as a failure.
"""

from __future__ import annotations

import numpy as np


class Tally:
    """Attempted and failed operation counts, with the first few failures."""

    def __init__(self, keep: int = 5):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._keep = keep

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self._keep:
                self.messages.append(what)
        return ok


def hamming_from_codes(db_codes: np.ndarray, query_code: np.ndarray) -> np.ndarray:
    """Hamming distance to every row, from +/-1 inner products."""
    bits = db_codes.shape[1]
    # +/-1 inner products are small integers, exact in float32
    inner = np.asarray(db_codes, dtype=np.float32) @ np.asarray(query_code, dtype=np.float32)
    return ((bits - inner) * 0.5).astype(np.int16)


def full_order(db_codes: np.ndarray, query_code: np.ndarray) -> np.ndarray:
    """Every database id, ordered by (Hamming distance, id)."""
    return np.argsort(hamming_from_codes(db_codes, query_code), kind="stable")


def rerank_head(order: np.ndarray, features: np.ndarray, query_feature: np.ndarray,
                topn: int) -> list[int]:
    """The first topn ids of order, re-sorted by float64 (distance, id)."""
    head = [int(i) for i in order[:topn]]
    query = np.asarray(query_feature, dtype=np.float64)
    keyed = []
    for item in head:
        diff = features[item].astype(np.float64) - query
        keyed.append((float(diff @ diff), item))
    return [item for _, item in sorted(keyed)]


def top_results(db_codes: np.ndarray, features: np.ndarray, query_code: np.ndarray,
                query_feature: np.ndarray, topn: int, topk: int) -> np.ndarray:
    """What ``search(code, feature, topn)[:topk]`` must return."""
    order = full_order(db_codes, query_code)
    head = rerank_head(order, features, query_feature, topn)
    return np.array((head + [int(i) for i in order[topn:topk]])[:topk], dtype=np.int64)


def ranking_quality(ranked_labels: np.ndarray, query_label: int,
                    ks: tuple[int, ...]) -> tuple[float, dict[int, float]]:
    """Average precision and precision at each k for one full ranking."""
    positions = np.flatnonzero(ranked_labels == query_label)
    ap = float(np.mean(np.arange(1, len(positions) + 1) / (positions + 1.0)))
    return ap, {k: float(np.count_nonzero(positions < k)) / k for k in ks}


def evaluation(db_codes: np.ndarray, db_labels: np.ndarray, query_codes: np.ndarray,
               query_labels: np.ndarray, ks: tuple[int, ...] = (1, 5, 10)) -> dict:
    """Hamming-only mAP and mean precision@k, as evaluate_queries reports them."""
    aps, precisions = [], {k: [] for k in ks}
    for code, label in zip(query_codes, query_labels):
        ranked = db_labels[full_order(db_codes, code)]
        ap, at_k = ranking_quality(ranked, int(label), ks)
        aps.append(ap)
        for k in ks:
            precisions[k].append(at_k[k])
    return {"map": float(np.mean(aps)),
            "precision_at": {k: float(np.mean(v)) for k, v in precisions.items()}}


def same_evaluation(got: dict, expected: dict, tol: float = 1e-9) -> bool:
    """mAP and every precision@k agree to a float64 summation-order tolerance."""
    if abs(got["map"] - expected["map"]) > tol:
        return False
    return all(abs(got["precision_at"][k] - value) <= tol
               for k, value in expected["precision_at"].items())
