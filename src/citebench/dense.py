"""Embedding storage and exact top-k nearest-neighbor retrieval.

Vectors are produced elsewhere (any single-vector-per-article encoder) and
consumed here from a raw little-endian float32 file plus a JSON manifest.
Search is an exhaustive scan, never approximate: scores are accumulated in
float64 with row-local reductions, so results do not depend on how the rows
are chunked for parallel scanning.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from functools import cached_property

import numpy as np

from .util import checked, id_ranks, rank_rows, read_json

METRICS = ("cosine", "dot", "euclidean")

# Most rows converted to float64 at once, by the scan and by the cosine row
# norms; larger blocks only raise peak memory
_BLOCK = 512

# Most bytes of float64 scores that knn_pool holds for one group of queries
_SCORE_BUDGET = 32 << 20


class EmbeddingError(ValueError):
    """Invalid embedding data (size mismatch, NaN/Inf, duplicate ids)."""


class EmbeddingStore:
    """Row-major float32 vectors addressed by article id. Immutable after load."""

    def __init__(self, ids: Sequence[str], vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise EmbeddingError("vectors must form a 2-D matrix")
        if vectors.shape[1] < 1:
            raise EmbeddingError("vector dimension must be >= 1")
        if len(ids) != vectors.shape[0]:
            raise EmbeddingError(f"{len(ids)} ids for {vectors.shape[0]} vector rows")
        if len(set(ids)) != len(ids):
            raise EmbeddingError("duplicate embedding ids")
        if not np.isfinite(vectors).all():
            raise EmbeddingError("vectors contain NaN or Inf values")
        self.ids = list(ids)
        self.vectors = vectors
        self.vectors.setflags(write=False)
        self._row = {article_id: i for i, article_id in enumerate(self.ids)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, article_id: str) -> bool:
        return article_id in self._row

    def vector(self, article_id: str) -> np.ndarray:
        return self.vectors[self._row[article_id]]

    @cached_property
    def id_rank(self) -> np.ndarray:
        return id_ranks(self.ids)

    @cached_property
    def row_norms(self) -> np.ndarray:
        """float64 L2 norm of every row, the cosine denominator of _scores."""
        norms = np.empty(len(self.ids))
        for start in range(0, len(self.ids), _BLOCK):
            v = self.vectors[start:start + _BLOCK].astype(np.float64)
            norms[start:start + _BLOCK] = np.sqrt((v * v).sum(axis=1))
        norms.setflags(write=False)
        return norms


def load_embeddings(vector_path, manifest_path) -> EmbeddingStore:
    """Load vectors from a raw '<f4' file validated against its manifest.

    Manifest: JSON object {"dim": int >= 1, "count": int >= 0, "ids":
    [str, ...]}; errors name the manifest path. The vector file must hold
    exactly count*dim little-endian float32s.
    """
    try:
        manifest = checked(read_json(manifest_path), manifest_path, "manifest",
                           dim=None, count=None, ids="a list of strings")
    except ValueError as exc:
        raise EmbeddingError(str(exc)) from None
    dim, count, ids = manifest["dim"], manifest["count"], manifest["ids"]
    for key, value, least in (("dim", dim, 1), ("count", count, 0)):
        if type(value) is not int or value < least:
            raise EmbeddingError(f"{manifest_path}: {key} must be an integer >= {least}, "
                                 f"got {value!r}")
    if len(ids) != count:
        raise EmbeddingError(f"{manifest_path}: manifest lists {len(ids)} ids but count={count}")
    data = np.fromfile(vector_path, dtype="<f4")
    if data.size != count * dim:
        raise EmbeddingError(
            f"vector file holds {data.size} floats, manifest requires {count * dim}"
        )
    return EmbeddingStore(ids, data.reshape(count, dim))


def save_embeddings(ids: Sequence[str], vectors: np.ndarray, vector_path, manifest_path) -> None:
    vectors = np.asarray(vectors, dtype="<f4")
    with open(vector_path, "wb") as fh:
        fh.write(vectors.tobytes(order="C"))
    manifest = {"dim": int(vectors.shape[1]), "count": int(vectors.shape[0]), "ids": list(ids)}
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, ensure_ascii=False, separators=(",", ":"))
        fh.write("\n")


def _scores(v: np.ndarray, q: np.ndarray, metric: str,
            row_norms: np.ndarray | None) -> np.ndarray:
    # v holds float64 copies of the rows; all reductions are row-local so
    # chunked scans reproduce the full scan; cosine divides by the rows'
    # EmbeddingStore.row_norms
    if metric == "dot":
        return (v * q).sum(axis=1)
    if metric == "euclidean":
        diff = v - q
        return np.sqrt((diff * diff).sum(axis=1))
    dots = (v * q).sum(axis=1)  # cosine, the one metric left after _check
    q_norm = math.sqrt(float((q * q).sum()))
    denom = row_norms * q_norm
    safe = np.where(denom > 0.0, denom, 1.0)
    return np.where(denom > 0.0, dots / safe, 0.0)


def _check(k: int, metric: str) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")


def _pool_rows(store: EmbeddingStore, pool) -> np.ndarray:
    """The pool's rows in ascending order, or every row when pool is None."""
    if pool is None:
        return np.arange(len(store.ids), dtype=np.intp)
    try:
        return np.array(sorted(store._row[i] for i in pool), dtype=np.intp)
    except KeyError as exc:
        raise KeyError(f"pool id {exc.args[0]!r} has no embedding row") from None


def _scan(store: EmbeddingStore, rows: np.ndarray, queries: np.ndarray, metric: str,
          chunks: int) -> np.ndarray:
    """Scores of `rows` (non-empty) for each float64 query row, one score row
    per query. The rows are split into max(chunks, blocks of at most _BLOCK)
    parts; each part is gathered and cast to float64 once for all queries."""
    norms = store.row_norms if metric == "cosine" else None
    n_parts = max(1, min(chunks, rows.size), -(-rows.size // _BLOCK))
    scores = np.empty((len(queries), rows.size))
    start = 0
    for part in np.array_split(rows, n_parts):
        v = store.vectors[part].astype(np.float64)
        part_norms = None if norms is None else norms[part]
        end = start + part.size
        for q, out in zip(queries, scores):
            out[start:end] = _scores(v, q, metric, part_norms)
        start = end
    return scores


def knn(store: EmbeddingStore, query, k: int, metric: str = "cosine",
        pool=None, chunks: int = 1) -> list[tuple[str, float]]:
    """Exact top-k under the metric, optionally restricted to a pool of ids.

    Euclidean ranks ascending by distance, cosine/dot descending by
    similarity; ties break by ascending article id. The cosine of a
    zero-norm vector is 0 against everything. `chunks` partitions the rows
    for scanning, in blocks of at most _BLOCK rows; scores are row-local, so
    results are identical for every partition.
    """
    _check(k, metric)
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if q.shape[0] != store.dim:
        raise ValueError(f"query has dimension {q.shape[0]}, store has {store.dim}")
    rows = _pool_rows(store, pool)
    if rows.size == 0:
        return []
    scores = _scan(store, rows, q[np.newaxis], metric, chunks)[0]
    return rank_rows(store.ids, store.id_rank, rows, scores, k,
                     descending=metric in ("cosine", "dot"))


def knn_pool(store: EmbeddingStore, query_ids: Sequence[str], pool, k: int,
             metric: str = "cosine", chunks: int = 1) -> dict[str, list[tuple[str, float]]]:
    """Top-k for each stored query vector against one shared pool, keyed by
    query id in the given order; a query is never its own candidate.

    Equal to knn(store, store.vector(q), k, metric, pool - {q}, chunks) for
    every q, but the pool's rows are sorted once, and each block of rows is
    gathered and cast once per group of queries rather than once per query.
    A group's score matrix stays within _SCORE_BUDGET bytes.
    """
    _check(k, metric)
    if not query_ids:
        return {}
    query_rows = []
    for q in query_ids:
        if q not in store:
            raise KeyError(f"no embedding row for query {q!r}")
        query_rows.append(store._row[q])
    rows = _pool_rows(store, pool)
    if rows.size == 0:
        return {q: [] for q in query_ids}
    descending = metric in ("cosine", "dot")
    group = max(1, _SCORE_BUDGET // (8 * rows.size))
    out = {}
    for start in range(0, len(query_ids), group):
        group_rows = query_rows[start:start + group]
        queries = store.vectors[group_rows].astype(np.float64)
        for q, q_row, scores in zip(query_ids[start:start + group], group_rows,
                                    _scan(store, rows, queries, metric, chunks)):
            cand = rows
            at = int(np.searchsorted(rows, q_row))
            if at < rows.size and rows[at] == q_row:
                # scores are row-local, so dropping the query's own row after
                # scoring equals scoring the pool without it
                cand, scores = np.delete(rows, at), np.delete(scores, at)
            out[q] = rank_rows(store.ids, store.id_rank, cand, scores, k, descending)
    return out
