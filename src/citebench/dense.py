"""Embedding storage and exact top-k nearest-neighbor retrieval.

Vectors are produced elsewhere (any single-vector-per-article encoder) and
consumed here from a raw little-endian float32 file plus a JSON manifest;
the file is mapped read-only, so its pages stay the file's, not the heap's.
Search is an exhaustive scan, never approximate: each block of rows is
reduced row by row in float64, and each query's score row then gets its
metric's elementwise finish once, so results do not depend on how the rows
are chunked. util.Numbering.top selects each query's k best before sorting
only those.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from functools import cached_property

import numpy as np

from .util import Numbering, checked, read_json

METRICS = ("cosine", "dot", "euclidean")

# Most rows converted to float64 at once, by the scan and by the cosine row
# norms, and checked for finiteness at once; larger blocks only raise peak
# memory
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
        self.numbering = Numbering(ids)
        self.numbering.check_unique(lambda i: EmbeddingError(f"duplicate embedding id {i!r}"))
        if not all(np.isfinite(vectors[start:start + _BLOCK]).all()
                   for start in range(0, len(vectors), _BLOCK)):
            raise EmbeddingError("vectors contain NaN or Inf values")
        self.ids = self.numbering.ids
        self.vectors = vectors
        self.vectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, article_id: str) -> bool:
        return article_id in self.numbering.row

    def vector(self, article_id: str) -> np.ndarray:
        return self.vectors[self.numbering.row[article_id]]

    @cached_property
    def row_norms(self) -> np.ndarray:
        """float64 L2 norm of every row, the cosine denominator of _scan."""
        norms = np.empty(len(self.ids))
        for start in range(0, len(self.ids), _BLOCK):
            v = self.vectors[start:start + _BLOCK].astype(np.float64)
            norms[start:start + _BLOCK] = np.sqrt((v * v).sum(axis=1))
        norms.setflags(write=False)
        return norms


def load_embeddings(vector_path, manifest_path) -> EmbeddingStore:
    """Map vectors from a raw '<f4' file, read-only, validated against its manifest.

    Manifest: JSON object {"dim": int >= 1, "count": int >= 0, "ids":
    [str, ...]}. The vector file must hold exactly count*dim little-endian
    finite float32s. Errors name the file at fault: the manifest for its
    keys and ids, the vector file for its size and values.
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
    size = os.path.getsize(vector_path)
    if size != 4 * count * dim:
        partial = f" and {size % 4} trailing bytes" if size % 4 else ""
        raise EmbeddingError(f"{vector_path}: vector file holds {size // 4} floats{partial}, "
                             f"manifest requires {count * dim}")
    # mapped read-only, so the store's pages are the file's; an empty file
    # cannot be mapped
    vectors = (np.memmap(vector_path, dtype="<f4", mode="r", shape=(count, dim)) if count
               else np.empty((0, dim), dtype=np.float32))
    try:
        return EmbeddingStore(ids, vectors)
    except EmbeddingError as exc:
        # the store checks the ids before the values
        where = manifest_path if len(set(ids)) < len(ids) else vector_path
        raise EmbeddingError(f"{where}: {exc}") from None


def save_embeddings(ids: Sequence[str], vectors: np.ndarray, vector_path, manifest_path) -> None:
    vectors = np.asarray(vectors, dtype="<f4")
    with open(vector_path, "wb") as fh:
        fh.write(vectors.tobytes(order="C"))
    manifest = {"dim": int(vectors.shape[1]), "count": int(vectors.shape[0]), "ids": list(ids)}
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, ensure_ascii=False, separators=(",", ":"))
        fh.write("\n")


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
        return store.numbering.rows(pool)
    except KeyError as exc:
        raise KeyError(f"pool id {exc.args[0]!r} has no embedding row") from None


def _scan(store: EmbeddingStore, rows: np.ndarray, queries: np.ndarray, metric: str,
          chunks: int) -> np.ndarray:
    """Scores of `rows` (non-empty) for each float64 query row, one score row
    per query. The rows are split into max(chunks, blocks of at most _BLOCK)
    parts; each part is gathered and cast to float64 once for all queries,
    and each (query, part) pair runs only its row-local reduction. The
    metric's elementwise finish then runs once per score row: euclidean's
    sqrt, and cosine's division by the rows' EmbeddingStore.row_norms times
    the query's norm (0 where that product is 0)."""
    n_parts = max(1, min(chunks, rows.size), -(-rows.size // _BLOCK))
    scores = np.empty((len(queries), rows.size))
    start = 0
    for part in np.array_split(rows, n_parts):
        v = store.vectors[part].astype(np.float64)
        end = start + part.size
        for q, out in zip(queries, scores):
            if metric == "euclidean":
                diff = v - q
                out[start:end] = (diff * diff).sum(axis=1)
            else:
                out[start:end] = (v * q).sum(axis=1)
        start = end
    if metric == "euclidean":
        np.sqrt(scores, out=scores)
    elif metric == "cosine":
        norms = store.row_norms[rows]
        for q, out in zip(queries, scores):
            denom = norms * math.sqrt(float((q * q).sum()))
            safe = np.where(denom > 0.0, denom, 1.0)
            out[:] = np.where(denom > 0.0, out / safe, 0.0)
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
    return store.numbering.top(rows, scores, k, descending=metric in ("cosine", "dot"))


def knn_pool(store: EmbeddingStore, query_ids: Sequence[str], pool, k: int,
             metric: str = "cosine", chunks: int = 1) -> dict[str, list[tuple[str, float]]]:
    """Top-k for each stored query vector against one shared pool, keyed by
    query id in the given order; a query is never its own candidate.

    Equal to knn(store, store.vector(q), k, metric, pool - {q}, chunks) for
    every q, but the pool's rows are sorted once, and each block of rows is
    gathered and cast once per group of queries rather than once per query.
    A group's score matrix stays within _SCORE_BUDGET bytes; each of its
    rows is finished once and its query's row is cut before the top k is
    selected.
    """
    _check(k, metric)
    if not query_ids:
        return {}
    try:
        query_rows = [store.numbering.row[q] for q in query_ids]
    except KeyError as exc:
        raise KeyError(f"no embedding row for query {exc.args[0]!r}") from None
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
            out[q] = store.numbering.top(rows, scores, k, descending, exclude=q_row)
    return out
