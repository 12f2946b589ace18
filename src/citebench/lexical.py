"""BM25 retrieval over an in-memory inverted index in CSR layout.

Documents are the concatenation of an article's title and abstract. Scoring
follows the classic formulation

    s(Q, D) = sum_i IDF(q_i) * f(q_i, D) (k1 + 1) / (f(q_i, D) + k1 (1 - b + b |D| / avgdl))
    IDF(t)  = ln((N - n(t) + 0.5) / (n(t) + 0.5) + 1)

summed over the query's token sequence, so a term occurring twice in the
query contributes twice. The +1 inside the log keeps IDF strictly positive.
Search returns only documents matching at least one query term; ties break
by ascending doc id.

Search gathers the pooled postings of the query's tokens, in query-token
order, into one set of arrays and adds their contributions into the
per-document sums with one np.add.at. That adds one element at a time in
index order, so each document's sum starts from 0.0 and takes its terms in
query-token order with score()'s operations: every returned score equals
score() exactly.
Indexes persist as format version 2: a JSON header (analyzer, doc ids,
terms) followed by the raw CSR arrays.
"""

from __future__ import annotations

import json
import math
import re
import struct
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import metrics
from .corpus import Corpus
from .util import id_ranks, rank_rows

_WORD = re.compile(r"\w+")


@dataclass(frozen=True)
class AnalyzerConfig:
    """Deterministic text analysis shared by documents and queries."""

    lowercase: bool = True
    stopwords: frozenset[str] | None = None


def analyze(text: str, config: AnalyzerConfig = AnalyzerConfig()) -> list[str]:
    """Unicode word tokens in document order, lowercased and stop-filtered per config."""
    if config.lowercase:
        text = text.lower()
    tokens = _WORD.findall(text)
    if config.stopwords:
        tokens = [t for t in tokens if t not in config.stopwords]
    return tokens


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError("k1 must be >= 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


class Bm25Index:
    """Inverted index with exact term frequencies, in CSR layout.

    Row i is the i-th document in corpus order: `ids[i]` has `lengths[i]`
    tokens. `vocab` numbers the terms in first-seen order; term t owns the
    slice `indptr[t]:indptr[t + 1]` of `rows` (ascending int32 row numbers)
    and of `tfs` (float64 term frequencies). Immutable after build; scoring
    and search are pure.
    """

    def __init__(self, ids: list[str], lengths, vocab: dict[str, int], indptr, rows, tfs,
                 analyzer: AnalyzerConfig):
        self.ids = list(ids)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.vocab = vocab
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.rows = np.asarray(rows, dtype=np.int32)
        self.tfs = np.asarray(tfs, dtype=np.float64)
        self.analyzer = analyzer
        if (self.lengths.shape != (len(self.ids),) or self.indptr.shape != (len(vocab) + 1,)
                or self.rows.shape != self.tfs.shape or self.indptr[-1] != self.rows.size):
            raise ValueError("inconsistent index arrays")
        for arr in (self.lengths, self.indptr, self.rows, self.tfs):
            arr.setflags(write=False)
        self.N = len(self.ids)
        self.avgdl = sum(self.lengths.tolist()) / self.N if self.N else 0.0
        self._row = {doc_id: i for i, doc_id in enumerate(self.ids)}
        self._inner: dict[float, np.ndarray] = {}

    @cached_property
    def id_rank(self) -> np.ndarray:
        return id_ranks(self.ids)

    def _length_norm(self, b: float) -> np.ndarray:
        """(1 - b) + b |D| / avgdl per row, cached per b."""
        inner = self._inner.get(b)
        if inner is None:
            inner = self._inner[b] = (1.0 - b) + (b * self.lengths) / self.avgdl
        return inner

    def _pool_mask(self, pool) -> np.ndarray:
        mask = np.zeros(self.N, dtype=bool)
        row = self._row
        mask[[row[i] for i in pool if i in row]] = True
        return mask


def build_index(corpus: Corpus, config: AnalyzerConfig = AnalyzerConfig()) -> Bm25Index:
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    ids: list[str] = []
    vocab: dict[str, int] = {}
    # one (term number, tf) pair per posting in corpus order, plus the number
    # of distinct terms per document
    lengths, widths, term_of, tf_of = array("q"), array("q"), array("q"), array("q")
    for art in corpus:
        tokens = analyze(art.text, config)
        counts = Counter(tokens)
        ids.append(art.id)
        lengths.append(len(tokens))
        widths.append(len(counts))
        term_of.extend([vocab.setdefault(term, len(vocab)) for term in counts])
        tf_of.extend(counts.values())
    terms = np.frombuffer(term_of, dtype=np.int64)
    # a stable sort by term keeps each term's rows in ascending corpus order
    order = np.argsort(terms, kind="stable")
    rows = np.repeat(np.arange(len(ids), dtype=np.int32), np.frombuffer(widths, dtype=np.int64))
    indptr = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(terms, minlength=len(vocab)), out=indptr[1:])
    tfs = np.frombuffer(tf_of, dtype=np.int64)[order].astype(np.float64)
    return Bm25Index(ids, np.frombuffer(lengths, dtype=np.int64), vocab, indptr, rows[order],
                     tfs, config)


def idf(index: Bm25Index, term: str) -> float:
    """ln((N - n + 0.5)/(n + 0.5) + 1), with n = 0 for unseen terms."""
    t = index.vocab.get(term)
    n = 0 if t is None else int(index.indptr[t + 1] - index.indptr[t])
    return math.log((index.N - n + 0.5) / (n + 0.5) + 1.0)


def score(index: Bm25Index, query_terms: list[str], doc_id: str, params: Bm25Params = Bm25Params()) -> float:
    """Score one document against an analyzed query token sequence."""
    row = index._row.get(doc_id)
    if row is None:
        raise KeyError(f"unknown doc id {doc_id!r}")
    norm = params.k1 * (1.0 - params.b + params.b * int(index.lengths[row]) / index.avgdl)
    total = 0.0
    for term in query_terms:
        t = index.vocab.get(term)
        if t is None:
            continue
        start, end = int(index.indptr[t]), int(index.indptr[t + 1])
        i = start + int(np.searchsorted(index.rows[start:end], row))
        if i < end and index.rows[i] == row:
            tf = float(index.tfs[i])
            total += idf(index, term) * (tf * (params.k1 + 1.0)) / (tf + norm)
    return total


def _query_terms(index: Bm25Index, tokens: list[str], mask: np.ndarray | None):
    """The query's postings as one (rows, tfs, idfs) triple, rows restricted
    to the mask: each token's slice in query-token order (a repeated token
    repeats its slice), with the token's idf once per posting. None when no
    token has a (pooled) posting."""
    sliced = {}
    for term in dict.fromkeys(tokens):
        t = index.vocab.get(term)
        if t is None:
            continue
        start, end = index.indptr[t], index.indptr[t + 1]
        rows, tfs = index.rows[start:end], index.tfs[start:end]
        if mask is not None:
            keep = mask[rows]
            rows, tfs = rows[keep], tfs[keep]
        if rows.size:
            sliced[term] = (rows, tfs, np.full(rows.size, idf(index, term)))
    parts = [sliced[term] for term in tokens if term in sliced]
    if not parts:
        return None
    return tuple(np.concatenate(column) for column in zip(*parts))


def _ranked(index: Bm25Index, terms, params: Bm25Params, k: int,
            exclude: int | None = None) -> list[tuple[str, float]]:
    """The top k of the gathered postings, row `exclude` left out; sums are
    per document, so leaving a row out after summing equals never pooling it."""
    if terms is None:
        return []
    rows, tfs, idfs = terms
    norm = params.k1 * index._length_norm(params.b)[rows]
    contrib = (idfs * (tfs * (params.k1 + 1.0))) / (tfs + norm)
    # add.at adds one element at a time in index order, so each document's
    # sum starts from 0.0 and takes its terms in query-token order, each
    # with score()'s operations: sums are bit-identical to score()
    acc = np.zeros(index.N)
    np.add.at(acc, rows, contrib)
    touched = np.zeros(index.N, dtype=bool)
    touched[rows] = True
    if exclude is not None:
        touched[exclude] = False
    hit = np.flatnonzero(touched)
    return rank_rows(index.ids, index.id_rank, hit, acc[hit], k)


def search(index: Bm25Index, query_text: str, params: Bm25Params = Bm25Params(),
           k: int = 500, pool=None) -> list[tuple[str, float]]:
    """Top-k documents matching the query, optionally restricted to a pool
    of doc ids. Descending score, ties by ascending doc id; every returned
    score equals score() exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mask = None if pool is None else index._pool_mask(pool)
    return _ranked(index, _query_terms(index, analyze(query_text, index.analyzer), mask),
                   params, k)


def search_pool(index: Bm25Index, queries, pool, params: Bm25Params = Bm25Params(),
                k: int = 500) -> dict[str, list[tuple[str, float]]]:
    """Top-k for many (query id, query text) pairs against one shared pool,
    keyed by query id in the given order; a query is never its own
    candidate. Equal to search(index, text, params, k, pool - {id}) for each
    pair, with the pool mask built once for all of them.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mask = index._pool_mask(pool)
    return {qid: _ranked(index, _query_terms(index, analyze(text, index.analyzer), mask),
                         params, k, exclude=index._row.get(qid))
            for qid, text in queries}


def default_tuning_grid() -> list[Bm25Params]:
    """b in {0.0, 0.1, ..., 1.0} crossed with k1 in {0.1, 0.3, ..., 2.9}."""
    return [
        Bm25Params(k1=round(0.1 + 0.2 * i, 1), b=round(0.1 * j, 1))
        for j in range(11)
        for i in range(15)
    ]


def tune_params(index: Bm25Index, validation: list[tuple[str, set]], grid: list[Bm25Params],
                *, pool=None, objective: str = metrics.DEFAULT_OBJECTIVE,
                cutoff: int | None = None) -> Bm25Params:
    """Grid point maximizing the mean objective (a metric name) over validation queries.

    `validation` pairs query text with the query's positive id set. Ties
    break toward smaller (b, k1). Each query is analyzed, restricted to the
    pool and gathered into its postings arrays once; every grid point reuses
    them.
    """
    if not grid:
        raise ValueError("empty parameter grid")
    if not validation:
        raise ValueError("empty validation set")
    objective_of = metrics.metric_named(objective)
    k = cutoff if cutoff is not None else (len(pool) if pool is not None else index.N)
    mask = None if pool is None else index._pool_mask(pool)
    prepared = [(_query_terms(index, analyze(text, index.analyzer), mask), positives)
                for text, positives in validation]
    best_key = None
    best_params = None
    for params in grid:
        total = 0.0
        for terms, positives in prepared:
            total += objective_of(_ranked(index, terms, params, k), positives)
        mean = total / len(validation)
        key = (-mean, params.b, params.k1)
        if best_key is None or key < best_key:
            best_key, best_params = key, params
    return best_params


# ---------------------------------------------------------------------------
# binary index persistence, format version 2: magic, version and header
# length, a JSON header, then the raw little-endian arrays lengths (i8),
# indptr (i8), tfs (f8) and rows (i4)
# ---------------------------------------------------------------------------

_MAGIC = b"CBIX"
_VERSION = 2
_PREFIX = struct.Struct("<4sIQ")


def save_index(index: Bm25Index, path) -> None:
    """Persist the index so that load_index(save_index(...)) ranks bit-identically."""
    cfg = index.analyzer
    header = json.dumps({
        "lowercase": cfg.lowercase,
        "stopwords": None if cfg.stopwords is None else sorted(cfg.stopwords),
        "ids": index.ids,
        "terms": list(index.vocab),
    }, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    header += b" " * (-len(header) % 8)  # keeps every array 8-byte aligned
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(_MAGIC, _VERSION, len(header)))
        fh.write(header)
        for arr, dtype in ((index.lengths, "<i8"), (index.indptr, "<i8"),
                           (index.tfs, "<f8"), (index.rows, "<i4")):
            fh.write(arr.astype(dtype, copy=False).tobytes())


def load_index(path) -> Bm25Index:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise ValueError(f"{path}: not an index file")
    if len(data) < _PREFIX.size:
        raise ValueError(f"{path}: truncated index file")
    _, version, header_len = _PREFIX.unpack_from(data)
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported index version {version}")
    offset = _PREFIX.size + header_len
    try:
        header = json.loads(data[_PREFIX.size:offset])
    except ValueError:
        raise ValueError(f"{path}: corrupt index header") from None

    def take(dtype: str, count: int) -> np.ndarray:
        nonlocal offset
        try:
            arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
        except ValueError:
            raise ValueError(f"{path}: truncated index file") from None
        offset += arr.nbytes
        return arr

    ids, terms, stopwords = header["ids"], header["terms"], header["stopwords"]
    lengths = take("<i8", len(ids))
    indptr = take("<i8", len(terms) + 1)
    tfs = take("<f8", int(indptr[-1]))
    rows = take("<i4", int(indptr[-1]))
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes after the index arrays")
    config = AnalyzerConfig(lowercase=header["lowercase"],
                            stopwords=None if stopwords is None else frozenset(stopwords))
    vocab = {term: t for t, term in enumerate(terms)}
    return Bm25Index(ids, lengths, vocab, indptr, rows, tfs, config)
