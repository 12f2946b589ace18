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

Tuning (tune_params) scores each grid point from counted ranks instead of
ranked lists. It sums the same contributions with np.bincount, which also
adds in index order from 0.0, so every sum is bit-identical to search's.
It then counts each positive's rank with Numbering.positive_ranks, which
applies top's one tie rule (descending score, then ascending id). The
metrics take only those ranks, the ranking's length and |positives|, so
every objective value equals the one scored from search's ranked list.

build_index works in blocks of _BLOCK documents. Each document is analyzed
once; the block's new terms are numbered in first-seen order, its tokens
mapped to term numbers in one C-level pass, and its (term, row) pairs
counted with one np.unique into int32 arrays. One bincount and one stable
argsort by term over all blocks then lay out the CSR arrays. Only one
block's tokens are alive at a time, and no per-token array outlives its
block.

Indexes persist as format version 3: a JSON header (doc ids, terms)
followed by the raw CSR arrays. load_index checks the arrays' contents as
well as their sizes, so a corrupt file fails naming its path instead of
changing scores.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import struct
from dataclasses import dataclass

import numpy as np

from . import metrics
from .corpus import Corpus
from .util import Numbering, checked

_WORD = re.compile(r"\w+")

# Documents analyzed and counted at once by build_index; larger blocks only
# raise peak memory
_BLOCK = 256


def analyze(text: str) -> list[str]:
    """Lowercased Unicode word tokens in text order, for documents and queries alike."""
    return _WORD.findall(text.lower())


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

    Row i is document `ids[i]` of `numbering` (build_index shares its
    corpus's), with `lengths[i]` tokens. `vocab` numbers the terms in
    first-seen order; term t owns the slice `indptr[t]:indptr[t + 1]` of
    `rows` (ascending int32 row numbers) and of `tfs` (float64 term
    frequencies). Immutable after build; scoring and search are pure.
    """

    def __init__(self, numbering: Numbering, lengths, vocab: dict[str, int], indptr, rows, tfs):
        self.numbering = numbering
        self.ids = numbering.ids
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.vocab = vocab
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.rows = np.asarray(rows, dtype=np.int32)
        self.tfs = np.asarray(tfs, dtype=np.float64)
        if (self.lengths.shape != (len(self.ids),) or self.indptr.shape != (len(vocab) + 1,)
                or self.rows.shape != self.tfs.shape or self.indptr[-1] != self.rows.size):
            raise ValueError("inconsistent index arrays")
        for arr in (self.lengths, self.indptr, self.rows, self.tfs):
            arr.setflags(write=False)
        self.N = len(self.ids)
        self.avgdl = sum(self.lengths.tolist()) / self.N if self.N else 0.0
        self._inner: dict[float, np.ndarray] = {}

    def _length_norm(self, b: float) -> np.ndarray:
        """(1 - b) + b |D| / avgdl per row, cached per b."""
        inner = self._inner.get(b)
        if inner is None:
            inner = self._inner[b] = (1.0 - b) + (b * self.lengths) / self.avgdl
        return inner

    def _pool_mask(self, pool) -> np.ndarray:
        mask = np.zeros(self.N, dtype=bool)
        mask[self.numbering.rows(filter(self.numbering.row.__contains__, pool))] = True
        return mask


def _count_block(vocab: dict[str, int], tokens: list[str], lengths: np.ndarray):
    """The postings of a block of documents, whose tokens end to end are
    `tokens`, as int32 (term, local row, tf) arrays, term-major with rows
    ascending; terms new to `vocab` are numbered in first-seen order."""
    new = list(itertools.filterfalse(vocab.__contains__, dict.fromkeys(tokens)))
    vocab.update(zip(new, itertools.count(len(vocab))))
    keys = np.fromiter(map(vocab.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    # one key per (term, row) pair of the block; np.unique sorts them
    keys *= lengths.size
    keys += np.repeat(np.arange(lengths.size), lengths)
    keys, tfs = np.unique(keys, return_counts=True)
    terms, rows = np.divmod(keys, lengths.size)
    return terms.astype(np.int32), rows.astype(np.int32), tfs.astype(np.int32)


def _joined(blocks: list[np.ndarray]) -> np.ndarray:
    """The blocks end to end; the list is emptied, so no block outlives the join."""
    joined = np.concatenate(blocks)
    blocks.clear()
    return joined


def build_index(corpus: Corpus) -> Bm25Index:
    """Index the corpus's texts, _BLOCK documents at a time (see the module
    docstring), sharing the corpus's numbering."""
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    vocab: dict[str, int] = {}
    lengths = np.empty(len(corpus), dtype=np.int64)
    term_blocks, row_blocks, tf_blocks = [], [], []
    articles = iter(corpus)
    for start in range(0, len(corpus), _BLOCK):
        # each document's token list dies at once: only the block's tokens
        # end to end stay alive, so the collector has little to track
        tokens = []
        block = lengths[start:start + _BLOCK]
        for row, art in enumerate(itertools.islice(articles, _BLOCK)):
            doc = analyze(art.text)
            tokens += doc
            block[row] = len(doc)
        terms, rows, tfs = _count_block(vocab, tokens, block)
        term_blocks.append(terms)
        row_blocks.append(rows + np.int32(start))
        tf_blocks.append(tfs)
    terms = _joined(term_blocks)
    indptr = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(terms, minlength=len(vocab)), out=indptr[1:])
    # a stable sort by term keeps each term's rows in ascending corpus order;
    # each array is dropped as soon as the next no longer needs it
    order = np.argsort(terms, kind="stable")
    del terms
    rows = _joined(row_blocks)[order]
    tfs = _joined(tf_blocks)[order]
    del order
    return Bm25Index(corpus.numbering, lengths, vocab, indptr, rows, tfs.astype(np.float64))


def idf(index: Bm25Index, term: str) -> float:
    """ln((N - n + 0.5)/(n + 0.5) + 1), with n = 0 for unseen terms."""
    t = index.vocab.get(term)
    n = 0 if t is None else int(index.indptr[t + 1] - index.indptr[t])
    return math.log((index.N - n + 0.5) / (n + 0.5) + 1.0)


def score(index: Bm25Index, query_terms: list[str], doc_id: str, params: Bm25Params = Bm25Params()) -> float:
    """Score one document against an analyzed query token sequence."""
    row = index.numbering.row.get(doc_id)
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


def _contributions(params: Bm25Params, norm: np.ndarray, tfs: np.ndarray,
                   idfs: np.ndarray) -> np.ndarray:
    """Each gathered posting's term score with score()'s operations; `norm`
    is _length_norm(params.b) at the postings' rows."""
    return (idfs * (tfs * (params.k1 + 1.0))) / (tfs + params.k1 * norm)


def _ranked(index: Bm25Index, terms, params: Bm25Params, k: int,
            exclude: int | None = None) -> list[tuple[str, float]]:
    """The top k of the gathered postings, row `exclude` left out."""
    if terms is None:
        return []
    rows, tfs, idfs = terms
    contrib = _contributions(params, index._length_norm(params.b)[rows], tfs, idfs)
    # add.at adds one element at a time in index order, so each document's
    # sum starts from 0.0 and takes its terms in query-token order, each
    # with score()'s operations: sums are bit-identical to score()
    acc = np.zeros(index.N)
    np.add.at(acc, rows, contrib)
    touched = np.zeros(index.N, dtype=bool)
    touched[rows] = True
    hit = np.flatnonzero(touched)
    return index.numbering.top(hit, acc[hit], k, exclude=exclude)


def search(index: Bm25Index, query_text: str, params: Bm25Params = Bm25Params(),
           k: int = 500, pool=None) -> list[tuple[str, float]]:
    """Top-k documents matching the query, optionally restricted to a pool
    of doc ids; pool ids the index lacks are skipped. Descending score,
    ties by ascending doc id; every returned score equals score() exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mask = None if pool is None else index._pool_mask(pool)
    return _ranked(index, _query_terms(index, analyze(query_text), mask), params, k)


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
    return {qid: _ranked(index, _query_terms(index, analyze(text), mask),
                         params, k, exclude=index.numbering.row.get(qid))
            for qid, text in queries}


def default_tuning_grid() -> list[Bm25Params]:
    """b in {0.0, 0.1, ..., 1.0} crossed with k1 in {0.1, 0.3, ..., 2.9}."""
    return [
        Bm25Params(k1=round(0.1 + 0.2 * i, 1), b=round(0.1 * j, 1))
        for j in range(11)
        for i in range(15)
    ]


class _TuningQuery:
    """One validation query, prepared once for every grid point: its gathered
    postings, each posting's place among the hit rows (ascending), the
    places of the positives that were hit, and |positives|."""

    def __init__(self, index: Bm25Index, terms, positives):
        relevant = metrics._relevant_set(positives)
        self.index, self.count = index, len(relevant)
        if terms is None:
            terms = (np.empty(0, dtype=np.int32), np.empty(0), np.empty(0))
        self.rows, self.tfs, self.idfs = terms
        hits = np.bincount(self.rows, minlength=index.N) > 0
        self.hit_rows = np.flatnonzero(hits)
        place = np.cumsum(hits) - 1
        self.place = place[self.rows]
        positive_rows = np.fromiter(
            (r for r in map(index.numbering.row.get, relevant) if r is not None), dtype=np.intp)
        self.at = place[positive_rows[hits[positive_rows]]]

    def scores(self, params: Bm25Params, norm: np.ndarray) -> np.ndarray:
        """Each hit's score at `params`; `norm` is _length_norm(params.b) at
        self.rows."""
        contrib = _contributions(params, norm, self.tfs, self.idfs)
        # like _ranked's add.at, bincount adds in posting order from 0.0, so
        # each hit's sum is bit-identical to the one _ranked ranks
        return np.bincount(self.place, weights=contrib, minlength=self.hit_rows.size)

    def values(self, points: list[Bm25Params], norm: np.ndarray | None, k: int,
               by_ranks) -> list[float]:
        """The objective `by_ranks` of the top k at each of `points`, which
        share one b whose _length_norm is `norm`, so it is gathered at the
        postings once for all of them. Like _ranked, only a query with
        postings reads it (`norm` is None for an index of empty documents)."""
        norm = norm[self.rows] if self.rows.size else np.empty(0)
        numbering, length = self.index.numbering, min(k, self.hit_rows.size)
        values = []
        for params in points:
            ranks = numbering.positive_ranks(self.hit_rows, self.scores(params, norm), self.at, k)
            values.append(by_ranks(ranks, length, self.count))
        return values


def _grid_values(index: Bm25Index, validation, grid, pool, objective: str,
                 cutoff: int | None) -> list[list[float]]:
    """Each grid point's objective value per validation query, in order.
    Queries are scored one at a time over each run of equal b in the grid,
    so only one query's length-norm gather is alive at once."""
    by_ranks = metrics._metric(objective)[1]
    k = cutoff if cutoff is not None else (len(pool) if pool is not None else index.N)
    mask = None if pool is None else index._pool_mask(pool)
    cached = set(index._inner)
    try:
        # Each b's norms are made before the queries' arrays: one cached
        # before this call outlives it, and made among those arrays it
        # would pin the memory they free and grow the heap. An index of
        # empty documents (avgdl 0) has no finite norm.
        runs = [(index._length_norm(b) if index.avgdl else None, list(points))
                for b, points in itertools.groupby(grid, key=lambda params: params.b)]
        prepared = [_TuningQuery(index, _query_terms(index, analyze(text), mask), positives)
                    for text, positives in validation]
        values = []
        for norm, points in runs:
            values += map(list, zip(*[query.values(points, norm, k, by_ranks)
                                      for query in prepared]))
        return values
    finally:
        # norms only this call needed die with it, not with the index
        for b in set(index._inner) - cached:
            del index._inner[b]


def tune_params(index: Bm25Index, validation: list[tuple[str, set]], grid: list[Bm25Params],
                *, pool=None, objective: str = metrics.DEFAULT_OBJECTIVE,
                cutoff: int | None = None) -> Bm25Params:
    """Grid point maximizing the mean objective (a metric name) over validation queries.

    `validation` pairs query text with the query's positive id set. Ties
    break toward smaller (b, k1). The top k is taken over the pool (k =
    `cutoff`, else the pool's or the index's size), and validation queries
    are not left out of it.

    Each query is analyzed, restricted to the pool, gathered and its hits
    numbered once. A grid point is then scored from counted ranks, not
    from a ranked list: the postings' contributions are summed per hit
    with np.bincount, which adds in posting order from 0.0 like search's
    np.add.at, and Numbering.positive_ranks counts the positives' ranks
    under top's one tie rule. So every objective value equals the one
    scored from search's ranking, bit for bit.
    """
    if not grid:
        raise ValueError("empty parameter grid")
    if not validation:
        raise ValueError("empty validation set")
    if cutoff is not None and cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    best_key = None
    best_params = None
    for params, values in zip(grid, _grid_values(index, validation, grid, pool, objective,
                                                  cutoff)):
        total = 0.0
        for value in values:
            total += value
        mean = total / len(validation)
        key = (-mean, params.b, params.k1)
        if best_key is None or key < best_key:
            best_key, best_params = key, params
    return best_params


# ---------------------------------------------------------------------------
# binary index persistence, format version 3: magic, version and header
# length, a JSON header, then the raw little-endian arrays lengths (i8),
# indptr (i8), tfs (f8) and rows (i4)
# ---------------------------------------------------------------------------

_MAGIC = b"CBIX"
_VERSION = 3
_PREFIX = struct.Struct("<4sIQ")


def save_index(index: Bm25Index, path) -> None:
    """Persist the index so that load_index(save_index(...)) ranks bit-identically."""
    header = json.dumps({"ids": index.ids, "terms": list(index.vocab)},
                        ensure_ascii=False, separators=(",", ":")).encode("utf-8")
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

    checked(header, path, "index header", ids="a list of strings", terms="a list of strings")
    numbering, terms = Numbering(header["ids"]), header["terms"]
    numbering.check_unique(lambda i: ValueError(f"{path}: index header repeats doc id {i!r}"))
    lengths = take("<i8", len(numbering.ids))
    indptr = take("<i8", len(terms) + 1)
    if indptr[0] != 0 or (np.diff(indptr) < 0).any():
        raise ValueError(f"{path}: index term offsets must start at 0 and never decrease")
    tfs = take("<f8", int(indptr[-1]))
    rows = take("<i4", int(indptr[-1]))
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes after the index arrays")
    _check_postings(path, lengths, indptr, rows, tfs)
    vocab = {term: t for t, term in enumerate(terms)}
    return Bm25Index(numbering, lengths, vocab, indptr, rows, tfs)


def _check_postings(path, lengths: np.ndarray, indptr: np.ndarray, rows: np.ndarray,
                    tfs: np.ndarray) -> None:
    """Raise ValueError naming `path` unless the arrays hold an index that
    build_index could have made; `indptr` is already checked."""
    if (lengths < 0).any():
        raise ValueError(f"{path}: index document lengths must be >= 0")
    if ((rows < 0) | (rows >= lengths.size)).any():
        raise ValueError(f"{path}: index rows must lie in [0, {lengths.size})")
    # a pair of neighbours may only fall where a term's slice starts
    falls = np.diff(rows) <= 0
    starts = indptr[1:-1]
    falls[starts[(starts > 0) & (starts < rows.size)] - 1] = False
    if falls.any():
        raise ValueError(f"{path}: index rows must ascend strictly within each term")
    if not (np.isfinite(tfs) & (tfs >= 1) & (tfs == np.floor(tfs))).all():
        raise ValueError(f"{path}: index term frequencies must be positive whole numbers")
    if (np.bincount(rows, weights=tfs, minlength=lengths.size) != lengths).any():
        raise ValueError(f"{path}: index term frequencies must sum to each document's length")
