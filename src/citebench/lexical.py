"""BM25 retrieval over an in-memory inverted index in CSR layout.

Documents are the concatenation of an article's title and abstract. Scoring
follows the classic formulation

    s(Q, D) = sum_i IDF(q_i) * f(q_i, D) (k1 + 1) / (f(q_i, D) + k1 (1 - b + b |D| / avgdl))
    IDF(t)  = ln((N - n(t) + 0.5) / (n(t) + 0.5) + 1)

summed over the query's token sequence, so a term occurring twice in the
query contributes twice. The +1 inside the log keeps IDF strictly positive.
Search returns only documents matching at least one query term; ties break
by ascending doc id.

Search ranks a candidate set, held as ascending rows, from the query's
postings restricted to it: each posting carries its place among the
candidates, its tf and its token's idf, laid out in query-token order (a
repeated token repeats its postings). search and search_pool are the
one-query and batch calls of one private core, _rank. Several queries
slice one pooled view, which keeps a pool's postings under the index's
term numbering. One query against a pool never builds it: it
binary-searches each candidate in each distinct term's posting list when
the candidates times the distinct terms are fewer than those terms'
postings, as in a closed benchmark entry, and else filters its terms'
lists to the candidates. The contributions are summed by place with one
np.bincount, which adds one weight at a time in posting order from 0.0, so
each sum takes its terms in query-token order with score()'s operations:
every returned score equals score() exactly. No array of the index's size
is made per query unless the whole index is the candidate set.

Tuning (tune_params) scores each grid point from counted ranks instead of
ranked lists. It sums the same contributions from the same pooled view
with np.bincount, so every sum is bit-identical to search's. It then
counts each positive's rank with Numbering.positive_ranks, which applies
top's one tie rule (descending score, then ascending id). The metrics
take only those ranks, the ranking's length and |positives|, so every
objective value equals the one scored from search's ranked list.

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
from typing import NamedTuple

import numpy as np

from . import metrics
from .corpus import Corpus
from .util import Numbering, checked, sum_in_order

_WORD = re.compile(r"\w+")
# ranking depth of a search, and of a pool run, when the caller names none
DEFAULT_CUTOFF = 500

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

    def _length_norm(self, rows: np.ndarray, b: float) -> np.ndarray:
        """(1 - b) + b |D| / avgdl at `rows`, with score()'s operations."""
        return (1.0 - b) + (b * self.lengths[rows]) / self.avgdl

    def _pool_rows(self, pool) -> np.ndarray:
        """The ascending distinct rows of the pool's ids; an id the index lacks raises KeyError."""
        try:
            return self.numbering.rows(pool).astype(np.int32)
        except KeyError as exc:
            raise KeyError(f"pool id {exc.args[0]!r} is not in the index") from None


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
    return _idf(index.N, 0 if t is None else int(index.indptr[t + 1] - index.indptr[t]))


def _idf(N: int, n: int) -> float:
    """idf of a term in n of N documents."""
    return math.log((N - n + 0.5) / (n + 0.5) + 1.0)


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


def _token_terms(index: Bm25Index, tokens: list[str]):
    """The term number and idf of each query token whose term has postings,
    in query-token order (a repeated token repeats them): the query as every
    gather takes it."""
    terms = np.fromiter((t for t in map(index.vocab.get, tokens) if t is not None), dtype=np.intp)
    n = index.indptr[terms + 1] - index.indptr[terms]
    terms, n = terms[n > 0], n[n > 0]
    return terms, np.array([_idf(index.N, c) for c in n.tolist()])


def _laid(indptr: np.ndarray, place: np.ndarray, tfs: np.ndarray, terms: np.ndarray,
          idfs: np.ndarray):
    """(place, tf, idf) arrays: each query token's slice of `place` and
    `tfs` (term t's is indptr[t]:indptr[t + 1]), end to end in query-token
    order, with the token's idf once per posting."""
    starts, ends = indptr[terms], indptr[terms + 1]
    spans = list(zip(starts.tolist(), ends.tolist()))
    return (np.concatenate([place[s:e] for s, e in spans] or [place[:0]]),
            np.concatenate([tfs[s:e] for s, e in spans] or [tfs[:0]]),
            np.repeat(idfs, ends - starts))


class _Pooled(NamedTuple):
    """A candidate set's postings under the index's term numbering: term t
    keeps the slice indptr[t]:indptr[t + 1] of `place` (each posting's place
    among the ascending candidate `rows`) and of `tfs`."""

    rows: np.ndarray
    indptr: np.ndarray
    place: np.ndarray
    tfs: np.ndarray

    def postings(self, terms: np.ndarray, idfs: np.ndarray):
        """The query's (place, tf, idf) arrays, sliced from the view."""
        return _laid(self.indptr, self.place, self.tfs, terms, idfs)


def _whole(index: Bm25Index) -> _Pooled:
    """Every row as a candidate: the index's own postings, its rows their places."""
    return _Pooled(np.arange(index.N, dtype=np.int32), index.indptr, index.rows, index.tfs)


def _pooled(index: Bm25Index, rows: np.ndarray) -> _Pooled:
    """The postings of candidate `rows`, gathered once for many queries."""
    mask = np.zeros(index.N, dtype=bool)
    mask[rows] = True
    kept = np.flatnonzero(mask[index.rows])
    place = np.zeros(index.N, dtype=np.int32)
    place[rows] = np.arange(rows.size, dtype=np.int32)
    # the kept postings before each term's first one number the view's terms
    return _Pooled(rows, kept.searchsorted(index.indptr), place[index.rows[kept]],
                   index.tfs[kept])


def _filtered(index: Bm25Index, rows: np.ndarray, terms: np.ndarray, idfs: np.ndarray):
    """The query's (place, tf, idf) arrays over candidate `rows`: the pooled
    view of just the query's terms, each listed row found among the
    candidates by binary search (so `rows` is non-empty if any is listed)."""
    listed, tfs, idfs = _laid(index.indptr, index.rows, index.tfs, terms, idfs)
    place = rows.searchsorted(listed)
    keep = rows.take(place, mode="clip") == listed
    return place[keep], tfs[keep], idfs[keep]


def _looked_up(index: Bm25Index, rows: np.ndarray, terms: np.ndarray, idfs: np.ndarray):
    """The query's (place, tf, idf) arrays over candidate `rows`, each
    candidate found in each distinct term's posting list by binary search."""
    distinct = np.array(sorted(set(terms.tolist())), dtype=np.intp)
    starts, ends = index.indptr[distinct], index.indptr[distinct + 1]
    # at[j, i]: where candidate i sits, or would, in distinct term j's list
    at = np.array([index.rows[s:e].searchsorted(rows)
                   for s, e in zip(starts.tolist(), ends.tolist())],
                  dtype=np.intp).reshape(distinct.size, rows.size)
    at += starts[:, None]
    np.minimum(at, ends[:, None] - 1, out=at)
    # the (token, candidate) pairs found, token-major like the other gathers
    which = distinct.searchsorted(terms)
    token, place = (index.rows[at] == rows)[which].nonzero()
    return place, index.tfs[at[which[token], place]], idfs[token]


def _contributions(params: Bm25Params, norm: np.ndarray, tfs: np.ndarray,
                   idfs: np.ndarray) -> np.ndarray:
    """Each gathered posting's term score with score()'s operations; `norm`
    is the length norm at the postings' rows."""
    return (idfs * (tfs * (params.k1 + 1.0))) / (tfs + params.k1 * norm)


def _ranked(index: Bm25Index, rows: np.ndarray, postings, params: Bm25Params, k: int,
            exclude: int | None = None) -> list[tuple[str, float]]:
    """The top k of the candidate `rows` that a gather's (place, tf, idf)
    `postings` hit, row `exclude` left out."""
    place, tfs, idfs = postings
    contrib = _contributions(params, index._length_norm(rows[place], params.b), tfs, idfs)
    # bincount adds one weight at a time in posting order, so each
    # candidate's sum starts from 0.0 and takes its terms in query-token
    # order, each with score()'s operations: sums are bit-identical to score()
    sums = np.bincount(place, weights=contrib, minlength=rows.size)
    # every posting adds a positive term score (idf > 0, tf >= 1, k1 >= 0 and
    # b in [0, 1]), so exactly the candidates hit have a nonzero sum
    hit = np.flatnonzero(sums)
    return index.numbering.top(rows[hit], sums[hit], k, exclude=exclude)


def _single(index: Bm25Index, rows: np.ndarray, terms: np.ndarray, idfs: np.ndarray):
    """One query's (place, tf, idf) arrays over candidate `rows`: a lookup when
    the candidates times its distinct terms are fewer than their postings."""
    distinct = np.fromiter(set(terms.tolist()), dtype=np.intp)
    listed = int((index.indptr[distinct + 1] - index.indptr[distinct]).sum())
    gather = _looked_up if rows.size * distinct.size < listed else _filtered
    return gather(index, rows, terms, idfs)


def _rank(index: Bm25Index, queries: list[tuple[str, int | None]], pool, params: Bm25Params,
          k: int) -> list[list[tuple[str, float]]]:
    """The top k of each (query text, row left out) pair over one candidate
    set: the pool's ids, or every row when pool is None."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not queries:  # no query runs a search, so no pool id is checked (as in knn_pool)
        return []
    if pool is None or len(queries) > 1:
        view = _whole(index) if pool is None else _pooled(index, index._pool_rows(pool))
        rows, gather = view.rows, view.postings
    else:
        rows = index._pool_rows(pool)
        gather = lambda *query: _single(index, rows, *query)
    return [_ranked(index, rows, gather(*_token_terms(index, analyze(text))), params, k, exclude)
            for text, exclude in queries]


def search(index: Bm25Index, query_text: str, params: Bm25Params = Bm25Params(),
           k: int = DEFAULT_CUTOFF, pool=None) -> list[tuple[str, float]]:
    """Top-k documents matching the query, optionally restricted to a pool
    of doc ids; a pool id the index lacks raises KeyError naming it.
    Descending score, ties by ascending doc id; every returned score equals
    score() exactly.
    """
    return _rank(index, [(query_text, None)], pool, params, k)[0]


def search_pool(index: Bm25Index, queries, pool, params: Bm25Params = Bm25Params(),
                k: int = DEFAULT_CUTOFF) -> dict[str, list[tuple[str, float]]]:
    """Top-k for many (query id, query text) pairs against one shared pool,
    keyed by query id in the given order; a query is never its own
    candidate. Equal to search(index, text, params, k, pool - {id}) for each
    pair; several queries share one gather of the pool's postings.
    """
    row = index.numbering.row
    return dict(zip([qid for qid, _ in queries],
                    _rank(index, [(text, row.get(qid)) for qid, text in queries], pool, params, k)))


def default_tuning_grid() -> list[Bm25Params]:
    """b in {0.0, 0.1, ..., 1.0} crossed with k1 in {0.1, 0.3, ..., 2.9}."""
    return [
        Bm25Params(k1=round(0.1 + 0.2 * i, 1), b=round(0.1 * j, 1))
        for j in range(11)
        for i in range(15)
    ]


class _TuningQuery:
    """One validation query, prepared once for every grid point: its
    postings over a pooled view, their rows, each posting's place among the
    hit rows (ascending), the places of the positives that were hit, and
    |positives|."""

    def __init__(self, index: Bm25Index, view: _Pooled, tokens: list[str], positives):
        relevant = metrics._relevant_set(positives)
        self.index, self.count = index, len(relevant)
        place, self.tfs, self.idfs = view.postings(*_token_terms(index, tokens))
        self.rows = view.rows[place]
        hits = np.bincount(place, minlength=view.rows.size) > 0
        self.hit_rows = view.rows[hits]
        self.place = (np.cumsum(hits) - 1)[place]
        positive_rows = np.fromiter(
            (r for r in map(index.numbering.row.get, relevant) if r is not None), dtype=np.int32)
        self.at = self.hit_rows.searchsorted(positive_rows[np.isin(positive_rows, self.hit_rows)])

    def scores(self, params: Bm25Params, norm: np.ndarray) -> np.ndarray:
        """Each hit's score at `params`; `norm` is the length norm at self.rows."""
        contrib = _contributions(params, norm, self.tfs, self.idfs)
        # like _ranked's, bincount adds in posting order from 0.0, so each
        # hit's sum is bit-identical to the one _ranked ranks
        return np.bincount(self.place, weights=contrib, minlength=self.hit_rows.size)

    def values(self, points: list[Bm25Params], k: int, by_ranks) -> list[float]:
        """The objective `by_ranks` of the top k at each of `points`, which
        share one b, so the length norm is computed once for all of them."""
        norm = self.index._length_norm(self.rows, points[0].b)
        numbering, length = self.index.numbering, min(k, self.hit_rows.size)
        values = []
        for params in points:
            ranks = numbering.positive_ranks(self.hit_rows, self.scores(params, norm), self.at, k)
            values.append(by_ranks(ranks, length, self.count))
        return values


def _grid_values(index: Bm25Index, validation, grid, pool, objective: str,
                 cutoff: int | None) -> list[list[float]]:
    """Each grid point's objective value per validation query, in order."""
    by_ranks = metrics._metric(objective)
    k = cutoff if cutoff is not None else (len(pool) if pool is not None else index.N)
    view = _whole(index) if pool is None else _pooled(index, index._pool_rows(pool))
    prepared = [_TuningQuery(index, view, analyze(text), positives)
                for text, positives in validation]
    del view
    values = []
    for _, points in itertools.groupby(grid, key=lambda params: params.b):
        points = list(points)
        values += map(list, zip(*[query.values(points, k, by_ranks) for query in prepared]))
    return values


def tune_params(index: Bm25Index, validation: list[tuple[str, set]], grid: list[Bm25Params],
                *, pool=None, objective: str = metrics.DEFAULT_OBJECTIVE,
                cutoff: int | None = None) -> Bm25Params:
    """Grid point maximizing the mean objective (a metric name) over validation queries.

    `validation` pairs query text with the query's positive id set. Ties
    break toward smaller (b, k1). The top k is taken over the pool (k =
    `cutoff`, else the pool's or the index's size), and validation queries
    are not left out of it. A pool id the index lacks raises KeyError. Each
    objective value equals the one scored from search's ranking, bit for bit
    (see the module docstring).
    """
    if not grid:
        raise ValueError("empty parameter grid")
    if not validation:
        raise ValueError("empty validation set")
    if cutoff is not None and cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    means = [sum_in_order(values) / len(validation)
             for values in _grid_values(index, validation, grid, pool, objective, cutoff)]
    return min(zip(grid, means), key=lambda point: (-point[1], point[0].b, point[0].k1))[0]


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
            # the array's own buffer when it already has the file's layout
            fh.write(np.ascontiguousarray(arr, dtype=dtype))


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
