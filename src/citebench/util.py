"""Shared helpers: JSON and text files, hashing, seeded draws, float sums, row numbering."""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property
from typing import Any, NamedTuple

import numpy as np


def _no_constant(name: str):
    """json's parse_constant: NaN, Infinity and -Infinity are not JSON."""
    raise ValueError(f"{name} is not a JSON value")


def _finite_float(text: str) -> float:
    """json's parse_float: a number past a float's range (1e999) is not infinity."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is out of a float's range")
    return value


# json.dumps and json.loads with non-default arguments build a new encoder or
# decoder on every call; every encoder keeps non-ASCII text raw
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)
_COMPACT = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
_INDENTED = json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False)
_DECODER = json.JSONDecoder(parse_constant=_no_constant, parse_float=_finite_float)


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and fixed separators so equal objects give equal bytes."""
    return _CANONICAL.encode(obj)


def compact_json(obj: Any) -> str:
    """One line of JSON with keys in the given order: a JSON Lines record, a pool
    file, an embeddings manifest or an index header."""
    return _COMPACT.encode(obj)


def indented_json(obj: Any) -> str:
    """JSON with sorted keys, indented by two spaces: a CLI artifact or manifest."""
    return _INDENTED.encode(obj)


def write_text(path, chunks: Iterable[str]) -> None:
    """Write `chunks` to `path` as UTF-8 with "\\n" kept on every platform: every
    text artifact's one writer."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def sum_in_order(values: Iterable[float]) -> float:
    """`values` added left to right from 0.0: the same bits on every Python, unlike 3.12's sum."""
    total = 0.0
    for value in values:
        total += value
    return total


def is_str_list(value) -> bool:
    """True for a list whose items are all strings: the shape of id lists in input files."""
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


# checked()'s shapes, by the words its errors use; no bool is an integer or a number
_SHAPES = {
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: type(v) is int,
    "a number": lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    "a boolean": lambda v: isinstance(v, bool),
    "a list": lambda v: isinstance(v, list),
    "a list of strings": is_str_list,
    "an object": lambda v: isinstance(v, dict),
    "an object of lists of strings": lambda v: isinstance(v, dict)
    and all(map(is_str_list, v.values())),
}


def parse_json(text: str, where) -> Any:
    """Decode JSON text; malformed JSON, NaN, Infinity and numbers past a
    float's range included, raises ValueError naming `where`."""
    try:
        return _DECODER.decode(text)
    except ValueError as exc:  # json.JSONDecodeError, _no_constant's or _finite_float's
        raise ValueError(f"{where}: malformed JSON: {exc}") from None


def read_json(path) -> Any:
    """Decode a JSON file; malformed JSON raises ValueError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_json(fh.read(), path)


def checked(obj, where, what: str, **shapes: str | None) -> dict:
    """Return `obj` if it is a JSON object holding every key of `shapes`, each
    value of its shape (None takes any value). Otherwise raise ValueError
    naming `where`; missing keys are reported before wrong shapes."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: {what} must be a JSON object")
    for key in shapes:
        if key not in obj:
            raise ValueError(f"{where}: missing key {key!r}")
    for key, shape in shapes.items():
        if shape is not None and not _SHAPES[shape](obj[key]):
            raise ValueError(f"{where}: {key} must be {shape}")
    return obj


def stable_digest(*parts: str) -> str:
    """SHA-256 hex digest over the given string parts with an unambiguous separator."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()


def derive_seed(master: int, *labels: str) -> int:
    """Derive an independent RNG seed from a master seed and a label path.

    SHA-256 based, so substream assignment never depends on Python's
    per-process hash randomization or on evaluation order.
    """
    h = hashlib.sha256(str(master).encode("ascii"))
    for label in labels:
        h.update(b"\x1f")
        h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


class Selection(NamedTuple):
    """Ids picked for a quota, and whether too few were there to fill it."""
    ids: list
    shortfall: bool


def sample(population: Sequence, n: int, seed: int) -> Selection:
    """random.Random(seed).sample(population, n), or all of `population` as a list
    (a shortfall) when it holds fewer than n: every seeded draw of pools and benchmarks."""
    if len(population) < n:
        return Selection(list(population), True)
    return Selection(random.Random(seed).sample(population, n), False)


class Numbering:
    """Row numbers for a list of ids, row i holding `ids[i]`: the id -> row map
    and the tie-break order of a corpus, a BM25 index or an embedding store."""

    def __init__(self, ids: Iterable[str]):
        self.ids = list(ids)
        self.row = dict(zip(self.ids, range(len(self.ids))))

    def check_unique(self, error: Callable[[str], Exception]) -> None:
        """Raise error(id) for the first id, in row order, that occurs more than once."""
        if len(self.row) != len(self.ids):
            raise error(next(i for r, i in enumerate(self.ids) if self.row[i] != r))

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Each row's position in ascending id order: the tie-break key of a ranking."""
        order = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        ranks = np.empty(len(self.ids), dtype=np.intp)
        ranks[order] = np.arange(len(self.ids), dtype=np.intp)
        return ranks

    @cached_property
    def sorted_ids(self) -> list[str]:
        """All ids in ascending order: `id_rank`'s permutation inverted, not a second sort."""
        order = np.empty_like(self.id_rank)
        order[self.id_rank] = np.arange(len(self.ids), dtype=np.intp)
        return list(map(self.ids.__getitem__, order.tolist()))

    def rows(self, ids: Iterable[str]) -> np.ndarray:
        """The distinct rows of `ids` in ascending order; an unknown id raises
        KeyError naming it."""
        rows = np.sort(np.fromiter(map(self.row.__getitem__, ids), dtype=np.intp))
        # a row repeats only next to itself once sorted (np.unique would
        # import numpy.ma on its first call)
        first = np.ones(rows.size, dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        return rows[first]

    def top(self, rows: np.ndarray, scores: np.ndarray, k: int,
            descending: bool = True, exclude: int | None = None) -> list[tuple[str, float]]:
        """The k best (id, score) pairs of a candidate set given as row numbers,
        row `exclude` (a query's own row) left out.

        Best means highest score when `descending`, else lowest; ties break by
        ascending id, so the order equals sorting (id, score) tuples on
        (-score, id) or (score, id). When k is below the candidate count, one
        partition finds the k-th best key and only the candidates not worse
        than it, every tie at it included, are lexsorted on (key, id_rank):
        the same top k as lexsorting them all. Scores are per row, so leaving
        a row out here equals never scoring it.
        """
        if exclude is not None:
            keep = rows != exclude
            if not keep.all():  # a copy only when the row is there to cut
                rows, scores = rows[keep], scores[keep]
        key = -scores if descending else scores
        if k < key.size:
            # `not worse`, not `<=`: a NaN k-th key (sorted last, like the
            # lexsort's) then keeps every candidate instead of none
            near = np.flatnonzero(~(key > np.partition(key, k - 1)[k - 1]))
            rows, scores, key = rows[near], scores[near], key[near]
        top = np.lexsort((self.id_rank[rows], key))[:k]
        return list(zip(map(self.ids.__getitem__, rows[top].tolist()), scores[top].tolist()))

    def positive_ranks(self, rows: np.ndarray, scores: np.ndarray, at: np.ndarray,
                       k: int) -> list[int]:
        """The ascending 1-based ranks <= k that top(rows, scores, k) gives the
        candidates at places `at`, counted without ranking: 1 + the candidates
        scored higher + those scored equal with a smaller id_rank.

        One sort of the scores counts the higher-scored candidates. Ties are
        counted only for places whose score repeats, among the candidates
        that share such a score, so no temporary outgrows the candidate set.
        """
        ordered = np.sort(scores)
        mine = scores[at]
        above = np.searchsorted(ordered, mine, side="right")
        ranks = 1 + (scores.size - above)
        tied = above - np.searchsorted(ordered, mine, side="left") > 1
        if tied.any():
            # the candidates sharing a tied score, in (score, id) order: a
            # place's position there minus its score's first position counts
            # the equal-scored candidates with smaller ids
            shared = np.flatnonzero(np.isin(scores, mine[tied]))
            order = np.lexsort((self.id_rank[rows[shared]], scores[shared]))
            position = np.empty_like(order)
            position[order] = np.arange(order.size)
            first = np.searchsorted(scores[shared[order]], mine[tied], side="left")
            ranks[tied] += position[np.searchsorted(shared, at[tied])] - first
        ranks.sort()
        return ranks[ranks <= k].tolist()
