"""Shared helpers: JSON input files, canonical JSON, hashing, seeds, top-k ranking."""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from typing import Any

import numpy as np


# json.dumps with non-default arguments builds a new encoder on every call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and fixed separators so equal objects give equal bytes."""
    return _CANONICAL.encode(obj)


def is_str_list(value) -> bool:
    """True for a list whose items are all strings: the shape of id lists in input files."""
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


# checked()'s shapes, by the words its errors use; integers and numbers are never bools
_SHAPES = {
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: type(v) is int,
    "a number": lambda v: type(v) in (int, float),
    "a boolean": lambda v: isinstance(v, bool),
    "a list": lambda v: isinstance(v, list),
    "a list of strings": is_str_list,
    "an object": lambda v: isinstance(v, dict),
    "an object of lists of strings": lambda v: isinstance(v, dict)
    and all(map(is_str_list, v.values())),
}


def parse_json(text: str, where) -> Any:
    """Decode JSON text; malformed JSON raises ValueError naming `where`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
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


def id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each row's position in ascending id order: the tie-break key of a ranking."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[order] = np.arange(len(ids), dtype=np.intp)
    return ranks


def rank_rows(ids: Sequence[str], id_rank: np.ndarray, rows: np.ndarray, scores: np.ndarray,
              k: int, descending: bool = True) -> list[tuple[str, float]]:
    """The k best (id, score) pairs of a candidate set given as row numbers.

    Best means highest score when `descending`, else lowest; ties break by
    ascending id. One stable lexsort, so the order equals sorting
    (id, score) tuples on (-score, id) or (score, id).
    """
    key = -scores if descending else scores
    top = np.lexsort((id_rank[rows], key))[:k]
    return list(zip([ids[r] for r in rows[top].tolist()], scores[top].tolist()))
