"""Independent reference implementations used to freeze expected values.

Each oracle recomputes its target quantity with naive loops and, where
possible, exact rational arithmetic, staying independent of the library
code paths it checks.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf
from mpmath import log as mplog

from citebench import metrics


def naive_bm25_rank(doc_tokens: dict[str, list[str]], query_tokens: list[str],
                    k1: float, b: float, pool=None, k: int | None = None):
    """Score every document with explicit loops over the scoring formula,
    drop non-matching documents, sort by (-score, id)."""
    N = len(doc_tokens)
    avgdl = sum(len(t) for t in doc_tokens.values()) / N
    scored = []
    for doc_id, tokens in doc_tokens.items():
        if pool is not None and doc_id not in pool:
            continue
        s = 0.0
        for q in query_tokens:
            f = tokens.count(q)
            if f == 0:
                continue
            n = sum(1 for other in doc_tokens.values() if q in other)
            idf = math.log((N - n + 0.5) / (n + 0.5) + 1.0)
            s += idf * (f * (k1 + 1.0)) / (f + k1 * (1.0 - b + b * len(tokens) / avgdl))
        if s > 0.0:
            scored.append((doc_id, s))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored if k is None else scored[:k]


def dict_bm25_index(texts: dict[str, list[str]]):
    """The dict-of-dicts index that BM25 search used before the CSR arrays:
    term -> {doc id: tf} in first-seen order, and doc id -> length."""
    postings: dict[str, dict[str, int]] = {}
    doc_lengths: dict[str, int] = {}
    for doc_id, tokens in texts.items():
        doc_lengths[doc_id] = len(tokens)
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, {})[doc_id] = tf
    return postings, doc_lengths


def dict_bm25_search(postings, doc_lengths, query_tokens: list[str], k1: float, b: float,
                     k: int, pool=None) -> list[tuple[str, float]]:
    """The dict-walking BM25 search that the CSR kernel replaced, kept as
    its reference: idf per posting, one (id, score) tuple per match."""
    N = len(doc_lengths)
    avgdl = sum(doc_lengths.values()) / N
    acc: dict[str, float] = {}
    for term in query_tokens:
        plist = postings.get(term)
        if not plist:
            continue
        for doc_id, tf in plist.items():
            if pool is not None and doc_id not in pool:
                continue
            norm = k1 * (1.0 - b + b * doc_lengths[doc_id] / avgdl)
            n = len(plist)
            idf = math.log((N - n + 0.5) / (n + 0.5) + 1.0)
            acc[doc_id] = acc.get(doc_id, 0.0) + idf * (tf * (k1 + 1.0)) / (tf + norm)
    return sorted(acc.items(), key=lambda item: (-item[1], item[0]))[:k]


def _tuple_scores(vectors: np.ndarray, q: np.ndarray, metric: str) -> np.ndarray:
    v = vectors.astype(np.float64)
    if metric == "dot":
        return (v * q).sum(axis=1)
    if metric == "euclidean":
        diff = v - q
        return np.sqrt((diff * diff).sum(axis=1))
    dots = (v * q).sum(axis=1)
    row_norms = np.sqrt((v * v).sum(axis=1))
    q_norm = math.sqrt(float((q * q).sum()))
    denom = row_norms * q_norm
    safe = np.where(denom > 0.0, denom, 1.0)
    return np.where(denom > 0.0, dots / safe, 0.0)


def tuple_sort_knn(ids, vectors, query, k: int, metric: str, pool=None,
                   chunks: int = 1) -> list[tuple[str, float]]:
    """The dense top-k that the lexsort kernel replaced, kept as its
    reference: chunked float64 scans with the row norms recomputed per
    chunk, then one sorted (id, score) tuple per row."""
    row = {ident: i for i, ident in enumerate(ids)}
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if pool is None:
        rows = np.arange(len(ids), dtype=np.intp)
    else:
        rows = np.array(sorted(row[i] for i in pool), dtype=np.intp)
    if rows.size == 0:
        return []
    candidates: list[tuple[str, float]] = []
    for part in np.array_split(rows, max(1, min(chunks, rows.size))):
        part_scores = _tuple_scores(vectors[part], q, metric)
        candidates.extend((ids[r], float(s)) for r, s in zip(part, part_scores))
    if metric in ("cosine", "dot"):
        candidates.sort(key=lambda item: (-item[1], item[0]))
    else:
        candidates.sort(key=lambda item: (item[1], item[0]))
    return candidates[:k]


def subset_type_breakdown(model, benchmark, corpus, recall_cutoff: int = 5):
    """The candidate-type breakdown that one closed-pool ranking per entry
    replaced, kept as its reference: one `rank` call per entry and type,
    over positives plus that type's negatives. Scored with the library's
    metrics, so tables compare with ==."""
    recall_key = f"recall@{recall_cutoff}"
    types = benchmark.negative_types()
    sums = {t: {"map": 0.0, recall_key: 0.0} for t in types}
    count = 0
    for entry in benchmark.entries:
        positives = frozenset(entry.positives)
        article = corpus.article(entry.query_id)
        count += 1
        for t in types:
            candidates = positives | frozenset(entry.negatives[t])
            ranked = model.rank(article, candidates, len(candidates))
            sums[t]["map"] += metrics.average_precision(ranked, positives)
            sums[t][recall_key] += metrics.recall_at_k(ranked, positives, recall_cutoff)
    if count == 0:
        return {t: {"map": 0.0, recall_key: 0.0} for t in types}
    return {t: {m: v / count for m, v in vals.items()} for t, vals in sums.items()}


def frac_average_precision(ranked, relevant) -> Fraction:
    relevant = set(relevant)
    seen: set = set()
    total = Fraction(0)
    for rank, doc in enumerate(ranked, start=1):
        if doc in relevant and doc not in seen:
            seen.add(doc)
            total += Fraction(len(seen), rank)
    return total / len(relevant)


def frac_recall_at_k(ranked, relevant, k: int) -> Fraction:
    relevant = set(relevant)
    return Fraction(len(set(ranked[:k]) & relevant), len(relevant))


def mp_ndcg(ranked, relevant):
    """nDCG at 50 decimal digits of precision."""
    mp.dps = 50
    relevant = set(relevant)
    seen: set = set()
    dcg = mpf(0)
    for rank, doc in enumerate(ranked, start=1):
        if doc in relevant and doc not in seen:
            seen.add(doc)
            dcg += 1 / (mplog(rank + 1) / mplog(2))
    ideal = min(len(relevant), len(ranked))
    if ideal == 0:
        return mpf(0)
    idcg = sum(1 / (mplog(r + 1) / mplog(2)) for r in range(1, ideal + 1))
    return dcg / idcg


def brute_knn(ids, vectors, query, metric: str, k: int | None = None, pool=None):
    """Exhaustive scan with pure-python arithmetic."""
    rows = []
    q = [float(x) for x in query]
    nq = math.sqrt(sum(a * a for a in q))
    for i, ident in enumerate(ids):
        if pool is not None and ident not in pool:
            continue
        v = [float(x) for x in vectors[i]]
        if metric == "dot":
            s = sum(a * b for a, b in zip(v, q))
            key = (-s, ident)
        elif metric == "cosine":
            nv = math.sqrt(sum(a * a for a in v))
            s = sum(a * b for a, b in zip(v, q)) / (nv * nq) if nv > 0 and nq > 0 else 0.0
            key = (-s, ident)
        elif metric == "euclidean":
            s = math.sqrt(sum((a - b) ** 2 for a, b in zip(v, q)))
            key = (s, ident)
        else:
            raise ValueError(metric)
        rows.append((key, ident, s))
    rows.sort(key=lambda t: t[0])
    out = [(ident, s) for _, ident, s in rows]
    return out if k is None else out[:k]


def replay_graph_negatives(out_map, in_map, query, n, exclude):
    """Step-by-step replay of the graph-neighbor walk with exact rational
    overlap values. Returns (picked ids, shortfall flag, overlap map)."""
    oc_q = set(out_map.get(query, set()))
    assert oc_q, "oracle requires outgoing citations"
    overlaps = {}
    for c in oc_q:
        neighborhood = set(out_map.get(c, set())) | set(in_map.get(c, set()))
        overlaps[c] = Fraction(len(oc_q & neighborhood), len(oc_q))
    ordered = sorted(oc_q, key=lambda c: (-overlaps[c], c))
    picked: list[str] = []
    seen: set = set()
    for c in ordered:
        neighborhood = set(out_map.get(c, set())) | set(in_map.get(c, set()))
        for nb in sorted(neighborhood):
            if nb in oc_q or nb == query or nb in exclude or nb in seen:
                continue
            picked.append(nb)
            seen.add(nb)
            if len(picked) == n:
                return picked, False, overlaps
    return picked, True, overlaps


def brute_select_diverse(per_model: dict[str, dict[str, list[str]]], m: int) -> list[str]:
    """All pairwise mean Jaccards in exact arithmetic, then the m argmin models."""
    names = sorted(per_model)

    def pair_mean(a: str, b: str) -> Fraction:
        values = []
        for q in sorted(set(per_model[a]) | set(per_model[b])):
            sa, sb = set(per_model[a].get(q, [])), set(per_model[b].get(q, []))
            if not sa and not sb:
                continue
            values.append(Fraction(len(sa & sb), len(sa | sb)))
        return sum(values, Fraction(0)) / len(values) if values else Fraction(0)

    scores = {}
    for name in names:
        others = [pair_mean(*sorted((name, other))) for other in names if other != name]
        scores[name] = sum(others, Fraction(0)) / len(others)
    return sorted(names, key=lambda name: (scores[name], name))[:m]
