"""Independent reference implementations used to freeze expected values.

Each oracle recomputes its target quantity with naive loops and, where
possible, exact rational arithmetic, staying independent of the library
code paths it checks.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf
from mpmath import log as mplog

from citebench import lexical, metrics
from citebench.benchgen import (GRAPH_TYPE, MOST_CITED_TYPE, RANDOM_TYPE, Benchmark,
                                BenchmarkEntry, BenchmarkParams, QueryRejected, Selection,
                                sample_positives, select_diverse_models,
                                top_negatives_per_model)
from citebench.corpus import (FIELD_ABBREVS, PREFILTER_RULES, Corpus, PrefilterResult,
                              PrefilterRules, _article_obj, resolve_field)
from citebench.harness import RetrievalRun
from citebench.pools import FIELD_LEVEL, _build_pool
from citebench.util import derive_seed, stable_digest


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


def counter_build_index(corpus: Corpus) -> lexical.Bm25Index:
    """The per-document build that build_index used before its block-wise
    array passes: one Counter and one vocab pass per document, postings
    gathered into growing buffers, then one stable argsort by term."""
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    vocab: dict[str, int] = {}
    lengths, widths, term_of, tf_of = array("q"), array("q"), array("q"), array("q")
    for art in corpus:
        tokens = lexical.analyze(art.text)
        counts = Counter(tokens)
        lengths.append(len(tokens))
        widths.append(len(counts))
        term_of.extend([vocab.setdefault(term, len(vocab)) for term in counts])
        tf_of.extend(counts.values())
    terms = np.frombuffer(term_of, dtype=np.int64)
    order = np.argsort(terms, kind="stable")
    rows = np.repeat(np.arange(len(corpus), dtype=np.int32), np.frombuffer(widths, dtype=np.int64))
    indptr = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(terms, minlength=len(vocab)), out=indptr[1:])
    tfs = np.frombuffer(tf_of, dtype=np.int64)[order].astype(np.float64)
    return lexical.Bm25Index(corpus.numbering, np.frombuffer(lengths, dtype=np.int64), vocab,
                             indptr, rows[order], tfs)


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


def _block_scores(v: np.ndarray, q: np.ndarray, metric: str,
                  row_norms: np.ndarray | None) -> np.ndarray:
    # v holds float64 copies of the rows; cosine divides by the rows'
    # EmbeddingStore.row_norms
    if metric == "dot":
        return (v * q).sum(axis=1)
    if metric == "euclidean":
        diff = v - q
        return np.sqrt((diff * diff).sum(axis=1))
    dots = (v * q).sum(axis=1)
    q_norm = math.sqrt(float((q * q).sum()))
    denom = row_norms * q_norm
    safe = np.where(denom > 0.0, denom, 1.0)
    return np.where(denom > 0.0, dots / safe, 0.0)


def per_block_scan(store, rows: np.ndarray, queries: np.ndarray, metric: str, chunks: int,
                   block: int = 512) -> np.ndarray:
    """The dense scan that finishing each score row once replaced, kept as
    its reference: every (query, block of rows) pair ran its metric's whole
    score, sqrt or cosine division included."""
    norms = store.row_norms if metric == "cosine" else None
    n_parts = max(1, min(chunks, rows.size), -(-rows.size // block))
    scores = np.empty((len(queries), rows.size))
    start = 0
    for part in np.array_split(rows, n_parts):
        v = store.vectors[part].astype(np.float64)
        part_norms = None if norms is None else norms[part]
        end = start + part.size
        for q, out in zip(queries, scores):
            out[start:end] = _block_scores(v, q, metric, part_norms)
        start = end
    return scores


def per_block_knn(store, query, k: int, metric: str, pool=None,
                  chunks: int = 1) -> list[tuple[str, float]]:
    """dense.knn from per_block_scan's scores and rank_rows's full lexsort."""
    ids = store.ids
    rows = (np.arange(len(ids), dtype=np.intp) if pool is None
            else np.array(sorted(store.numbering.row[i] for i in pool), dtype=np.intp))
    if rows.size == 0:
        return []
    q = np.asarray(query, dtype=np.float64).reshape(1, -1)
    scores = per_block_scan(store, rows, q, metric, chunks)[0]
    return rank_rows(ids, id_ranks(ids), rows, scores, k, metric in ("cosine", "dot"))


def id_ranks(ids) -> np.ndarray:
    """Each row's position in ascending id order: the tie-break key of a ranking."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[order] = np.arange(len(ids), dtype=np.intp)
    return ranks


def rank_rows(ids, id_rank: np.ndarray, rows: np.ndarray, scores: np.ndarray,
              k: int, descending: bool = True) -> list[tuple[str, float]]:
    """The top k that `Numbering.top` took over, kept as its reference: the
    k best (id, score) pairs of the given rows, ties by ascending id, from
    one stable lexsort."""
    key = -scores if descending else scores
    top = np.lexsort((id_rank[rows], key))[:k]
    return list(zip([ids[r] for r in rows[top].tolist()], scores[top].tolist()))


def per_query_run_retrieval(model, pool_set, corpus, cutoff: int = 500) -> RetrievalRun:
    """The run loop that one `rank_pool` call per run replaced, kept as its
    reference: one `rank` call per query, each against a fresh copy of the
    pool without the query."""
    members = pool_set.members()
    rankings: dict[str, list[tuple[str, float]]] = {}
    for q in sorted(pool_set.positives):
        candidates = members - {q}
        rankings[q] = model.rank(corpus.article(q), candidates, cutoff)
    return RetrievalRun(model.name, rankings, cutoff)


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


# ---------------------------------------------------------------------------
# the citation graph as it was before the CSR arrays, two dicts of frozensets
# keyed by id, and the corpus-wide consumers as they read it
# ---------------------------------------------------------------------------


class DictAdjacency(dict):
    """id -> frozenset of neighbour ids. `ids_of` answers as the library's
    accessor does, so library code that takes a graph can read this one."""

    def ids_of(self, article_id: str) -> list[str]:
        return sorted(self.get(article_id, frozenset()))


@dataclass(frozen=True)
class DictCitationGraph:
    outgoing: DictAdjacency
    incoming: DictAdjacency
    dangling: int

    def in_degree(self, article_id: str) -> int:
        return len(self.incoming.get(article_id, ()))


def dict_citation_graph(corpus) -> DictCitationGraph:
    ids = set(corpus.ids())
    outgoing: dict[str, frozenset[str]] = {}
    incoming_sets: dict[str, set[str]] = {i: set() for i in corpus.ids()}
    dangling = 0
    for art in corpus:
        kept = art.out_citations & ids
        dangling += len(art.out_citations) - len(kept)
        outgoing[art.id] = frozenset(kept)
        for target in kept:
            incoming_sets[target].add(art.id)
    incoming = {i: frozenset(s) for i, s in incoming_sets.items()}
    return DictCitationGraph(DictAdjacency(outgoing), DictAdjacency(incoming), dangling)


def dict_prefilter(corpus, graph, rules=PrefilterRules()) -> PrefilterResult:
    survivors = []
    removed = {rule: 0 for rule in PREFILTER_RULES}
    for art in corpus:
        if not art.year:
            removed["missing_year"] += 1
        elif not art.title.strip():
            removed["empty_title"] += 1
        elif len(art.abstract) < rules.min_abstract_chars:
            removed["short_abstract"] += 1
        elif graph.in_degree(art.id) < rules.min_citations:
            removed["few_incoming_citations"] += 1
        else:
            survivors.append(art)
    return PrefilterResult(Corpus(survivors), removed)


def dict_field_cited_set(corpus, graph, field) -> set[str]:
    label = resolve_field(field)
    cited: set[str] = set()
    for art in corpus:
        if label.name in art.fields:
            cited |= graph.outgoing.get(art.id, frozenset())
    return cited


def dict_sample_queries(corpus, graph, plan, field=None) -> list[str]:
    label = resolve_field(field) if field is not None else None
    eligible = []
    for art in corpus:
        if art.year != plan.query_year:
            continue
        if label is not None and label.name not in art.fields:
            continue
        if art.id in plan.exclusion_ids:
            continue
        if not graph.outgoing.get(art.id):
            continue
        eligible.append(art.id)
    eligible.sort()
    if len(eligible) < plan.queries_per_unit:
        raise ValueError(
            f"only {len(eligible)} eligible query articles, need {plan.queries_per_unit}"
        )
    return random.Random(plan.rng_seed).sample(eligible, plan.queries_per_unit)


def dict_build_field_pool(corpus, graph, field, queries, size, seed):
    """build_field_pool with the fill population from dict_field_cited_set;
    the shared pool body reads the graph only through `outgoing.ids_of`."""
    label = resolve_field(field)
    population = map(corpus.article, dict_field_cited_set(corpus, graph, label))
    return _build_pool(corpus, graph, queries, size, seed, population, FIELD_LEVEL, label.abbrev)


def dict_overlap_similarity(graph, query_id, cited_id) -> float:
    oc_q = graph.outgoing.get(query_id, frozenset())
    if not oc_q:
        raise ValueError(f"query {query_id!r} has no outgoing citations")
    neighborhood = graph.outgoing.get(cited_id, frozenset()) | graph.incoming.get(cited_id, frozenset())
    return len(oc_q & neighborhood) / len(oc_q)


def dict_graph_negatives(graph, query_id, n, exclude) -> Selection:
    oc_q = graph.outgoing.get(query_id, frozenset())
    if not oc_q:
        raise ValueError(f"query {query_id!r} has no outgoing citations")
    ordered = sorted(oc_q, key=lambda c: (-dict_overlap_similarity(graph, query_id, c), c))
    picked: list[str] = []
    seen: set[str] = set()
    for cited in ordered:
        neighborhood = graph.outgoing.get(cited, frozenset()) | graph.incoming.get(cited, frozenset())
        for neighbor in sorted(neighborhood):
            if neighbor in oc_q or neighbor == query_id or neighbor in exclude or neighbor in seen:
                continue
            picked.append(neighbor)
            seen.add(neighbor)
            if len(picked) == n:
                return Selection(picked, False)
    return Selection(picked, True)


# ---------------------------------------------------------------------------
# benchmark construction as it was before the per-field and per-corpus work
# was hoisted out of the per-query loop: every query re-ranks its field and
# re-sorts the whole corpus
# ---------------------------------------------------------------------------


def per_query_most_cited_negatives(corpus, graph, field, query_id, n, *, top=200,
                                   exclude=frozenset(), seed=0):
    label = resolve_field(field)
    labeled = [art.id for art in corpus if label.name in art.fields]
    if not labeled:
        raise ValueError(f"no articles labeled {label.name!r}")
    ranked = sorted(labeled, key=lambda i: (-graph.in_degree(i), i))[:top]
    eligible = [d for d in ranked if d not in exclude and d != query_id]
    if len(eligible) < n:
        return Selection(eligible, True)
    return Selection(random.Random(seed).sample(eligible, n), False)


def per_query_random_negatives(corpus, query_id, n, exclude, seed):
    eligible = sorted(i for i in corpus.ids() if i not in exclude and i != query_id)
    if len(eligible) < n:
        return Selection(eligible, True)
    return Selection(random.Random(seed).sample(eligible, n), False)


def per_query_model_based_negatives(query_id, model_negatives, n, exclude, seed):
    eligible = [d for d in model_negatives if d not in exclude and d != query_id]
    if len(eligible) < n:
        return Selection(list(eligible), True)
    return Selection(random.Random(seed).sample(eligible, n), False)


def per_query_build_entry(corpus, graph, query_id, abbrev, chosen, per_model, params, seed):
    try:
        positives = sorted(
            sample_positives(graph, query_id, params.positives_per_query,
                             derive_seed(seed, query_id, "positives"))
        )
    except QueryRejected:
        return None
    exclude = {query_id} | set(positives) | set(graph.outgoing.get(query_id, frozenset()))
    groups: dict[str, list[str]] = {}
    for label in chosen:
        sel = per_query_model_based_negatives(query_id, per_model[label].get(query_id, []),
                                              params.negatives_per_type, exclude,
                                              derive_seed(seed, query_id, "model", label))
        if sel.shortfall:
            return None
        groups[label] = sorted(sel.ids)
        exclude |= set(sel.ids)
    sel = dict_graph_negatives(graph, query_id, params.negatives_per_type, exclude)
    if sel.shortfall:
        return None
    groups[GRAPH_TYPE] = sorted(sel.ids)
    exclude |= set(sel.ids)
    sel = per_query_most_cited_negatives(corpus, graph, abbrev, query_id,
                                         params.negatives_per_type,
                                         top=params.most_cited_top, exclude=exclude,
                                         seed=derive_seed(seed, query_id, "most_cited"))
    if sel.shortfall:
        return None
    groups[MOST_CITED_TYPE] = sorted(sel.ids)
    exclude |= set(sel.ids)
    sel = per_query_random_negatives(corpus, query_id, params.negatives_per_type, exclude,
                                     derive_seed(seed, query_id, "random"))
    if sel.shortfall:
        return None
    groups[RANDOM_TYPE] = sorted(sel.ids)
    return BenchmarkEntry(query_id, abbrev, positives, groups)


def per_query_build_benchmark(corpus, graph, queries_by_field, model_runs,
                              params=BenchmarkParams(), seed=0):
    """build_benchmark with per_query_build_entry, reading a dict graph from
    dict_citation_graph; the library supplies the unchanged model selection, and the corpus hash is recomputed with
    json.dumps over freshly sorted ids."""
    qrels = {q: graph.outgoing.get(q, frozenset())
             for queries in queries_by_field.values() for q in queries}
    per_model = {name: top_negatives_per_model(run, qrels, params.model_pool_depth)
                 for name, run in model_runs.items()}
    chosen = select_diverse_models(per_model, params.model_count)
    by_abbrev = {resolve_field(key).abbrev: key for key in queries_by_field}
    entries, dropped = [], {}
    for abbrev in FIELD_ABBREVS:
        if abbrev not in by_abbrev:
            continue
        for q in sorted(queries_by_field[by_abbrev[abbrev]]):
            entry = per_query_build_entry(corpus, graph, q, abbrev, chosen, per_model, params, seed)
            if entry is None:
                dropped[abbrev] = dropped.get(abbrev, 0) + 1
            else:
                entries.append(entry)
    articles = {art.id: art for art in corpus}
    corpus_hash = stable_digest(*(
        json.dumps(_article_obj(articles[i]), sort_keys=True, separators=(",", ":"),
                   ensure_ascii=False)
        for i in sorted(articles)))
    manifest = {
        "seed": seed,
        "models": list(chosen),
        "types": list(chosen) + [GRAPH_TYPE, MOST_CITED_TYPE, RANDOM_TYPE],
        "params": asdict(params),
        "corpus_hash": corpus_hash,
        "entries": len(entries),
        "dropped": {k: dropped[k] for k in sorted(dropped)},
        "pairs": sum(
            len(e.positives) + sum(len(ids) for ids in e.negatives.values()) for e in entries
        ),
    }
    return Benchmark(entries, manifest)


# ---------------------------------------------------------------------------
# the steps of a ranked list as they were before each had one implementation:
# the two cuts of a query's own row, the three metric loops and
# evaluate_run's inline mean
# ---------------------------------------------------------------------------


def delete_cut_top(ids, rows: np.ndarray, scores: np.ndarray, k: int, descending: bool,
                   exclude: int) -> list[tuple[str, float]]:
    """dense.knn_pool's cut, kept as the reference of Numbering.top's: find
    the query's row among the ascending pool rows with searchsorted and
    np.delete it from rows and scores, then rank what is left."""
    at = int(np.searchsorted(rows, exclude))
    if at < rows.size and rows[at] == exclude:
        rows, scores = np.delete(rows, at), np.delete(scores, at)
    return rank_rows(ids, id_ranks(ids), rows, scores, k, descending)


def touched_mask_top(ids, posting_rows: np.ndarray, acc: np.ndarray, k: int,
                     exclude: int | None) -> list[tuple[str, float]]:
    """lexical._ranked's cut, kept as the reference of Numbering.top's: mark
    every posting's row as touched, clear the excluded row, then rank the
    touched rows by their sums in `acc`."""
    touched = np.zeros(len(ids), dtype=bool)
    touched[posting_rows] = True
    if exclude is not None:
        touched[exclude] = False
    hit = np.flatnonzero(touched)
    return rank_rows(ids, id_ranks(ids), hit, acc[hit], k)


def touched_mask_ranked(index, terms, params, k: int, exclude: int | None = None):
    """lexical._ranked as it was, summing the gathered postings and cutting
    the excluded row with touched_mask_top."""
    if terms is None:
        return []
    rows, tfs, idfs = terms
    acc = np.zeros(index.N)
    np.add.at(acc, rows, _mask_contributions(index, rows, tfs, idfs, params))
    return touched_mask_top(index.ids, rows, acc, k, exclude)


# ---------------------------------------------------------------------------
# BM25 search as it was before the pooled view and the lookup: each query
# term's whole posting list filtered through an N-row pool mask, and the
# contributions added into N-row sums with np.add.at
# ---------------------------------------------------------------------------


def pool_mask(index, pool) -> np.ndarray:
    """Bm25Index._pool_mask as it was: True at the rows of the pool ids the
    index holds."""
    mask = np.zeros(index.N, dtype=bool)
    mask[[index.numbering.row[i] for i in pool if i in index.numbering.row]] = True
    return mask


def mask_query_terms(index, tokens, mask):
    """lexical._query_terms as it was: the query's postings as one (rows,
    tfs, idfs) triple, rows restricted to the mask, each token's slice in
    query-token order; None when no token has a (pooled) posting."""
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
            sliced[term] = (rows, tfs, np.full(rows.size, lexical.idf(index, term)))
    parts = [sliced[term] for term in tokens if term in sliced]
    if not parts:
        return None
    return tuple(np.concatenate(column) for column in zip(*parts))


def _mask_contributions(index, rows, tfs, idfs, params):
    """Each posting's term score, its length norm taken from every row's norm
    (the per-b array the index once cached) at the posting's row."""
    norm = ((1.0 - params.b) + (params.b * index.lengths) / index.avgdl)[rows]
    return (idfs * (tfs * (params.k1 + 1.0))) / (tfs + params.k1 * norm)


def add_at_ranked(index, terms, params, k: int, exclude: int | None = None):
    """lexical._ranked as it was: np.add.at into an N-row sum, an N-row
    touched mask, then Numbering.top."""
    if terms is None:
        return []
    rows, tfs, idfs = terms
    acc = np.zeros(index.N)
    np.add.at(acc, rows, _mask_contributions(index, rows, tfs, idfs, params))
    touched = np.zeros(index.N, dtype=bool)
    touched[rows] = True
    hit = np.flatnonzero(touched)
    return index.numbering.top(hit, acc[hit], k, exclude=exclude)


def mask_search(index, query_text, params=lexical.Bm25Params(), k: int = 500, pool=None):
    """lexical.search as it was."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mask = None if pool is None else pool_mask(index, pool)
    return add_at_ranked(index, mask_query_terms(index, lexical.analyze(query_text), mask),
                         params, k)


def mask_search_pool(index, queries, pool, params=lexical.Bm25Params(), k: int = 500):
    """lexical.search_pool as it was: one pool mask for every query."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mask = pool_mask(index, pool)
    return {qid: add_at_ranked(index, mask_query_terms(index, lexical.analyze(text), mask),
                               params, k, exclude=index.numbering.row.get(qid))
            for qid, text in queries}


def _loop_ids(ranked) -> list[str]:
    # accepts bare ids or (id, score) pairs
    return [item[0] if isinstance(item, tuple) else item for item in ranked]


def loop_average_precision(ranked, relevant) -> float:
    """metrics.average_precision as a loop over the ranking, adding each
    precision as its relevant id is first found."""
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    relevant = set(relevant)
    found: set[str] = set()
    total = 0.0
    for rank, doc in enumerate(_loop_ids(ranked), start=1):
        if doc in relevant and doc not in found:
            found.add(doc)
            total += len(found) / rank
    return total / len(relevant)


def loop_ndcg(ranked, relevant) -> float:
    """metrics.ndcg as a loop over the ranking."""
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    relevant = set(relevant)
    seen: set[str] = set()
    dcg = 0.0
    for rank, doc in enumerate(_loop_ids(ranked), start=1):
        if doc in relevant and doc not in seen:
            seen.add(doc)
            dcg += 1.0 / math.log2(rank + 1)
    ideal = min(len(relevant), len(ranked))
    if ideal == 0:
        return 0.0
    idcg = 0.0  # added left to right, as metrics.ndcg does
    for r in range(1, ideal + 1):
        idcg += 1.0 / math.log2(r + 1)
    return dcg / idcg


def loop_recall_at_k(ranked, relevant, k: int) -> float:
    """metrics.recall_at_k as a set intersection of the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    relevant = set(relevant)
    top = set(_loop_ids(ranked[:k]))
    return len(top & relevant) / len(relevant)


def inline_mean(rows, names) -> dict[str, float]:
    """evaluate_run's aggregate step: each name's sum over the rows in row
    order, added left to right from 0.0, divided by their count; 0.0 with no rows."""
    means = {}
    for name in names:
        total = 0.0
        for vals in rows:
            total += vals[name]
        means[name] = total / len(rows) if rows else 0.0
    return means


def loop_evaluate_run(run, qrels, recall_cutoff: int = 30) -> metrics.MetricsReport:
    """metrics.evaluate_run with the loop metrics and the inline mean."""
    rankings = getattr(run, "rankings", run)
    for q in rankings:
        if q not in qrels:
            raise ValueError(f"query {q!r} in run is missing from qrels")
    scorers = {"map": loop_average_precision, "ndcg": loop_ndcg,
               f"recall@{recall_cutoff}": lambda r, rel: loop_recall_at_k(r, rel, recall_cutoff)}
    per_query = {q: {name: f(rankings.get(q, []), qrels[q]) for name, f in scorers.items()}
                 for q in sorted(qrels)}
    return metrics.MetricsReport(inline_mean(list(per_query.values()), scorers), per_query)


# ---------------------------------------------------------------------------
# BM25 tuning as it was before it counted ranks: every (grid point, query)
# pair ranked into a full list, then walked by the list-form metric
# ---------------------------------------------------------------------------


def listed_positive_ranks(numbering, rows: np.ndarray, scores: np.ndarray, relevant,
                          k: int) -> tuple[list[int], int, int]:
    """The (ranks, length, count) that Numbering.positive_ranks and the
    tuning count stand in for, read off the ranked list: Numbering.top's
    top k, then metrics._first_ranks."""
    return metrics._first_ranks(numbering.top(rows, scores, k), relevant)


def listwise_tune_values(index, validation, grid, *, pool=None, objective="map",
                         cutoff=None) -> list[list[float]]:
    """lexical.tune_params's scoring loop as it was: each grid point's
    objective per validation query, from the ranked list of the old
    _ranked (touched_mask_ranked), scored by the list-form metric."""
    objective_of = metrics.metric_named(objective)
    k = cutoff if cutoff is not None else (len(pool) if pool is not None else index.N)
    mask = None if pool is None else pool_mask(index, pool)
    prepared = [(mask_query_terms(index, lexical.analyze(text), mask), positives)
                for text, positives in validation]
    return [[objective_of(touched_mask_ranked(index, terms, params, k), positives)
             for terms, positives in prepared]
            for params in grid]


def listwise_tune_params(index, validation, grid, *, pool=None, objective="map", cutoff=None):
    """lexical.tune_params as it was: the grid point of the highest mean
    listwise_tune_values, ties toward smaller (b, k1)."""
    best_key, best_params = None, None
    values = listwise_tune_values(index, validation, grid, pool=pool, objective=objective,
                                  cutoff=cutoff)
    for params, per_query in zip(grid, values):
        total = 0.0
        for value in per_query:
            total += value
        key = (-(total / len(validation)), params.b, params.k1)
        if best_key is None or key < best_key:
            best_key, best_params = key, params
    return best_params
