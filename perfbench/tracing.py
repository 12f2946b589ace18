"""Spans taken from outside citebench, and the per-layer metrics built from them.

`install(tracer)` wraps the public functions of every measured layer at each
binding site: the module attribute, the names other citebench modules import
directly (cli imports most of what it calls) and the package re-exports. It
also swaps the `Bm25Model` and `DenseModel` bindings for factories that
return a `TimedModel` proxy, so every `rank` call is a span. Nothing under
src/ is edited; `install` returns a function that puts every binding back.

A few per-element kernels are left unwrapped: they run once per posting,
document or query inside spans that are already recorded, so a wrapper
would cost more than the work it times.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import types
from collections import Counter

import config

config.use_source_tree()

from citebench import corpus as corpus_mod  # noqa: E402
from citebench import harness  # noqa: E402

LAYERS = ("corpus", "lexical", "dense", "metrics", "pools", "benchgen", "harness", "cli")

KERNELS = frozenset({
    "corpus.parse_article", "corpus.resolve_field",
    "lexical.analyze", "lexical.idf", "lexical.score",
    "metrics.average_precision", "metrics.ndcg", "metrics.recall_at_k", "metrics.jaccard",
    "benchgen.overlap_similarity",
})

# A ranking over at most this many candidates is a closed-pool ranking
# (5 positives plus 6 groups of 10 negatives).
CLOSED_MAX = 65

# (name, unit); BENCHMARK.json lists the same metrics under per_layer.
PER_LAYER = (
    ("corpus.load_s", "s"), ("corpus.graph_s", "s"), ("corpus.prefilter_s", "s"),
    ("corpus.content_hash_s", "s"),
    ("lexical.build_index_s", "s"), ("lexical.save_index_s", "s"),
    ("lexical.load_index_s", "s"), ("lexical.index_mb", "MB"),
    ("lexical.search_ms_p50", "ms"), ("lexical.search_ms_p90", "ms"),
    ("lexical.tune_s", "s"),
    ("lexical.closed_search_ms_p50", "ms"), ("lexical.closed_search_ms_p90", "ms"),
    ("dense.load_embeddings_s", "s"),
    ("dense.knn_cosine_ms_p50", "ms"), ("dense.knn_cosine_ms_p90", "ms"),
    ("dense.knn_euclidean_ms_p50", "ms"), ("dense.knn_euclidean_ms_p90", "ms"),
    ("dense.scan_gb_per_s", "GB/s"), ("dense.closed_knn_ms_p50", "ms"),
    ("pools.sample_queries_s", "s"), ("pools.build_pool_s", "s"),
    ("metrics.evaluate_run_s", "s"),
    ("harness.run_retrieval_bm25_s", "s"), ("harness.run_retrieval_dense_s", "s"),
    ("harness.run_self_s", "s"),
    ("harness.evaluate_benchmark_bm25_s", "s"), ("harness.evaluate_benchmark_dense_s", "s"),
    ("harness.breakdown_bm25_s", "s"), ("harness.breakdown_dense_s", "s"),
    ("harness.rank_calls_pool", "count"), ("harness.rank_calls_evaluate", "count"),
    ("harness.rank_calls_breakdown", "count"),
    ("benchgen.build_benchmark_s", "s"),
    ("benchgen.top_negatives_per_model_s", "s"), ("benchgen.select_diverse_models_s", "s"),
    ("benchgen.sample_positives_s", "s"), ("benchgen.graph_negatives_s", "s"),
    ("benchgen.most_cited_negatives_s", "s"), ("benchgen.random_negatives_s", "s"),
    ("benchgen.entries", "count"), ("benchgen.dropped", "count"), ("benchgen.io_s", "s"),
    ("cli.ingest_s", "s"), ("cli.prefilter_s", "s"), ("cli.pool_s", "s"), ("cli.tune_s", "s"),
    ("cli.run_s", "s"), ("cli.eval_s", "s"), ("cli.benchgen_s", "s"),
    ("cli.breakdown_s", "s"), ("cli.report_s", "s"), ("cli.reload_s", "s"),
    ("cli.output_mb", "MB"),
    ("trace.untraced_total_s", "s"), ("trace.traced_total_s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)

CLI_SUBCOMMANDS = ("ingest", "prefilter", "pool", "tune", "run", "eval", "benchgen",
                   "breakdown", "report")


class Tracer:
    """In-memory spans: [name, start, end, parent index, query id, tag]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str, qid=None, tag=None) -> int:
        parent = self._stack[-1] if self._stack else None
        if qid is None and parent is not None:
            qid = self.spans[parent][4]
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, qid, tag])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def adopt(self, spans: list[list], counts: dict) -> None:
        """Append spans recorded by a child process under the open span."""
        parent = self._stack[-1] if self._stack else None
        base = len(self.spans)
        for name, start, end, par, qid, tag in spans:
            self.spans.append([name, start, end, parent if par is None else base + par, qid, tag])
        self.counts.update(counts)


def _backend(model) -> str:
    return getattr(model, "backend", "dense" if hasattr(model, "store") else "bm25")


def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _search_tag(args, kwargs):
    pool = _arg(args, kwargs, 4, "pool")
    return args[0].N if pool is None else len(pool)


def _knn_tag(args, kwargs):
    store, pool = args[0], _arg(args, kwargs, 4, "pool")
    return (_arg(args, kwargs, 3, "metric", "cosine"),
            len(store) if pool is None else len(pool), store.dim)


TAGGERS = {
    "lexical.search": _search_tag,
    "dense.knn": _knn_tag,
    "harness.run_retrieval": lambda a, kw: _backend(_arg(a, kw, 0, "model")),
    "harness.evaluate_benchmark": lambda a, kw: _backend(_arg(a, kw, 0, "model")),
    "harness.candidate_type_breakdown": lambda a, kw: _backend(_arg(a, kw, 0, "model")),
}


def _count_benchmark(args, kwargs, result, counts):
    counts["benchgen.entries"] += len(result.entries)
    counts["benchgen.dropped"] += sum(result.manifest["dropped"].values())


def _count_index_bytes(args, kwargs, result, counts):
    counts["lexical.index_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


AFTER = {
    "benchgen.build_benchmark": _count_benchmark,
    "lexical.save_index": _count_index_bytes,
}


def _wrap(tracer: Tracer, name: str, fn):
    tagger, after = TAGGERS.get(name), AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name, tag=tagger(args, kwargs) if tagger else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after:
            after(args, kwargs, result, tracer.counts)
        return result

    return wrapper


class TimedModel(harness.RetrievalModel):
    """Proxy that records one span per `rank` call and returns its result unchanged."""

    def __init__(self, inner: harness.RetrievalModel, tracer: Tracer, backend: str):
        self.inner = inner
        self.name = inner.name
        self.backend = backend
        self._tracer = tracer

    def rank(self, query, candidates, k):
        idx = self._tracer.open("harness.rank", qid=query.id, tag=self.backend)
        try:
            return self.inner.rank(query, candidates, k)
        finally:
            self._tracer.close(idx)


def _proxy_factory(tracer: Tracer, cls, backend: str):
    def make(*args, **kwargs):
        return TimedModel(cls(*args, **kwargs), tracer, backend)
    return make


def install(tracer: Tracer):
    """Wrap every measured binding; return a function that undoes it."""
    replacements = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"citebench.{layer}")
        for attr, fn in vars(mod).items():
            name = f"{layer}.{attr}"
            if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in KERNELS):
                replacements[fn] = _wrap(tracer, name, fn)
    replacements[harness.Bm25Model] = _proxy_factory(tracer, harness.Bm25Model, "bm25")
    replacements[harness.DenseModel] = _proxy_factory(tracer, harness.DenseModel, "dense")
    patches = []
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] != "citebench":
            continue
        for attr, value in list(vars(mod).items()):
            try:
                new = replacements.get(value)
            except TypeError:  # unhashable module attribute
                continue
            if new is not None:
                patches.append((mod, attr, value))
                setattr(mod, attr, new)
    method = corpus_mod.Corpus.content_hash
    patches.append((corpus_mod.Corpus, "content_hash", method))
    corpus_mod.Corpus.content_hash = _wrap(tracer, "corpus.content_hash", method)

    def restore() -> None:
        for obj, attr, value in reversed(patches):
            setattr(obj, attr, value)
    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _percentile(samples: list[float], q: int) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    import statistics

    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def summarize(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (latency samples are returned
    separately under "_samples" so passes can be pooled)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]

    def under(i: int, name: str) -> bool:
        p = spans[i][3]
        while p is not None:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    total: Counter = Counter()
    self_time: Counter = Counter()
    samples: dict[str, list[float]] = {k: [] for k in
                                       ("search", "closed_search", "knn_cosine",
                                        "knn_euclidean", "knn_dot", "closed_knn")}
    calls: Counter = Counter()
    scan_bytes = scan_s = reload_s = 0.0
    for i, (name, _start, _end, _parent, _qid, tag) in enumerate(spans):
        total[name] += dur[i]
        self_time[name] += dur[i] - child[i]
        if name == "lexical.search" and not under(i, "lexical.tune_params"):
            samples["closed_search" if tag <= CLOSED_MAX else "search"].append(dur[i] * 1e3)
        elif name == "dense.knn":
            metric, rows, dim = tag
            if rows <= CLOSED_MAX:
                samples["closed_knn"].append(dur[i] * 1e3)
            else:
                samples[f"knn_{metric}"].append(dur[i] * 1e3)
                scan_bytes += rows * dim * 4
                scan_s += dur[i]
        elif name in ("harness.run_retrieval", "harness.evaluate_benchmark",
                      "harness.candidate_type_breakdown"):
            total[f"{name}:{tag}"] += dur[i]
        elif name == "cli.process":
            total[f"cli.process:{tag}"] += dur[i]
        elif name == "harness.rank":
            if under(i, "harness.run_retrieval"):
                calls["pool"] += 1
            elif under(i, "harness.candidate_type_breakdown"):
                calls["breakdown"] += 1
            else:
                calls["evaluate"] += 1
        if name in ("corpus.load_corpus", "corpus.build_citation_graph",
                    "lexical.build_index") and under(i, "cli.main"):
            reload_s += dur[i]

    out = {
        "corpus.load_s": total["corpus.load_corpus"],
        "corpus.graph_s": total["corpus.build_citation_graph"],
        "corpus.prefilter_s": total["corpus.prefilter"],
        "corpus.content_hash_s": total["corpus.content_hash"],
        "lexical.build_index_s": total["lexical.build_index"],
        "lexical.save_index_s": total["lexical.save_index"],
        "lexical.load_index_s": total["lexical.load_index"],
        "lexical.index_mb": counts.get("lexical.index_bytes", 0) / 1e6,
        "lexical.tune_s": total["lexical.tune_params"],
        "dense.load_embeddings_s": total["dense.load_embeddings"],
        "dense.scan_gb_per_s": scan_bytes / scan_s / 1e9 if scan_s else 0.0,
        "pools.sample_queries_s": total["pools.sample_queries"],
        "pools.build_pool_s": total["pools.build_field_pool"] + total["pools.build_dataset_pool"],
        "metrics.evaluate_run_s": total["metrics.evaluate_run"],
        "harness.run_retrieval_bm25_s": total["harness.run_retrieval:bm25"],
        "harness.run_retrieval_dense_s": total["harness.run_retrieval:dense"],
        "harness.run_self_s": self_time["harness.run_retrieval"],
        "harness.evaluate_benchmark_bm25_s": total["harness.evaluate_benchmark:bm25"],
        "harness.evaluate_benchmark_dense_s": total["harness.evaluate_benchmark:dense"],
        "harness.breakdown_bm25_s": total["harness.candidate_type_breakdown:bm25"],
        "harness.breakdown_dense_s": total["harness.candidate_type_breakdown:dense"],
        "harness.rank_calls_pool": calls["pool"],
        "harness.rank_calls_evaluate": calls["evaluate"],
        "harness.rank_calls_breakdown": calls["breakdown"],
        "benchgen.build_benchmark_s": total["benchgen.build_benchmark"],
        "benchgen.entries": counts.get("benchgen.entries", 0),
        "benchgen.dropped": counts.get("benchgen.dropped", 0),
        "benchgen.io_s": total["benchgen.write_benchmark_jsonl"] + total["benchgen.read_benchmark_jsonl"],
        "cli.reload_s": reload_s,
        "trace.spans": n,
    }
    for fn in ("top_negatives_per_model", "select_diverse_models", "sample_positives",
               "graph_negatives", "most_cited_negatives", "random_negatives"):
        out[f"benchgen.{fn}_s"] = self_time[f"benchgen.{fn}"]
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_s"] = total[f"cli.process:{sub}"]
    out["_samples"] = samples
    return out


def layer_metrics(passes: list[dict]) -> dict[str, float]:
    """Combine traced passes: medians of per-pass values, pooled latency percentiles."""
    import statistics

    pooled: dict[str, list[float]] = {}
    for p in passes:
        for key, values in p["_samples"].items():
            pooled.setdefault(key, []).extend(values)
    out = {}
    for name, _unit in PER_LAYER:
        values = [p[name] for p in passes if name in p]
        if values:
            out[name] = float(statistics.median(values))
    for key, base in (("search", "lexical.search"), ("closed_search", "lexical.closed_search"),
                      ("knn_cosine", "dense.knn_cosine"), ("knn_euclidean", "dense.knn_euclidean")):
        out[f"{base}_ms_p50"] = _percentile(pooled.get(key, []), 50)
        out[f"{base}_ms_p90"] = _percentile(pooled.get(key, []), 90)
    out["dense.closed_knn_ms_p50"] = _percentile(pooled.get("closed_knn", []), 50)
    out["_samples"] = {k: len(v) for k, v in pooled.items()}
    return out
