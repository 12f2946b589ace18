"""BM25 indexing, scoring, search, parameter tuning, and persistence."""

import tempfile
from pathlib import Path

from citebench import synthetic
from citebench.corpus import build_citation_graph, prefilter
from citebench.lexical import (Bm25Params, analyze, build_index, default_tuning_grid,
                               idf, load_index, save_index, score, search, tune_params)

corpus = synthetic.generate_corpus(2000, seed=11)
graph = build_citation_graph(corpus)
corpus = prefilter(corpus, graph).corpus

# --- index over title + abstract -------------------------------------------
index = build_index(corpus)
print(f"indexed {index.N} documents, {len(index.vocab)} terms, avgdl={index.avgdl:.1f}")

# --- scoring one (query, document) pair -------------------------------------
query_article = next(a for a in corpus if a.year == 2019 and graph.outgoing.ids_of(a.id))
query_terms = analyze(query_article.text)
some_doc = next(iter(corpus)).id
params = Bm25Params(k1=0.9, b=0.4)
print(f"\nquery article {query_article.id}: {len(query_terms)} tokens")
print(f"idf of first token {query_terms[0]!r}: {idf(index, query_terms[0]):.4f}")
print(f"score against {some_doc}: {score(index, query_terms, some_doc, params):.4f}")

# --- top-k search ------------------------------------------------------------
top = search(index, query_article.text, params, k=5)
print("\ntop-5 for the query article (the article itself naturally ranks first):")
for doc, s in top:
    print(f"  {doc}  {s:8.3f}")

# restricted to a candidate pool and excluding the query itself
pool = {a.id for a in corpus if a.year and a.year <= 2019} - {query_article.id}
top = search(index, query_article.text, params, k=5, pool=pool)
print("pool-restricted top-5 (query excluded):")
for doc, s in top:
    print(f"  {doc}  {s:8.3f}")

# --- tuning k1 and b ----------------------------------------------------------
# validation pairs: query text with the query's cited set as positives
queries = [a for a in corpus if a.year == 2019 and len(graph.outgoing.ids_of(a.id)) >= 3][:10]
validation = [(a.text, set(graph.outgoing.ids_of(a.id))) for a in queries]
validation = [(t, p) for t, p in validation if p]
best = tune_params(index, validation, default_tuning_grid(), pool=pool, cutoff=100)
print(f"\ntuned parameters over {len(validation)} validation queries: "
      f"k1={best.k1} b={best.b}")

# --- binary persistence, rankings round-trip bit-exactly ----------------------
with tempfile.TemporaryDirectory(prefix="citebench_demo_") as workdir:
    path = Path(workdir) / "index.bin"
    save_index(index, path)
    loaded = load_index(path)
    assert search(loaded, query_article.text, best, k=50, pool=pool) == \
        search(index, query_article.text, best, k=50, pool=pool)
    print(f"index persisted to {path} ({path.stat().st_size} bytes), rankings identical")
