"""Embedding storage and exact nearest-neighbor retrieval.

Embeddings are inputs to this toolkit (any single-vector-per-article
encoder produces them); here a seeded bag-of-tokens projection stands in.
"""

import tempfile
from pathlib import Path

from citebench import synthetic
from citebench.corpus import build_citation_graph, prefilter
from citebench.dense import knn, load_embeddings, save_embeddings

corpus = synthetic.generate_corpus(2000, seed=11)
corpus = prefilter(corpus, build_citation_graph(corpus)).corpus

# --- produce, save, and reload embeddings -----------------------------------
store = synthetic.embed_corpus(corpus, dim=32, label="demo_encoder")
with tempfile.TemporaryDirectory(prefix="citebench_demo_") as workdir:
    vec_path = Path(workdir) / "demo.f32"
    save_embeddings(store.ids, store.vectors, vec_path, Path(workdir) / "demo.f32.json")
    store = load_embeddings(vec_path, Path(workdir) / "demo.f32.json")
    print(f"store: {len(store)} vectors x {store.dim} dims "
          f"({vec_path.stat().st_size} bytes on disk)")

# --- exact top-k under three metrics -----------------------------------------
query_id = store.ids[0]
query = store.vector(query_id)
for metric in ("cosine", "dot", "euclidean"):
    top = knn(store, query, k=4, metric=metric)
    rendered = ", ".join(f"{i}:{s:.3f}" for i, s in top)
    print(f"{metric:>10}: {rendered}")

# the query's own row always wins under cosine (similarity 1)
assert knn(store, query, k=1, metric="cosine")[0][0] == query_id

# --- pool restriction and chunked scanning ------------------------------------
pool = set(store.ids[100:200])
top = knn(store, query, k=3, metric="cosine", pool=pool)
assert all(i in pool for i, _ in top)
print(f"\npool-restricted top-3: {[i for i, _ in top]}")

reference = knn(store, query, k=10, metric="cosine")
for chunks in (2, 8, 32):
    assert knn(store, query, k=10, metric="cosine", chunks=chunks) == reference
print("chunked scans (2/8/32 chunks) reproduce the single-scan ranking exactly")
