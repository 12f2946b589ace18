"""Candidate pools and large-scale-style evaluation.

Samples query articles, builds dataset-level and field-level pools at
several sizes with repetition, ranks them with BM25 and a dense model, and
reports MAP / nDCG / R@30 means across repetitions. Metric values drop as
pools grow, which is the point of evaluating at scale.
"""

import statistics

from citebench import synthetic
from citebench.corpus import build_citation_graph, prefilter
from citebench.harness import Bm25Model, DenseModel, run_retrieval
from citebench.lexical import Bm25Params, build_index
from citebench.metrics import evaluate_run
from citebench.pools import (SamplingPlan, build_dataset_pool, build_field_pool,
                             repeat_pools, sample_queries)

corpus = synthetic.generate_corpus(4000, seed=23)
graph = build_citation_graph(corpus)
corpus = prefilter(corpus, graph).corpus
graph = build_citation_graph(corpus)

plan = SamplingPlan(queries_per_unit=15, rng_seed=5, query_year=2019, repetitions=3)
pool_sizes = (500, 1000, 2000)
queries = sample_queries(corpus, graph, plan)
qrels = {q: set(graph.outgoing.ids_of(q)) for q in queries}
print(f"sampled {len(queries)} query articles from {plan.query_year}; "
      f"positives per query: {statistics.mean(len(p) for p in qrels.values()):.1f} on average")

models = {
    "bm25": Bm25Model(build_index(corpus), Bm25Params(k1=0.9, b=0.4)),
    "dense": DenseModel(synthetic.embed_corpus(corpus, dim=32, label="enc"), name="dense"),
}

# --- dataset-level pools of growing size, three repetitions each -------------
print("\ndataset-level (mean over 3 repetitions, values x100):")
print(f"{'size':>6} {'model':>6} {'MAP':>6} {'nDCG':>6} {'R@30':>6}")
for size in pool_sizes:
    builder = lambda seed: build_dataset_pool(corpus, graph, queries, size, seed)
    for name, model in models.items():
        means = {"map": [], "ndcg": [], "recall@30": []}
        for pool in repeat_pools(builder, plan.repetitions, base_seed=100):
            run = run_retrieval(model, pool, corpus, cutoff=500)
            report = evaluate_run(run, qrels, recall_cutoff=30)
            for metric, value in report.aggregates.items():
                means[metric].append(value)
        row = [statistics.mean(means[m]) * 100 for m in ("map", "ndcg", "recall@30")]
        print(f"{size:>6} {name:>6} {row[0]:6.1f} {row[1]:6.1f} {row[2]:6.1f}")

# --- one field-level pool ------------------------------------------------------
field = "Med"
field_queries = sample_queries(corpus, graph,
                               SamplingPlan(queries_per_unit=8, rng_seed=6), field=field)
field_qrels = {q: set(graph.outgoing.ids_of(q)) for q in field_queries}
pool = build_field_pool(corpus, graph, field, field_queries, size=800, seed=200)
print(f"\nfield-level pool for {field}: {len(pool.pool_ids)} candidates"
      f"{' (shortfall: field-cited set exhausted)' if pool.shortfall else ''}")
for name, model in models.items():
    run = run_retrieval(model, pool, corpus, cutoff=500)
    agg = evaluate_run(run, field_qrels, recall_cutoff=30).aggregates
    print(f"  {name:>6}: MAP {agg['map'] * 100:.1f}  nDCG {agg['ndcg'] * 100:.1f}  "
          f"R@30 {agg['recall@30'] * 100:.1f}")
