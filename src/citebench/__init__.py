"""Citation-recommendation retrieval evaluation and benchmark construction.

Pipeline: ingest and prefilter a citation corpus, build candidate pools,
rank them with BM25 or stored dense embeddings, score the rankings with
MAP/nDCG/recall, and distill hard-negative benchmarks with per-candidate-type
evaluation.
"""

__version__ = "0.1.0"

from .corpus import (Article, CitationGraph, Corpus, FieldLabel, FIELDS, FIELD_ABBREVS,
                     FIELD_NAMES, PrefilterRules, build_citation_graph, field_cited_set,
                     load_corpus, prefilter, resolve_field, write_corpus_jsonl)
from .lexical import (Bm25Index, Bm25Params, analyze, build_index,
                      default_tuning_grid, idf, load_index, save_index, score, search,
                      tune_params)
from .dense import EmbeddingStore, knn, load_embeddings, save_embeddings
from .metrics import (MetricsReport, average_precision, evaluate_run, jaccard, ndcg,
                      recall_at_k)
from .pools import (PoolSet, SamplingPlan, build_dataset_pool,
                    build_field_pool, read_pool_json, repeat_pools, sample_queries,
                    write_pool_json)
from .benchgen import (Benchmark, BenchmarkEntry, BenchmarkParams, build_benchmark,
                       graph_negatives, most_cited, overlap_similarity, random_negatives,
                       ranked_negatives, read_benchmark_jsonl,
                       sample_positives, select_diverse_models, top_negatives_per_model,
                       write_benchmark_jsonl)
from .harness import (BenchmarkReport, Bm25Model, DenseModel, RetrievalModel, RetrievalRun,
                      candidate_type_breakdown, emit_report, evaluate_benchmark,
                      render_report, run_retrieval, score_benchmark_rankings)

__all__ = [name for name in dir() if not name.startswith("_")]
