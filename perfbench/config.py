"""Workload scales and shared paths for the citebench benchmark.

Every size that shapes a workload lives here, so the inputs generator, the
workloads and the checker agree on them, and so each run can record them.
The sizes were chosen so that one pass of each workload takes a few seconds
on a 2-core machine; see README.md for the reasoning.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("pool-retrieval", "bench-build", "cli-pipeline")

# The seed whose artifact digests are recorded in reference_digests.json.
DEFAULT_SEED = 1

# Time of workloads.probe_job() on an unloaded core of the 2-core VM the
# benchmark was built on. End-to-end times and rates are scaled to this host
# speed (see README.md, "Host noise and speed scaling").
PROBE_REF_S = 0.0008

# BM25 tuning sub-grid drawn from lexical.default_tuning_grid(): two values
# of b crossed with three of k1, so reusing the length norm across k1 values
# can show.
TUNE_B = (0.4, 0.8)
TUNE_K1 = (0.5, 0.9, 1.3)

SCALES = {
    "pool-retrieval": {
        "articles": 10_000,
        "fields": ("Med", "CS"),
        "pool_size": 2_500,
        "queries_per_pool": 17,
        "cutoff": 500,
        # name -> (dim, metric)
        "dense": {"dense768": (768, "cosine"), "dense128": (128, "euclidean")},
        "tune_queries": 10,
        # benchmark built from the first queries of each field pool, so the
        # closed-pool metrics are defined on this workload too
        "bench_queries_per_field": 8,
        "bench_models": ("bm25", "dense768"),
    },
    "bench-build": {
        "articles": 8_000,
        "fields": ("Med", "CS", "Bio", "Phy", "Ch", "Eng"),
        "pool_size": 1_500,
        "queries_per_pool": 10,
        "cutoff": 200,
        "dense": {"dense_a": (128, "cosine"), "dense_b": (128, "cosine"),
                  "dense_c": (64, "euclidean")},
        "tune_queries": 10,
        "bench_models": ("bm25", "dense_a"),
    },
    "cli-pipeline": {
        "articles": 2_500,
        "fields": ("Med", "CS"),
        "pool_size": 400,
        "queries_per_pool": 8,
        "cutoff": 200,
        "tune_cutoff": 100,
        "dense": {"dense_a": (32, "cosine"), "dense_b": (16, "euclidean")},
        "bench_models": ("bm25", "dense_a"),
    },
}


def use_source_tree() -> None:
    """Import citebench from the checkout's src/ rather than an install."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_threads(env=os.environ) -> None:
    """Pin BLAS and OpenMP pools to one thread (never more than nproc)."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        env.setdefault(name, "1")
