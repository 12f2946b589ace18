"""Generate one workload's inputs from its seed with citebench.synthetic.

Runs as its own process, before and outside the timed region, so that the
generator's memory never shows in the workload's peak RSS.

    python3 perfbench/inputs.py WORKLOAD SEED OUT_DIR
"""

from __future__ import annotations

import sys
from pathlib import Path

import config


def generate(workload: str, seed: int, out: Path) -> None:
    config.use_source_tree()
    from citebench import corpus as corpus_mod, dense, synthetic

    scale = config.SCALES[workload]
    out.mkdir(parents=True, exist_ok=True)
    corpus = synthetic.generate_corpus(scale["articles"], seed=seed)
    corpus_mod.write_corpus_jsonl(corpus, out / "corpus.jsonl")
    # embeddings cover the articles that survive the default prefilter
    kept = corpus_mod.prefilter(corpus, corpus_mod.build_citation_graph(corpus)).corpus
    for name, (dim, _metric) in scale["dense"].items():
        store = synthetic.embed_corpus(kept, dim=dim, label=f"{name}-{seed}")
        dense.save_embeddings(store.ids, store.vectors, out / f"{name}.f32",
                              out / f"{name}.f32.json")


if __name__ == "__main__":
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
