"""Corpus ingestion, prefiltering, and the citation graph.

Generates a synthetic corpus, writes it to JSON Lines, loads it back, and
walks through the prefiltering rules and field-cited sets.
"""

import tempfile
from pathlib import Path

from citebench import synthetic
from citebench.corpus import (PrefilterRules, build_citation_graph, field_cited_set,
                              load_corpus, prefilter, write_corpus_jsonl, FIELDS)

# --- generate and round-trip a corpus -------------------------------------
corpus = synthetic.generate_corpus(2000, seed=11)
with tempfile.TemporaryDirectory(prefix="citebench_demo_") as workdir:
    path = Path(workdir) / "corpus.jsonl"
    write_corpus_jsonl(corpus, path)
    corpus = load_corpus(path)
    print(f"loaded {len(corpus)} articles from {path}")

sample = next(iter(corpus))
print(f"example article: id={sample.id} year={sample.year} fields={sorted(sample.fields)}")
print(f"  title: {sample.title!r}")
print(f"  cites {len(sample.out_citations)} articles")

# --- citation graph --------------------------------------------------------
graph = build_citation_graph(corpus)
print(f"\ncitation graph: {len(graph.outgoing.rows)} edges, "
      f"{graph.dangling} dangling targets dropped")
print(f"  {sample.id} is cited by {len(graph.incoming.ids_of(sample.id))} articles")

# --- prefiltering ----------------------------------------------------------
# default rules: year present, title non-empty, abstract >= 30 chars,
# at least 3 incoming citations
result = prefilter(corpus, graph, PrefilterRules())
print(f"\nprefilter kept {len(result.corpus)}/{len(corpus)} articles")
for rule, count in result.removed.items():
    print(f"  removed by {rule}: {count}")

# --- field-cited sets -------------------------------------------------------
kept = result.corpus
kept_graph = build_citation_graph(kept)
print("\nfield-cited set sizes (articles cited by articles of each field):")
for label in FIELDS[:5]:
    cited = field_cited_set(kept, kept_graph, label)
    print(f"  {label.abbrev:>4}: {len(cited)}")
