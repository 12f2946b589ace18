"""Self-check of the benchmark: its checks catch faults, its wrappers change nothing.

    python3 perfbench/selfcheck.py

1. A ranking with one swapped pair is caught.
2. A benchmark entry with a cited negative is caught.
3. The TimedModel proxy and the function wrappers return rankings identical
   to the unwrapped calls, and uninstalling restores every binding.
4. The benchmark command itself exits nonzero when either fault is injected
   into a real run's artifacts.
5. BENCHMARK.json names exactly the metrics the command prints.

Exits 0 when every part holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import config

config.pin_threads()
config.use_source_tree()

from citebench import corpus, dense, harness, lexical, pools, synthetic  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

WORK = config.ROOT / ".perfbench_work" / "selfcheck"


def _inputs():
    raw = synthetic.generate_corpus(1500, seed=5)
    WORK.mkdir(parents=True, exist_ok=True)
    corpus.write_corpus_jsonl(raw, WORK / "corpus.jsonl")
    kept = corpus.prefilter(raw, corpus.build_citation_graph(raw)).corpus
    store = synthetic.embed_corpus(kept, dim=16, label="selfcheck")
    dense.save_embeddings(store.ids, store.vectors, WORK / "d16.f32", WORK / "d16.f32.json")
    graph = corpus.build_citation_graph(kept)
    plan = pools.SamplingPlan(queries_per_unit=6, rng_seed=3)
    pool_set = pools.build_field_pool(kept, graph, "Med",
                                      pools.sample_queries(kept, graph, plan, field="Med"), 300, 3)
    return kept, store, pool_set


def swapped_pair_is_caught(ref, kept, pool_set) -> bool:
    q = sorted(pool_set.positives)[0]
    candidates = pool_set.members() - {q}
    ranked = harness.Bm25Model(lexical.build_index(kept)).rank(kept.article(q), candidates, 50)
    rows = [(doc, score, r) for r, (doc, score) in enumerate(ranked, start=1)]
    clean = checks.ranking_problems(q, rows, candidates, 50, "bm25")
    clean += checks.rescore_problems(ref, "bm25", "bm25", q, rows, candidates, 50)
    i = next(i for i in range(len(rows) - 1) if rows[i][1] != rows[i + 1][1])
    rows[i], rows[i + 1] = (rows[i + 1][0], rows[i + 1][1], i + 1), (rows[i][0], rows[i][1], i + 2)
    caught = checks.ranking_problems(q, rows, candidates, 50, "bm25")
    print(f"1. swapped pair: clean ranking {clean or 'passes'}, swapped ranking caught: {caught}")
    return not clean and bool(caught)


def cited_negative_is_caught(ref) -> bool:
    q = next(i for i in ref.kept if len(ref.cited[i]) >= 6)
    cited = sorted(ref.cited[q])
    others = [i for i in ref.kept if i != q and i not in set(ref.raw[q]["out_citations"])]
    entry = {"query_id": q, "positives": cited[:5],
             "negatives": {f"t{g}": others[10 * g:10 * g + 10] for g in range(6)}}
    clean = checks.entry_problems(entry, ref)
    entry["negatives"]["t3"][4] = cited[5]
    caught = checks.entry_problems(entry, ref)
    print(f"2. cited negative: clean entry {clean or 'passes'}, faulty entry caught: {caught}")
    return not clean and bool(caught)


def _rankings(kept, store, pool_set):
    index = lexical.build_index(kept)
    models = [harness.Bm25Model(index), harness.DenseModel(store, "cosine", name="d16"),
              harness.DenseModel(store, "euclidean", name="d16e")]
    out = [harness.run_retrieval(m, pool_set, kept, 100).rankings for m in models]
    q = sorted(pool_set.positives)[0]
    out.append(lexical.search(index, kept.article(q).text, k=40, pool=pool_set.members()))
    out.append(dense.knn(store, store.vector(q), 40, metric="cosine", pool=pool_set.members()))
    return out


def wrappers_are_transparent(kept, store, pool_set) -> bool:
    plain = _rankings(kept, store, pool_set)
    before = (harness.Bm25Model, lexical.search, dense.knn, harness.run_retrieval)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        traced = _rankings(kept, store, pool_set)
    finally:
        restore()
    after = (harness.Bm25Model, lexical.search, dense.knn, harness.run_retrieval)
    ranks = sum(1 for s in tracer.spans if s[0] == "harness.rank")
    ok = traced == plain and before == after and ranks == 3 * len(pool_set.positives)
    print(f"3. wrappers: rankings identical {traced == plain}, bindings restored "
          f"{before == after}, {len(tracer.spans)} spans, {ranks} rank spans")
    return ok


def injected_faults_fail_the_command() -> bool:
    ok = True
    for fault in ("swap", "cited-negative"):
        proc = subprocess.run([sys.executable, str(config.HERE / "run.py"), "--workload",
                               "bench-build", "--seed", "2", "--seconds", "0",
                               "--inject-fault", fault], capture_output=True, text=True,
                              timeout=180)
        caught = [line.strip() for line in proc.stdout.splitlines() if "check failed" in line]
        print(f"4. --inject-fault {fault}: exit {proc.returncode}, {caught[:1]}")
        ok = ok and proc.returncode != 0 and bool(caught)
    return ok


def benchmark_json_matches() -> bool:
    spec = json.loads((config.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = e2e == run.END_TO_END_UNITS and layers == dict(tracing.PER_LAYER)
    ok = ok and [w["name"] for w in spec["workloads"]] == list(config.WORKLOADS)
    print(f"5. BENCHMARK.json matches the printed metrics: {ok}")
    return ok


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        kept, store, pool_set = _inputs()
        ref = checks.Reference(WORK)
        results = [
            swapped_pair_is_caught(ref, kept, pool_set),
            cited_negative_is_caught(ref),
            wrappers_are_transparent(kept, store, pool_set),
            injected_faults_fail_the_command(),
            benchmark_json_matches(),
        ]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass
    print("self-check", "passed" if all(results) else "FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
