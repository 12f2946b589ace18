"""The three workloads, run pass after pass in one process.

    python3 perfbench/workloads.py WORK_DIR WORKLOAD SEED SECONDS TRACE

Reads the generated inputs from WORK_DIR/inputs, writes the artifacts of
pass i to WORK_DIR/pass<i> and the timings of every pass, plus the process's
peak RSS, to WORK_DIR/timings.json. Passes repeat until SECONDS have passed
(at least two; no pass starts that would be expected to end after SECONDS).
With TRACE=1 they alternate untraced and traced, starting
untraced, until there are at least two of each.

Every call into citebench goes through a PassTimer, which adds its time to a
phase and, just before it, times a fixed pure-Python probe job. The probe
times tell run.py how fast the host ran during the pass; they are taken
outside the timed calls and subtracted from the pass's total.
"""

from __future__ import annotations

import gc
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import config

config.use_source_tree()

import citebench  # noqa: E402
from citebench import benchgen, corpus, dense, harness, lexical, metrics, pools  # noqa: E402

import tracing  # noqa: E402

clock = time.perf_counter

_PROBE_TEXT = " ".join(f"word{i % 97} common{i % 13} Field{i % 7}" for i in range(300))


def probe_job() -> None:
    """A fixed slice of BM25-like work: tokenize, count, score, sort."""
    for _ in range(3):
        counts = Counter(re.findall(r"\w+", _PROBE_TEXT.lower()))
        scores = {t: 1.7 * n / (n + 0.9) for t, n in counts.items()}
        sorted(scores.items(), key=lambda item: (-item[1], item[0]))


class PassTimer:
    """Times the benchmark's calls into citebench by phase, probing host speed before each."""

    def __init__(self):
        self.phases: Counter = Counter()
        self.probes: list[float] = []

    def __call__(self, phase: str, fn, *args, **kwargs):
        start = clock()
        probe_job()
        self.probes.append(clock() - start)
        start = clock()
        result = fn(*args, **kwargs)
        self.phases[phase] += clock() - start
        return result

    def record(self, start: float, **fields) -> dict:
        """Pass record: total wall time without the probes, phase times, probe median."""
        return {"total_s": clock() - start - sum(self.probes),
                "setup_s": self.phases["setup"], "pool_rank_s": self.phases["rank"],
                "tune_s": self.phases["tune"], "benchgen_s": self.phases["benchgen"],
                "closed_s": self.phases["closed"], "probe_s": statistics.median(self.probes),
                **fields}


def tune_grid() -> list:
    return [p for p in lexical.default_tuning_grid()
            if p.b in config.TUNE_B and p.k1 in config.TUNE_K1]


def _setup(t: PassTimer, inputs: Path, out: Path, dense_specs: dict, *, reload_index: bool):
    raw = t("setup", corpus.load_corpus, inputs / "corpus.jsonl")
    raw_graph = t("setup", corpus.build_citation_graph, raw)
    kept = t("setup", corpus.prefilter, raw, raw_graph).corpus
    del raw_graph
    graph = t("setup", corpus.build_citation_graph, kept)
    index = t("setup", lexical.build_index, kept)
    if reload_index:
        t("setup", lexical.save_index, index, out / "index.bin")
        index = t("setup", lexical.load_index, out / "index.bin")
    stores = {name: t("setup", dense.load_embeddings, inputs / f"{name}.f32",
                      inputs / f"{name}.f32.json")
              for name in dense_specs}
    return raw, kept, graph, index, stores


def _field_pools(t: PassTimer, kept, graph, sc: dict, seed: int) -> dict:
    """One pool per field. A query is sampled for one field only (articles
    can carry several labels): benchmark entries are keyed by query id."""
    out, taken = {}, set()
    for i, field in enumerate(sc["fields"]):
        plan = pools.SamplingPlan(queries_per_unit=sc["queries_per_pool"], rng_seed=seed + i,
                                  exclusion_ids=frozenset(taken))
        queries = t("pools", pools.sample_queries, kept, graph, plan, field=field)
        taken.update(queries)
        out[field] = t("pools", pools.build_field_pool, kept, graph, field, queries,
                       sc["pool_size"], seed + i)
    return out


def _models(index, stores, sc: dict, params=None) -> list:
    models = [harness.Bm25Model(index, params)]
    models += [harness.DenseModel(stores[name], metric, name=name)
               for name, (_dim, metric) in sc["dense"].items()]
    return models


def _tune(t: PassTimer, index, kept, pool_set, n_queries: int, cutoff: int, out: Path):
    queries = sorted(pool_set.positives)[:n_queries]
    validation = [(kept.article(q).text, set(pool_set.positives[q])) for q in queries]
    grid = tune_grid()
    best = t("tune", lexical.tune_params, index, validation, grid, pool=pool_set.members(),
             cutoff=cutoff)
    _write_json(out / "tune.json", {"k1": best.k1, "b": best.b, "field": pool_set.field,
                                    "queries": queries})
    return best, len(grid) * len(validation)


def _closed_pairs(bench, breakdown: bool) -> int:
    pairs = 0
    for entry in bench.entries:
        pairs += len(entry.candidate_ids())
        if breakdown:
            pairs += sum(len(entry.positives) + len(ids) for ids in entry.negatives.values())
    return pairs


def _closed_phase(t: PassTimer, models: dict, bench, kept, names, out: Path, breakdown: bool):
    results = {}
    for name in names:
        report = t("closed", harness.evaluate_benchmark, models[name], bench, kept)
        results[name] = {"per_query": report.per_query}
        if breakdown:
            results[name]["breakdown"] = t("closed", harness.candidate_type_breakdown,
                                           models[name], bench, kept)
    _write_json(out / "closed_eval.json", results)
    return _closed_pairs(bench, breakdown) * len(names)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# pool-retrieval
# ---------------------------------------------------------------------------


def pool_retrieval(inputs: Path, out: Path, seed: int, sc: dict, tracer) -> dict:
    t, start = PassTimer(), clock()
    raw, kept, graph, index, stores = _setup(t, inputs, out, sc["dense"], reload_index=True)

    pool_sets = _field_pools(t, kept, graph, sc, seed)
    plan = pools.SamplingPlan(queries_per_unit=sc["queries_per_pool"], rng_seed=seed + 100)
    queries = t("pools", pools.sample_queries, kept, graph, plan)
    pool_sets["dataset"] = t("pools", pools.build_dataset_pool, kept, graph, queries,
                             sc["pool_size"], seed + 100)
    for key, pool_set in pool_sets.items():
        t("io", pools.write_pool_json, pool_set, out / f"pool_{key}.json")

    models = _models(index, stores, sc)
    runs = {}
    for key, pool_set in pool_sets.items():
        for model in models:
            runs[key, model.name] = t("rank", harness.run_retrieval, model, pool_set, kept,
                                      sc["cutoff"])

    evals = {}
    for (key, name), run in runs.items():
        t("io", metrics.write_run_tsv, run, out / f"run_{key}_{name}.tsv")
        qrels = {q: set(p) for q, p in pool_sets[key].positives.items()}
        evals[f"{key}/{name}"] = t("eval", metrics.evaluate_run, run, qrels, 30).aggregates
    _write_json(out / "eval.json", evals)

    _best, tune_evals = _tune(t, index, kept, pool_sets[sc["fields"][0]], sc["tune_queries"],
                              sc["cutoff"], out)

    # a small benchmark from the field pools' own runs
    queries_by_field = {f: sorted(pool_sets[f].queries())[:sc["bench_queries_per_field"]]
                        for f in sc["fields"]}
    model_runs = {m.name: {} for m in models}
    for (key, name), run in runs.items():
        if key in queries_by_field:
            model_runs[name].update(run.rankings)
    bench = t("benchgen", benchgen.build_benchmark, kept, graph, queries_by_field, model_runs,
              benchgen.BenchmarkParams(), seed)
    t("io", benchgen.write_benchmark_jsonl, bench, out / "benchmark.jsonl")
    closed_pairs = _closed_phase(t, {m.name: m for m in models}, bench, kept,
                                 sc["bench_models"], out, breakdown=False)
    return t.record(
        start, pool_rankings=sum(len(r.rankings) for r in runs.values()),
        tune_evals=tune_evals, entries=len(bench.entries), closed_pairs=closed_pairs,
        sizes={"articles": len(raw), "kept": len(kept),
               "pools": {k: len(p.pool_ids) for k, p in pool_sets.items()},
               "queries": {k: len(p.positives) for k, p in pool_sets.items()},
               "tune_queries": sc["tune_queries"]})


# ---------------------------------------------------------------------------
# bench-build
# ---------------------------------------------------------------------------


def bench_build(inputs: Path, out: Path, seed: int, sc: dict, tracer) -> dict:
    t, start = PassTimer(), clock()
    raw, kept, graph, index, stores = _setup(t, inputs, out, sc["dense"], reload_index=False)

    pool_sets = _field_pools(t, kept, graph, sc, seed)
    for key, pool_set in pool_sets.items():
        t("io", pools.write_pool_json, pool_set, out / f"pool_{key}.json")
    best, tune_evals = _tune(t, index, kept, pool_sets[sc["fields"][0]], sc["tune_queries"],
                             sc["cutoff"], out)

    models = _models(index, stores, sc, best)
    model_runs = {m.name: {} for m in models}
    for pool_set in pool_sets.values():
        for model in models:
            run = t("rank", harness.run_retrieval, model, pool_set, kept, sc["cutoff"])
            model_runs[model.name].update(run.rankings)
    for name, rankings in model_runs.items():
        t("io", metrics.write_run_tsv, rankings, out / f"run_{name}.tsv")

    queries_by_field = {f: p.queries() for f, p in pool_sets.items()}
    bench = t("benchgen", benchgen.build_benchmark, kept, graph, queries_by_field, model_runs,
              benchgen.BenchmarkParams(model_pool_depth=sc["cutoff"]), seed)
    t("io", benchgen.write_benchmark_jsonl, bench, out / "benchmark.jsonl",
      out / "benchmark.manifest.json")
    bench = t("io", benchgen.read_benchmark_jsonl, out / "benchmark.jsonl",
              out / "benchmark.manifest.json")

    closed_pairs = _closed_phase(t, {m.name: m for m in models}, bench, kept,
                                 sc["bench_models"], out, breakdown=True)
    report = t("eval", harness.score_benchmark_rankings, model_runs["bm25"], bench)
    table = dict(report.per_field, AVG=report.macro)
    (out / "report.tsv").write_text(t("eval", harness.render_report, table, row_header="Field"),
                                    encoding="utf-8")
    return t.record(
        start, pool_rankings=sum(len(r) for r in model_runs.values()),
        tune_evals=tune_evals, entries=len(bench.entries), closed_pairs=closed_pairs,
        sizes={"articles": len(raw), "kept": len(kept),
               "pools": {k: len(p.pool_ids) for k, p in pool_sets.items()},
               "queries": {k: len(p.positives) for k, p in pool_sets.items()},
               "tune_queries": sc["tune_queries"], "models": bench.manifest["models"]})


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------


def cli_commands(seed: int, sc: dict) -> list[tuple[str, list[str]]]:
    """The subcommand sequence of demos/run_cli_pipeline.sh, as (phase, argv).
    Paths are relative to the pass directory, so the output tree does not
    depend on where the checkout lives."""
    pref = "out/pref/prefiltered.jsonl"
    size, fields = sc["pool_size"], sc["fields"]

    def pool_path(field):
        return f"out/pools_{field}/pool_field_{field}_{size}_rep0.json"

    def model_flags(name):
        if name == "bm25":
            return ["--model", "bm25"]
        return ["--model", name, "--embeddings", f"{name}=../inputs/{name}.f32",
                "--metric", sc["dense"][name][1]]

    cmds = [("setup", ["ingest", "--corpus", "../inputs/corpus.jsonl", "--out", "out/ingest"]),
            ("setup", ["prefilter", "--corpus", "../inputs/corpus.jsonl", "--out", "out/pref"])]
    for i, field in enumerate(fields):
        # queries already sampled for an earlier field are excluded (see _field_pools)
        exclude = ["--exclude", "exclude.txt"] if i else []
        cmds.append(("pool", ["pool", "--corpus", pref, "--setup", "field", "--field", field,
                              "--size", str(size), "--queries", str(sc["queries_per_pool"]),
                              "--repetitions", "1", "--seed", str(seed + 11), *exclude,
                              "--out", f"out/pools_{field}"]))
    cmds.append(("tune", ["tune", "--corpus", pref, "--pool", pool_path(fields[0]),
                          "--cutoff", str(sc["tune_cutoff"]), "--out", "out/tune"]))
    run_specs = []
    for field in fields:
        for name in ["bm25", *sc["dense"]]:
            extra = ["--params", "out/tune/bm25_params.json"] if name == "bm25" else []
            cmds.append(("rank", ["run", "--corpus", pref, "--pool", pool_path(field),
                                  *model_flags(name), *extra, "--cutoff", str(sc["cutoff"]),
                                  "--out", f"out/run_{field}_{name}"]))
            run_specs += ["--run", f"{name}=out/run_{field}_{name}/run_{name}.tsv"]
    cmds.append(("eval", ["eval", "--run", f"out/run_{fields[0]}_bm25/run_bm25.tsv",
                          "--pool", pool_path(fields[0]), "--recall-cutoff", "30",
                          "--out", "out/eval_pool"]))
    cmds.append(("benchgen", ["benchgen", "--corpus", pref, "--seed", str(seed + 12),
                              *[a for f in fields for a in ("--pool", pool_path(f))],
                              *run_specs, "--out", "out/bench"]))
    bench = "out/bench/benchmark.jsonl"
    evals = []
    for name in sc["bench_models"]:
        cmds.append(("closed", ["run", "--corpus", pref, "--benchmark", bench,
                                *model_flags(name), "--out", f"out/benchrun_{name}"]))
        cmds.append(("closed", ["eval", "--run", f"out/benchrun_{name}/run_{name}.tsv",
                                "--benchmark", bench, "--out", f"out/bencheval_{name}"]))
        evals += ["--eval", f"{name}=out/bencheval_{name}/eval_run_{name}.json"]
    cmds.append(("closed", ["breakdown", "--corpus", pref, "--benchmark", bench,
                            "--model", "bm25", "--out", "out/breakdown"]))
    cmds.append(("report", ["report", *evals, "--format", "tsv", "--out", "out/report"]))
    return cmds


def _pool_queries(pool_dir: Path) -> list[str]:
    queries = []
    for path in sorted(pool_dir.glob("pool_*_rep*.json")):
        if path.name.endswith(".manifest.json"):
            continue
        queries += [e["query_id"] for e in json.loads(path.read_text(encoding="utf-8"))["queries"]]
    return queries


def _kept(out: Path):
    summary = out / "out/pref/prefilter_summary.json"
    if not summary.exists():
        return None
    return json.loads(summary.read_text(encoding="utf-8"))["surviving_articles"]


def _pool_size(out: Path, field: str, size: int):
    path = out / f"out/pools_{field}/pool_field_{field}_{size}_rep0.json"
    if not path.exists():
        return None
    return len(json.loads(path.read_text(encoding="utf-8"))["pool_ids"])


def cli_pipeline(inputs: Path, out: Path, seed: int, sc: dict, tracer) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(Path(citebench.__file__).resolve().parent.parent))
    spans_dir = out.parent / "spans"
    spans_dir.mkdir(exist_ok=True)
    codes, taken = [], set()
    t, start = PassTimer(), clock()
    for n, (phase, argv) in enumerate(cli_commands(seed, sc)):
        if tracer is None:
            cmd = [sys.executable, "-m", "citebench", *argv]
        else:
            spans_path = spans_dir / f"{out.name}_{n}.json"
            cmd = [sys.executable, str(config.HERE / "cli_child.py"), str(spans_path), *argv]
            idx = tracer.open("cli.process", tag=argv[0])
        proc = t(phase, subprocess.run, cmd, cwd=out, env=env, stdout=subprocess.DEVNULL,
                 stderr=subprocess.PIPE, text=True, timeout=150)
        if tracer is not None:
            if spans_path.exists():
                child = json.loads(spans_path.read_text(encoding="utf-8"))
                tracer.adopt(child["spans"], child["counts"])
            tracer.close(idx)
        codes.append({"argv": argv, "code": proc.returncode, "stderr": proc.stderr[-2000:]})
        if argv[0] == "pool" and proc.returncode == 0:
            taken.update(_pool_queries(out / argv[argv.index("--out") + 1]))
            (out / "exclude.txt").write_text("".join(f"{q}\n" for q in sorted(taken)),
                                             encoding="utf-8")
    entries = 0
    bench_path = out / "out/bench/benchmark.jsonl"
    if bench_path.exists():
        entries = sum(1 for line in bench_path.read_text(encoding="utf-8").splitlines() if line)
    n_fields, n_models = len(sc["fields"]), 1 + len(sc["dense"])
    queries = sc["queries_per_pool"]
    output_bytes = sum(p.stat().st_size for p in (out / "out").rglob("*") if p.is_file())
    return t.record(
        start, pool_rankings=n_fields * n_models * queries,
        tune_evals=len(lexical.default_tuning_grid()) * queries, entries=entries,
        closed_pairs=entries * (65 * len(sc["bench_models"]) + 6 * 15),
        subcommands=codes, output_mb=output_bytes / 1e6,
        sizes={"articles": sc["articles"], "kept": _kept(out),
               "pools": {f: _pool_size(out, f, sc["pool_size"]) for f in sc["fields"]},
               "queries": {f: queries for f in sc["fields"]}})


RUNNERS = {"pool-retrieval": pool_retrieval, "bench-build": bench_build,
           "cli-pipeline": cli_pipeline}


def run_passes(work: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs, sc, runner = work / "inputs", config.SCALES[workload], RUNNERS[workload]
    passes = []
    start = clock()
    while True:
        traced = trace and len(passes) % 2 == 1
        out = work / f"pass{len(passes)}"
        out.mkdir(parents=True, exist_ok=True)
        tracer = tracing.Tracer() if traced else None
        restore = tracing.install(tracer) if traced else None
        try:
            record = runner(inputs, out, seed, sc, tracer)
        finally:
            if restore:
                restore()
        record["traced"] = traced
        record["dir"] = out.name
        if traced:
            layers = tracing.summarize(tracer.spans, tracer.counts)
            layers["cli.output_mb"] = record.get("output_mb", 0.0)
            record["layers"] = layers
        del tracer
        gc.collect()
        passes.append(record)
        n_traced = sum(p["traced"] for p in passes)
        enough = (n_traced >= 2 and len(passes) - n_traced >= 2) if trace else len(passes) >= 2
        # stop when one more pass of the mean length would overrun SECONDS
        elapsed = clock() - start
        if enough and elapsed + elapsed / len(passes) > seconds:
            break
    who = resource.RUSAGE_CHILDREN if workload == "cli-pipeline" else resource.RUSAGE_SELF
    return {"passes": passes, "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}


def main() -> int:
    work, workload, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    seconds, trace = float(sys.argv[4]), sys.argv[5] == "1"
    result = run_passes(work, workload, seed, seconds, trace)
    (work / "timings.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
