"""Command-line pipeline frontend.

A JSON --config file sets flags by dest name with JSON-typed values; flags
win. An unset flag gets its library default, or its entry in _CLI_DEFAULTS.
All randomness flows from an explicit --seed (there is no wall-clock
seeding anywhere), so identical config plus seed reproduces a
byte-identical output tree. Every artifact gets a sibling
``<name>.manifest.json`` embedding the tool version and a hash of the
resolved configuration (output paths excluded from the hash).

`main` rejects each flag, set by flag or by --config, that `_unread` says the
invocation never reads or that is below _LEAST; unset flags keep config_hash.

`main` hands each subcommand an _Inputs, its one input context: it loads
each input at most once, checks each id file in one step, and creates --out
at the first write, so a command that fails leaves no directory behind.

Subcommands: ingest, prefilter, pool, tune, run, eval, benchgen, breakdown,
report. Errors exit nonzero with a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cached_property
from pathlib import Path

from . import __version__
from .benchgen import (Benchmark, BenchmarkParams, build_benchmark,
                       read_benchmark_jsonl, write_benchmark_jsonl)
from .corpus import (PrefilterRules, build_citation_graph, load_corpus,
                     prefilter, write_corpus_jsonl, FIELD_ABBREVS)
from .dense import load_embeddings
from .harness import (DEFAULT_CUTOFF, Bm25Model, DenseModel, RetrievalModel,
                      candidate_type_breakdown, emit_report, rank_benchmark, run_retrieval,
                      score_benchmark_rankings)
from .lexical import Bm25Params, build_index, default_tuning_grid, tune_params
from .metrics import evaluate_run, metric_means, read_run_tsv, write_run_tsv
from .pools import (PoolSet, SamplingPlan, build_dataset_pool, build_field_pool,
                    read_pool_json, repeat_pools, sample_queries, write_pool_json)
from .util import canonical_json, checked, is_str_list, read_json, stable_digest, sum_in_order

_METRIC_DISPLAY = {"map": "MAP", "ndcg": "nDCG"}

# defaults of flags that no library parameter has
_CLI_DEFAULTS = {"queries": 200, "cutoff": DEFAULT_CUTOFF, "model": "bm25"}
# the subcommands that read each common flag that some leave unread (the
# first rule of _unread); --threads is a dense model's row chunks
_READERS = {"threads": ("run", "breakdown"),
            "corpus": ("ingest", "prefilter", "pool", "tune", "run", "benchgen", "breakdown")}
# the least value of each integer flag that has one, checked only when the flag is set
_LEAST = {"cutoff": 1, "threads": 1, "reject_budget": 0}


def _display_metric(key: str) -> str:
    if key in _METRIC_DISPLAY:
        return _METRIC_DISPLAY[key]
    if key.startswith("recall@"):
        return "R@" + key.split("@", 1)[1]
    return key


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Give each unset flag its --config value: keys are flag dests, values
    of the flag's JSON type (bools are not ints, repeatable flags take lists).
    An int for a float flag becomes the float the flag would parse, so a
    config hashes like the same flags; no other value is converted."""
    if args.config is None:
        return
    config = checked(read_json(args.config), args.config, "config file")
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest: a for a in subparsers.choices[args.command]._actions
             if a.option_strings and a.dest not in ("config", "help")}
    for key, value in config.items():
        action = flags.get(key)
        if action is None:
            raise ValueError(f"{args.config}: key {key!r} is not a flag of {args.command}")
        if isinstance(action, argparse._AppendAction):
            takes, ok = "a non-empty list of strings", is_str_list(value) and value != []
        else:
            kind = bool if action.nargs == 0 else action.type or str
            kinds = (int, float) if kind is float else (kind,)
            takes = action.choices or " or ".join(k.__name__ for k in kinds)
            ok = type(value) in kinds and value in (action.choices or [value])
        if not ok:
            raise ValueError(f"{args.config}: key {key!r} takes {takes}, got {value!r}")
        if getattr(args, key) is None:
            setattr(args, key, float(value) if action.type is float else value)


def _config_hash(args: argparse.Namespace) -> str:
    skip = {"config", "out", "func", "command"}
    resolved = {k: v for k, v in sorted(vars(args).items()) if k not in skip and not callable(v)}
    return stable_digest(canonical_json(resolved))


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required for {args.command}")


def _given(args: argparse.Namespace, **params: str) -> dict:
    """{parameter: flag value} for the flags that were set (a flag the subcommand
    lacks never is); the callee's defaults do the rest."""
    return {param: getattr(args, flag) for param, flag in params.items()
            if getattr(args, flag, None) is not None}


def _flag(args: argparse.Namespace, name: str):
    """The flag's value, or its CLI-only default when it was not set."""
    value = getattr(args, name)
    return _CLI_DEFAULTS[name] if value is None else value


def _name_paths(specs: list[str], flag: str, *, unique: bool) -> list[tuple[str, str]]:
    """NAME=PATH specs as (name, path) pairs; with `unique`, a repeated NAME is an error."""
    pairs: list[tuple[str, str]] = []
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep:
            raise ValueError(f"{flag} takes NAME=PATH, got {spec!r}")
        if not path:
            raise ValueError(f"{flag} {spec!r} has an empty PATH")
        if unique and any(name == seen for seen, _ in pairs):
            raise ValueError(f"{flag} names {name!r} more than once")
        pairs.append((name, path))
    return pairs


def _vec_path(args: argparse.Namespace) -> str | None:
    """--model's vector file; None for BM25. A name that is neither is an error."""
    embeddings = dict(_name_paths(args.embeddings or [], "--embeddings", unique=True))
    name = _flag(args, "model")
    if name not in embeddings and name != "bm25":
        raise ValueError(f"unknown model {name!r}: not 'bm25' and no --embeddings entry")
    return embeddings.get(name)


def _unread(args: argparse.Namespace):
    """(who, flags) pairs: the flags this invocation never reads, each with the
    command and flags that decide it. A flag that the subcommand lacks is never set."""
    yield args.command, [flag for flag, readers in _READERS.items() if args.command not in readers]
    if hasattr(args, "model"):  # run and breakdown
        dense = _vec_path(args) is not None
        yield (f"{args.command} --model {_flag(args, 'model')}",
               ("k1", "b", "params", "tune") if dense else ("metric", "threads"))
    if getattr(args, "tune", None):  # tunes BM25 on its one --pool
        yield "run --tune", ("k1", "b", "params", "benchmark")
    if getattr(args, "benchmark", None) is not None:  # its entries' candidates, with no depth cut
        yield f"{args.command} --benchmark", ("cutoff", "pool")
    if getattr(args, "setup", None) == "dataset":
        yield "pool --setup dataset", ("field",)


def _bm25_params(args: argparse.Namespace) -> Bm25Params:
    """k1 and b from their flags, else from the --params file, else Bm25Params' defaults."""
    params = _given(args, k1="k1", b="b")
    if args.params is not None:
        stored = checked(read_json(args.params), args.params, "params file",
                         k1="a number", b="a number")
        params = {"k1": stored["k1"], "b": stored["b"], **params}
    return Bm25Params(**params)


class _Inputs:
    """One CLI process's inputs, each read at most once, when first used. Loaders are
    module globals looked up at call time, so wrappers see every call; nothing is set on `args`."""

    def __init__(self, args: argparse.Namespace):
        self.args = args

    corpus = cached_property(lambda self: load_corpus(
        self.args.corpus, **_given(self.args, reject_budget="reject_budget")))

    graph = cached_property(lambda self: build_citation_graph(self.corpus))
    index = cached_property(lambda self: build_index(self.corpus))

    # --model's vector file; None for BM25 or a command without model flags
    vec_path = cached_property(lambda self: _vec_path(self.args) if hasattr(self.args, "model")
                               else None)

    store = cached_property(lambda self: None if self.vec_path is None
                            else load_embeddings(self.vec_path, self.vec_path + ".json"))

    def _check_ids(self, path: str, ids: list[str]) -> None:
        """Every id that the file at `path` lists must be in the --corpus, when one is
        given (eval takes none), and have a row in a dense --model's vector file."""
        checks = [] if self.args.corpus is None else [(self.corpus, path, "is not in the corpus")]
        if self.store is not None:
            checks.append((self.store, self.vec_path, "has no embedding row"))
        for source, where, fault in checks:
            missing = next((i for i in ids if i not in source.numbering.row), None)
            if missing is not None:
                raise ValueError(f"{where}: id {missing!r} {fault}")

    @cached_property
    def pools(self) -> list[PoolSet]:
        """Each --pool file, its query and pool ids checked."""
        pool_sets = list(map(read_pool_json, self.args.pool))
        for path, pool_set in zip(self.args.pool, pool_sets):
            self._check_ids(path, [*pool_set.positives, *pool_set.pool_ids])
        return pool_sets

    @cached_property
    def pool(self) -> PoolSet:
        """The one --pool file that tune and run take."""
        if len(self.args.pool) > 1:
            raise ValueError(f"{self.args.command} takes one --pool; extra pools given: "
                             f"{', '.join(self.args.pool[1:])}")
        return self.pools[0]

    @cached_property
    def benchmark(self) -> Benchmark:
        """The --benchmark file, its sibling manifest read and its ids checked."""
        path = self.args.benchmark
        sibling = Path(path).parent / (Path(path).stem + ".manifest.json")
        benchmark = read_benchmark_jsonl(path, sibling if sibling.exists() else None)
        self._check_ids(path, [i for e in benchmark.entries
                               for i in (e.query_id, *e.candidate_ids())])
        return benchmark

    def model(self) -> RetrievalModel:
        if self.store is not None:
            return DenseModel(self.store, name=self.args.model,
                              **_given(self.args, metric="metric", chunks="threads"))
        return Bm25Model(self.index, _bm25_params(self.args))

    def tuned_params(self, **options) -> Bm25Params:
        """BM25's best grid point on the one --pool's queries."""
        validation = [(self.corpus.article(q).text, set(self.pool.positives[q]))
                      for q in sorted(self.pool.positives)]
        return tune_params(self.index, validation, default_tuning_grid(),
                           pool=self.pool.members(), **options)

    def out(self, name: str) -> Path:
        """The path of artifact `name` in --out, which the first call creates."""
        Path(self.args.out).mkdir(parents=True, exist_ok=True)
        return Path(self.args.out) / name

    def write_json(self, name: str, obj) -> None:
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        self.out(name).write_text(text, encoding="utf-8")

    def write_manifest(self, artifact: str) -> None:
        self.write_json(f"{artifact}.manifest.json", {
            "tool": "citebench", "version": __version__, "command": self.args.command,
            "config_hash": _config_hash(self.args), "seed": getattr(self.args, "seed", None)})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace, inputs: _Inputs) -> int:
    _require(args, "corpus", "out")
    corpus, graph = inputs.corpus, inputs.graph
    summary = {
        "articles": len(corpus),
        "rejected_lines": corpus.rejected,
        "dangling_citations": graph.dangling,
        "corpus_hash": corpus.content_hash(),
    }
    inputs.write_json("corpus_summary.json", summary)
    inputs.write_manifest("corpus_summary")
    print(f"ingest: {len(corpus)} articles, {corpus.rejected} rejected lines, "
          f"{graph.dangling} dangling citations")
    return 0


def cmd_prefilter(args: argparse.Namespace, inputs: _Inputs) -> int:
    _require(args, "corpus", "out")
    corpus = inputs.corpus
    rules = PrefilterRules(**_given(args, min_abstract_chars="min_abstract_chars",
                                    min_citations="min_citations"))
    result = prefilter(corpus, inputs.graph, rules)
    write_corpus_jsonl(result.corpus, inputs.out("prefiltered.jsonl"))
    summary = {
        "input_articles": len(corpus),
        "surviving_articles": len(result.corpus),
        "removed": result.removed,
    }
    inputs.write_json("prefilter_summary.json", summary)
    inputs.write_manifest("prefiltered")
    print(f"prefilter: kept {len(result.corpus)}/{len(corpus)} articles "
          f"(removed {result.removed})")
    return 0


def cmd_pool(args: argparse.Namespace, inputs: _Inputs) -> int:
    _require(args, "corpus", "out", "setup", "size", "seed")
    if args.setup == "field":
        _require(args, "field")
    corpus, graph = inputs.corpus, inputs.graph
    options = _given(args, query_year="query_year", repetitions="repetitions")
    if args.exclude:
        options["exclusion_ids"] = frozenset(Path(args.exclude).read_text(encoding="utf-8").split())
    plan = SamplingPlan(queries_per_unit=_flag(args, "queries"), rng_seed=args.seed, **options)
    queries = sample_queries(corpus, graph, plan, field=args.field)  # None for --setup dataset
    if args.setup == "field":
        builder = lambda s: build_field_pool(corpus, graph, args.field, queries, args.size, s)
        stem = f"pool_field_{args.field}_{args.size}"
    else:
        builder = lambda s: build_dataset_pool(corpus, graph, queries, args.size, s)
        stem = f"pool_dataset_{args.size}"
    pool_sets = repeat_pools(builder, plan.repetitions, args.seed)
    paths = []
    for i, pool_set in enumerate(pool_sets):
        path = inputs.out(f"{stem}_rep{i}.json")
        write_pool_json(pool_set, path)
        inputs.write_manifest(path.stem)
        paths.append(path.name)
    print(f"pool: wrote {len(paths)} pool file(s) "
          f"({stem}, {len(queries)} queries each): {', '.join(paths)}")
    return 0


def cmd_tune(args: argparse.Namespace, inputs: _Inputs) -> int:
    _require(args, "corpus", "pool", "out")
    best = inputs.tuned_params(cutoff=_flag(args, "cutoff"), **_given(args, objective="objective"))
    inputs.write_json("bm25_params.json", {"k1": best.k1, "b": best.b})
    inputs.write_manifest("bm25_params")
    print(f"tune: best k1={best.k1} b={best.b}")
    return 0


def cmd_run(args: argparse.Namespace, inputs: _Inputs) -> int:
    _require(args, "corpus", "out")
    if (args.pool is None) == (args.benchmark is None):
        raise ValueError("run needs exactly one of --pool or --benchmark")
    cutoff = _flag(args, "cutoff")
    to_rank = inputs.pool if args.pool is not None else inputs.benchmark  # read and checked
    if args.tune:
        tuned = inputs.tuned_params(cutoff=cutoff)
        args.k1, args.b = tuned.k1, tuned.b
    model = inputs.model()
    rankings = (run_retrieval(model, to_rank, inputs.corpus, cutoff).rankings
                if args.pool is not None else rank_benchmark(model, to_rank, inputs.corpus))
    run_path = inputs.out(f"run_{model.name}.tsv")
    write_run_tsv(rankings, run_path)
    inputs.write_manifest(run_path.stem)
    print(f"run: {model.name} ranked {len(rankings)} queries -> {run_path.name}")
    return 0


def cmd_eval(args: argparse.Namespace, inputs: _Inputs) -> int:
    _require(args, "run", "out")
    stem = f"eval_{Path(args.run[0]).stem}"
    if args.benchmark is not None:
        if len(args.run) != 1:
            raise ValueError("benchmark evaluation takes exactly one --run")
        benchmark = inputs.benchmark
        rankings = read_run_tsv(args.run[0])
        report = score_benchmark_rankings(rankings, benchmark,
                                          **_given(args, recall_cutoff="recall_cutoff"))
        rows = {**report.per_field, "AVG": report.macro}  # per_field is in FIELD_ABBREVS order
        inputs.write_json(f"{stem}.json", {"per_field": report.per_field, "avg": report.macro})
        table = {r: {_display_metric(m): v for m, v in vals.items()} for r, vals in rows.items()}
        emit_report(table, inputs.out(f"{stem}.tsv"), row_header="Field")
        inputs.write_manifest(stem)
        macro = {_display_metric(m): round(v, 4) for m, v in report.macro.items()}
        print(f"eval: {stem} AVG {macro}")
        return 0
    if len(args.pool or []) != len(args.run):
        raise ValueError("eval needs one --pool per --run")
    repetitions = []
    runs = list(map(read_run_tsv, args.run))  # the runs are read before the pool files
    for run_path, rankings, pool_path, pool_set in zip(args.run, runs, args.pool, inputs.pools):
        outside = next((q for q in rankings if q not in pool_set.positives), None)
        if outside is not None:
            raise ValueError(f"{run_path}: query {outside!r} is not a query of {pool_path}")
        qrels = {q: set(pos) for q, pos in pool_set.positives.items()}
        report = evaluate_run(rankings, qrels, **_given(args, recall_cutoff="recall_cutoff"))
        repetitions.append(report.aggregates)
    names = list(repetitions[0])
    n = len(repetitions)
    mean = metric_means(repetitions, names)
    std = {m: (sum_in_order((rep[m] - mean[m]) ** 2 for rep in repetitions) / n) ** 0.5
           for m in names}
    inputs.write_json(f"{stem}.json", {"repetitions": repetitions, "mean": mean, "std": std})
    inputs.write_manifest(stem)
    shown = ", ".join(f"{_display_metric(m)}={mean[m] * 100:.1f}" for m in names)
    print(f"eval: {stem} over {n} repetition(s): {shown}")
    return 0


def cmd_benchgen(args: argparse.Namespace, inputs: _Inputs) -> int:
    _require(args, "corpus", "pool", "run", "seed", "out")
    queries_by_field: dict[str, list[str]] = {}
    for pool_path, pool_set in zip(args.pool, inputs.pools):
        if pool_set.field is None:
            raise ValueError(f"{pool_path}: benchgen needs field-level pools")
        if pool_set.field in queries_by_field:
            raise ValueError(f"duplicate field {pool_set.field!r} across pool files")
        queries_by_field[pool_set.field] = pool_set.queries()
    model_runs: dict[str, dict] = {}
    for name, path in _name_paths(args.run, "--run", unique=False):
        rankings = read_run_tsv(path)
        merged = model_runs.setdefault(name, {})
        overlap = merged.keys() & rankings.keys()
        if overlap:
            raise ValueError(f"run {name!r}: duplicate queries across files: {sorted(overlap)[:3]}")
        merged.update(rankings)
    params = BenchmarkParams(**_given(args, positives_per_query="positives",
                                      negatives_per_type="negatives",
                                      model_pool_depth="depth", most_cited_top="top"))
    benchmark = build_benchmark(inputs.corpus, inputs.graph, queries_by_field, model_runs,
                                params, args.seed)
    benchmark.manifest["config_hash"] = _config_hash(args)
    benchmark.manifest["version"] = __version__
    write_benchmark_jsonl(benchmark, inputs.out("benchmark.jsonl"),
                          inputs.out("benchmark.manifest.json"))
    dropped = sum(benchmark.manifest["dropped"].values())
    print(f"benchgen: {len(benchmark.entries)} entries "
          f"({benchmark.manifest['pairs']} query-candidate pairs, {dropped} queries dropped), "
          f"models {benchmark.manifest['models']}")
    return 0


def cmd_breakdown(args: argparse.Namespace, inputs: _Inputs) -> int:
    _require(args, "corpus", "benchmark", "out")
    benchmark = inputs.benchmark
    model = inputs.model()
    table = candidate_type_breakdown(model, benchmark, inputs.corpus)
    stem = f"breakdown_{model.name}"
    inputs.write_json(f"{stem}.json", table)
    display = {t: {_display_metric(m): v for m, v in vals.items()} for t, vals in table.items()}
    emit_report(display, inputs.out(f"{stem}.tsv"), row_header="Type")
    inputs.write_manifest(stem)
    print(f"breakdown: {model.name} over {len(table)} candidate types -> {stem}.tsv")
    return 0


def _read_eval(path: str) -> dict:
    try:
        return checked(read_json(path), path, "eval file", per_field="an object", avg="an object")
    except ValueError as exc:
        raise ValueError(f"{exc}; report takes benchmark eval files") from None


def cmd_report(args: argparse.Namespace, inputs: _Inputs) -> int:
    _require(args, "eval", "out")
    models = {name: _read_eval(path)
              for name, path in _name_paths(args.eval, "--eval", unique=True)}
    table: dict[str, dict[str, float]] = {}
    row_keys = [*FIELD_ABBREVS, "AVG"]
    for row in row_keys:
        cells: dict[str, float] = {}
        for name, data in models.items():
            source = data["avg"] if row == "AVG" else data["per_field"].get(row)
            if source is None:
                continue
            for metric_key, value in source.items():
                cells[f"{name} {_display_metric(metric_key)}"] = value
        if cells:
            table[row] = cells
    path = inputs.out(f"report.{'md' if args.format == 'markdown' else 'tsv'}")
    emit_report(table, path, row_header="Field", **_given(args, fmt="format"))
    inputs.write_manifest("report")
    print(f"report: {len(table)} rows x {len(next(iter(table.values())) if table else [])} columns -> {path.name}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--corpus", help="corpus JSON Lines file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="master RNG seed (never wall-clock)")
    parser.add_argument("--threads", type=int,
                        help="row chunks a dense model scans (results independent)")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="'bm25' or an --embeddings name")
    parser.add_argument("--embeddings", action="append",
                        help="NAME=VECTOR_PATH (manifest at VECTOR_PATH + '.json'); repeatable")
    parser.add_argument("--metric", choices=["cosine", "dot", "euclidean"])
    parser.add_argument("--k1", type=float)
    parser.add_argument("--b", type=float)
    parser.add_argument("--params", help="JSON file with tuned k1/b")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="citebench")
    parser.add_argument("--version", action="version", version=f"citebench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load and validate a corpus")
    _add_common(p)
    p.add_argument("--reject-budget", type=int, dest="reject_budget")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("prefilter", help="apply the corpus prefiltering rules")
    _add_common(p)
    p.add_argument("--reject-budget", type=int, dest="reject_budget")
    p.add_argument("--min-abstract-chars", type=int, dest="min_abstract_chars")
    p.add_argument("--min-citations", type=int, dest="min_citations")
    p.set_defaults(func=cmd_prefilter)

    p = sub.add_parser("pool", help="sample queries and build candidate pools")
    _add_common(p)
    p.add_argument("--setup", choices=["dataset", "field"])
    p.add_argument("--field", help="field abbreviation (field setup)")
    p.add_argument("--size", type=int)
    p.add_argument("--queries", type=int)
    p.add_argument("--query-year", type=int, dest="query_year")
    p.add_argument("--repetitions", type=int)
    p.add_argument("--exclude", help="file of article ids to exclude from query sampling")
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("tune", help="grid-search BM25 parameters on a pool")
    _add_common(p)
    p.add_argument("--pool", action="append")
    p.add_argument("--objective")
    p.add_argument("--cutoff", type=int)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("run", help="rank a pool or benchmark with one model")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--pool", action="append")
    p.add_argument("--benchmark")
    p.add_argument("--cutoff", type=int)
    p.add_argument("--tune", action="store_true", default=None,
                   help="tune BM25 on the pool before running")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score run files against pools or a benchmark")
    _add_common(p)
    p.add_argument("--run", action="append")
    p.add_argument("--pool", action="append")
    p.add_argument("--benchmark")
    p.add_argument("--recall-cutoff", type=int, dest="recall_cutoff")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("benchgen", help="construct a typed hard-negative benchmark")
    _add_common(p)
    p.add_argument("--pool", action="append", help="field-level pool file; repeatable")
    p.add_argument("--run", action="append", help="NAME=RUN_TSV; repeatable, at least 3")
    p.add_argument("--depth", type=int, help="model negative pool depth")
    p.add_argument("--top", type=int, help="most-cited list length")
    p.add_argument("--positives", type=int)
    p.add_argument("--negatives", type=int)
    p.set_defaults(func=cmd_benchgen)

    p = sub.add_parser("breakdown", help="per-candidate-type metrics on a benchmark")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--benchmark")
    p.set_defaults(func=cmd_breakdown)

    p = sub.add_parser("report", help="merge eval artifacts into one table")
    _add_common(p)
    p.add_argument("--eval", action="append", help="NAME=EVAL_JSON; repeatable")
    p.add_argument("--format", choices=["tsv", "markdown"])
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, parser)
        for who, flags in _unread(args):
            for flag in flags:
                if getattr(args, flag, None) is not None:
                    raise ValueError(f"{who} does not read --{flag}")
        for flag, least in _LEAST.items():
            value = getattr(args, flag, None)
            if value is not None and value < least:
                raise ValueError(f"{flag} must be >= {least}, got {value}")
        return args.func(args, _Inputs(args))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error, ensure_ascii=False), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
