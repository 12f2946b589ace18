"""Output checks that do not use the code under test.

The checker reads the generated inputs and each pass's artifacts with its
own parsers and re-derives what it needs: the prefilter, the citation sets,
a pure-Python BM25 that follows the paper's formula in the library's
operation order (so its scores are bit-identical), and float64 numpy dense
scores. Every artifact is checked for structure; the first pass is also
re-scored on sampled queries; later passes must be byte-identical to the
first; on the default seed the artifacts must match reference_digests.json.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

import config

_WORD = re.compile(r"\w+")
DEFAULT_K1, DEFAULT_B = 0.9, 0.4
REFERENCE_DIGESTS = config.HERE / "reference_digests.json"
# per (pool, model) run, this many queries are re-scored from scratch
RESCORED_PER_RUN = 2


class Report:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.fail(f"{what}: {problems[0]}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


# ---------------------------------------------------------------------------
# independent view of the inputs
# ---------------------------------------------------------------------------


def tokens(text: str) -> list[str]:
    return _WORD.findall(text.lower())


class Reference:
    def __init__(self, inputs: Path):
        self.inputs = inputs
        raw = {}
        with open(inputs / "corpus.jsonl", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    obj = json.loads(line)
                    raw[obj["id"]] = obj
        self.raw = raw
        cites = {i: (set(a["out_citations"]) & raw.keys()) - {i} for i, a in raw.items()}
        indegree = Counter(t for targets in cites.values() for t in targets)
        self.kept = [
            i for i, a in raw.items()
            if a["year"] and a["title"].strip() and len(a["abstract"]) >= 30 and indegree[i] >= 3
        ]
        kept_set = set(self.kept)
        # out-citations inside the kept corpus: the positives of a query
        self.cited = {i: cites[i] & kept_set for i in self.kept}
        self.tf = {i: Counter(tokens(self.text(i))) for i in self.kept}
        self.length = {i: sum(c.values()) for i, c in self.tf.items()}
        self.df = Counter(t for c in self.tf.values() for t in c)
        self.N = len(self.kept)
        self.avgdl = sum(self.length.values()) / self.N
        self._stores = {}

    def text(self, article_id: str) -> str:
        a = self.raw[article_id]
        return f"{a['title']} {a['abstract']}"

    def idf(self, term: str) -> float:
        n = self.df.get(term, 0)
        return math.log((self.N - n + 0.5) / (n + 0.5) + 1.0)

    def matches(self, qid: str, candidates) -> list[tuple[str, list[tuple[int, float, int]]]]:
        """Per candidate with at least one query term: (tf, idf, length) per
        query token, in query-token order."""
        qtokens = tokens(self.text(qid))
        idf = {t: self.idf(t) for t in set(qtokens)}
        out = []
        for doc in candidates:
            tf = self.tf[doc]
            hits = [(tf[t], idf[t], self.length[doc]) for t in qtokens if t in tf]
            if hits:
                out.append((doc, hits))
        return out

    def bm25_scores(self, matched, k1: float, b: float) -> list[tuple[str, float]]:
        out = []
        for doc, hits in matched:
            total = 0.0
            for tf, idf, dl in hits:
                norm = k1 * (1.0 - b + b * dl / self.avgdl)
                total += idf * (tf * (k1 + 1.0)) / (tf + norm)
            out.append((doc, total))
        return out

    def bm25(self, qid: str, candidates, k: int, k1: float = DEFAULT_K1,
             b: float = DEFAULT_B) -> list[tuple[str, float]]:
        scored = self.bm25_scores(self.matches(qid, candidates), k1, b)
        return sorted(scored, key=lambda item: (-item[1], item[0]))[:k]

    def dense_scores(self, name: str, metric: str, qid: str, candidates) -> dict[str, float]:
        if name not in self._stores:
            manifest = json.loads((self.inputs / f"{name}.f32.json").read_text(encoding="utf-8"))
            vectors = np.fromfile(self.inputs / f"{name}.f32", dtype="<f4")
            vectors = vectors.reshape(manifest["count"], manifest["dim"]).astype(np.float64)
            self._stores[name] = ({i: r for r, i in enumerate(manifest["ids"])}, vectors)
        row, vectors = self._stores[name]
        ids = sorted(candidates)
        v = vectors[[row[i] for i in ids]]
        q = vectors[row[qid]]
        if metric == "euclidean":
            scores = np.sqrt(((v - q) ** 2).sum(axis=1))
        else:
            dots = (v * q).sum(axis=1)
            if metric == "cosine":
                denom = np.sqrt((v * v).sum(axis=1)) * math.sqrt(float((q * q).sum()))
                dots = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
            scores = dots
        return dict(zip(ids, scores.tolist()))

    def dense(self, name: str, metric: str, qid: str, candidates, k: int) -> list[tuple[str, float]]:
        sign = 1.0 if metric == "euclidean" else -1.0
        scores = self.dense_scores(name, metric, qid, candidates)
        return sorted(scores.items(), key=lambda item: (sign * item[1], item[0]))[:k]


def average_precision(ranked_ids, relevant) -> float:
    found, total = 0, 0.0
    for rank, doc in enumerate(ranked_ids, start=1):
        if doc in relevant:
            found += 1
            total += found / rank
    return total / len(relevant)


def recall_at(ranked_ids, relevant, k: int) -> float:
    return len(set(ranked_ids[:k]) & set(relevant)) / len(relevant)


def ndcg(ranked_ids, relevant) -> float:
    dcg = sum(1.0 / math.log2(r + 1) for r, d in enumerate(ranked_ids, start=1) if d in relevant)
    ideal = min(len(relevant), len(ranked_ids))
    if ideal == 0:
        return 0.0
    return dcg / sum(1.0 / math.log2(r + 1) for r in range(1, ideal + 1))


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# artifact readers (independent of citebench's own)
# ---------------------------------------------------------------------------


def read_run(path: Path) -> dict[str, list[tuple[str, float, int]]]:
    rankings: dict[str, list[tuple[str, float, int]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            q, doc, rank, score = line.rstrip("\n").split("\t")
            rankings.setdefault(q, []).append((doc, float(score), int(rank)))
    return rankings


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_benchmark(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def pool_positives(pool: dict) -> dict[str, list[str]]:
    return {e["query_id"]: e["positives"] for e in pool["queries"]}


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def ranking_problems(qid: str, ranked, candidates, cutoff: int, metric: str) -> list[str]:
    """(score desc, id asc) order (asc for distances), ranks 1..n, no
    duplicates, ids inside the candidates, length <= cutoff, no self-match."""
    problems = []
    ids = [doc for doc, _, _ in ranked]
    if [r for _, _, r in ranked] != list(range(1, len(ranked) + 1)):
        problems.append("ranks are not 1..n")
    if len(set(ids)) != len(ids):
        problems.append("duplicate ids")
    if len(ranked) > cutoff:
        problems.append(f"{len(ranked)} results, cutoff {cutoff}")
    if qid in ids:
        problems.append("query ranks itself")
    outside = [doc for doc in ids if doc not in candidates]
    if outside:
        problems.append(f"id {outside[0]} is outside the candidate pool")
    sign = 1.0 if metric == "euclidean" else -1.0
    keys = [(sign * score, doc) for doc, score, _ in ranked]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        problems.append("not in (score, id) order")
    return problems


def entry_problems(entry: dict, ref: Reference) -> list[str]:
    """5 cited positives, 6 groups of 10, pairwise disjoint, none cited."""
    q = entry["query_id"]
    cited = set(ref.raw[q]["out_citations"]) if q in ref.raw else set()
    problems = []
    positives = entry["positives"]
    if len(positives) != 5 or len(set(positives)) != 5:
        problems.append(f"{len(positives)} positives")
    if not set(positives) <= ref.cited.get(q, set()):
        problems.append("a positive is not cited by the query")
    groups = entry["negatives"]
    if len(groups) != 6 or any(len(ids) != 10 for ids in groups.values()):
        problems.append("negatives are not 6 groups of 10")
    negatives = [d for ids in groups.values() for d in ids]
    if len(set(negatives)) != len(negatives):
        problems.append("negative groups overlap")
    if set(negatives) & cited:
        problems.append("a negative is cited by the query")
    if q in negatives or q in positives:
        problems.append("the query is its own candidate")
    if set(negatives) & set(positives):
        problems.append("a negative is also a positive")
    return problems


def rescore_problems(ref: Reference, model: str, metric: str, qid: str, ranked, candidates,
                     k: int, params=(DEFAULT_K1, DEFAULT_B)) -> list[str]:
    """Compare one ranking against the reference scorer: exact for BM25,
    within 1e-9 for dense, allowing near-ties to swap at the cutoff."""
    got = [(doc, score) for doc, score, _ in ranked]
    if model == "bm25":
        want = ref.bm25(qid, candidates, k, *params)
        return [] if got == want else ["BM25 ranking differs from the reference"]
    want = ref.dense_scores(model, metric, qid, candidates)
    if len(got) != min(k, len(want)):
        return [f"dense ranking has {len(got)} results, expected {min(k, len(want))}"]
    for doc, score in got:
        if doc not in want or not close(score, want[doc]):
            return [f"dense score of {doc} differs from the reference"]
    if got:
        sign = 1.0 if metric == "euclidean" else -1.0
        edge = sign * want[got[-1][0]]
        kept = {doc for doc, _ in got}
        better = [d for d, s in want.items() if d not in kept and sign * s < edge
                  and not close(s, want[got[-1][0]])]
        if better:
            return [f"dense ranking misses {better[0]}"]
    return []


def check_run_file(ref, path: Path, pool_ids, positives, model, metric, cutoff, rescore,
                   rep: Report, params=(DEFAULT_K1, DEFAULT_B), exclude_query=True):
    rankings = read_run(path)
    missing = set(positives) - rankings.keys()
    if missing:
        rep.fail(f"{path.name}: no ranking for query {sorted(missing)[0]}")
    sampled = set(sorted(rankings)[:: max(1, len(rankings) // RESCORED_PER_RUN)][:RESCORED_PER_RUN])
    for q, ranked in sorted(rankings.items()):
        candidates = pool_ids(q)
        candidates = candidates - {q} if exclude_query else candidates
        problems = [] if q in positives else ["query is not in the pool"]
        problems += ranking_problems(q, ranked, candidates, cutoff, metric)
        if rescore and q in sampled and not problems:
            problems += rescore_problems(ref, model, metric, q, ranked, candidates,
                                         min(cutoff, len(candidates)), params)
        rep.op(problems, f"{path.name} query {q}")
    return rankings


def check_pool(ref: Reference, pool: dict, name: str, rep: Report) -> None:
    kept = set(ref.kept)
    problems = []
    if not set(pool["pool_ids"]) <= kept:
        problems.append("pool holds an article the prefilter removes")
    for q, pos in pool_positives(pool).items():
        if set(pos) != ref.cited[q] or not set(pos) <= set(pool["pool_ids"]):
            problems.append(f"positives of {q} are not its cited set inside the pool")
            break
    rep.op(problems, f"pool {name}")


def check_tune(ref: Reference, found: dict, queries, positives, pool_ids, grid, cutoff,
               rep: Report, what: str) -> None:
    """Replay the grid search with the reference scorer (ties toward smaller b, k1)."""
    matched = {q: ref.matches(q, pool_ids) for q in queries}
    best = None
    for k1, b in grid:
        total = 0.0
        for q in queries:
            ranked = sorted(ref.bm25_scores(matched[q], k1, b), key=lambda i: (-i[1], i[0]))
            total += average_precision([d for d, _ in ranked[:cutoff]], set(positives[q]))
        key = (-(total / len(queries)), b, k1)
        best = key if best is None or key < best else best
    ok = (found["k1"], found["b"]) == (best[2], best[1])
    rep.op([] if ok else [f"chose k1={found['k1']} b={found['b']}, reference "
                          f"k1={best[2]} b={best[1]}"], what)


def check_entries(ref: Reference, entries: list[dict], rep: Report, what: str) -> None:
    if not entries:
        rep.op(["no benchmark entries"], what)
    queries = [e["query_id"] for e in entries]
    if len(set(queries)) != len(queries):
        rep.fail(f"{what}: a query has more than one entry")
    for entry in entries:
        rep.op(entry_problems(entry, ref), f"{what} entry {entry['query_id']}")


def closed_ranking(ref, model, metric, qid, candidates, params=(DEFAULT_K1, DEFAULT_B)):
    if model == "bm25":
        return [d for d, _ in ref.bm25(qid, candidates, len(candidates), *params)]
    return [d for d, _ in ref.dense(model, metric, qid, candidates, len(candidates))]


def check_breakdown(ref, entries, table: dict, model: str, metric: str, rep: Report,
                    params=(DEFAULT_K1, DEFAULT_B)) -> None:
    """Re-rank each type's subset pool (positives plus that type's negatives)."""
    sums: dict[str, list[float]] = {}
    for entry in entries:
        q, positives = entry["query_id"], set(entry["positives"])
        for t, ids in entry["negatives"].items():
            ranked = closed_ranking(ref, model, metric, q, positives | set(ids), params)
            acc = sums.setdefault(t, [0.0, 0.0])
            acc[0] += average_precision(ranked, positives)
            acc[1] += recall_at(ranked, positives, 5)
    ok = bool(entries) and set(table) == set(sums) and all(
        close(table[t]["map"], s[0] / len(entries))
        and close(table[t]["recall@5"], s[1] / len(entries)) for t, s in sums.items())
    rep.op([] if ok else ["breakdown differs from the reference"], f"breakdown {model}")


def check_closed_eval(ref, entries, results: dict, metrics_of: dict, rep: Report,
                      params=(DEFAULT_K1, DEFAULT_B)) -> None:
    """Re-rank every entry's closed pool and compare MAP and R@5 per query."""
    for model, res in results.items():
        metric = metrics_of[model]
        for entry in entries:
            q, positives = entry["query_id"], set(entry["positives"])
            cands = positives | {d for ids in entry["negatives"].values() for d in ids}
            ranked = closed_ranking(ref, model, metric, q, cands, params)
            got = res["per_query"].get(q, {})
            ok = (close(got.get("map", -1.0), average_precision(ranked, positives))
                  and close(got.get("recall@5", -1.0), recall_at(ranked, positives, 5)))
            rep.op([] if ok else ["MAP or R@5 differs from the reference"],
                   f"closed evaluation {model} {q}")
        if "breakdown" in res:
            check_breakdown(ref, entries, res["breakdown"], model, metric, rep, params)


def check_eval(rankings_by_run: dict, positives_by_run: dict, found: dict, rep: Report) -> None:
    """Recompute MAP, nDCG and R@30 of every pool run."""
    for key, rankings in rankings_by_run.items():
        positives = positives_by_run[key]
        values = {"map": 0.0, "ndcg": 0.0, "recall@30": 0.0}
        for q, pos in positives.items():
            ids = [d for d, _, _ in rankings.get(q, [])]
            values["map"] += average_precision(ids, set(pos))
            values["ndcg"] += ndcg(ids, set(pos))
            values["recall@30"] += recall_at(ids, pos, 30)
        got = found.get(key, {})
        ok = all(close(got.get(m, -1.0), v / len(positives)) for m, v in values.items())
        rep.op([] if ok else ["aggregates differ from the reference"], f"evaluate_run {key}")


# ---------------------------------------------------------------------------
# per-workload checks of one pass
# ---------------------------------------------------------------------------


def _members(pool: dict):
    ids = frozenset(pool["pool_ids"])
    return lambda q: ids


def _metrics_of(sc: dict) -> dict[str, str]:
    return {"bm25": "bm25", **{name: metric for name, (_dim, metric) in sc["dense"].items()}}


def _check_sub_grid_tune(ref: Reference, d: Path, pools: dict, sc: dict, rep: Report) -> None:
    tune = read_json(d / "tune.json")
    pool = pools[tune["field"]]
    grid = [(k1, b) for b in config.TUNE_B for k1 in config.TUNE_K1]
    check_tune(ref, tune, tune["queries"], pool_positives(pool), pool["pool_ids"], grid,
               sc["cutoff"], rep, "tune")


def check_pool_retrieval(ref: Reference, d: Path, sc: dict, rescore: bool, rep: Report) -> None:
    metrics_of = _metrics_of(sc)
    keys = [*sc["fields"], "dataset"]
    pools = {k: read_json(d / f"pool_{k}.json") for k in keys}
    rankings_by_run, positives_by_run = {}, {}
    for k in keys:
        check_pool(ref, pools[k], k, rep)
        positives = pool_positives(pools[k])
        for model, metric in metrics_of.items():
            rankings_by_run[f"{k}/{model}"] = check_run_file(
                ref, d / f"run_{k}_{model}.tsv", _members(pools[k]), positives, model, metric,
                sc["cutoff"], rescore, rep)
            positives_by_run[f"{k}/{model}"] = positives
    check_eval(rankings_by_run, positives_by_run, read_json(d / "eval.json"), rep)
    if rescore:
        _check_sub_grid_tune(ref, d, pools, sc, rep)
    entries = read_benchmark(d / "benchmark.jsonl")
    check_entries(ref, entries, rep, "benchmark")
    if rescore:
        check_closed_eval(ref, entries, read_json(d / "closed_eval.json"), metrics_of, rep)


def check_bench_build(ref: Reference, d: Path, sc: dict, rescore: bool, rep: Report) -> None:
    metrics_of = _metrics_of(sc)
    tune = read_json(d / "tune.json")
    params = (tune["k1"], tune["b"])
    pools = {f: read_json(d / f"pool_{f}.json") for f in sc["fields"]}
    pool_of, positives = {}, {}
    for f, pool in pools.items():
        check_pool(ref, pool, f, rep)
        ids = frozenset(pool["pool_ids"])
        for q, pos in pool_positives(pool).items():
            pool_of[q], positives[q] = ids, pos
    for model, metric in metrics_of.items():
        check_run_file(ref, d / f"run_{model}.tsv", lambda q: pool_of.get(q, frozenset()),
                       positives, model, metric, sc["cutoff"], rescore, rep, params)
    if rescore:
        _check_sub_grid_tune(ref, d, pools, sc, rep)
    entries = read_benchmark(d / "benchmark.jsonl")
    check_entries(ref, entries, rep, "benchmark")
    if rescore:
        check_closed_eval(ref, entries, read_json(d / "closed_eval.json"), metrics_of, rep,
                          params)


def check_cli(ref: Reference, d: Path, sc: dict, rescore: bool, rep: Report,
              subcommands: list[dict]) -> None:
    for sub in subcommands:
        rep.op([] if sub["code"] == 0 else [f"exit {sub['code']}: {sub['stderr'].strip()[-300:]}"],
               f"subcommand {' '.join(sub['argv'][:1])}")
    out = d / "out"
    pref = out / "pref/prefiltered.jsonl"
    kept = [json.loads(line)["id"] for line in pref.read_text(encoding="utf-8").splitlines()] \
        if pref.exists() else []
    rep.op([] if kept == ref.kept else ["prefiltered ids differ from the reference prefilter"],
           "prefilter")
    size, fields = sc["pool_size"], sc["fields"]
    params_path = out / "tune/bm25_params.json"
    tuned = read_json(params_path) if params_path.exists() else {"k1": -1.0, "b": -1.0}
    metrics_of = _metrics_of(sc)
    pools = {}
    for field in fields:
        path = out / f"pools_{field}/pool_field_{field}_{size}_rep0.json"
        if not path.exists():
            rep.op(["missing"], f"pool {field}")
            continue
        pools[field] = read_json(path)
        check_pool(ref, pools[field], field, rep)
        for model, metric in metrics_of.items():
            path = out / f"run_{field}_{model}/run_{model}.tsv"
            params = (tuned["k1"], tuned["b"]) if model == "bm25" else (DEFAULT_K1, DEFAULT_B)
            if path.exists():
                check_run_file(ref, path, _members(pools[field]), pool_positives(pools[field]),
                               model, metric, sc["cutoff"], rescore, rep, params)
            else:
                rep.op(["missing"], str(path.relative_to(d)))
    if rescore and fields[0] in pools:
        from_grid = [(round(0.1 + 0.2 * i, 1), round(0.1 * j, 1))
                     for j in range(11) for i in range(15)]
        pool = pools[fields[0]]
        positives = pool_positives(pool)
        check_tune(ref, tuned, sorted(positives), positives, pool["pool_ids"], from_grid,
                   sc["tune_cutoff"], rep, "tune")
    bench_path = out / "bench/benchmark.jsonl"
    entries = read_benchmark(bench_path) if bench_path.exists() else []
    check_entries(ref, entries, rep, "benchmark")
    candidates = {e["query_id"]: frozenset(e["positives"]) | {x for ids in e["negatives"].values()
                                                              for x in ids} for e in entries}
    positives = {e["query_id"]: e["positives"] for e in entries}
    for model in sc["bench_models"]:
        path = out / f"benchrun_{model}/run_{model}.tsv"
        if path.exists():
            check_run_file(ref, path, lambda q: candidates.get(q, frozenset()), positives, model,
                           metrics_of[model], 65, rescore, rep, exclude_query=False)
        else:
            rep.op(["missing"], str(path.relative_to(d)))
    breakdown = out / "breakdown/breakdown_bm25.json"
    if rescore:
        table = read_json(breakdown) if breakdown.exists() else {}
        check_breakdown(ref, entries, table, "bm25", "bm25", rep)


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def file_digests(d: Path) -> dict[str, str]:
    return {p.relative_to(d).as_posix(): sha256(p) for p in sorted(d.rglob("*")) if p.is_file()}


def tree_digest(d: Path) -> str:
    h = hashlib.sha256()
    for rel, digest in file_digests(d).items():
        h.update(f"{rel}\0{digest}\n".encode())
    return h.hexdigest()


def reference_artifacts(workload: str, d: Path) -> dict[str, str]:
    """The artifacts whose bytes are pinned for the default seed."""
    if workload == "cli-pipeline":
        return {"out/": tree_digest(d / "out")}
    return {rel: digest for rel, digest in file_digests(d).items()
            if rel.startswith("run_") or rel == "benchmark.jsonl"}


CHECKERS = {"pool-retrieval": check_pool_retrieval, "bench-build": check_bench_build}


def check_run(work: Path, workload: str, seed: int, passes: list[dict]) -> Report:
    rep = Report()
    ref = Reference(work / "inputs")
    sc = config.SCALES[workload]
    first = work / passes[0]["dir"]
    first_digests = file_digests(first)
    for i, p in enumerate(passes):
        d = work / p["dir"]
        differing = []
        if i > 0:
            digests = file_digests(d)
            differing = [rel for rel in sorted(set(digests) | set(first_digests))
                         if digests.get(rel) != first_digests.get(rel)]
            for rel in differing:
                rep.fail(f"{p['dir']}/{rel} differs from {passes[0]['dir']}/{rel}")
        if i > 0 and not differing and workload != "cli-pipeline":
            # byte-identical to the first pass, so every check gives the same verdict
            rep.attempted += first_ops.attempted
            rep.failed += first_ops.failed
            continue
        before = (rep.attempted, rep.failed)
        if workload == "cli-pipeline":
            check_cli(ref, d, sc, i == 0, rep, p["subcommands"])
        else:
            CHECKERS[workload](ref, d, sc, i == 0, rep)
        if i == 0:
            first_ops = Report()
            first_ops.attempted, first_ops.failed = rep.attempted - before[0], rep.failed - before[1]
    if seed == config.DEFAULT_SEED:
        recorded = read_json(REFERENCE_DIGESTS).get(workload, {}) if REFERENCE_DIGESTS.exists() else {}
        found = reference_artifacts(workload, first)
        if not recorded:
            rep.fail(f"no reference digests recorded for {workload}")
        for rel in sorted(set(recorded) | set(found)):
            if recorded and recorded.get(rel) != found.get(rel):
                rep.fail(f"{rel} differs from its reference digest")
    return rep
