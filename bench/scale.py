"""Scale ladder: wall time, CPU time and peak RSS of each setup stage, and of
a BM25 pool run, on generated corpora far larger than the benchmark's.

    python3 bench/scale.py BENCH_scale_setup.json --label change
    python3 bench/scale.py BENCH_scale_setup.json --label parent --src OTHER_CHECKOUT/src

Each rung (100k and 300k generated articles by default) is
`synthetic.generate_corpus(n, seed=1)` written to JSONL and cached under
bench/.cache/. Generation runs in a child process of its own, outside any
timing. Each rung is then measured in a fresh child, which caps its own
RLIMIT_DATA at 7 GB and runs load, graph (of the raw corpus), prefilter,
index (BM25, of the kept corpus), save_index and bm25_pool_run
(lexical.search_pool of 20 kept articles, drawn with the seed, against the
whole kept corpus as one pool, keeping each query's top 500). After each
stage the child records the stage's wall and CPU milliseconds and its peak
RSS so far (RUSAGE_SELF). A rung that exceeds the cap ends in MemoryError
and is recorded as not fitting, with the stages it finished.

The results go under the given label into the output file, a BENCH point:
`end_to_end` holds each rung's totals over its stages (wall, CPU, final
peak) and `stages` its stages. Other labels already in the file are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA_CAP = 7 << 30
SEED = 1
# the pool run's queries and the depth of each ranking
POOL_QUERIES = 20
POOL_K = 500


def _generate(src: str, n: int, path: Path) -> None:
    sys.path.insert(0, src)
    from citebench import corpus, synthetic

    tmp = path.with_suffix(".tmp")
    corpus.write_corpus_jsonl(synthetic.generate_corpus(n, seed=SEED), tmp)
    tmp.replace(path)


def _measure(src: str, path: Path) -> dict:
    """Run the setup stages on the corpus at `path`; the record of each one."""
    _, hard = resource.getrlimit(resource.RLIMIT_DATA)
    cap = DATA_CAP if hard == resource.RLIM_INFINITY else min(DATA_CAP, hard)
    resource.setrlimit(resource.RLIMIT_DATA, (cap, hard))
    sys.path.insert(0, src)
    from citebench import corpus, lexical

    stages, sizes = {}, {}

    def stage(name, fn, *args):
        usage, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        result = fn(*args)
        wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)
        stages[name] = {
            "wall_ms": round(wall * 1e3, 1),
            "cpu_ms": round((after.ru_utime + after.ru_stime
                             - usage.ru_utime - usage.ru_stime) * 1e3, 1),
            "peak_rss_mb": round(after.ru_maxrss / 1024, 1),
        }
        return result

    try:
        raw = stage("load", corpus.load_corpus, path)
        graph = stage("graph", corpus.build_citation_graph, raw)
        kept = stage("prefilter", corpus.prefilter, raw, graph).corpus
        del raw, graph
        index = stage("index", lexical.build_index, kept)
        sizes = {"kept": len(kept), "terms": len(index.vocab), "postings": int(index.rows.size)}
        with tempfile.TemporaryDirectory() as tmp:
            stage("save_index", lexical.save_index, index, Path(tmp) / "index.bin")
        ids = kept.ids()
        queries = [(q, kept.article(q).text)
                   for q in random.Random(SEED).sample(ids, min(POOL_QUERIES, len(ids)))]
        stage("bm25_pool_run", lexical.search_pool, index, queries, ids, lexical.Bm25Params(),
              POOL_K)
    except MemoryError:
        return {"fit": False, "stages": stages, **sizes}
    return {"fit": True, "stages": stages, **sizes}


def _child(args: list[str]) -> dict:
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.splitlines()[-1]) if done.stdout else {}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", type=Path, help="BENCH point to write or extend")
    p.add_argument("--label", default="change", help="key of this run in the point")
    p.add_argument("--rungs", type=int, nargs="+", default=[100_000, 300_000])
    p.add_argument("--src", default=str(HERE.parent / "src"),
                   help="directory that holds the citebench package to measure")
    p.add_argument("--cache", type=Path, default=HERE / ".cache",
                   help="directory of the generated corpora")
    p.add_argument("--child", choices=("generate", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--corpus", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    src = str(Path(args.src).resolve())
    if args.child == "generate":
        _generate(src, args.rungs[0], args.corpus)
        return 0
    if args.child == "measure":
        print(json.dumps(_measure(src, args.corpus)))
        return 0

    args.cache.mkdir(parents=True, exist_ok=True)
    runs, stages = {}, {}
    for n in args.rungs:
        path = args.cache / f"corpus_{n}_seed{SEED}.jsonl"
        if not path.exists():
            _child(["--child", "generate", "--rungs", str(n), "--src", src, "--corpus", str(path),
                    str(args.out)])
        rung = _child(["--child", "measure", "--src", src, "--corpus", str(path), str(args.out)])
        stages[str(n)] = rung.pop("stages")
        done = stages[str(n)].values()
        runs[str(n)] = {
            **rung,
            "wall_ms": round(sum(s["wall_ms"] for s in done), 1),
            "cpu_ms": round(sum(s["cpu_ms"] for s in done), 1),
            "peak_rss_mb": max((s["peak_rss_mb"] for s in done), default=None),
        }
        print(f"{args.label} {n}: {json.dumps(runs[str(n)])}", file=sys.stderr)

    point = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {
        "name": "scale_setup",
        "change": "",
        "parent": "",
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, {platform.machine()}",
        "command": "python3 bench/scale.py OUT --label LABEL [--src SRC]",
        "input": f"synthetic.generate_corpus(n, seed={SEED}) as JSONL, one child per rung, "
                 f"RLIMIT_DATA {DATA_CAP >> 30} GB",
        "end_to_end": {},
        "stages": {},
    })
    point["end_to_end"][args.label] = runs
    point["stages"][args.label] = stages
    args.out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
