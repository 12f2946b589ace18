"""The citebench benchmark: one command per workload run.

    python3 perfbench/run.py --workload pool-retrieval --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed (in a child process, before
timing), runs the workload pass after pass in a second child process for
about --seconds, checks every artifact, prints the metrics with their units,
and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, taken from untraced passes (times are medians over
passes, rates are total work over total time, both scaled to a reference host
speed measured in the run); with --trace 1 they are
the per-layer ones, taken from traced passes, plus the tracing overhead.
Exits 1 when a check fails, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import config

# (name, unit, pass field of the work done, pass field of the time taken)
RATES = (
    ("pool_rank_qps", "1/s", "pool_rankings", "pool_rank_s"),
    ("tune_qps", "1/s", "tune_evals", "tune_s"),
    ("benchgen_entries_per_s", "1/s", "entries", "benchgen_s"),
    ("closed_pairs_per_s", "1/s", "closed_pairs", "closed_s"),
)
END_TO_END_UNITS = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    **{name: unit for name, unit, _, _ in RATES}}
# a run, its set-up and its checks must end well inside 180 s
DEADLINE_S = 170


def end_to_end(timings: dict, scaled: bool = True) -> dict[str, float]:
    """Times are medians over untraced passes, rates total work over total
    time. Scaled, each pass's times are multiplied by PROBE_REF_S over the
    pass's median probe time: they read as at the reference host speed."""
    passes = [p for p in timings["passes"] if not p["traced"]]
    speed = [config.PROBE_REF_S / p["probe_s"] if scaled else 1.0 for p in passes]
    out = {
        "total_s": statistics.median(p["total_s"] * s for p, s in zip(passes, speed)),
        "setup_s": statistics.median(p["setup_s"] * s for p, s in zip(passes, speed)),
        "peak_rss_mb": timings["peak_rss_mb"],
    }
    for name, _unit, work, elapsed in RATES:
        out[name] = (sum(p[work] for p in passes)
                     / sum(p[elapsed] * s for p, s in zip(passes, speed)))
    return out


def per_layer(timings: dict) -> dict[str, float]:
    import tracing

    traced = [p["layers"] for p in timings["passes"] if p["traced"]]
    out = tracing.layer_metrics(traced)
    out["trace.untraced_total_s"] = statistics.median(
        p["total_s"] for p in timings["passes"] if not p["traced"])
    out["trace.traced_total_s"] = statistics.median(
        p["total_s"] for p in timings["passes"] if p["traced"])
    out["trace.overhead_s"] = out["trace.traced_total_s"] - out["trace.untraced_total_s"]
    return out


def inject_fault(kind: str, d: Path) -> None:
    """Corrupt one artifact of the first pass, to show the checks catch it."""
    if kind == "swap":
        path = sorted(d.rglob("run_*.tsv"))[0]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        a, b = lines[0].split("\t"), lines[1].split("\t")
        # swap id and score, keep the rank column
        (a[1], a[3]), (b[1], b[3]) = (b[1], b[3]), (a[1], a[3])
        lines[0], lines[1] = "\t".join(a), "\t".join(b)
        path.write_text("".join(lines), encoding="utf-8")
    elif kind == "cited-negative":
        path = next(d.rglob("benchmark.jsonl"))
        lines = path.read_text(encoding="utf-8").splitlines()
        entry = json.loads(lines[0])
        group = sorted(entry["negatives"])[0]
        entry["negatives"][group][0] = entry["positives"][0]
        lines[0] = json.dumps(entry, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=config.WORKLOADS)
    p.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-fault", choices=("swap", "cited-negative"),
                   help="corrupt an artifact before checking (self-check only)")
    p.add_argument("--write-reference", action="store_true",
                   help="record the default seed's artifact digests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    config.pin_threads()
    if not (config.SRC / "citebench" / "__init__.py").is_file():
        print(f"error: citebench sources not found under {config.SRC}", file=sys.stderr)
        return 2
    import checks

    started = time.monotonic()
    work = config.ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, str(config.HERE / "inputs.py"), args.workload,
                        str(args.seed), str(work / "inputs")], check=True, timeout=DEADLINE_S)
        remaining = DEADLINE_S - (time.monotonic() - started)
        subprocess.run([sys.executable, str(config.HERE / "workloads.py"), str(work),
                        args.workload, str(args.seed), str(args.seconds), str(args.trace)],
                       check=True, timeout=remaining)
        timings = json.loads((work / "timings.json").read_text(encoding="utf-8"))
        passes = timings["passes"]
        if args.inject_fault:
            inject_fault(args.inject_fault, work / passes[0]["dir"])
        if args.write_reference:
            if args.seed != config.DEFAULT_SEED:
                print("error: reference digests are recorded for the default seed only",
                      file=sys.stderr)
                return 2
            recorded = (checks.read_json(checks.REFERENCE_DIGESTS)
                        if checks.REFERENCE_DIGESTS.exists() else {})
            recorded[args.workload] = checks.reference_artifacts(args.workload,
                                                                 work / passes[0]["dir"])
            checks.REFERENCE_DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                                                + "\n", encoding="utf-8")
        report = checks.check_run(work, args.workload, args.seed, passes)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {args.workload} did not complete: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    raw = {}
    if args.trace:
        import tracing

        values = per_layer(timings)
        units = dict(tracing.PER_LAYER)
    else:
        values = end_to_end(timings)
        raw = end_to_end(timings, scaled=False)
        units = END_TO_END_UNITS
    grid = ("default_tuning_grid(), 165 points" if args.workload == "cli-pipeline"
            else {"b": config.TUNE_B, "k1": config.TUNE_K1})
    scale = dict(config.SCALES[args.workload], tune_grid=grid)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced)")
    print(f"  scale {json.dumps(scale)}")
    print(f"  sizes {json.dumps(passes[0]['sizes'])}")
    probes = [p["probe_s"] for p in passes if not p["traced"]]
    print(f"  host speed: probe median {statistics.median(probes) * 1e3:.4f} ms, "
          f"reference {config.PROBE_REF_S * 1e3:.4f} ms")
    for name, unit in units.items():
        wall = f"   (unscaled {raw[name]:.6g})" if name in raw and raw[name] != values[name] else ""
        print(f"  {name:36s} {values[name]:14.6g} {unit}{wall}")
    fail_frac = report.failed / report.attempted if report.attempted else 1.0
    print(f"  {'fail_frac':36s} {fail_frac:14.6g} ratio "
          f"({report.failed} of {report.attempted} operations)")
    for problem in report.problems:
        print(f"  check failed: {problem}")
    result = {
        "correct": report.failed == 0 and report.attempted > 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
