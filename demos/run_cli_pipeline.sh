#!/usr/bin/env bash
# End-to-end CLI pipeline on a synthetic corpus.
# Usage: bash demos/run_cli_pipeline.sh [workdir]
set -euo pipefail

# Run from a checkout without an install: put the repo's src/ on an absolute
# PYTHONPATH (the script cd's into its work directory) and call the package
# with `python3 -m citebench`.
SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"
export PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}"

WORK="${1:-$(mktemp -d /tmp/citebench_pipeline.XXXX)}"
mkdir -p "$WORK"
echo "working in $WORK"
cd "$WORK"

# inputs: a synthetic corpus and two embedding files (stand-ins for real encoders)
python3 - <<'EOF'
from citebench import synthetic
from citebench.corpus import build_citation_graph, prefilter, write_corpus_jsonl
from citebench.dense import save_embeddings

corpus = synthetic.generate_corpus(1000, seed=77)
write_corpus_jsonl(corpus, "corpus.jsonl")
kept = prefilter(corpus, build_citation_graph(corpus)).corpus
for label in ("dense_a", "dense_b"):
    store = synthetic.embed_corpus(kept, dim=16, label=label)
    save_embeddings(store.ids, store.vectors, f"{label}.f32", f"{label}.f32.json")
print("inputs ready")
EOF

python3 -m citebench ingest    --corpus corpus.jsonl --out out/ingest
python3 -m citebench prefilter --corpus corpus.jsonl --out out/pref
PREF=out/pref/prefiltered.jsonl

for FIELD in Med CS; do
  python3 -m citebench pool --corpus "$PREF" --setup field --field "$FIELD" \
    --size 250 --queries 4 --repetitions 1 --seed 97 --out "out/pools_$FIELD"
done

# tune takes its cutoff from a --config file: keys are flag dest names and
# values JSON-typed, so this equals passing --cutoff 100
printf '{"cutoff": 100}\n' > tune_config.json
python3 -m citebench tune --corpus "$PREF" --pool out/pools_Med/pool_field_Med_250_rep0.json \
  --config tune_config.json --out out/tune

RUNS=()
for FIELD in Med CS; do
  POOL="out/pools_$FIELD/pool_field_${FIELD}_250_rep0.json"
  python3 -m citebench run --corpus "$PREF" --pool "$POOL" --model bm25 \
    --params out/tune/bm25_params.json --cutoff 200 --out "out/run_${FIELD}_bm25"
  RUNS+=("--run" "bm25=out/run_${FIELD}_bm25/run_bm25.tsv")
  for MODEL in dense_a dense_b; do
    python3 -m citebench run --corpus "$PREF" --pool "$POOL" --model "$MODEL" \
      --embeddings "$MODEL=$MODEL.f32" --cutoff 200 --out "out/run_${FIELD}_${MODEL}"
    RUNS+=("--run" "$MODEL=out/run_${FIELD}_${MODEL}/run_${MODEL}.tsv")
  done
done

python3 -m citebench eval --run out/run_Med_bm25/run_bm25.tsv \
  --pool out/pools_Med/pool_field_Med_250_rep0.json --recall-cutoff 30 --out out/eval_pool

python3 -m citebench benchgen --corpus "$PREF" --seed 98 \
  --pool out/pools_Med/pool_field_Med_250_rep0.json \
  --pool out/pools_CS/pool_field_CS_250_rep0.json \
  "${RUNS[@]}" --out out/bench

BENCH=out/bench/benchmark.jsonl
EVALS=()
for MODEL in bm25 dense_a; do
  EXTRA=()
  if [ "$MODEL" != bm25 ]; then EXTRA=(--embeddings "$MODEL=$MODEL.f32"); fi
  python3 -m citebench run --corpus "$PREF" --benchmark "$BENCH" --model "$MODEL" \
    "${EXTRA[@]}" --out "out/benchrun_$MODEL"
  python3 -m citebench eval --run "out/benchrun_$MODEL/run_$MODEL.tsv" --benchmark "$BENCH" \
    --out "out/bencheval_$MODEL"
  EVALS+=("--eval" "$MODEL=out/bencheval_$MODEL/eval_run_$MODEL.json")
done

python3 -m citebench breakdown --corpus "$PREF" --benchmark "$BENCH" --model bm25 --out out/breakdown
python3 -m citebench report "${EVALS[@]}" --format tsv --out out/report

echo
echo "=== final report ($WORK/out/report/report.tsv) ==="
cat out/report/report.tsv
echo "=== bm25 candidate-type breakdown ==="
cat out/breakdown/breakdown_bm25.tsv
