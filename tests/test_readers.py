"""Every JSON input file reader: malformed JSON (NaN and Infinity
included), a value that is not an object and a missing or mis-shaped key
each fail with a ValueError that names the file."""

import json

import pytest

from citebench import cli
from citebench.benchgen import read_benchmark_jsonl
from citebench.dense import load_embeddings, save_embeddings
from citebench.pools import read_pool_json

ENTRY = {"query_id": "q1", "field": "Med", "positives": ["a"], "negatives": {"graph": ["b"]}}


def _pool(path, tmp_path):
    read_pool_json(path)


def _benchmark_line(path, tmp_path):
    read_benchmark_jsonl(path)


def _benchmark_manifest(path, tmp_path):
    bench = tmp_path / "good.jsonl"
    bench.write_text(json.dumps(ENTRY) + "\n")
    read_benchmark_jsonl(bench, path)


def _embedding_manifest(path, tmp_path):
    save_embeddings(["a"], [[1.0, 2.0]], tmp_path / "emb.f32", tmp_path / "good.json")
    load_embeddings(tmp_path / "emb.f32", path)


def _config(path, tmp_path):
    parser = cli.build_parser()
    cli._merge_config(parser.parse_args(["ingest", "--config", str(path)]), parser)


def _params(path, tmp_path):
    cli._bm25_params(cli.build_parser().parse_args(["run", "--params", str(path)]))


def _report_eval(path, tmp_path):
    cli._read_eval(str(path))


# reader, what its non-object error calls the input, and a bad object with
# the start of its error
READERS = {
    "pool": (_pool, "pool file",
             {"setup": "dataset", "query_year": 2019, "target_size": 1, "shortfall": False,
              "pool_ids": ["a"], "queries": []}, "missing key 'seed'"),
    "benchmark-line": (_benchmark_line, "entry",
                       {k: v for k, v in ENTRY.items() if k != "field"}, "missing key 'field'"),
    "benchmark-manifest": (_benchmark_manifest, "benchmark manifest",
                           {"types": "graph"}, "types must be a list of strings"),
    "embedding-manifest": (_embedding_manifest, "manifest",
                           {"dim": 2, "count": 1}, "missing key 'ids'"),
    "config": (_config, "config file",
               {"query_yaer": 2015}, "key 'query_yaer' is not a flag of ingest"),
    "params": (_params, "params file", {"b": 0.4}, "missing key 'k1'"),
    "report-eval": (_report_eval, "eval file",
                    {"repetitions": [], "mean": {}, "std": {}}, "missing key 'per_field'"),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("case", ["malformed", "non-finite", "not-object", "bad-key"])
def test_reader_error_names_the_file(tmp_path, reader, case):
    read, what, bad_obj, bad_message = READERS[reader]
    text, message = {
        "malformed": ('{"a": [', "malformed JSON"),
        # Python's json reads these tokens as floats; JSON has no such values
        "non-finite": ('{"k1": 0.9, "b": [-Infinity, Infinity, NaN]}',
                       "malformed JSON: -Infinity is not a JSON value"),
        "not-object": ("[1, 2]", f"{what} must be a JSON object"),
        "bad-key": (json.dumps(bad_obj), bad_message),
    }[case]
    path = tmp_path / "input.json"
    path.write_text(text + "\n")
    with pytest.raises(ValueError) as err:
        read(path, tmp_path)
    # a benchmark line's errors name the file and the line
    where = f"{path}:1" if reader == "benchmark-line" else str(path)
    assert str(err.value).startswith(f"{where}: {message}")
