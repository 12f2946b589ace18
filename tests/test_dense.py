import json
import re

import numpy as np
import pytest

from citebench import dense
from citebench.dense import (EmbeddingError, EmbeddingStore, knn, load_embeddings,
                             save_embeddings)
from oracles import brute_knn


def write_store(tmp_path, ids, matrix, name="emb"):
    vec = tmp_path / f"{name}.f32"
    man = tmp_path / f"{name}.f32.json"
    save_embeddings(ids, np.asarray(matrix, dtype=np.float32), vec, man)
    return vec, man


class TestLoadEmbeddings:
    def test_two_rows_three_dims(self, tmp_path):
        vec, man = write_store(tmp_path, ["a", "b"], [[1, 2, 3], [4, 5, 6]])
        assert vec.stat().st_size == 24
        store = load_embeddings(vec, man)
        assert len(store) == 2 and store.dim == 3
        assert list(store.vector("b")) == [4.0, 5.0, 6.0]

    def test_vectors_are_mapped_read_only(self, tmp_path):
        vec, man = write_store(tmp_path, ["a", "b"], [[1, 2, 3], [4, 5, 6]])
        store = load_embeddings(vec, man)
        assert isinstance(store.vectors.base, np.memmap)
        assert not store.vectors.flags.writeable
        with pytest.raises(ValueError):
            store.vectors[0, 0] = 9.0

    def test_zero_count_store_loads(self, tmp_path):
        vec, man = write_store(tmp_path, [], np.empty((0, 4)))
        assert vec.stat().st_size == 0
        store = load_embeddings(vec, man)
        assert len(store) == 0 and store.dim == 4

    def test_trailing_partial_float_rejected(self, tmp_path):
        vec, man = write_store(tmp_path, ["a", "b"], [[1, 2, 3], [4, 5, 6]])
        vec.write_bytes(vec.read_bytes() + b"\x00\x00")
        message = f"{vec}: vector file holds 6 floats and 2 trailing bytes, manifest requires 6"
        with pytest.raises(EmbeddingError, match=f"^{re.escape(message)}$"):
            load_embeddings(vec, man)

    def test_nan_past_the_first_block_rejected(self, tmp_path):
        matrix = np.ones((3 * dense._BLOCK + 5, 2))
        matrix[2 * dense._BLOCK + 3, 1] = np.inf
        vec, man = write_store(tmp_path, [f"r{i}" for i in range(len(matrix))], matrix)
        message = f"{vec}: vectors contain NaN or Inf values"
        with pytest.raises(EmbeddingError, match=f"^{re.escape(message)}$"):
            load_embeddings(vec, man)

    def test_size_mismatch(self, tmp_path):
        vec, man = write_store(tmp_path, ["a", "b"], [[1, 2, 3], [4, 5, 6]])
        vec.write_bytes(vec.read_bytes()[:23])
        with pytest.raises(EmbeddingError, match="vector file holds"):
            load_embeddings(vec, man)

    def test_nan_rejected(self, tmp_path):
        vec, man = write_store(tmp_path, ["a"], [[1.0, float("nan"), 3.0]])
        with pytest.raises(EmbeddingError, match="NaN"):
            load_embeddings(vec, man)

    def test_duplicate_ids(self, tmp_path):
        vec, man = write_store(tmp_path, ["a", "a"], [[1, 2], [3, 4]])
        with pytest.raises(EmbeddingError, match="duplicate"):
            load_embeddings(vec, man)

    def test_size_mismatch_names_the_vector_file(self, tmp_path):
        vec, man = write_store(tmp_path, ["a", "b", "c", "d"], np.ones((4, 3)))
        vec.write_bytes(vec.read_bytes()[:44])
        message = f"{vec}: vector file holds 11 floats, manifest requires 12"
        with pytest.raises(EmbeddingError, match=f"^{re.escape(message)}$"):
            load_embeddings(vec, man)

    def test_nan_names_the_vector_file(self, tmp_path):
        vec, man = write_store(tmp_path, ["a", "b"], [[1.0, 2.0], [float("inf"), 3.0]])
        message = f"{vec}: vectors contain NaN or Inf values"
        with pytest.raises(EmbeddingError, match=f"^{re.escape(message)}$"):
            load_embeddings(vec, man)

    def test_duplicate_names_the_manifest_and_the_id(self, tmp_path):
        # the NaN is in the vector file too: the repeated id is reported first
        vec, man = write_store(tmp_path, ["a", "b", "c", "b"],
                               [[1.0], [2.0], [float("nan")], [4.0]])
        message = f"{man}: duplicate embedding id 'b'"
        with pytest.raises(EmbeddingError, match=f"^{re.escape(message)}$"):
            load_embeddings(vec, man)

    def test_manifest_count_mismatch(self, tmp_path):
        vec, man = write_store(tmp_path, ["a", "b"], [[1, 2], [3, 4]])
        obj = json.loads(man.read_text())
        obj["count"] = 3
        man.write_text(json.dumps(obj))
        with pytest.raises(EmbeddingError):
            load_embeddings(vec, man)


    @pytest.mark.parametrize("key, value, message", [
        ("dim", "2", "dim must be an integer >= 1, got '2'"),
        ("dim", 2.0, "dim must be an integer >= 1, got 2.0"),
        ("dim", True, "dim must be an integer >= 1, got True"),
        ("dim", 0, "dim must be an integer >= 1, got 0"),
        ("count", "2", "count must be an integer >= 0, got '2'"),
        ("count", -1, "count must be an integer >= 0, got -1"),
        ("count", False, "count must be an integer >= 0, got False"),
        ("ids", [1, 2], "ids must be a list of strings"),
        ("ids", "ab", "ids must be a list of strings"),
        ("ids", None, "missing key 'ids'"),
        ("count", None, "missing key 'count'"),
    ], ids=["dim-str", "dim-float", "dim-bool", "dim-zero", "count-str", "count-negative",
            "count-bool", "ids-int", "ids-str", "ids-missing", "count-missing"])
    def test_manifest_field_types(self, tmp_path, key, value, message):
        vec, man = write_store(tmp_path, ["a", "b"], [[1, 2], [3, 4]])
        obj = json.loads(man.read_text())
        if value is None:
            del obj[key]
        else:
            obj[key] = value
        man.write_text(json.dumps(obj))
        with pytest.raises(EmbeddingError, match=f"emb.f32.json: {message}"):
            load_embeddings(vec, man)

    @pytest.mark.parametrize("text, message", [
        ("[2, 2]", "manifest must be a JSON object"),
        ('{"dim": 2,', "malformed JSON"),
    ], ids=["list", "truncated"])
    def test_manifest_not_an_object(self, tmp_path, text, message):
        vec, man = write_store(tmp_path, ["a", "b"], [[1, 2], [3, 4]])
        man.write_text(text)
        with pytest.raises(EmbeddingError, match=f"emb.f32.json: {message}"):
            load_embeddings(vec, man)


class TestKnn:
    def test_self_similarity_first(self):
        store = EmbeddingStore(["a", "b", "c"], [[1, 2, 0], [0, 1, 5], [3, 0, 1]])
        got = knn(store, [1, 2, 0], k=3, metric="cosine")
        assert got[0][0] == "a"
        assert got[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_scores_zero(self):
        store = EmbeddingStore(["x", "y"], [[0, 1], [1, 0]])
        got = dict(knn(store, [1, 0], k=2, metric="cosine"))
        assert got["x"] == 0.0

    def test_zero_norm_vector_cosine_is_zero(self):
        store = EmbeddingStore(["z", "v"], [[0, 0], [1, 1]])
        got = dict(knn(store, [1, 1], k=2, metric="cosine"))
        assert got["z"] == 0.0
        # zero query scores 0 against everything
        got = knn(store, [0, 0], k=2, metric="cosine")
        assert [s for _, s in got] == [0.0, 0.0]
        assert [i for i, _ in got] == ["v", "z"]  # tie broken by id

    @pytest.mark.parametrize("metric", ["cosine", "dot", "euclidean"])
    def test_matches_brute_force(self, metric):
        rng = np.random.default_rng(123)
        ids = [f"v{i:03d}" for i in range(200)]
        matrix = rng.standard_normal((200, 16)).astype(np.float32)
        store = EmbeddingStore(ids, matrix)
        query = rng.standard_normal(16)
        got = knn(store, query, k=200, metric=metric)
        expected = brute_knn(ids, matrix, query, metric)
        assert [i for i, _ in got] == [i for i, _ in expected]
        for (_, sg), (_, se) in zip(got, expected):
            assert sg == pytest.approx(se, rel=1e-9, abs=1e-12)

    def test_pool_restriction(self):
        store = EmbeddingStore(["a", "b", "c"], [[1, 0], [0, 1], [1, 1]])
        got = knn(store, [1, 0], k=5, metric="dot", pool={"b", "c"})
        assert {i for i, _ in got} == {"b", "c"}

    def test_missing_pool_id(self):
        store = EmbeddingStore(["a"], [[1.0, 0.0]])
        with pytest.raises(KeyError, match="ghost"):
            knn(store, [1, 0], k=1, pool={"ghost"})

    def test_cosine_scale_invariance(self):
        rng = np.random.default_rng(7)
        store = EmbeddingStore([f"r{i}" for i in range(50)],
                               rng.standard_normal((50, 8)).astype(np.float32))
        q = rng.standard_normal(8)
        base = [i for i, _ in knn(store, q, k=50, metric="cosine")]
        scaled = [i for i, _ in knn(store, q * 37.5, k=50, metric="cosine")]
        assert base == scaled
        # dot rankings also survive positive scaling, but scores change
        dot_base = knn(store, q, k=50, metric="dot")
        dot_scaled = knn(store, q * 2.0, k=50, metric="dot")
        assert [i for i, _ in dot_base] == [i for i, _ in dot_scaled]
        assert dot_base[0][1] != dot_scaled[0][1]

    def test_identical_results_for_all_chunk_counts(self):
        rng = np.random.default_rng(42)
        ids = [f"v{i:03d}" for i in range(101)]
        store = EmbeddingStore(ids, rng.standard_normal((101, 16)).astype(np.float32))
        q = rng.standard_normal(16)
        for metric in ("cosine", "dot", "euclidean"):
            reference = knn(store, q, k=101, metric=metric, chunks=1)
            for chunks in (2, 3, 7, 64, 500):
                assert knn(store, q, k=101, metric=metric, chunks=chunks) == reference

    def test_error_cases(self):
        store = EmbeddingStore(["a"], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="k must be"):
            knn(store, [1, 0], k=0)
        with pytest.raises(ValueError, match="dimension"):
            knn(store, [1, 0, 0], k=1)
        with pytest.raises(ValueError, match="metric"):
            knn(store, [1, 0], k=1, metric="manhattan")

    def test_k_truncates(self):
        store = EmbeddingStore(["a", "b", "c"], [[1, 0], [0.5, 0], [0.1, 0]])
        assert len(knn(store, [1, 0], k=2, metric="dot")) == 2

    def test_euclidean_ranks_ascending(self):
        store = EmbeddingStore(["far", "near"], [[10.0, 0.0], [1.0, 0.0]])
        got = knn(store, [0, 0], k=2, metric="euclidean")
        assert [i for i, _ in got] == ["near", "far"]
        assert got[0][1] == 1.0 and got[1][1] == 10.0


def test_store_validation():
    with pytest.raises(EmbeddingError):
        EmbeddingStore(["a"], np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(EmbeddingError):
        EmbeddingStore(["a", "a"], np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(EmbeddingError):
        EmbeddingStore(["a"], np.array([[np.inf, 0.0]], dtype=np.float32))
