"""util.Numbering: the one id -> row map and tie-break order shared by the
corpus, the BM25 index and every embedding store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citebench.corpus import Corpus
from citebench.lexical import build_index, load_index, save_index, search, search_pool
from citebench.util import Numbering
from conftest import make_article
from oracles import id_ranks, rank_rows

# ids whose sorted order differs from insertion order, mixed case included
ID_POOL = [f"d{i}" for i in range(12)] + ["B7", "a1", "Z", "zz9", "m", ""]
VOCAB = ["a", "b", "c", "d", "e"]

SETTINGS = settings(max_examples=200, deadline=None)


@st.composite
def candidate_sets(draw):
    """Distinct ids, a subset of their rows in any order, integer-valued
    scores (so ties are common) and a k that includes 1 and k >= len(rows)."""
    ids = draw(st.lists(st.sampled_from(ID_POOL), min_size=1, unique=True))
    rows = draw(st.lists(st.integers(0, len(ids) - 1), unique=True))
    scores = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
    k = draw(st.one_of(st.just(1), st.just(len(rows) + 2), st.integers(1, len(rows) + 1)))
    return ids, np.array(rows, dtype=np.intp), np.array(scores, dtype=np.float64), k


# scores that tie often, in both signed zeros and as NaN, so the k-th key is
# often shared, a zero of either sign, or NaN
EDGE_SCORES = [-1.0, -0.0, 0.0, 1.0, 2.0, float("nan")]


@st.composite
def selected_sets(draw):
    """Candidate sets larger than k, scores drawn from EDGE_SCORES, and an
    exclude row that is a candidate, another row, or None."""
    ids = draw(st.lists(st.sampled_from(ID_POOL), min_size=2, unique=True))
    rows = draw(st.lists(st.integers(0, len(ids) - 1), min_size=2, unique=True))
    scores = draw(st.lists(st.sampled_from(EDGE_SCORES), min_size=len(rows),
                           max_size=len(rows)))
    k = draw(st.integers(1, len(rows) - 1))
    exclude = draw(st.one_of(st.none(), st.sampled_from(rows), st.integers(0, len(ids) - 1)))
    return ids, np.array(rows, dtype=np.intp), np.array(scores, dtype=np.float64), k, exclude


def full_lexsort(ids, rows, scores, k, descending, exclude=None):
    """rank_rows, the full lexsort, over the candidates left after the cut."""
    if exclude is not None:
        keep = rows != exclude
        rows, scores = rows[keep], scores[keep]
    return rank_rows(ids, id_ranks(ids), rows, scores, k, descending)


def exact(ranked):
    """A ranking with each score as its hex form: NaN equals NaN there, and
    -0.0 differs from 0.0."""
    return [(i, s.hex()) for i, s in ranked]


class TestTop:
    @SETTINGS
    @given(case=candidate_sets(), descending=st.booleans())
    def test_equals_reference_lexsort(self, case, descending):
        ids, rows, scores, k = case
        got = Numbering(ids).top(rows, scores, k, descending)
        assert got == rank_rows(ids, id_ranks(ids), rows, scores, k, descending)
        sign = -1 if descending else 1
        by_tuple = sorted(((ids[r], s) for r, s in zip(rows.tolist(), scores.tolist())),
                          key=lambda item: (sign * item[1], item[0]))
        assert got == by_tuple[:k]

    @SETTINGS
    @given(case=selected_sets(), descending=st.booleans())
    def test_selection_equals_full_lexsort(self, case, descending):
        ids, rows, scores, k, exclude = case
        got = Numbering(ids).top(rows, scores, k, descending, exclude=exclude)
        assert exact(got) == exact(full_lexsort(ids, rows, scores, k, descending, exclude))

    @pytest.mark.parametrize("descending", [True, False])
    @pytest.mark.parametrize("scores, k", [
        ([3.0, 2.0, 2.0, 2.0, 1.0], 2),  # a tie straddles the k-th key
        ([0.0, -0.0, 0.0, -0.0, 1.0], 3),  # zeros of both signs tie
        ([float("nan"), 1.0, float("nan"), float("nan"), 2.0], 3),  # the k-th key is NaN
        ([float("nan"), 1.0, float("nan"), 1.0, 2.0], 2),  # NaN below a non-NaN k-th key
    ], ids=["straddling-tie", "signed-zeros", "nan-kth", "nan-below-kth"])
    def test_ties_signed_zeros_and_nan(self, scores, k, descending):
        ids = ["e", "b", "d", "a", "c"]
        rows = np.array([4, 0, 3, 1, 2], dtype=np.intp)
        scores = np.array(scores)
        for exclude in (None, 0, 2):
            got = Numbering(ids).top(rows, scores, k, descending, exclude=exclude)
            assert len(got) == k
            assert exact(got) == exact(full_lexsort(ids, rows, scores, k, descending, exclude))

    @pytest.mark.parametrize("descending", [True, False])
    @pytest.mark.parametrize("cut", [False, True])
    def test_5000_candidates_21_scores_at_k_500(self, descending, cut):
        rng = np.random.default_rng(23)
        ids = [f"a{i:05d}" for i in rng.permutation(6000)]
        rows = rng.choice(6000, size=5000, replace=False).astype(np.intp)
        scores = rng.integers(0, 21, size=5000).astype(np.float64)
        exclude = int(rows[17]) if cut else None
        got = Numbering(ids).top(rows, scores, 500, descending, exclude=exclude)
        full = full_lexsort(ids, rows, scores, rows.size, descending, exclude)
        assert full[499][1] == full[500][1]  # the k-th score's ties go past k
        assert exact(got) == exact(full[:500])

    @SETTINGS
    @given(ids=st.lists(st.sampled_from(ID_POOL), unique=True))
    def test_id_rank_equals_reference(self, ids):
        assert Numbering(ids).id_rank.tolist() == id_ranks(ids).tolist()

    @SETTINGS
    @given(ids=st.lists(st.sampled_from(ID_POOL), unique=True))
    def test_sorted_ids_equal_a_sort(self, ids):
        numbering = Numbering(ids)
        assert numbering.sorted_ids == sorted(ids)
        assert [numbering.sorted_ids[r] for r in numbering.id_rank.tolist()] == ids


class TestRows:
    def test_ascending_rows_in_any_input_order(self):
        numbering = Numbering(["c", "a", "b", "d"])
        for ids in (["d", "c", "b"], {"b", "d", "c"}, frozenset({"c", "b", "d"})):
            rows = numbering.rows(ids)
            assert rows.dtype == np.intp and rows.tolist() == [0, 2, 3]
        assert numbering.rows([]).tolist() == []

    def test_repeated_ids_give_distinct_rows(self):
        numbering = Numbering(["c", "a", "b", "d"])
        assert numbering.rows(["d", "c", "d", "b", "c", "d"]).tolist() == [0, 2, 3]
        assert numbering.rows(["a", "a"]).tolist() == [1]

    def test_unknown_id_raises_key_error_naming_it(self):
        with pytest.raises(KeyError) as exc:
            Numbering(["a", "b"]).rows(["a", "ghost"])
        assert exc.value.args == ("ghost",)


class TestCheckUnique:
    @pytest.mark.parametrize("ids, first", [
        (["a", "b", "a"], "a"),
        (["x", "b", "b", "x"], "x"),
        (["x", "b", "y", "b"], "b"),
    ])
    def test_names_first_repeated_id_in_row_order(self, ids, first):
        with pytest.raises(ValueError, match=f"^repeats {first}$"):
            Numbering(ids).check_unique(lambda i: ValueError(f"repeats {i}"))

    def test_distinct_ids_pass(self):
        Numbering(["a", "b", "A"]).check_unique(lambda i: AssertionError(i))
        Numbering([]).check_unique(lambda i: AssertionError(i))


@st.composite
def indexed_corpora(draw):
    docs = draw(st.lists(
        st.tuples(st.sampled_from(ID_POOL[:-1]), st.lists(st.sampled_from(VOCAB), max_size=12)),
        min_size=1, unique_by=lambda item: item[0]))
    return Corpus([make_article(i, title=" ".join(tokens), abstract="") for i, tokens in docs])


class TestSharedNumbering:
    def test_index_shares_the_corpus_numbering(self):
        corpus = Corpus([make_article(i, title=t) for i, t in (("b", "x y"), ("a", "y"))])
        index = build_index(corpus)
        assert index.numbering is corpus.numbering
        assert index.ids is corpus.ids()

    @SETTINGS
    @given(corpus=indexed_corpora(), data=st.data())
    def test_loaded_index_with_its_own_numbering_ranks_the_same(self, corpus, data,
                                                                tmp_path_factory):
        index = build_index(corpus)
        path = tmp_path_factory.mktemp("numbering") / "index.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.numbering is not corpus.numbering
        assert loaded.numbering.row == corpus.numbering.row
        ids = corpus.ids()
        pool = set(data.draw(st.lists(st.sampled_from(ids)))) | {"ghost"}
        query = " ".join(data.draw(st.lists(st.sampled_from(VOCAB + ["unseen"]), max_size=5)))
        k = data.draw(st.integers(1, len(ids) + 1))
        assert search(loaded, query, k=k) == search(index, query, k=k)
        assert search(loaded, query, k=k, pool=pool) == search(index, query, k=k, pool=pool)
        queries = [(ids[0], query), ("ghost", query)]
        assert (search_pool(loaded, queries, pool, k=k)
                == search_pool(index, queries, pool, k=k))
