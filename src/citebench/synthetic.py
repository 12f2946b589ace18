"""Deterministic synthetic citation corpora and embeddings.

Used by the demos and the test suite to exercise the full pipeline without
any external data. Articles get field-flavored vocabulary, recency-biased
citations to earlier (or same-year) articles, and a small defect rate so the
prefilter has something to do. Later-year articles keep citing older ones,
which is what gives the older articles their incoming-citation counts.

Embeddings are a seeded random projection of the article's token bag, so
lexically similar articles land near each other; different projection labels
act as different encoder models.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from .corpus import Article, Corpus, FIELD_NAMES
from .dense import EmbeddingStore
from .lexical import analyze


def _field_vocab(field_name: str, size: int = 24) -> list[str]:
    slug = field_name.lower().replace(" ", "")
    return [f"{slug}{i}" for i in range(size)]


_SHARED_VOCAB = [f"common{i}" for i in range(60)]
_DEFECT_RATE = 0.02


def generate_corpus(n: int = 1000, seed: int = 0) -> Corpus:
    """Generate n articles of 2008-2021 with citations flowing from newer to older years.

    Years are weighted toward the recent end so query-year cohorts are well
    populated, and each article mostly cites articles from its own primary
    field. A _DEFECT_RATE share of articles is broken on purpose (no year,
    empty title, or short abstract).
    """
    rng = random.Random(seed)
    years = list(range(2008, 2022))
    year_weights = [1.0 + 0.3 * (y - years[0]) for y in years]
    vocab = {f: _field_vocab(f) for f in FIELD_NAMES}

    drafts = []
    for i in range(n):
        year = rng.choices(years, weights=year_weights, k=1)[0]
        primary = rng.choice(FIELD_NAMES)
        labels = {primary}
        if rng.random() < 0.2:
            labels.add(rng.choice(FIELD_NAMES))
        drafts.append((year, f"S{i:06d}", primary, frozenset(labels)))
    drafts.sort()  # by (year, id): citation targets precede their citers

    by_field_prefix: dict[str, list[str]] = {f: [] for f in FIELD_NAMES}
    all_prefix: list[str] = []
    articles: list[Article] = []
    for year, ident, primary, labels in drafts:
        n_cites = rng.randint(6, 18)
        cited: set[str] = set()
        for _ in range(n_cites):
            same_field = by_field_prefix[primary]
            population = same_field if (rng.random() < 0.65 and same_field) else all_prefix
            if not population:
                continue
            # quadratic recency bias: recent targets accumulate citations too
            idx = len(population) - 1 - int(rng.random() ** 2 * len(population))
            cited.add(population[min(idx, len(population) - 1)])
        cited.discard(ident)

        words = vocab[primary]
        title = " ".join(rng.choices(words + _SHARED_VOCAB, k=rng.randint(4, 7)))
        abstract = " ".join(rng.choices(words + _SHARED_VOCAB, k=rng.randint(18, 28)))
        year_out: int | None = year
        if rng.random() < _DEFECT_RATE:
            defect = rng.choice(("year", "title", "abstract"))
            if defect == "year":
                year_out = None
            elif defect == "title":
                title = ""
            else:
                abstract = abstract[:20]
        articles.append(Article(ident, title, abstract, year_out, labels, frozenset(cited)))
        by_field_prefix[primary].append(ident)
        all_prefix.append(ident)

    articles.sort(key=lambda a: a.id)
    return Corpus(articles)


def _token_vector(token: str, dim: int, label: str) -> np.ndarray:
    seed = int.from_bytes(hashlib.sha256(f"{label}|{token}".encode()).digest()[:8], "little")
    return np.random.default_rng(seed).standard_normal(dim)


def embed_corpus(corpus: Corpus, dim: int = 24, label: str = "proj0") -> EmbeddingStore:
    """Bag-of-tokens random projection embeddings, one row per article.

    The projection is fixed by `label`, so two labels behave like two
    different encoders over the same corpus.
    """
    cache: dict[str, np.ndarray] = {}
    rows = np.zeros((len(corpus), dim), dtype=np.float64)
    ids: list[str] = []
    for i, art in enumerate(corpus):
        ids.append(art.id)
        acc = rows[i]
        for token in analyze(art.text):
            vec = cache.get(token)
            if vec is None:
                vec = cache[token] = _token_vector(token, dim, label)
            acc += vec
        norm = np.sqrt((acc * acc).sum())
        if norm > 0:
            acc /= norm
    return EmbeddingStore(ids, rows.astype(np.float32))
