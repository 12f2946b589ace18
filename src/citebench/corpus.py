"""Citation corpus: loading, validation, prefiltering, and the citation graph.

A corpus is an id-keyed collection of articles (title, abstract, year, field
labels, outgoing citations). The citation graph stores both directions of the
citation relation as CSR arrays over corpus rows; citation targets outside
the corpus are dropped at build time and counted.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .util import Numbering, canonical_json, parse_json, stable_digest


class CorpusError(ValueError):
    """Unrecoverable corpus ingestion problem (duplicate id, budget exceeded, ...)."""


class UnknownFieldError(KeyError):
    """Field name or abbreviation is not one of the 19 recognized labels."""


@dataclass(frozen=True)
class FieldLabel:
    name: str
    abbrev: str


# The 19 recognized scientific fields, in report column order.
FIELDS: tuple[FieldLabel, ...] = (
    FieldLabel("Art", "Art"),
    FieldLabel("Biology", "Bio"),
    FieldLabel("Business", "Bus"),
    FieldLabel("Chemistry", "Ch"),
    FieldLabel("Computer Science", "CS"),
    FieldLabel("Economics", "Eco"),
    FieldLabel("Engineering", "Eng"),
    FieldLabel("Environmental Science", "ES"),
    FieldLabel("Geography", "Geog"),
    FieldLabel("Geology", "Geol"),
    FieldLabel("History", "His"),
    FieldLabel("Materials Science", "MS"),
    FieldLabel("Mathematics", "Mat"),
    FieldLabel("Medicine", "Med"),
    FieldLabel("Philosophy", "Phi"),
    FieldLabel("Physics", "Phy"),
    FieldLabel("Political Science", "PS"),
    FieldLabel("Psychology", "Psy"),
    FieldLabel("Sociology", "Soc"),
)

FIELD_NAMES: tuple[str, ...] = tuple(f.name for f in FIELDS)
FIELD_ABBREVS: tuple[str, ...] = tuple(f.abbrev for f in FIELDS)

_FIELD_BY_NAME = {f.name: f for f in FIELDS}
_FIELD_BY_ABBREV = {f.abbrev: f for f in FIELDS}


def resolve_field(key: str | FieldLabel) -> FieldLabel:
    """Map a field name, abbreviation, or FieldLabel to the canonical label."""
    if isinstance(key, FieldLabel):
        if key not in FIELDS:
            raise UnknownFieldError(key.name)
        return key
    if key in _FIELD_BY_NAME:
        return _FIELD_BY_NAME[key]
    if key in _FIELD_BY_ABBREV:
        return _FIELD_BY_ABBREV[key]
    raise UnknownFieldError(key)


@dataclass(frozen=True)
class Article:
    """One corpus record. Field labels outside the 19 known names are kept as
    raw strings but ignored by field-level operations."""

    id: str
    title: str
    abstract: str
    year: int | None
    fields: frozenset[str]
    out_citations: frozenset[str]

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusError("article id must be a non-empty string")
        if self.id in self.out_citations:
            # self-citations are dropped at construction
            object.__setattr__(self, "out_citations", self.out_citations - {self.id})

    @property
    def text(self) -> str:
        """Retrieval text: title and abstract joined by a single space."""
        return f"{self.title} {self.abstract}"


class Corpus:
    """Immutable articles in ingestion order; `numbering` gives each its row."""

    def __init__(self, articles: Iterable[Article], rejected: int = 0):
        self._articles = list(articles)
        self.numbering = Numbering(art.id for art in self._articles)
        self.numbering.check_unique(lambda i: CorpusError(f"duplicate article id: {i!r}"))
        self.rejected = rejected

    def __len__(self) -> int:
        return len(self._articles)

    def __iter__(self) -> Iterator[Article]:
        return iter(self._articles)

    def __contains__(self, article_id: str) -> bool:
        return article_id in self.numbering.row

    def article(self, article_id: str) -> Article:
        return self._articles[self.numbering.row[article_id]]

    def ids(self) -> list[str]:
        return self.numbering.ids

    def content_hash(self) -> str:
        """Order-independent digest of the full corpus content."""
        parts = [canonical_json(_article_obj(self.article(i))) for i in self.numbering.sorted_ids]
        return stable_digest(*parts)


def _article_obj(art: Article) -> dict:
    return {
        "id": art.id,
        "title": art.title,
        "abstract": art.abstract,
        "year": art.year,
        "fields": sorted(art.fields),
        "out_citations": sorted(art.out_citations),
    }


def parse_article(obj: object) -> Article:
    """Build an Article from one decoded JSON record. Unknown keys are ignored."""
    if not isinstance(obj, dict):
        raise CorpusError("record must be a JSON object")
    ident = obj.get("id")
    if not isinstance(ident, str) or not ident:
        raise CorpusError("missing or invalid 'id'")
    title = obj.get("title", "")
    abstract = obj.get("abstract", "")
    if not isinstance(title, str) or not isinstance(abstract, str):
        raise CorpusError(f"article {ident!r}: title and abstract must be strings")
    year = obj.get("year")
    if year is not None and (isinstance(year, bool) or not isinstance(year, int)):
        raise CorpusError(f"article {ident!r}: year must be an integer or null")
    fields = obj.get("fields", [])
    cites = obj.get("out_citations", [])
    if not isinstance(fields, list) or not all(isinstance(x, str) for x in fields):
        raise CorpusError(f"article {ident!r}: fields must be a list of strings")
    if not isinstance(cites, list) or not all(isinstance(x, str) for x in cites):
        raise CorpusError(f"article {ident!r}: out_citations must be a list of strings")
    return Article(ident, title, abstract, year, frozenset(fields), frozenset(cites))


def load_corpus(path, *, reject_budget: int = 0) -> Corpus:
    """Load a JSON Lines corpus (one article object per line, UTF-8).

    Malformed lines are rejected and counted; exceeding `reject_budget`
    raises, naming `path:line`. A duplicate id always raises, naming the path.
    """
    articles: list[Article] = []
    rejected = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                articles.append(parse_article(parse_json(line, where)))
            except ValueError as exc:
                rejected += 1
                if rejected > reject_budget:
                    # parse_json's errors name `where` already, parse_article's do not
                    reason = f"{where}: {exc}" if isinstance(exc, CorpusError) else exc
                    raise CorpusError(f"{reason} (rejection budget {reject_budget} exceeded)")
    try:
        return Corpus(articles, rejected=rejected)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None


def write_corpus_jsonl(corpus: Corpus, path) -> None:
    """Write a corpus back out in the canonical JSON Lines form."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for art in corpus:
            fh.write(json.dumps(_article_obj(art), ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")


class Adjacency:
    """One direction of a citation graph as read-only int32 CSR arrays over
    the rows of a corpus's numbering: row r's neighbours are
    `rows[ptr[r]:ptr[r + 1]]`, in ascending id order, laid out from the edge
    rows heads[i] -> tails[i] with one sort on (head, id rank of tail)."""

    def __init__(self, numbering: Numbering, heads: np.ndarray, tails: np.ndarray):
        n = len(numbering.ids)
        self.numbering = numbering
        self.ptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(heads, minlength=n), out=self.ptr[1:])
        self.rows = tails[np.argsort(heads * n + numbering.id_rank[tails])].astype(np.int32)
        self.ptr.flags.writeable = self.rows.flags.writeable = False

    def of(self, row: int) -> list[int]:
        """The neighbour rows of `row`, in ascending id order."""
        return self.rows[self.ptr[row]:self.ptr[row + 1]].tolist()

    def ids_of(self, article_id: str) -> list[str]:
        """The neighbours' ids of `article_id` in ascending order; [] for an
        id outside the corpus."""
        row = self.numbering.row.get(article_id)
        return [] if row is None else list(map(self.numbering.ids.__getitem__, self.of(row)))

    def degrees(self, corpus: Corpus) -> np.ndarray:
        """Neighbour counts by row of `corpus`, the corpus the graph was built from."""
        if corpus.numbering is not self.numbering:
            raise ValueError("the citation graph was built from another corpus")
        return np.diff(self.ptr)


@dataclass(frozen=True)
class CitationGraph:
    """Bidirectional citation adjacency over the rows of a corpus's numbering.

    `outgoing` holds the articles each article cites, `incoming` those citing
    it, both within the corpus the graph was built from. `dangling` counts
    the dropped citations of ids outside it.
    """

    numbering: Numbering
    outgoing: Adjacency
    incoming: Adjacency
    dangling: int


def build_citation_graph(corpus: Corpus) -> CitationGraph:
    """Map every citation to its target's row once, drop and count the
    targets outside the corpus, and sort the edges once per direction."""
    numbering, n = corpus.numbering, len(corpus)
    counts = np.fromiter((len(art.out_citations) for art in corpus), dtype=np.int64, count=n)
    cited = chain.from_iterable(art.out_citations for art in corpus)
    targets = np.fromiter(map(numbering.row.get, cited, repeat(-1)), dtype=np.int64,
                          count=int(counts.sum()))
    sources = np.repeat(np.arange(n, dtype=np.int64), counts)
    kept = targets >= 0
    sources, targets = sources[kept], targets[kept]
    return CitationGraph(numbering, Adjacency(numbering, sources, targets),
                         Adjacency(numbering, targets, sources), len(kept) - len(targets))


@dataclass(frozen=True)
class PrefilterRules:
    min_abstract_chars: int = 30
    min_citations: int = 3

    def __post_init__(self) -> None:
        if self.min_abstract_chars < 0 or self.min_citations < 0:
            raise ValueError("prefilter thresholds must be >= 0")


# Removal rule keys, in the order rules are checked.
PREFILTER_RULES = ("missing_year", "empty_title", "short_abstract", "few_incoming_citations")


@dataclass
class PrefilterResult:
    corpus: Corpus
    removed: dict[str, int]


def prefilter(corpus: Corpus, graph: CitationGraph, rules: PrefilterRules = PrefilterRules()) -> PrefilterResult:
    """Drop articles with a missing/zero year, empty title, short abstract, or
    too few incoming citations.

    Single pass: citation counts come from the input graph and are not
    recomputed as articles are removed. Each removed article is attributed to
    the first rule it violates, in PREFILTER_RULES order.
    """
    survivors: list[Article] = []
    removed = {rule: 0 for rule in PREFILTER_RULES}
    for art, cited_by in zip(corpus, graph.incoming.degrees(corpus).tolist()):
        if not art.year:
            removed["missing_year"] += 1
        elif not art.title.strip():
            removed["empty_title"] += 1
        elif len(art.abstract) < rules.min_abstract_chars:
            removed["short_abstract"] += 1
        elif cited_by < rules.min_citations:
            removed["few_incoming_citations"] += 1
        else:
            survivors.append(art)
    return PrefilterResult(Corpus(survivors), removed)


def field_cited_set(corpus: Corpus, graph: CitationGraph, field: str | FieldLabel) -> set[str]:
    """Union of the citations of every article labeled with `field`,
    restricted to ids present in `corpus` (via the graph)."""
    label = resolve_field(field)
    labeled = np.array([label.name in art.fields for art in corpus], dtype=bool)
    # each edge's source is labeled or not: repeat each row's flag over its edges
    out = graph.outgoing
    cited = np.bincount(out.rows[np.repeat(labeled, out.degrees(corpus))], minlength=len(corpus))
    return set(map(corpus.ids().__getitem__, np.flatnonzero(cited).tolist()))
