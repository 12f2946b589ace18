"""Citation corpus: loading, validation, prefiltering, and the citation graph.

A corpus is an id-keyed collection of articles (title, abstract, year, field
labels, outgoing citations). The citation graph stores both directions of the
citation relation restricted to ids present in the corpus; citation targets
outside the corpus are dropped at build time and counted.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def sorted_ids(self) -> tuple[str, ...]:
        """All article ids in ascending order."""
        return tuple(sorted(self.numbering.ids))

    def content_hash(self) -> str:
        """Order-independent digest of the full corpus content."""
        parts = [canonical_json(_article_obj(self.article(i))) for i in self.sorted_ids]
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


@dataclass(frozen=True)
class CitationGraph:
    """Bidirectional citation adjacency over corpus ids.

    `outgoing[a]` holds the ids cited by `a`, `incoming[a]` the ids citing
    `a`; both directions are restricted to ids present in the corpus the
    graph was built from. `dangling` counts dropped out-of-corpus targets.
    """

    outgoing: dict[str, frozenset[str]]
    incoming: dict[str, frozenset[str]]
    dangling: int

    def in_degree(self, article_id: str) -> int:
        return len(self.incoming.get(article_id, ()))


def build_citation_graph(corpus: Corpus) -> CitationGraph:
    ids = set(corpus.ids())
    outgoing: dict[str, frozenset[str]] = {}
    incoming_sets: dict[str, set[str]] = {i: set() for i in corpus.ids()}
    dangling = 0
    for art in corpus:
        kept = art.out_citations & ids
        dangling += len(art.out_citations) - len(kept)
        outgoing[art.id] = frozenset(kept)
        for target in kept:
            incoming_sets[target].add(art.id)
    incoming = {i: frozenset(s) for i, s in incoming_sets.items()}
    return CitationGraph(outgoing, incoming, dangling)


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
    for art in corpus:
        if not art.year:
            removed["missing_year"] += 1
        elif not art.title.strip():
            removed["empty_title"] += 1
        elif len(art.abstract) < rules.min_abstract_chars:
            removed["short_abstract"] += 1
        elif graph.in_degree(art.id) < rules.min_citations:
            removed["few_incoming_citations"] += 1
        else:
            survivors.append(art)
    return PrefilterResult(Corpus(survivors), removed)


def field_cited_set(corpus: Corpus, graph: CitationGraph, field: str | FieldLabel) -> set[str]:
    """Union of the citations of every article labeled with `field`,
    restricted to ids present in `corpus` (via the graph)."""
    label = resolve_field(field)
    cited: set[str] = set()
    for art in corpus:
        if label.name in art.fields:
            cited |= graph.outgoing.get(art.id, frozenset())
    return cited
