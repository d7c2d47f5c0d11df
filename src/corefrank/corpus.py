"""Annotated corpus model.

A corpus is a UTF-8 file with one JSON document record per line.  Each
record carries the tokenized sentences, the annotated mentions with their
linguistic attributes, and the gold coreference partition.  All linguistic
information that feature extraction needs (mention type, number, gender,
semantic class, NE tag, grammatical flags) travels in the record; nothing
is computed from external resources beyond the bundled pronoun lexicon.

Documents are immutable after load: every operation that changes mention
state (such as the UNSEEN replacement protocol) returns new documents.
"""

from __future__ import annotations

import json
import random
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable, Iterable, Sequence

from . import pronouns

MENTION_TYPES = ("PRONOUN", "PROPER", "COMMON")
NUMBER_VALUES = ("SINGULAR", "PLURAL", "UNKNOWN")
GENDER_VALUES = ("MALE", "FEMALE", "NEUTER", "UNKNOWN")
SEMCLASS_VALUES = (
    "PERSON",
    "LOCATION",
    "ORGANIZATION",
    "DATE",
    "TIME",
    "MONEY",
    "PERCENT",
    "OBJECT",
    "OTHERS",
    "UNKNOWN",
)
ANIMACY_VALUES = ("Y", "N", "UNKNOWN")
NE_VALUES = ("PERSON", "LOCATION", "ORGANIZATION", "NONE")
SOURCES = ("BN", "BC", "NW", "WL", "UN", "CTS", "OTHER")


class CorpusError(ValueError):
    """Raised on malformed corpus files or documents violating an invariant."""

    def __init__(self, message: str, *, doc_id: str | None = None, line: int | None = None):
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if doc_id is not None:
            parts.append(f"doc {doc_id!r}")
        prefix = ": ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.doc_id = doc_id
        self.line = line


class Partition:
    """A set of disjoint, non-empty mention-id clusters.

    Clusters are stored normalized (each cluster sorted, clusters ordered
    by their smallest member) so two partitions compare equal iff they
    contain the same clusters.
    """

    __slots__ = ("clusters",)

    def __init__(self, clusters: Iterable[Iterable[int]]):
        normalized = sorted(tuple(sorted(c)) for c in clusters)
        self.clusters: tuple[tuple[int, ...], ...] = tuple(normalized)

    def universe(self) -> frozenset[int]:
        return frozenset(m for c in self.clusters for m in c)

    def as_sets(self) -> set[frozenset[int]]:
        return {frozenset(c) for c in self.clusters}

    def cluster_of(self, mention_id: int) -> tuple[int, ...]:
        for c in self.clusters:
            if mention_id in c:
                return c
        raise KeyError(mention_id)

    def mention_to_cluster(self) -> dict[int, tuple[int, ...]]:
        return {m: c for c in self.clusters for m in c}

    def validate(self, universe: Iterable[int], doc_id: str | None = None) -> None:
        seen: set[int] = set()
        for c in self.clusters:
            if not c:
                raise CorpusError("invariant 'clusters non-empty' violated", doc_id=doc_id)
            for m in c:
                if type(m) is not int:
                    raise CorpusError(f"invariant 'cluster members are integers' violated: {m!r}", doc_id=doc_id)
            overlap = seen.intersection(c)
            if overlap:
                raise CorpusError(
                    f"invariant 'clusters pairwise disjoint' violated on mentions {sorted(overlap)}",
                    doc_id=doc_id,
                )
            seen.update(c)
        expected = set(universe)
        if seen != expected:
            raise CorpusError(
                "invariant 'clusters cover the mention universe' violated "
                f"(missing {sorted(expected - seen)}, extra {sorted(seen - expected)})",
                doc_id=doc_id,
            )

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.clusters == other.clusters

    def __hash__(self) -> int:
        return hash(self.clusters)

    def __repr__(self) -> str:
        return f"Partition({list(map(list, self.clusters))})"


@dataclass(eq=False)
class Mention:
    """An annotated noun-phrase span.

    Token offsets are sentence-local with an exclusive end.  ``head_start``
    and ``head_end`` are either both present or both absent; when absent the
    head defaults to the last token of the span (the full span for proper
    names).  ``unseen`` is set by the replacement protocol, never by hand.
    """

    id: int
    sent: int
    start: int
    end: int
    mtype: str
    head_start: int | None = None
    head_end: int | None = None
    number: str = "UNKNOWN"
    gender: str = "UNKNOWN"
    semclass: str = "UNKNOWN"
    animacy: str = "UNKNOWN"
    ne_tag: str = "NONE"
    subject: bool = False
    nested: bool = False
    embedded: bool = False
    indefinite: bool = False
    definite: bool = False
    demonstrative: bool = False
    quantified: bool = False
    appositive_with: int | None = None
    copular_with: int | None = None
    maximalnp_group: int | None = None
    unseen: bool = False


_MENTION_FIELDS = fields(Mention)
# Each string field is checked against its value set, every other field by
# exact type (a bool is not accepted as an int); an annotation outside the
# type table fails here, at import.
_MENTION_VALUES = {
    "mtype": MENTION_TYPES,
    "number": NUMBER_VALUES,
    "gender": GENDER_VALUES,
    "semclass": SEMCLASS_VALUES,
    "animacy": ANIMACY_VALUES,
    "ne_tag": NE_VALUES,
}
_EXACT_TYPES = {"int": (int,), "int | None": (int, type(None)), "bool": (bool,)}
_MENTION_FIELD_TYPES = {f.name: _EXACT_TYPES[f.type] for f in _MENTION_FIELDS if f.name not in _MENTION_VALUES}


@dataclass(eq=False)
class Document:
    doc_id: str
    source: str
    sentences: list[list[str]]
    mentions: list[Mention]
    gold_partition: Partition

    def mention_tokens(self, m: Mention) -> list[str]:
        return self.sentences[m.sent][m.start : m.end]

    def raw_text(self, m: Mention) -> str:
        return " ".join(self.mention_tokens(m))

    def text(self, m: Mention) -> str:
        """Lowercased full surface string of a mention."""
        return self.raw_text(m).lower()

    def spans(self) -> dict[int, tuple[int, int, int]]:
        return {m.id: (m.sent, m.start, m.end) for m in self.mentions}

    def anaphoric(self, mention_id: int) -> bool:
        """True iff the mention has a coreferent predecessor in the gold partition."""
        return min(self.gold_partition.cluster_of(mention_id)) < mention_id

    def token_offset(self, m: Mention) -> int:
        """Document-global token offset of the mention start."""
        return sum(len(s) for s in self.sentences[: m.sent]) + m.start

    def validate(self) -> None:
        did = self.doc_id
        if not isinstance(did, str):
            raise CorpusError(f"invariant 'doc_id is a string' violated: {did!r}")
        if self.source not in SOURCES:
            raise CorpusError(f"invariant 'source is a known value' violated: {self.source!r}", doc_id=did)
        if type(self.sentences) is not list:
            raise CorpusError(f"invariant 'sentences is a list' violated: {self.sentences!r}", doc_id=did)
        for si, sent in enumerate(self.sentences):
            if type(sent) is not list:
                raise CorpusError(f"invariant 'sentence is a list' violated at sentence {si}: {sent!r}", doc_id=did)
            for token in sent:
                if type(token) is not str:
                    raise CorpusError(f"invariant 'token is a string' violated at sentence {si}: {token!r}", doc_id=did)
        order_key = None
        for i, m in enumerate(self.mentions):
            for attr, allowed in _MENTION_FIELD_TYPES.items():
                value = getattr(m, attr)
                if type(value) not in allowed:
                    raise CorpusError(
                        f"invariant '{attr} is {'a boolean' if allowed[0] is bool else 'an integer'}' "
                        f"violated at mention {i}: {value!r}",
                        doc_id=did,
                    )
            if m.id != i:
                raise CorpusError(
                    f"invariant 'mention ids are 0..n-1 in document order' violated at index {i}",
                    doc_id=did,
                )
            key = (m.sent, m.start, m.end)
            if order_key is not None and key < order_key:
                raise CorpusError(
                    f"invariant 'mention ids are 0..n-1 in document order' violated at mention {m.id}",
                    doc_id=did,
                )
            if key == order_key:
                raise CorpusError(
                    f"invariant 'mention spans are distinct' violated at mention {m.id}: "
                    f"span {key} is also mention {m.id - 1}",
                    doc_id=did,
                )
            order_key = key
            if not 0 <= m.sent < len(self.sentences):
                raise CorpusError(f"invariant 'span within sentence' violated at mention {m.id}", doc_id=did)
            if not 0 <= m.start < m.end <= len(self.sentences[m.sent]):
                raise CorpusError(f"invariant 'span within sentence' violated at mention {m.id}", doc_id=did)
            if (m.head_start is None) != (m.head_end is None):
                raise CorpusError(f"invariant 'head span fully given or absent' violated at mention {m.id}", doc_id=did)
            if m.head_start is not None:
                if not m.start <= m.head_start < m.head_end <= m.end:
                    raise CorpusError(
                        f"invariant 'head span inside mention span' violated at mention {m.id}", doc_id=did
                    )
            for attr, values in _MENTION_VALUES.items():
                if getattr(m, attr) not in values:
                    raise CorpusError(
                        f"invariant '{attr} is a known value' violated at mention {m.id}: {getattr(m, attr)!r}",
                        doc_id=did,
                    )
            flags = [m.indefinite, m.definite, m.demonstrative, m.quantified]
            if sum(flags) > 1:
                raise CorpusError(
                    f"invariant 'at most one determiner flag' violated at mention {m.id}", doc_id=did
                )
            for attr in ("appositive_with", "copular_with"):
                other = getattr(m, attr)
                if other is not None:
                    if not 0 <= other < len(self.mentions) or other == m.id:
                        raise CorpusError(
                            f"invariant '{attr} references another mention' violated at mention {m.id}",
                            doc_id=did,
                        )
                    if self.mentions[other].sent != m.sent:
                        raise CorpusError(
                            f"invariant '{attr} partner in same sentence' violated at mention {m.id}",
                            doc_id=did,
                        )
        self.gold_partition.validate(range(len(self.mentions)), doc_id=did)


@dataclass
class PartitionDoc:
    """A partition-only record (key or response side) used for scoring."""

    doc_id: str
    spans: dict[int, tuple[int, int, int]]
    partition: Partition

    def validate(self) -> None:
        if not isinstance(self.doc_id, str):
            raise CorpusError(f"invariant 'doc_id is a string' violated: {self.doc_id!r}")
        by_span: dict[tuple[int, int, int], int] = {}
        for mid, span in self.spans.items():
            if not all(type(v) is int for v in (mid, *span)):
                raise CorpusError(
                    f"invariant 'mention id and span are integers' violated at mention {mid!r}",
                    doc_id=self.doc_id,
                )
            sent, start, end = span
            if sent < 0 or not 0 <= start < end:
                raise CorpusError(
                    f"invariant 'span is a non-empty token range' violated at mention {mid}: {span}",
                    doc_id=self.doc_id,
                )
            other = by_span.setdefault(span, mid)
            if other != mid:
                raise CorpusError(
                    f"invariant 'mention spans are distinct' violated at mention {mid}: "
                    f"span {span} is also mention {other}",
                    doc_id=self.doc_id,
                )
        self.partition.validate(self.spans.keys(), doc_id=self.doc_id)


def head_of(doc: Document, m: Mention) -> str:
    """Lowercased head string of a mention.

    Proper names use the entire span; pronouns and common nouns use the
    last token of the annotated head span when present, otherwise the last
    token of the mention span.
    """
    if m.mtype == "PROPER":
        return doc.text(m)
    end = m.head_end if m.head_end is not None else m.end
    return doc.sentences[m.sent][end - 1].lower()


def pronoun_entry(doc: Document, m: Mention) -> pronouns.PronounEntry | None:
    if m.mtype != "PRONOUN":
        return None
    return pronouns.lookup(doc.text(m))


# --------------------------------------------------------------------------
# UNSEEN replacement protocol
# --------------------------------------------------------------------------


def surface_vocab(docs: Sequence[Document]) -> set[str]:
    """Surface strings of mentions that survived training-side replacement."""
    return {doc.text(m) for doc in docs for m in doc.mentions if not m.unseen}


def _with_unseen(docs: Sequence[Document], is_unseen: Callable[[str], bool]) -> list[Document]:
    """New documents whose mentions are marked by their surface string."""
    return [
        replace(doc, mentions=[replace(m, unseen=is_unseen(doc.text(m))) for m in doc.mentions]) for doc in docs
    ]


def check_rate(name: str, rate: float) -> None:
    """Raise a ValueError naming ``name`` unless ``rate`` lies in [0, 1]."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {rate}")


def unseen_train(docs: Sequence[Document], rate: float, seed: int) -> list[Document]:
    """Mark roughly ``rate`` of the common-noun mentions as out-of-vocabulary.

    Replacement is closed under surface-string equality across the whole
    corpus: once any mention with a given string is drawn, every mention
    sharing that string (of any type) is marked too.  Deterministic for a
    fixed seed.
    """
    check_rate("rate", rate)
    commons = [doc.text(m) for doc in docs for m in doc.mentions if m.mtype == "COMMON"]
    common_count: dict[str, int] = {}
    for text in commons:
        common_count[text] = common_count.get(text, 0) + 1
    target = rate * len(commons)
    order = list(commons)
    random.Random(seed).shuffle(order)
    marked: set[str] = set()
    marked_count = 0
    for text in order:
        if marked_count >= target:
            break
        if text in marked:
            continue
        marked.add(text)
        marked_count += common_count[text]
    return _with_unseen(docs, marked.__contains__)


def unseen_test(docs: Sequence[Document], train_vocab: set[str]) -> list[Document]:
    """Mark every mention whose surface string was not seen in training."""
    return _with_unseen(docs, lambda text: text not in train_vocab)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def mention_to_record(m: Mention) -> dict:
    """Required fields, then every optional field that differs from its default."""
    rec = {}
    for f in _MENTION_FIELDS:
        value = getattr(m, f.name)
        if f.default is MISSING or value != f.default:
            rec[f.name] = value
    return rec


def mention_from_record(rec: dict) -> Mention:
    return Mention(**{f.name: rec[f.name] for f in _MENTION_FIELDS if f.default is MISSING or f.name in rec})


def doc_to_record(doc: Document) -> dict:
    return {
        "doc_id": doc.doc_id,
        "source": doc.source,
        "sentences": doc.sentences,
        "mentions": [mention_to_record(m) for m in doc.mentions],
        "clusters": [list(c) for c in doc.gold_partition.clusters],
    }


def doc_from_record(rec: dict) -> Document:
    if not isinstance(rec, dict):
        raise CorpusError("malformed document record: expected a JSON object")
    try:
        doc = Document(
            doc_id=rec["doc_id"],
            source=rec.get("source", "OTHER"),
            sentences=rec["sentences"],
            mentions=[mention_from_record(m) for m in rec["mentions"]],
            gold_partition=Partition(rec["clusters"]),
        )
        doc.validate()
    except (KeyError, TypeError) as exc:
        raise CorpusError(f"malformed document record: {exc}", doc_id=rec.get("doc_id")) from exc
    return doc


def _load_records(path: str, parse: Callable[[object], Document | PartitionDoc]) -> list:
    """Parse every non-blank line of a JSONL file; a failure names its line.
    Each doc_id may appear on one line only."""
    out = []
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = parse(json.loads(line))
            except json.JSONDecodeError as exc:
                raise CorpusError(f"parse error: {exc.msg}", line=lineno) from exc
            except CorpusError as exc:
                raise CorpusError(str(exc), line=lineno) from exc
            if rec.doc_id in first_line:
                raise CorpusError(
                    f"doc_id already used on line {first_line[rec.doc_id]}", doc_id=rec.doc_id, line=lineno
                )
            first_line[rec.doc_id] = lineno
            out.append(rec)
    return out


def load_corpus(path: str) -> list[Document]:
    """Load a line-delimited corpus file, validating every document."""
    return _load_records(path, doc_from_record)


def save_corpus(docs: Sequence[Document], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc_to_record(doc), ensure_ascii=False) + "\n")


def partition_doc_to_record(pd: PartitionDoc) -> dict:
    mentions = [
        {"id": mid, "sent": s, "start": a, "end": b}
        for mid, (s, a, b) in sorted(pd.spans.items())
    ]
    return {
        "doc_id": pd.doc_id,
        "mentions": mentions,
        "clusters": [list(c) for c in pd.partition.clusters],
    }


def partition_doc_from_record(rec: dict) -> PartitionDoc:
    if not isinstance(rec, dict):
        raise CorpusError("malformed partition record: expected a JSON object")
    try:
        spans = {}
        for m in rec["mentions"]:
            if m["id"] in spans:
                raise CorpusError(f"mention id {m['id']!r} is used twice", doc_id=rec.get("doc_id"))
            spans[m["id"]] = (m["sent"], m["start"], m["end"])
        pd = PartitionDoc(rec["doc_id"], spans, Partition(rec["clusters"]))
    except (KeyError, TypeError) as exc:
        raise CorpusError(f"malformed partition record: {exc}", doc_id=rec.get("doc_id")) from exc
    pd.validate()
    return pd


def key_partition_doc(doc: Document) -> PartitionDoc:
    return PartitionDoc(doc.doc_id, doc.spans(), doc.gold_partition)


def response_partition_doc(doc: Document, partition: Partition) -> PartitionDoc:
    return PartitionDoc(doc.doc_id, doc.spans(), partition)


def load_partition_file(path: str) -> list[PartitionDoc]:
    return _load_records(path, partition_doc_from_record)


def save_partition_file(pds: Sequence[PartitionDoc], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pd in pds:
            fh.write(json.dumps(partition_doc_to_record(pd), ensure_ascii=False) + "\n")
