"""Feature extraction.

Every extractor returns a sparse vector: a dict from feature name to a
non-zero real value.  Discrete features are binarized as ``NAME=VALUE``
entries with value 1.

A coreference feature set is two choices: whether it carries the
conventional rows (``fs != LEXICAL``) and whether it carries the lexical
core (``fs != CONVENTIONAL``); the combined set carries both.
``pair_features``, ``cluster_features``, ``null_option``, ``pair_scores``
and ``cluster_scores`` take the set as a parameter and read it that way.

Feature-name namespaces (collision-free by construction):
  ``NAME=VALUE``            conventional binarized features
  ``LEX:x|y``               lexical head-pair features
  ``UNSEEN-SAME/-DIFF``     unseen pair features
  ``TAG|x``, ``x|TAG``      semi-lexical pairs with one named entity
  ``TAG-SAME/-SUBSAME``     semi-lexical pairs of two named entities
  ``TAG|TAG``               semi-lexical label concatenation
  ``NULL-x``                new-cluster features for joint ranking
  ``NONE-/MOST-FALSE-/MOST-TRUE-/ALL-`` cluster-level predicate prefixes

Training, ``train --dump-instances`` and the test oracles use these name
vectors.  Decoding builds none of them: ``pair_scores`` and
``cluster_scores`` look up the ``(row, value)`` items of a pair or the
predicate counts of a cluster in the model's compiled table
(``model_table``), bit-identical to ``learn.score`` of ``pair_features``,
``cluster_features`` and ``null_option``.  Only the lexical core's names
are still built, and looked up by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from . import pronouns
from .corpus import Document, Mention, head_of, pronoun_entry

if TYPE_CHECKING:
    from .learn import LinearModel

CONVENTIONAL = "conventional"
LEXICAL = "lexical"
COMBINED = "combined"
FEATURE_SETS = (CONVENTIONAL, LEXICAL, COMBINED)

PREDICATES = ("NONE", "MOST-FALSE", "MOST-TRUE", "ALL")
_PREDICATE_PREFIXES = tuple(f"{p}-" for p in PREDICATES)

_ARTICLES = {"a", "an", "the"}
_DEMONSTRATIVES = {"this", "that", "these", "those"}
_DETERMINERS = _ARTICLES | _DEMONSTRATIVES
_QUANTIFIERS = {"every", "some", "all", "most", "many", "much", "few", "none"}
_NUMBER_WORDS = {
    "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
    "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen", "seventeen",
    "eighteen", "nineteen", "twenty", "thirty", "forty", "fifty", "sixty", "seventy",
    "eighty", "ninety", "hundred", "thousand", "million", "billion",
}
# Crude surface test for adjectives in the-X-noun patterns; no POS tags are
# available, so suffix shape is the only signal.
_ADJ_SUFFIXES = ("al", "ous", "ful", "ive", "ic", "able", "ible", "ant", "ent", "less", "ish", "ary")

_DISTANCE_BINS = ("0", "1", "2", "3", "4", "5+")


def distance_bin(sent_j: int, sent_k: int) -> str:
    d = sent_k - sent_j
    return "5+" if d >= 5 else str(d)


# --------------------------------------------------------------------------
# Mention attributes (lexicon overrides annotation for pronouns)
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MentionAttrs:
    """Text-derived attributes of one mention.

    ``text`` is the lowercased surface string of the surface ``tokens``;
    ``head`` and ``pronoun`` are ``corpus.head_of`` and
    ``corpus.pronoun_entry``; ``modifiers`` are the sorted lowercased
    non-head tokens after leading determiners (none for proper names);
    ``initials`` joins the initials of the capitalized tokens; ``compact``
    is the uppercased text without dots and spaces; ``stripped`` holds the
    lowercased tokens after leading determiners.
    """

    text: str
    tokens: list[str]
    head: str
    pronoun: pronouns.PronounEntry | None
    modifiers: list[str]
    initials: str
    compact: str
    stripped: list[str]


def _mention_attrs(doc: Document, m: Mention) -> MentionAttrs:
    tokens = doc.mention_tokens(m)
    text = doc.text(m)
    lowered = [t.lower() for t in tokens]
    lead = 0
    while lead < len(lowered) and lowered[lead] in _DETERMINERS:
        lead += 1
    modifiers: list[str] = []
    if m.mtype != "PROPER":
        hs = m.head_start if m.head_start is not None else m.end - 1
        he = m.head_end if m.head_end is not None else m.end
        for pos, t in enumerate(lowered, start=m.start):
            if not hs <= pos < he and (modifiers or t not in _DETERMINERS):
                modifiers.append(t)
    return MentionAttrs(
        text=text,
        tokens=tokens,
        head=head_of(doc, m),
        pronoun=pronoun_entry(doc, m),
        modifiers=sorted(modifiers),
        initials="".join(t[0].upper() for t in tokens if t[:1].isupper()),
        compact=text.replace(".", "").replace(" ", "").upper(),
        stripped=lowered[lead:],
    )


def mention_table(doc: Document) -> tuple[MentionAttrs, ...]:
    """The attributes of every mention of ``doc``, indexed by mention id.

    Built on first use and stored on the document itself, so it lives as
    long as the document does and no state is shared between documents.
    It holds only what derives from the sentences and the span and type
    fields, which do not change after load; flags such as ``unseen`` are
    read from the mention on every call.
    """
    table = doc.__dict__.get("_mention_table")
    if table is None:
        table = doc.__dict__["_mention_table"] = tuple(_mention_attrs(doc, m) for m in doc.mentions)
    return table


def _number(entry: pronouns.PronounEntry | None, m: Mention) -> str:
    return entry.number if entry is not None else m.number


def _gender(entry: pronouns.PronounEntry | None, m: Mention) -> str:
    return entry.gender if entry is not None else m.gender


def _pro_type(entry: pronouns.PronounEntry | None) -> str:
    """Nominative-case form of a pronoun, NA for everything else."""
    return entry.nominative.upper() if entry is not None else "NA"


def animacy_flag(m: Mention) -> str:
    return "Y" if m.animacy == "Y" else "N"


def alias(doc: Document, j: Mention, k: Mention) -> bool:
    """Abbreviation/acronym test between two mentions.

    True when (a) one string equals the concatenated initials of the
    other's capitalized tokens, (b) one is a token-prefix of the other
    after determiner stripping and both are proper names, or (c) the
    strings are identical and carry the same non-NONE NE tag.
    """
    table = mention_table(doc)
    aj = table[j.id]
    ak = table[k.id]
    if len(aj.initials) >= 2 and ak.compact == aj.initials:
        return True
    if len(ak.initials) >= 2 and aj.compact == ak.initials:
        return True
    if j.mtype == "PROPER" and k.mtype == "PROPER":
        sj, sk = aj.stripped, ak.stripped
        if sj and sk and (sj == sk[: len(sj)] or sk == sj[: len(sk)]):
            return True
    if j.ne_tag != "NONE" and j.ne_tag == k.ne_tag and aj.text == ak.text:
        return True
    return False


# --------------------------------------------------------------------------
# Conventional pair features
# --------------------------------------------------------------------------

def _yn(flag: bool) -> str:
    return "Y" if flag else "N"


def _ci(flag: bool) -> str:
    return "C" if flag else "I"


def _agree(a: str, b: str, unknown: str = "UNKNOWN") -> str:
    if a == unknown or b == unknown:
        return "NA"
    return _ci(a == b)


def _binarize(values: dict[str, str]) -> dict[str, float]:
    return {f"{name}={value}": 1.0 for name, value in values.items()}


def block1_values(m: Mention) -> dict[str, str]:
    return {"PRONOUN_1": _yn(m.mtype == "PRONOUN"), "SUBJECT_1": _yn(m.subject), "NESTED_1": _yn(m.nested)}


def block2_values(doc: Document, m: Mention) -> dict[str, str]:
    entry = mention_table(doc)[m.id].pronoun
    return {
        "NUMBER_2": _number(entry, m),
        "GENDER_2": _gender(entry, m),
        "PRONOUN_2": _yn(m.mtype == "PRONOUN"),
        "NESTED_2": _yn(m.nested),
        "SEMCLASS_2": m.semclass,
        "ANIMACY_2": animacy_flag(m),
        "PRO_TYPE_2": _pro_type(entry),
    }


def block2_features(doc: Document, m: Mention) -> dict[str, float]:
    return _binarize(block2_values(doc, m))


def _spans_other(j: Mention, k: Mention) -> bool:
    if j.sent != k.sent:
        return False
    return (j.start <= k.start and k.end <= j.end) or (k.start <= j.start and j.end <= k.end)


def _appositive_pair(j: Mention, k: Mention) -> bool:
    return j.appositive_with == k.id or k.appositive_with == j.id


def _copular_pair(j: Mention, k: Mention) -> bool:
    return j.copular_with == k.id or k.copular_with == j.id


def relational_values(doc: Document, j: int, k: int) -> dict[str, str]:
    """Row -> value of the 29 conventional rows that relate the two mentions
    (every row after block 2), in ``pair_features`` order.

    These are the rows the cluster predicates quantify over.
    """
    mj = doc.mentions[j]
    mk = doc.mentions[k]
    table = mention_table(doc)
    aj = table[j]
    ak = table[k]
    sj = aj.text
    sk = ak.text
    pron_j = mj.mtype == "PRONOUN"
    pron_k = mk.mtype == "PRONOUN"
    prop_j = mj.mtype == "PROPER"
    prop_k = mk.mtype == "PROPER"
    num_j, num_k = _number(aj.pronoun, mj), _number(ak.pronoun, mk)
    gen_j, gen_k = _gender(aj.pronoun, mj), _gender(ak.pronoun, mk)
    pt_j, pt_k = _pro_type(aj.pronoun), _pro_type(ak.pronoun)
    values: dict[str, str] = {
        "HEAD_MATCH": _ci(aj.head == ak.head),
        "STR_MATCH": _ci(sj == sk),
        "SUBSTR_MATCH": _ci(sj in sk or sk in sj),
        "PRO_STR_MATCH": _ci(pron_j and pron_k and sj == sk),
        "PN_STR_MATCH": _ci(prop_j and prop_k and sj == sk),
        "NONPRO_STR_MATCH": _ci(not pron_j and not pron_k and sj == sk),
    }
    if not aj.modifiers or not ak.modifiers:
        values["MODIFIER_MATCH"] = "NA"
    else:
        values["MODIFIER_MATCH"] = _ci(aj.modifiers == ak.modifiers)
    if not (pron_j and pron_k):
        values["PRO_TYPE_MATCH"] = "NA"
    else:
        values["PRO_TYPE_MATCH"] = _ci(sj == sk or (pt_j != "NA" and pt_j == pt_k))
    values["NUMBER"] = _agree(num_j, num_k)
    values["GENDER"] = _agree(gen_j, gen_k)
    if values["NUMBER"] == "C" and values["GENDER"] == "C":
        values["AGREEMENT"] = "C"
    elif values["NUMBER"] == "I" and values["GENDER"] == "I":
        values["AGREEMENT"] = "I"
    else:
        values["AGREEMENT"] = "NA"
    values["ANIMACY"] = _agree(mj.animacy, mk.animacy)
    values["BOTH_PRONOUNS"] = "C" if pron_j and pron_k else ("I" if not pron_j and not pron_k else "NA")
    values["BOTH_PROPER_NOUNS"] = "C" if prop_j and prop_k else ("I" if not prop_j and not prop_k else "NA")
    # As specified: compatible iff the maximal-NP groups differ.
    same_group = (
        mj.maximalnp_group is not None
        and mk.maximalnp_group is not None
        and mj.maximalnp_group == mk.maximalnp_group
    )
    values["MAXIMALNP"] = _ci(not same_group)
    values["SPAN"] = _ci(not _spans_other(mj, mk))
    values["INDEFINITE"] = _ci(mk.indefinite and mk.appositive_with is None)
    values["APPOSITIVE"] = _ci(_appositive_pair(mj, mk))
    values["COPULAR"] = _ci(_copular_pair(mj, mk))
    values["SEMCLASS"] = _agree(mj.semclass, mk.semclass)
    values["ALIAS"] = _ci(alias(doc, mj, mk))
    values["DISTANCE"] = distance_bin(mj.sent, mk.sent)
    values["NUMBER'"] = f"{num_j}-{num_k}"
    values["GENDER'"] = f"{gen_j}-{gen_k}"
    values["PRONOUN'"] = f"{_yn(pron_j)}-{_yn(pron_k)}"
    values["NESTED'"] = f"{_yn(mj.nested)}-{_yn(mk.nested)}"
    values["SEMCLASS'"] = f"{mj.semclass}-{mk.semclass}"
    values["ANIMACY'"] = f"{animacy_flag(mj)}-{animacy_flag(mk)}"
    values["PRO_TYPE'"] = f"{pt_j}-{pt_k}"
    return values


# --------------------------------------------------------------------------
# Anaphoricity features
# --------------------------------------------------------------------------


def _is_cardinal(token: str) -> bool:
    t = token.lower().replace(",", "")
    return t.replace(".", "", 1).isdigit() or t in _NUMBER_WORDS


def _looks_adjective(token: str) -> bool:
    t = token.lower()
    return len(t) > 4 and t.isalpha() and t.endswith(_ADJ_SUFFIXES)


def _capitalized(token: str) -> bool:
    return token[:1].isupper()


def _contained_mentions(doc: Document, m: Mention) -> list[Mention]:
    return [
        o
        for o in doc.mentions
        if o.id != m.id and o.sent == m.sent and m.start <= o.start and o.end <= m.end
    ]


def anaphoricity(doc: Document, k: int) -> dict[str, float]:
    """The 26 binarized features used to decide whether a mention is anaphoric."""
    mk = doc.mentions[k]
    table = mention_table(doc)
    ak = table[k]
    tokens = ak.tokens
    preceding = table[:k]
    str_match = any(aj.stripped == ak.stripped for aj in preceding)
    head_match = any(aj.head == ak.head for aj in preceding)
    alias_match = any(alias(doc, mj, mk) for mj in doc.mentions[:k])
    first = tokens[0].lower()
    number = _number(ak.pronoun, mk)
    rest = tokens[1:]
    the = first == "the"
    # Capitalized tokens count as proper-noun evidence except in
    # sentence-initial position, where capitalization is uninformative.
    contains_pn = mk.mtype != "PROPER" and (
        any(o.mtype == "PROPER" for o in _contained_mentions(doc, mk))
        or any(_capitalized(t) for i, t in enumerate(tokens, start=mk.start) if i != 0)
    )
    ne_rest = any(
        o.ne_tag != "NONE" and o.start == mk.start + 1 and o.end == mk.end
        for o in _contained_mentions(doc, mk)
    )
    if mk.definite:
        article = "DEFINITE"
    elif mk.quantified:
        article = "QUANTIFIED"
    else:
        article = "INDEFINITE"
    values = {
        "STR_MATCH": _yn(str_match),
        "HEAD_MATCH": _yn(head_match),
        "UPPERCASE": _yn(" ".join(tokens).isupper()),
        "DEFINITE": _yn(the),
        "DEMONSTRATIVE": _yn(first in _DEMONSTRATIVES),
        "INDEFINITE": _yn(first in {"a", "an"}),
        "QUANTIFIED": _yn(first in _QUANTIFIERS),
        "ARTICLE": article,
        "PRONOUN": _yn(mk.mtype == "PRONOUN"),
        "PROPER_NOUN": _yn(mk.mtype == "PROPER"),
        "BARE_SINGULAR": _yn(number == "SINGULAR" and first not in _ARTICLES),
        "BARE_PLURAL": _yn(number == "PLURAL" and first not in _ARTICLES),
        "EMBEDDED": _yn(mk.embedded),
        "APPOSITIVE": _yn(mk.appositive_with is not None and mk.appositive_with > mk.id),
        "PREDNOM": _yn(mk.copular_with is not None and mk.copular_with > mk.id),
        "NUMBER": number,
        "CONTAINS_PN": _yn(contains_pn),
        "THE_N": _yn(the and len(tokens) == 2 and tokens[1].islower()),
        "THE_2N": _yn(
            the
            and len(tokens) == 3
            and tokens[1].islower()
            and tokens[2].islower()
            and not _looks_adjective(tokens[1])
            and not _is_cardinal(tokens[1])
        ),
        "THE_PN": _yn(the and len(tokens) == 2 and _capitalized(tokens[1])),
        "THE_PN_N": _yn(
            the and len(tokens) == 3 and _capitalized(tokens[1]) and tokens[2].islower()
        ),
        "THE_ADJ_N": _yn(
            the and len(tokens) == 3 and _looks_adjective(tokens[1]) and tokens[2].islower()
        ),
        "THE_NUM_N": _yn(
            the and len(tokens) == 3 and _is_cardinal(tokens[1]) and tokens[2].islower()
        ),
        "THE_NE": _yn(the and len(tokens) >= 2 and (ne_rest or all(map(_capitalized, rest)))),
        "THE_SING_N": _yn(
            the and number == "SINGULAR" and len(tokens) >= 2 and not any(map(_capitalized, rest))
        ),
        "ALIAS": _yn(alias_match),
    }
    return _binarize(values)


# --------------------------------------------------------------------------
# Lexical pair features
# --------------------------------------------------------------------------


def _word_subset(tokens_a: list[str], tokens_b: list[str]) -> bool:
    a = {t.lower() for t in tokens_a}
    b = {t.lower() for t in tokens_b}
    return a <= b or b <= a


def _lexical_core(doc: Document, j: int, k: int) -> dict[str, float]:
    """Unseen, lexical, and semi-lexical features only (no ALIAS/DISTANCE)."""
    mj = doc.mentions[j]
    mk = doc.mentions[k]
    table = mention_table(doc)
    aj = table[j]
    ak = table[k]
    if mj.unseen and mk.unseen:
        name = "UNSEEN-SAME" if aj.text == ak.text else "UNSEEN-DIFF"
        return {name: 1.0}
    if mj.unseen or mk.unseen:
        return {}
    ne_j = mj.ne_tag != "NONE"
    ne_k = mk.ne_tag != "NONE"
    if not ne_j and not ne_k:
        return {f"LEX:{aj.head}|{ak.head}": 1.0}
    if ne_j != ne_k:
        left = mj.ne_tag if ne_j else aj.head
        right = ak.head if ne_j else mk.ne_tag
        return {f"{left}|{right}": 1.0}
    if aj.text == ak.text:
        return {f"{mj.ne_tag}-SAME": 1.0}
    if mj.ne_tag == mk.ne_tag and _word_subset(aj.tokens, ak.tokens):
        return {f"{mj.ne_tag}-SUBSAME": 1.0}
    return {f"{mj.ne_tag}|{mk.ne_tag}": 1.0}


def _lexical_values(doc: Document, j: int, k: int) -> dict[str, str]:
    """The ALIAS and DISTANCE rows the lexical set carries over."""
    mj = doc.mentions[j]
    mk = doc.mentions[k]
    return {"ALIAS": _ci(alias(doc, mj, mk)), "DISTANCE": distance_bin(mj.sent, mk.sent)}


# --------------------------------------------------------------------------
# Cluster-level features
# --------------------------------------------------------------------------

# Fixed value alphabets for the relational rows whose domain is closed; the
# cluster predicates quantify over every value of these rows, so an entirely
# absent value still surfaces as its NONE- feature.
_CI_ROWS = (
    "HEAD_MATCH",
    "STR_MATCH",
    "SUBSTR_MATCH",
    "PRO_STR_MATCH",
    "PN_STR_MATCH",
    "NONPRO_STR_MATCH",
    "MAXIMALNP",
    "SPAN",
    "INDEFINITE",
    "APPOSITIVE",
    "COPULAR",
    "ALIAS",
)
_CIN_ROWS = (
    "MODIFIER_MATCH",
    "PRO_TYPE_MATCH",
    "NUMBER",
    "GENDER",
    "AGREEMENT",
    "ANIMACY",
    "BOTH_PRONOUNS",
    "BOTH_PROPER_NOUNS",
    "SEMCLASS",
)
RELATIONAL_ALPHABETS: dict[str, tuple[str, ...]] = {}
RELATIONAL_ALPHABETS.update({row: ("C", "I") for row in _CI_ROWS})
RELATIONAL_ALPHABETS.update({row: ("C", "I", "NA") for row in _CIN_ROWS})
RELATIONAL_ALPHABETS["DISTANCE"] = _DISTANCE_BINS

# Concatenation rows have large in-principle alphabets; their predicates are
# emitted only for values realized among the member pairs of an instance.
_CONCAT_ROWS = ("NUMBER'", "GENDER'", "PRONOUN'", "NESTED'", "SEMCLASS'", "ANIMACY'", "PRO_TYPE'")
_LEXICAL_PREDICATE_ROWS = ("ALIAS", "DISTANCE")
_CLUSTER_ROWS = tuple(RELATIONAL_ALPHABETS) + _CONCAT_ROWS


# For every closed-alphabet row, each (row, value) count key with its four
# predicate names in PREDICATES order: built once here, not once per cluster.
_PREDICATE_NAMES: dict[str, tuple[tuple[tuple[str, str], tuple[str, ...]], ...]] = {
    row: tuple(((row, value), tuple(f"{p}-{row}={value}" for p in PREDICATES)) for value in alphabet)
    for row, alphabet in RELATIONAL_ALPHABETS.items()
}


def predicate_prefix(count: int, size: int) -> str:
    """NONE / MOST-FALSE / MOST-TRUE / ALL per the true-count of a binarized
    feature over the cluster members."""
    if count == 0:
        return "NONE"
    if count == size:
        return "ALL"
    if count * 2 < size:
        return "MOST-FALSE"
    return "MOST-TRUE"


def _predicate_features(
    members: Sequence[Iterable[tuple[str, str]]], rows: Iterable[str]
) -> dict[str, float]:
    """Predicate features over the ``(row, value)`` pairs of each member.

    A closed-alphabet row yields one predicate per value of its alphabet;
    any other row yields one per value realized among the members, in
    sorted order.
    """
    size = len(members)
    # A plain dict, not Counter: Counter.update's isinstance(x, Mapping)
    # check caches each new iterable type in the ABC registries for the
    # life of the process.
    counts: dict[tuple[str, str], int] = {}
    for items in members:
        for item in items:
            counts[item] = counts.get(item, 0) + 1
    realized: dict[str, list[str]] = {}
    for row, value in counts:
        if row not in _PREDICATE_NAMES:
            realized.setdefault(row, []).append(value)
    out: dict[str, float] = {}
    for row in rows:
        named = _PREDICATE_NAMES.get(row)
        if named is not None:
            for key, names in named:
                count = counts.get(key, 0)
                # predicate_prefix's rule as an index into PREDICATES, inlined
                # because this line runs ~60 times per cluster vector
                i = 0 if count == 0 else 3 if count == size else 1 if count * 2 < size else 2
                out[names[i]] = 1.0
        else:
            for value in sorted(realized.get(row, ())):
                out[f"{predicate_prefix(counts[row, value], size)}-{row}={value}"] = 1.0
    return out


def null_option(doc: Document, k: int, fs: str = CONVENTIONAL) -> dict[str, float]:
    """Features for the start-a-new-cluster option of the joint rankers."""
    _check_feature_set(fs)
    out = block2_features(doc, doc.mentions[k]) if fs != LEXICAL else {}
    if fs != CONVENTIONAL:
        out[_null_name(doc, k)] = 1.0
    return out


def _null_name(doc: Document, k: int) -> str:
    return "NULL-UNSEEN" if doc.mentions[k].unseen else f"NULL-{mention_table(doc)[k].head}"


# --------------------------------------------------------------------------
# Decode-time scoring from the model's (row, value) table
# --------------------------------------------------------------------------

_CONCAT_RANK = {row: i for i, row in enumerate(_CONCAT_ROWS)}

# The four weights of one (row, value) in PREDICATES order, 0.0 where the
# model has no weight.  x + 0.0 is x bit for bit unless x is -0.0, which a
# sum started at +0.0 never is, so adding 0.0 equals skipping the name.
_Weights4 = tuple[float, float, float, float]


@dataclass(frozen=True, slots=True)
class ModelTable:
    """A model's weights keyed by ``(row, value)`` instead of by name.

    ``pair`` holds the plain weight of every ``ROW=VALUE`` name that is not
    a cluster predicate.  ``conventional`` and ``lexical`` list the
    closed-alphabet cluster-predicate entries of each set's predicate rows
    in ``RELATIONAL_ALPHABETS`` order, only those with a weight; ``concat``
    maps a realized concatenation ``(row, value)`` to its sort key (row
    rank, value) and its weights.
    """

    pair: dict[tuple[str, str], float]
    conventional: tuple[tuple[tuple[str, str], _Weights4], ...]
    lexical: tuple[tuple[tuple[str, str], _Weights4], ...]
    concat: dict[tuple[str, str], tuple[tuple[int, str], _Weights4]]


def _compile_model_table(weights: dict[str, float]) -> ModelTable:
    pair: dict[tuple[str, str], float] = {}
    table: dict[tuple[str, str], list[float]] = {}
    for name, w in weights.items():
        for i, prefix in enumerate(_PREDICATE_PREFIXES):
            if name.startswith(prefix):
                # Row names hold no "=", so the first one ends the row.
                row, sep, value = name[len(prefix) :].partition("=")
                if sep and row in _CLUSTER_ROWS:
                    table.setdefault((row, value), [0.0, 0.0, 0.0, 0.0])[i] = w
                break
        else:
            row, sep, value = name.partition("=")
            if sep:
                pair[row, value] = w

    def closed(rows: Iterable[str]) -> tuple[tuple[tuple[str, str], _Weights4], ...]:
        keys = ((row, value) for row in rows for value in RELATIONAL_ALPHABETS[row])
        return tuple((key, tuple(table[key])) for key in keys if key in table)

    return ModelTable(
        pair=pair,
        conventional=closed(RELATIONAL_ALPHABETS),
        lexical=closed(_LEXICAL_PREDICATE_ROWS),
        concat={
            (row, value): ((_CONCAT_RANK[row], value), tuple(ws))
            for (row, value), ws in table.items()
            if row in _CONCAT_RANK
        },
    )


def model_table(model: LinearModel) -> ModelTable:
    """The ``(row, value)`` table of ``model``, compiled on first use.

    Stored on the model itself, as ``mention_table`` is on the document, so
    it lives exactly as long as the model.  Weights are never changed in
    place once a model is built.
    """
    table = model.__dict__.get("_model_table")
    if table is None:
        table = model.__dict__["_model_table"] = _compile_model_table(model.weights)
    return table


def _block2_terms(doc: Document, model: LinearModel, k: int, fs: str) -> tuple[list[float], float, float]:
    """Mention k's block-2 weights in ``block2_values`` order (none without
    the conventional rows), their sum from 0.0, and the new-cluster score
    before the bias: that sum plus the ``NULL-`` weight of the lexical
    core, as ``learn.score`` adds up ``null_option``."""
    pair = model_table(model).pair
    block2 = [pair.get(item, 0.0) for item in block2_values(doc, doc.mentions[k]).items()] if fs != LEXICAL else []
    total = 0.0
    for w in block2:
        total += w
    null = total
    if fs != CONVENTIONAL:
        w = model.weights.get(_null_name(doc, k))
        if w is not None:
            null += w
    return block2, total, null


def _add_core(total: float, weights: dict[str, float], doc: Document, j: int, k: int) -> float:
    for name, value in _lexical_core(doc, j, k).items():
        w = weights.get(name)
        if w is not None:
            total += w * value
    return total


def pair_scores(doc: Document, model: LinearModel, k: int, fs: str) -> tuple[list[float], float]:
    """The scores of mention k against each preceding mention j = 0..k-1
    and against the new-cluster option.

    Each equals ``learn.score`` of ``pair_features`` (or ``null_option``)
    bit for bit: the terms are added in the vector's insertion order and the
    bias is subtracted last.  With the conventional rows that is block 1,
    block 2, the 29 relational rows, then the lexical core; without them,
    the core, then ALIAS and DISTANCE unless a mention is replaced.  No
    feature name is built except the lexical core's.  Block 2 is looked up
    once, and the sum of blocks 1 and 2 is kept per block-1 value.
    """
    _check_feature_set(fs)
    pair = model_table(model).pair
    weights = model.weights
    conventional = fs != LEXICAL
    lexical = fs != CONVENTIONAL
    block2, _, null = _block2_terms(doc, model, k, fs)
    mentions = doc.mentions
    unseen_k = mentions[k].unseen
    prefixes: dict[tuple[str, bool, bool], float] = {}
    scores = []
    for j in range(k):
        mj = mentions[j]
        if conventional:
            key = (mj.mtype, mj.subject, mj.nested)
            total = prefixes.get(key)
            if total is None:
                total = 0.0
                for item in block1_values(mj).items():
                    total += pair.get(item, 0.0)
                for w in block2:
                    total += w
                prefixes[key] = total
            for item in relational_values(doc, j, k).items():
                total += pair.get(item, 0.0)
            if lexical:
                total = _add_core(total, weights, doc, j, k)
        else:
            total = _add_core(0.0, weights, doc, j, k)
            if not mj.unseen and not unseen_k:
                for item in _lexical_values(doc, j, k).items():
                    total += pair.get(item, 0.0)
        scores.append(total - model.bias)
    return scores, null - model.bias


def cluster_scores(
    doc: Document, model: LinearModel, clusters: Sequence[Sequence[int]], k: int, fs: str
) -> tuple[list[float], float]:
    """The scores of mention k against each of ``clusters`` (each in
    ascending order, all members before k) and against the new-cluster
    option.

    Each equals ``learn.score`` of ``cluster_features`` (or ``null_option``)
    bit for bit: the terms are added in the vector's insertion order, block
    2, then the closed-alphabet predicates, the realized concatenation
    values in sorted order and the lexical core in first-appearance order,
    and the bias is subtracted last.  No feature name is built except the
    lexical core's; block 2 is summed once and starts every candidate.
    """
    _check_feature_set(fs)
    table = model_table(model)
    weights = model.weights
    conventional = fs != LEXICAL
    lexical = fs != CONVENTIONAL
    _, block2, null = _block2_terms(doc, model, k, fs)

    closed = table.conventional if conventional else table.lexical
    concat = table.concat
    values_of = relational_values if conventional else _lexical_values
    scores = []
    for members in clusters:
        size = len(members)
        counts: dict[tuple[str, str], int] = {}
        for j in members:
            for item in values_of(doc, j, k).items():
                counts[item] = counts.get(item, 0) + 1
        total = block2
        for key, ws in closed:
            count = counts.get(key, 0)
            # predicate_prefix's rule as an index into PREDICATES
            total += ws[0 if count == 0 else 3 if count == size else 1 if count * 2 < size else 2]
        if conventional:
            realized = sorted((concat[key], count) for key, count in counts.items() if key in concat)
            for (_, ws), count in realized:
                total += ws[3 if count == size else 1 if count * 2 < size else 2]
        if lexical:
            core: dict[str, float] = {}
            for j in members:
                for name, value in _lexical_core(doc, j, k).items():
                    core[name] = core.get(name, 0.0) + value
            for name, value in core.items():
                w = weights.get(name)
                if w is not None:
                    total += w * value
        scores.append(total - model.bias)
    return scores, null - model.bias


# --------------------------------------------------------------------------
# Name vectors per feature set
# --------------------------------------------------------------------------


def _check_feature_set(fs: str) -> None:
    if fs not in FEATURE_SETS:
        raise ValueError(f"unknown feature set {fs!r}; expected one of {FEATURE_SETS}")


def pair_features(doc: Document, j: int, k: int, fs: str) -> dict[str, float]:
    """The name vector of candidate j and anaphor k under feature set ``fs``.

    The conventional rows are the 39 binarized block-1, block-2 and
    relational features.  The lexical set starts from the lexical core and
    adds the ALIAS and DISTANCE rows unless a mention is replaced, so a pair
    with exactly one replaced mention yields nothing and a pair of two
    yields exactly one unseen feature.  The combined set's ALIAS and
    DISTANCE are already among its conventional rows, so it adds only the
    core, after them.
    """
    _check_feature_set(fs)
    if not j < k:
        raise ValueError(f"pair features require j < k, got ({j}, {k})")
    conventional = fs != LEXICAL
    lexical = fs != CONVENTIONAL
    mj = doc.mentions[j]
    mk = doc.mentions[k]
    if not conventional:
        out = _lexical_core(doc, j, k)
        if not mj.unseen and not mk.unseen:
            out.update(_binarize(_lexical_values(doc, j, k)))
        return out
    values = block1_values(mj)
    values.update(block2_values(doc, mk))
    values.update(relational_values(doc, j, k))
    out = _binarize(values)
    if lexical:
        out.update(_lexical_core(doc, j, k))
    return out


def cluster_features(doc: Document, c: Iterable[int], k: int, fs: str) -> dict[str, float]:
    """The name vector of anaphor k against the preceding cluster ``c``.

    With the conventional rows: k's own block 2, then one logical predicate
    per binarized relational feature over the members.  Without them: the
    predicates of the ALIAS and DISTANCE rows only.  With the lexical core:
    every member's pairwise core features after those, each valued by how
    often it fires across the members.
    """
    _check_feature_set(fs)
    members = sorted(c)
    if not members:
        raise ValueError("cluster features require a non-empty cluster")
    if members[-1] >= k:
        raise ValueError(f"all cluster members must precede mention {k}")
    conventional = fs != LEXICAL
    lexical = fs != CONVENTIONAL
    out = block2_features(doc, doc.mentions[k]) if conventional else {}
    values_of = relational_values if conventional else _lexical_values
    rows = _CLUSTER_ROWS if conventional else _LEXICAL_PREDICATE_ROWS
    out.update(_predicate_features([values_of(doc, j, k).items() for j in members], rows))
    if lexical:
        for j in members:
            for name, value in _lexical_core(doc, j, k).items():
                out[name] = out.get(name, 0.0) + value
    return out


# --------------------------------------------------------------------------
# Feature typing for ablation
# --------------------------------------------------------------------------


def strip_predicate(name: str) -> str:
    for prefix in _PREDICATE_PREFIXES:
        if name.startswith(prefix):
            return name[len(prefix) :]
    return name


_STRING_MATCH_ROWS = {
    "HEAD_MATCH",
    "STR_MATCH",
    "SUBSTR_MATCH",
    "PRO_STR_MATCH",
    "PN_STR_MATCH",
    "NONPRO_STR_MATCH",
    "MODIFIER_MATCH",
    "PRO_TYPE_MATCH",
}
_SEMANTIC_ROWS = {"SEMCLASS_2", "SEMCLASS", "ALIAS", "SEMCLASS'"}


def fine_feature_type(name: str) -> str:
    """Fine-grained type of a coreference feature name.

    One of: unseen, lexical, semi-lexical, distance, alias,
    string-matching, semantic, grammatical.
    """
    base = strip_predicate(name)
    if base in ("UNSEEN-SAME", "UNSEEN-DIFF") or base == "NULL-UNSEEN":
        return "unseen"
    if base.startswith("LEX:") or base.startswith("NULL-"):
        return "lexical"
    if "=" in base:
        row = base.split("=", 1)[0]
        if row == "DISTANCE":
            return "distance"
        if row == "ALIAS":
            return "alias"
        if row in _STRING_MATCH_ROWS:
            return "string-matching"
        if row in _SEMANTIC_ROWS:
            return "semantic"
        return "grammatical"
    return "semi-lexical"
