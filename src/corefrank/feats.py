"""Feature extraction.

Every extractor returns a sparse vector: a dict from feature name to a
non-zero real value.  Discrete features are binarized as ``NAME=VALUE``
entries with value 1, so a pair vector from the conventional extractor
always carries exactly 39 entries, one per feature.

Feature-name namespaces (collision-free by construction):
  ``NAME=VALUE``            conventional binarized features
  ``LEX:x|y``               lexical head-pair features
  ``UNSEEN-SAME/-DIFF``     unseen pair features
  ``TAG|x``, ``x|TAG``      semi-lexical pairs with one named entity
  ``TAG-SAME/-SUBSAME``     semi-lexical pairs of two named entities
  ``TAG|TAG``               semi-lexical label concatenation
  ``NULL-x``                new-cluster features for joint ranking
  ``NONE-/MOST-FALSE-/MOST-TRUE-/ALL-`` cluster-level predicate prefixes
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from . import pronouns
from .corpus import Document, Mention, head_of, pronoun_entry

CONVENTIONAL = "conventional"
LEXICAL = "lexical"
COMBINED = "combined"
FEATURE_SETS = (CONVENTIONAL, LEXICAL, COMBINED)

PREDICATES = ("NONE", "MOST-FALSE", "MOST-TRUE", "ALL")

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


def number_of(doc: Document, m: Mention) -> str:
    entry = pronoun_entry(doc, m)
    return entry.number if entry is not None else m.number


def gender_of(doc: Document, m: Mention) -> str:
    entry = pronoun_entry(doc, m)
    return entry.gender if entry is not None else m.gender


def pro_type_of(doc: Document, m: Mention) -> str:
    """Nominative-case form of a pronoun, NA for everything else."""
    entry = pronoun_entry(doc, m)
    return entry.nominative.upper() if entry is not None else "NA"


def animacy_flag(m: Mention) -> str:
    return "Y" if m.animacy == "Y" else "N"


def _strip_determiners(tokens: list[str]) -> list[str]:
    i = 0
    while i < len(tokens) and tokens[i].lower() in _DETERMINERS:
        i += 1
    return tokens[i:]


def _modifiers(doc: Document, m: Mention) -> list[str]:
    """Non-head tokens of the span, minus leading determiners, lowercased."""
    if m.mtype == "PROPER":
        return []
    hs = m.head_start if m.head_start is not None else m.end - 1
    he = m.head_end if m.head_end is not None else m.end
    tokens = [
        t.lower()
        for i, t in enumerate(doc.mention_tokens(m), start=m.start)
        if not hs <= i < he
    ]
    out = []
    skipping = True
    for t in tokens:
        if skipping and t in _DETERMINERS:
            continue
        skipping = False
        out.append(t)
    return out


def _initials(tokens: list[str]) -> str:
    return "".join(t[0].upper() for t in tokens if t[:1].isupper())


def alias(doc: Document, j: Mention, k: Mention) -> bool:
    """Abbreviation/acronym test between two mentions.

    True when (a) one string equals the concatenated initials of the
    other's capitalized tokens, (b) one is a token-prefix of the other
    after determiner stripping and both are proper names, or (c) the
    strings are identical and carry the same non-NONE NE tag.
    """
    tj = doc.mention_tokens(j)
    tk = doc.mention_tokens(k)
    sj = doc.text(j)
    sk = doc.text(k)
    compact_j = sj.replace(".", "").replace(" ", "").upper()
    compact_k = sk.replace(".", "").replace(" ", "").upper()
    ij = _initials(tj)
    ik = _initials(tk)
    if len(ij) >= 2 and compact_k == ij:
        return True
    if len(ik) >= 2 and compact_j == ik:
        return True
    if j.mtype == "PROPER" and k.mtype == "PROPER":
        aj = [t.lower() for t in _strip_determiners(tj)]
        ak = [t.lower() for t in _strip_determiners(tk)]
        if aj and ak and (aj == ak[: len(aj)] or ak == aj[: len(ak)]):
            return True
    if j.ne_tag != "NONE" and j.ne_tag == k.ne_tag and sj == sk:
        return True
    return False


# --------------------------------------------------------------------------
# Conventional pair features
# --------------------------------------------------------------------------

BLOCK1_NAMES = ("PRONOUN_1", "SUBJECT_1", "NESTED_1")
BLOCK2_NAMES = ("NUMBER_2", "GENDER_2", "PRONOUN_2", "NESTED_2", "SEMCLASS_2", "ANIMACY_2", "PRO_TYPE_2")


def _yn(flag: bool) -> str:
    return "Y" if flag else "N"


def _ci(flag: bool) -> str:
    return "C" if flag else "I"


def _agree(a: str, b: str, unknown: str = "UNKNOWN") -> str:
    if a == unknown or b == unknown:
        return "NA"
    return _ci(a == b)


def block2_values(doc: Document, m: Mention) -> dict[str, str]:
    return {
        "NUMBER_2": number_of(doc, m),
        "GENDER_2": gender_of(doc, m),
        "PRONOUN_2": _yn(m.mtype == "PRONOUN"),
        "NESTED_2": _yn(m.nested),
        "SEMCLASS_2": m.semclass,
        "ANIMACY_2": animacy_flag(m),
        "PRO_TYPE_2": pro_type_of(doc, m),
    }


def block2_features(doc: Document, m: Mention) -> dict[str, float]:
    return {f"{name}={value}": 1.0 for name, value in block2_values(doc, m).items()}


def _spans_other(j: Mention, k: Mention) -> bool:
    if j.sent != k.sent:
        return False
    return (j.start <= k.start and k.end <= j.end) or (k.start <= j.start and j.end <= k.end)


def _appositive_pair(j: Mention, k: Mention) -> bool:
    return j.appositive_with == k.id or k.appositive_with == j.id


def _copular_pair(j: Mention, k: Mention) -> bool:
    return j.copular_with == k.id or k.copular_with == j.id


def conventional_pair(doc: Document, j: int, k: int) -> dict[str, float]:
    """The 39 binarized conventional features for a candidate/anaphor pair."""
    if not j < k:
        raise ValueError(f"pair features require j < k, got ({j}, {k})")
    mj = doc.mentions[j]
    mk = doc.mentions[k]
    sj = doc.text(mj)
    sk = doc.text(mk)
    hj = head_of(doc, mj)
    hk = head_of(doc, mk)
    pron_j = mj.mtype == "PRONOUN"
    pron_k = mk.mtype == "PRONOUN"
    prop_j = mj.mtype == "PROPER"
    prop_k = mk.mtype == "PROPER"
    num_j, num_k = number_of(doc, mj), number_of(doc, mk)
    gen_j, gen_k = gender_of(doc, mj), gender_of(doc, mk)
    pt_j, pt_k = pro_type_of(doc, mj), pro_type_of(doc, mk)
    values: dict[str, str] = {
        "PRONOUN_1": _yn(pron_j),
        "SUBJECT_1": _yn(mj.subject),
        "NESTED_1": _yn(mj.nested),
    }
    values.update(block2_values(doc, mk))
    values["HEAD_MATCH"] = _ci(hj == hk)
    values["STR_MATCH"] = _ci(sj == sk)
    values["SUBSTR_MATCH"] = _ci(sj in sk or sk in sj)
    values["PRO_STR_MATCH"] = _ci(pron_j and pron_k and sj == sk)
    values["PN_STR_MATCH"] = _ci(prop_j and prop_k and sj == sk)
    values["NONPRO_STR_MATCH"] = _ci(not pron_j and not pron_k and sj == sk)
    mods_j = _modifiers(doc, mj)
    mods_k = _modifiers(doc, mk)
    if not mods_j or not mods_k:
        values["MODIFIER_MATCH"] = "NA"
    else:
        values["MODIFIER_MATCH"] = _ci(sorted(mods_j) == sorted(mods_k))
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
    return {f"{name}={value}": 1.0 for name, value in values.items()}


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
    tokens = doc.mention_tokens(mk)
    lowered = [t.lower() for t in tokens]
    stripped = [t.lower() for t in _strip_determiners(tokens)]
    hk = head_of(doc, mk)
    preceding = doc.mentions[:k]
    str_match = any(
        [t.lower() for t in _strip_determiners(doc.mention_tokens(mj))] == stripped
        for mj in preceding
    )
    head_match = any(head_of(doc, mj) == hk for mj in preceding)
    alias_match = any(alias(doc, mj, mk) for mj in preceding)
    first = lowered[0]
    number = number_of(doc, mk)
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
        "UPPERCASE": _yn(doc.raw_text(mk).isupper()),
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
    return {f"{name}={value}": 1.0 for name, value in values.items()}


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
    if mj.unseen and mk.unseen:
        name = "UNSEEN-SAME" if doc.text(mj) == doc.text(mk) else "UNSEEN-DIFF"
        return {name: 1.0}
    if mj.unseen or mk.unseen:
        return {}
    ne_j = mj.ne_tag != "NONE"
    ne_k = mk.ne_tag != "NONE"
    hj = head_of(doc, mj)
    hk = head_of(doc, mk)
    if not ne_j and not ne_k:
        return {f"LEX:{hj}|{hk}": 1.0}
    if ne_j != ne_k:
        left = mj.ne_tag if ne_j else hj
        right = hk if ne_j else mk.ne_tag
        return {f"{left}|{right}": 1.0}
    if doc.text(mj) == doc.text(mk):
        return {f"{mj.ne_tag}-SAME": 1.0}
    if mj.ne_tag == mk.ne_tag and _word_subset(doc.mention_tokens(mj), doc.mention_tokens(mk)):
        return {f"{mj.ne_tag}-SUBSAME": 1.0}
    return {f"{mj.ne_tag}|{mk.ne_tag}": 1.0}


def _lexical_conventional(doc: Document, j: int, k: int) -> dict[str, float]:
    mj = doc.mentions[j]
    mk = doc.mentions[k]
    return {
        f"ALIAS={_ci(alias(doc, mj, mk))}": 1.0,
        f"DISTANCE={distance_bin(mj.sent, mk.sent)}": 1.0,
    }


def lexical_pair(doc: Document, j: int, k: int) -> dict[str, float]:
    """Lexical feature set for a pair: unseen gate, head pair, semi-lexical,
    plus the ALIAS and DISTANCE carry-overs.

    A pair with exactly one replaced mention yields nothing; a pair of two
    replaced mentions yields exactly one unseen feature.
    """
    if not j < k:
        raise ValueError(f"pair features require j < k, got ({j}, {k})")
    mj = doc.mentions[j]
    mk = doc.mentions[k]
    if mj.unseen != mk.unseen:
        return {}
    core = _lexical_core(doc, j, k)
    if mj.unseen and mk.unseen:
        return core
    core.update(_lexical_conventional(doc, j, k))
    return core


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
    member_vecs: list[dict[str, float]], rows: Iterable[str]
) -> dict[str, float]:
    size = len(member_vecs)
    counts = Counter(name for vec in member_vecs for name in vec)
    realized: dict[str, list[str]] = {}
    for name in counts:
        row, sep, _ = name.partition("=")
        if sep:
            realized.setdefault(row, []).append(name)
    out: dict[str, float] = {}
    for row in rows:
        alphabet = RELATIONAL_ALPHABETS.get(row)
        if alphabet is not None:
            candidates = [f"{row}={value}" for value in alphabet]
        else:
            candidates = sorted(realized.get(row, ()))
        for name in candidates:
            out[f"{predicate_prefix(counts[name], size)}-{name}"] = 1.0
    return out


def _check_cluster(c: Iterable[int], k: int) -> list[int]:
    members = sorted(c)
    if not members:
        raise ValueError("cluster features require a non-empty cluster")
    if members[-1] >= k:
        raise ValueError(f"all cluster members must precede mention {k}")
    return members


def cluster_conventional(doc: Document, c: Iterable[int], k: int) -> dict[str, float]:
    """Conventional cluster features: the active mention's own block plus one
    logical predicate per binarized relational feature over the cluster."""
    members = _check_cluster(c, k)
    vecs = [conventional_pair(doc, j, k) for j in members]
    out = block2_features(doc, doc.mentions[k])
    out.update(_predicate_features(vecs, list(RELATIONAL_ALPHABETS) + list(_CONCAT_ROWS)))
    return out


def cluster_lexical(doc: Document, c: Iterable[int], k: int) -> dict[str, float]:
    """Lexical cluster features: predicate-encoded ALIAS/DISTANCE plus the
    pairwise lexical features valued by how often they fire across members."""
    members = _check_cluster(c, k)
    conv = [_lexical_conventional(doc, j, k) for j in members]
    out = _predicate_features(conv, _LEXICAL_PREDICATE_ROWS)
    for j in members:
        for name, value in _lexical_core(doc, j, k).items():
            out[name] = out.get(name, 0.0) + value
    return out


def null_option(doc: Document, k: int, fs: str = CONVENTIONAL) -> dict[str, float]:
    """Features for the start-a-new-cluster option of the joint rankers."""
    _check_feature_set(fs)
    mk = doc.mentions[k]
    out: dict[str, float] = {}
    if fs in (CONVENTIONAL, COMBINED):
        out.update(block2_features(doc, mk))
    if fs in (LEXICAL, COMBINED):
        name = "NULL-UNSEEN" if mk.unseen else f"NULL-{head_of(doc, mk)}"
        out[name] = 1.0
    return out


# --------------------------------------------------------------------------
# Feature-set dispatch
# --------------------------------------------------------------------------


def _check_feature_set(fs: str) -> None:
    if fs not in FEATURE_SETS:
        raise ValueError(f"unknown feature set {fs!r}; expected one of {FEATURE_SETS}")


def pair_features(doc: Document, j: int, k: int, fs: str) -> dict[str, float]:
    _check_feature_set(fs)
    if fs == CONVENTIONAL:
        return conventional_pair(doc, j, k)
    if fs == LEXICAL:
        return lexical_pair(doc, j, k)
    out = conventional_pair(doc, j, k)
    out.update(lexical_pair(doc, j, k))
    return out


def cluster_features(doc: Document, c: Iterable[int], k: int, fs: str) -> dict[str, float]:
    _check_feature_set(fs)
    members = tuple(sorted(c))
    if fs == CONVENTIONAL:
        return cluster_conventional(doc, members, k)
    if fs == LEXICAL:
        return cluster_lexical(doc, members, k)
    out = cluster_conventional(doc, members, k)
    out.update(cluster_lexical(doc, members, k))
    return out


# --------------------------------------------------------------------------
# Feature typing for ablation
# --------------------------------------------------------------------------


def strip_predicate(name: str) -> str:
    for prefix in ("NONE-", "MOST-FALSE-", "MOST-TRUE-", "ALL-"):
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
