"""Reference feature extractors that derive every mention attribute from
scratch on each call.

They recompute each mention's text, head, pronoun entry, modifiers and
initials from the sentences for every pair, and build cluster vectors from
binarized pair vectors by scanning member names, without the per-document
mention table or the value-level predicate counter of ``corefrank.feats``.
Only the small value helpers and constants of ``feats`` that do not touch
mention text are shared.  Tests compare ``list(vec.items())``, so feature
order counts as well as names and values.
"""

from corefrank import feats
from corefrank.corpus import head_of, pronoun_entry
from corefrank.feats import (
    _ARTICLES,
    _CONCAT_ROWS,
    _DEMONSTRATIVES,
    _DETERMINERS,
    _QUANTIFIERS,
    RELATIONAL_ALPHABETS,
    _agree,
    _appositive_pair,
    _capitalized,
    _ci,
    _contained_mentions,
    _copular_pair,
    _is_cardinal,
    _looks_adjective,
    _spans_other,
    _word_subset,
    _yn,
    animacy_flag,
    distance_bin,
    predicate_prefix,
)


def reference_predicates(member_vecs, rows):
    """Brute-force reference: scan every member for every candidate name."""
    size = len(member_vecs)
    out = {}
    for row in rows:
        alphabet = RELATIONAL_ALPHABETS.get(row)
        if alphabet is not None:
            candidates = [f"{row}={value}" for value in alphabet]
        else:
            prefix = f"{row}="
            candidates = sorted({name for vec in member_vecs for name in vec if name.startswith(prefix)})
        for name in candidates:
            count = sum(1 for vec in member_vecs if name in vec)
            out[f"{predicate_prefix(count, size)}-{name}"] = 1.0
    return out


def number_of(doc, m):
    entry = pronoun_entry(doc, m)
    return entry.number if entry is not None else m.number


def gender_of(doc, m):
    entry = pronoun_entry(doc, m)
    return entry.gender if entry is not None else m.gender


def pro_type_of(doc, m):
    entry = pronoun_entry(doc, m)
    return entry.nominative.upper() if entry is not None else "NA"


def strip_determiners(tokens):
    i = 0
    while i < len(tokens) and tokens[i].lower() in _DETERMINERS:
        i += 1
    return tokens[i:]


def modifiers(doc, m):
    if m.mtype == "PROPER":
        return []
    hs = m.head_start if m.head_start is not None else m.end - 1
    he = m.head_end if m.head_end is not None else m.end
    tokens = [t.lower() for i, t in enumerate(doc.mention_tokens(m), start=m.start) if not hs <= i < he]
    out = []
    skipping = True
    for t in tokens:
        if skipping and t in _DETERMINERS:
            continue
        skipping = False
        out.append(t)
    return out


def initials(tokens):
    return "".join(t[0].upper() for t in tokens if t[:1].isupper())


def alias(doc, j, k):
    tj = doc.mention_tokens(j)
    tk = doc.mention_tokens(k)
    sj = doc.text(j)
    sk = doc.text(k)
    compact_j = sj.replace(".", "").replace(" ", "").upper()
    compact_k = sk.replace(".", "").replace(" ", "").upper()
    ij = initials(tj)
    ik = initials(tk)
    if len(ij) >= 2 and compact_k == ij:
        return True
    if len(ik) >= 2 and compact_j == ik:
        return True
    if j.mtype == "PROPER" and k.mtype == "PROPER":
        aj = [t.lower() for t in strip_determiners(tj)]
        ak = [t.lower() for t in strip_determiners(tk)]
        if aj and ak and (aj == ak[: len(aj)] or ak == aj[: len(ak)]):
            return True
    return j.ne_tag != "NONE" and j.ne_tag == k.ne_tag and sj == sk


def block2_values(doc, m):
    return {
        "NUMBER_2": number_of(doc, m),
        "GENDER_2": gender_of(doc, m),
        "PRONOUN_2": _yn(m.mtype == "PRONOUN"),
        "NESTED_2": _yn(m.nested),
        "SEMCLASS_2": m.semclass,
        "ANIMACY_2": animacy_flag(m),
        "PRO_TYPE_2": pro_type_of(doc, m),
    }


def block2_features(doc, m):
    return {f"{name}={value}": 1.0 for name, value in block2_values(doc, m).items()}


def conventional_pair(doc, j, k):
    mj = doc.mentions[j]
    mk = doc.mentions[k]
    sj = doc.text(mj)
    sk = doc.text(mk)
    pron_j = mj.mtype == "PRONOUN"
    pron_k = mk.mtype == "PRONOUN"
    prop_j = mj.mtype == "PROPER"
    prop_k = mk.mtype == "PROPER"
    num_j, num_k = number_of(doc, mj), number_of(doc, mk)
    gen_j, gen_k = gender_of(doc, mj), gender_of(doc, mk)
    pt_j, pt_k = pro_type_of(doc, mj), pro_type_of(doc, mk)
    values = {"PRONOUN_1": _yn(pron_j), "SUBJECT_1": _yn(mj.subject), "NESTED_1": _yn(mj.nested)}
    values.update(block2_values(doc, mk))
    values["HEAD_MATCH"] = _ci(head_of(doc, mj) == head_of(doc, mk))
    values["STR_MATCH"] = _ci(sj == sk)
    values["SUBSTR_MATCH"] = _ci(sj in sk or sk in sj)
    values["PRO_STR_MATCH"] = _ci(pron_j and pron_k and sj == sk)
    values["PN_STR_MATCH"] = _ci(prop_j and prop_k and sj == sk)
    values["NONPRO_STR_MATCH"] = _ci(not pron_j and not pron_k and sj == sk)
    mods_j = modifiers(doc, mj)
    mods_k = modifiers(doc, mk)
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
    same_group = mj.maximalnp_group is not None and mj.maximalnp_group == mk.maximalnp_group
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


def anaphoricity(doc, k):
    mk = doc.mentions[k]
    tokens = doc.mention_tokens(mk)
    stripped = [t.lower() for t in strip_determiners(tokens)]
    preceding = doc.mentions[:k]
    str_match = any(
        [t.lower() for t in strip_determiners(doc.mention_tokens(mj))] == stripped for mj in preceding
    )
    head_match = any(head_of(doc, mj) == head_of(doc, mk) for mj in preceding)
    alias_match = any(alias(doc, mj, mk) for mj in preceding)
    first = tokens[0].lower()
    number = number_of(doc, mk)
    rest = tokens[1:]
    the = first == "the"
    contained = _contained_mentions(doc, mk)
    contains_pn = mk.mtype != "PROPER" and (
        any(o.mtype == "PROPER" for o in contained)
        or any(_capitalized(t) for i, t in enumerate(tokens, start=mk.start) if i != 0)
    )
    ne_rest = any(o.ne_tag != "NONE" and o.start == mk.start + 1 and o.end == mk.end for o in contained)
    article = "DEFINITE" if mk.definite else "QUANTIFIED" if mk.quantified else "INDEFINITE"
    three = the and len(tokens) == 3
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
            three
            and tokens[1].islower()
            and tokens[2].islower()
            and not _looks_adjective(tokens[1])
            and not _is_cardinal(tokens[1])
        ),
        "THE_PN": _yn(the and len(tokens) == 2 and _capitalized(tokens[1])),
        "THE_PN_N": _yn(three and _capitalized(tokens[1]) and tokens[2].islower()),
        "THE_ADJ_N": _yn(three and _looks_adjective(tokens[1]) and tokens[2].islower()),
        "THE_NUM_N": _yn(three and _is_cardinal(tokens[1]) and tokens[2].islower()),
        "THE_NE": _yn(the and len(tokens) >= 2 and (ne_rest or all(map(_capitalized, rest)))),
        "THE_SING_N": _yn(
            the and number == "SINGULAR" and len(tokens) >= 2 and not any(map(_capitalized, rest))
        ),
        "ALIAS": _yn(alias_match),
    }
    return {f"{name}={value}": 1.0 for name, value in values.items()}


def lexical_core(doc, j, k):
    mj = doc.mentions[j]
    mk = doc.mentions[k]
    if mj.unseen and mk.unseen:
        return {"UNSEEN-SAME" if doc.text(mj) == doc.text(mk) else "UNSEEN-DIFF": 1.0}
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


def lexical_conventional(doc, j, k):
    mj = doc.mentions[j]
    mk = doc.mentions[k]
    return {f"ALIAS={_ci(alias(doc, mj, mk))}": 1.0, f"DISTANCE={distance_bin(mj.sent, mk.sent)}": 1.0}


def lexical_pair(doc, j, k):
    mj = doc.mentions[j]
    mk = doc.mentions[k]
    if mj.unseen != mk.unseen:
        return {}
    core = lexical_core(doc, j, k)
    if mj.unseen and mk.unseen:
        return core
    core.update(lexical_conventional(doc, j, k))
    return core


def pair_features(doc, j, k, fs):
    if fs == feats.CONVENTIONAL:
        return conventional_pair(doc, j, k)
    if fs == feats.LEXICAL:
        return lexical_pair(doc, j, k)
    out = conventional_pair(doc, j, k)
    out.update(lexical_pair(doc, j, k))
    return out


def cluster_conventional(doc, members, k):
    vecs = [conventional_pair(doc, j, k) for j in members]
    out = block2_features(doc, doc.mentions[k])
    out.update(reference_predicates(vecs, list(RELATIONAL_ALPHABETS) + list(_CONCAT_ROWS)))
    return out


def cluster_lexical(doc, members, k):
    out = reference_predicates([lexical_conventional(doc, j, k) for j in members], ("ALIAS", "DISTANCE"))
    for j in members:
        for name, value in lexical_core(doc, j, k).items():
            out[name] = out.get(name, 0.0) + value
    return out


def cluster_features(doc, cluster, k, fs):
    members = sorted(cluster)
    if fs == feats.CONVENTIONAL:
        return cluster_conventional(doc, members, k)
    if fs == feats.LEXICAL:
        return cluster_lexical(doc, members, k)
    out = cluster_conventional(doc, members, k)
    out.update(cluster_lexical(doc, members, k))
    return out


def null_option(doc, k, fs):
    mk = doc.mentions[k]
    out = {}
    if fs in (feats.CONVENTIONAL, feats.COMBINED):
        out.update(block2_features(doc, mk))
    if fs in (feats.LEXICAL, feats.COMBINED):
        out["NULL-UNSEEN" if mk.unseen else f"NULL-{head_of(doc, mk)}"] = 1.0
    return out
