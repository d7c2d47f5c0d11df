import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_feats as ref
from corefrank import feats, learn
from corefrank.corpus import Document, Mention, Partition, unseen_test, unseen_train
from corefrank.instances import CLASSIFY, RANK
from corefrank.synth import synth_corpus

from conftest import make_doc


def names(vec):
    return set(vec)


class TestConventionalPair:
    def test_exactly_39_features(self, fig1):
        for j in range(len(fig1.mentions)):
            for k in range(j + 1, len(fig1.mentions)):
                assert len(feats.pair_features(fig1, j, k, feats.CONVENTIONAL)) == 39

    def test_his_he_pronoun_block(self, fig1):
        vec = feats.pair_features(fig1, 2, 5, feats.CONVENTIONAL)
        for name in ("PRONOUN_1=Y", "PRONOUN_2=Y", "BOTH_PRONOUNS=C", "PRO_TYPE_2=HE"):
            assert name in vec

    def test_his_he_agreement_rows(self, fig1):
        vec = feats.pair_features(fig1, 2, 5, feats.CONVENTIONAL)
        for name in ("GENDER=C", "NUMBER=C", "PRO_STR_MATCH=I"):
            assert name in vec

    def test_identical_proper_names(self):
        doc = make_doc(
            "d",
            [("Clinton", "PROPER", {"ne_tag": "PERSON"}), ("Clinton", "PROPER", {"ne_tag": "PERSON"})],
        )
        vec = feats.pair_features(doc, 0, 1, feats.CONVENTIONAL)
        for name in ("STR_MATCH=C", "PN_STR_MATCH=C", "HEAD_MATCH=C"):
            assert name in vec

    def test_pro_type_match_over_case(self, fig1):
        # "his" and "He" differ as strings but share the nominative form
        vec = feats.pair_features(fig1, 2, 5, feats.CONVENTIONAL)
        assert "PRO_TYPE_MATCH=C" in vec

    def test_distance_bins(self):
        doc = make_doc("d", [("Acme", "PROPER", {})] + [("it", "PRONOUN", {})] * 7)
        assert "DISTANCE=1" in feats.pair_features(doc, 0, 1, feats.CONVENTIONAL)
        assert "DISTANCE=4" in feats.pair_features(doc, 0, 4, feats.CONVENTIONAL)
        assert "DISTANCE=5+" in feats.pair_features(doc, 0, 7, feats.CONVENTIONAL)

    def test_concatenation_value(self):
        doc = make_doc(
            "d",
            [
                ("Clinton", "PROPER", {"number": "SINGULAR"}),
                ("they", "PRONOUN", {}),
            ],
        )
        assert "NUMBER'=SINGULAR-PLURAL" in feats.pair_features(doc, 0, 1, feats.CONVENTIONAL)

    def test_requires_ordered_pair(self, fig1):
        with pytest.raises(ValueError):
            feats.pair_features(fig1, 5, 2, feats.CONVENTIONAL)

    def test_unknown_propagates_to_na(self):
        doc = make_doc("d", [("thing", "COMMON", {}), ("object", "COMMON", {})])
        vec = feats.pair_features(doc, 0, 1, feats.CONVENTIONAL)
        for name in ("NUMBER=NA", "GENDER=NA", "SEMCLASS=NA", "ANIMACY=NA"):
            assert name in vec

    def test_alias_acronym(self):
        doc = make_doc(
            "d",
            [
                ("International Business Machines", "PROPER", {"ne_tag": "ORGANIZATION"}),
                ("IBM", "PROPER", {"ne_tag": "ORGANIZATION"}),
            ],
        )
        assert "ALIAS=C" in feats.pair_features(doc, 0, 1, feats.CONVENTIONAL)

    def test_alias_name_prefix(self):
        doc = make_doc(
            "d",
            [("Barack Obama", "PROPER", {"ne_tag": "PERSON"}), ("Barack", "PROPER", {"ne_tag": "PERSON"})],
        )
        assert "ALIAS=C" in feats.pair_features(doc, 0, 1, feats.CONVENTIONAL)

    def test_determinism(self, fig1):
        assert feats.pair_features(fig1, 0, 5, feats.CONVENTIONAL) == feats.pair_features(fig1, 0, 5, feats.CONVENTIONAL)


class TestAnaphoricity:
    def test_exactly_26_features(self, fig1):
        for k in range(len(fig1.mentions)):
            assert len(feats.anaphoricity(fig1, k)) == 26

    def test_first_mention_has_no_matches(self, fig1):
        vec = feats.anaphoricity(fig1, 0)
        for name in ("STR_MATCH=N", "HEAD_MATCH=N", "ALIAS=N"):
            assert name in vec

    def test_he_is_indefinite_pronoun(self, fig1):
        vec = feats.anaphoricity(fig1, 5)
        assert "PRONOUN=Y" in vec
        assert "DEFINITE=N" in vec

    def test_determiner_stripped_string_match(self):
        doc = make_doc(
            "d",
            [("an airline", "COMMON", {"indefinite": True}), ("the airline", "COMMON", {"definite": True})],
        )
        vec = feats.anaphoricity(doc, 1)
        assert "STR_MATCH=Y" in vec
        assert "HEAD_MATCH=Y" in vec

    def test_the_patterns(self):
        doc = make_doc(
            "d",
            [
                ("the airline", "COMMON", {"definite": True, "number": "SINGULAR"}),
                ("the Beacon group", "COMMON", {"definite": True}),
                ("the fourteen airlines", "COMMON", {"definite": True, "number": "PLURAL"}),
                ("the hazardous cargo", "COMMON", {"definite": True, "number": "SINGULAR"}),
            ],
        )
        v0 = feats.anaphoricity(doc, 0)
        assert "THE_N=Y" in v0 and "THE_SING_N=Y" in v0 and "ARTICLE=DEFINITE" in v0
        v1 = feats.anaphoricity(doc, 1)
        assert "THE_PN_N=Y" in v1 and "CONTAINS_PN=Y" in v1
        v2 = feats.anaphoricity(doc, 2)
        assert "THE_NUM_N=Y" in v2 and "BARE_PLURAL=N" in v2
        v3 = feats.anaphoricity(doc, 3)
        assert "THE_ADJ_N=Y" in v3

    def test_uppercase_and_bare(self):
        doc = make_doc("d", [("NATO", "PROPER", {"number": "SINGULAR", "ne_tag": "ORGANIZATION"})])
        vec = feats.anaphoricity(doc, 0)
        assert "UPPERCASE=Y" in vec
        assert "BARE_SINGULAR=Y" in vec


class TestLexicalPair:
    def test_both_unseen_same(self):
        doc = make_doc("d", [("the airline", "COMMON", {}), ("the airline", "COMMON", {})])
        doc.mentions[0].unseen = True
        doc.mentions[1].unseen = True
        assert feats.pair_features(doc, 0, 1, feats.LEXICAL) == {"UNSEEN-SAME": 1.0}

    def test_both_unseen_different(self):
        doc = make_doc("d", [("the airline", "COMMON", {}), ("the carrier", "COMMON", {})])
        doc.mentions[0].unseen = True
        doc.mentions[1].unseen = True
        assert feats.pair_features(doc, 0, 1, feats.LEXICAL) == {"UNSEEN-DIFF": 1.0}

    def test_one_unseen_yields_nothing(self):
        doc = make_doc("d", [("the airline", "COMMON", {}), ("the carrier", "COMMON", {})])
        doc.mentions[0].unseen = True
        assert feats.pair_features(doc, 0, 1, feats.LEXICAL) == {}

    def test_plain_head_pair(self):
        doc = make_doc("d", [("the airline", "COMMON", {}), ("the carrier", "COMMON", {})])
        vec = feats.pair_features(doc, 0, 1, feats.LEXICAL)
        assert "LEX:airline|carrier" in vec
        assert "DISTANCE=1" in vec
        assert "ALIAS=I" in vec

    def test_one_ne_substitution(self):
        doc = make_doc(
            "d",
            [("Barack Obama", "PROPER", {"ne_tag": "PERSON"}), ("he", "PRONOUN", {})],
        )
        vec = feats.pair_features(doc, 0, 1, feats.LEXICAL)
        assert "PERSON|he" in vec
        assert not any(n.startswith("LEX:") for n in vec)
        assert "DISTANCE=1" in vec and "ALIAS=I" in vec

    def test_ne_same(self):
        doc = make_doc(
            "d",
            [("Obama", "PROPER", {"ne_tag": "PERSON"}), ("Obama", "PROPER", {"ne_tag": "PERSON"})],
        )
        assert "PERSON-SAME" in feats.pair_features(doc, 0, 1, feats.LEXICAL)

    def test_ne_subsame(self):
        doc = make_doc(
            "d",
            [("Barack Obama", "PROPER", {"ne_tag": "PERSON"}), ("Obama", "PROPER", {"ne_tag": "PERSON"})],
        )
        assert "PERSON-SUBSAME" in feats.pair_features(doc, 0, 1, feats.LEXICAL)

    def test_ne_label_concatenation(self):
        doc = make_doc(
            "d",
            [("Obama", "PROPER", {"ne_tag": "PERSON"}), ("Valmont", "PROPER", {"ne_tag": "LOCATION"})],
        )
        assert "PERSON|LOCATION" in feats.pair_features(doc, 0, 1, feats.LEXICAL)


class TestClusterFeatures:
    def build(self, truths):
        """A doc where GENDER=C truth against the last mention is scripted."""
        specs = []
        for i, truth in enumerate(truths):
            specs.append(("Alvarez", "PROPER", {"gender": "MALE" if truth else "FEMALE"}))
        specs.append(("he", "PRONOUN", {}))
        return make_doc("d", specs)

    def test_all_boundary_single_member(self):
        doc = self.build([True])
        vec = feats.cluster_features(doc, [0], 1, feats.CONVENTIONAL)
        assert "ALL-GENDER=C" in vec

    def test_one_of_three_is_most_false(self):
        doc = self.build([True, False, False])
        vec = feats.cluster_features(doc, [0, 1, 2], 3, feats.CONVENTIONAL)
        assert "MOST-FALSE-GENDER=C" in vec

    def test_two_of_four_is_most_true(self):
        doc = self.build([True, True, False, False])
        vec = feats.cluster_features(doc, [0, 1, 2, 3], 4, feats.CONVENTIONAL)
        assert "MOST-TRUE-GENDER=C" in vec

    def test_zero_of_two_is_none(self):
        doc = self.build([False, False])
        vec = feats.cluster_features(doc, [0, 1], 2, feats.CONVENTIONAL)
        assert "NONE-GENDER=C" in vec

    def test_includes_block2_verbatim(self, fig1):
        vec = feats.cluster_features(fig1, [0, 2], 5, feats.CONVENTIONAL)
        for name in ("NUMBER_2=SINGULAR", "GENDER_2=MALE", "PRONOUN_2=Y", "PRO_TYPE_2=HE"):
            assert name in vec

    def test_cluster_lexical_fig1(self, fig1):
        vec = feats.cluster_features(fig1, [0, 2], 5, feats.LEXICAL)
        assert vec["LEX:his|he"] == 1.0
        assert vec["PERSON|he"] == 1.0
        assert any(n.endswith("DISTANCE=0") or n.endswith("DISTANCE=1") for n in vec)

    def test_cluster_lexical_frequency(self):
        doc = make_doc(
            "d",
            [("the airline", "COMMON", {}), ("the airline", "COMMON", {}), ("the airline", "COMMON", {})],
        )
        vec = feats.cluster_features(doc, [0, 1], 2, feats.LEXICAL)
        assert vec["LEX:airline|airline"] == 2.0

    def test_cluster_lexical_all_members_unseen(self):
        doc = make_doc(
            "d",
            [("the airline", "COMMON", {}), ("the carrier", "COMMON", {}), ("the firm", "COMMON", {})],
        )
        doc.mentions[0].unseen = True
        doc.mentions[1].unseen = True
        vec = feats.cluster_features(doc, [0, 1], 2, feats.LEXICAL)
        assert all(feats.strip_predicate(n).split("=")[0] in ("ALIAS", "DISTANCE") for n in vec)

    def test_cluster_requires_preceding_members(self, fig1):
        with pytest.raises(ValueError):
            feats.cluster_features(fig1, [5], 2, feats.CONVENTIONAL)


@st.composite
def cluster_configurations(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    genders = draw(st.lists(st.sampled_from(["MALE", "FEMALE", "NEUTER", "UNKNOWN"]),
                            min_size=size, max_size=size))
    mtypes = draw(st.lists(st.sampled_from(["PROPER", "COMMON", "PRONOUN"]),
                           min_size=size, max_size=size))
    return genders, mtypes


class TestPredicatePartitionLaw:
    @given(cluster_configurations())
    @settings(max_examples=300, deadline=None)
    def test_exactly_one_predicate_fires(self, config):
        genders, mtypes = config
        specs = []
        for gender, mtype in zip(genders, mtypes):
            token = {"PROPER": "Alvarez", "COMMON": "the airline", "PRONOUN": "he"}[mtype]
            specs.append((token, mtype, {"gender": gender}))
        specs.append(("Keller", "PROPER", {"gender": "MALE"}))
        doc = make_doc("d", specs)
        k = len(specs) - 1
        vec = feats.cluster_features(doc, list(range(k)), k, feats.CONVENTIONAL)
        by_base = {}
        for name in vec:
            base = feats.strip_predicate(name)
            if base == name:
                continue  # block-2 feature of the active mention
            by_base.setdefault(base, []).append(name)
        # every closed-alphabet relational value appears exactly once
        for row, alphabet in feats.RELATIONAL_ALPHABETS.items():
            for value in alphabet:
                base = f"{row}={value}"
                assert len(by_base.get(base, [])) == 1, base
        # and no base feature carries two different predicates
        for base, carriers in by_base.items():
            assert len(carriers) == 1, (base, carriers)


_ROWS = list(feats.RELATIONAL_ALPHABETS) + list(feats._CONCAT_ROWS)
_MEMBER_NAMES = (
    [f"{row}={value}" for row, alphabet in feats.RELATIONAL_ALPHABETS.items() for value in alphabet]
    + [f"{row}={a}|{b}" for row in feats._CONCAT_ROWS for a in ("HE", "Y", "SINGULAR") for b in ("N", "PLURAL")]
    + ["NUMBER'=a=b", "PRO_TYPE'=", "LEX:airline|carrier", "NUMBER'"]
)


class TestPredicateOracle:
    @given(
        st.lists(st.lists(st.sampled_from(_MEMBER_NAMES), unique=True), min_size=1, max_size=8),
        st.lists(st.sampled_from(_ROWS), unique=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_pass_count_matches_scan(self, members, rows):
        vecs = [dict.fromkeys(names, 1.0) for names in members]
        # the counter sees each member name as its (row, value) pair
        values = [[name.partition("=")[::2] for name in names if "=" in name] for names in members]
        got = feats._predicate_features(values, rows)
        assert list(got.items()) == list(ref.reference_predicates(vecs, rows).items())


class TestNullOption:
    def test_lexical_head(self):
        doc = make_doc("d", [("the contrary", "COMMON", {})])
        assert feats.null_option(doc, 0, feats.LEXICAL) == {"NULL-contrary": 1.0}

    def test_lexical_unseen(self):
        doc = make_doc("d", [("the contrary", "COMMON", {})])
        doc.mentions[0].unseen = True
        assert feats.null_option(doc, 0, feats.LEXICAL) == {"NULL-UNSEEN": 1.0}

    def test_conventional_is_block2(self, fig1):
        vec = feats.null_option(fig1, 5, feats.CONVENTIONAL)
        assert vec == feats.block2_features(fig1, fig1.mentions[5])
        for name in ("NUMBER_2=SINGULAR", "GENDER_2=MALE", "PRONOUN_2=Y", "PRO_TYPE_2=HE"):
            assert name in vec

    def test_combined_is_union(self, fig1):
        combined = feats.null_option(fig1, 5, feats.COMBINED)
        conventional = feats.null_option(fig1, 5, feats.CONVENTIONAL)
        lexical = feats.null_option(fig1, 5, feats.LEXICAL)
        assert combined == {**conventional, **lexical}


class TestCombined:
    def test_union_and_shared_names_agree(self, fig1):
        for j in range(len(fig1.mentions)):
            for k in range(j + 1, len(fig1.mentions)):
                conv = feats.pair_features(fig1, j, k, feats.CONVENTIONAL)
                lex = feats.pair_features(fig1, j, k, feats.LEXICAL)
                comb = feats.pair_features(fig1, j, k, feats.COMBINED)
                assert comb == {**conv, **lex}
                for shared in set(conv) & set(lex):
                    assert conv[shared] == lex[shared]

    def test_lexical_emission_law(self, fig1):
        # one unseen member -> empty; two -> exactly one feature
        doc_one = make_doc("d", [("a", "COMMON", {}), ("b", "COMMON", {})])
        doc_one.mentions[0].unseen = True
        assert feats.pair_features(doc_one, 0, 1, feats.LEXICAL) == {}
        doc_two = make_doc("d", [("a", "COMMON", {}), ("b", "COMMON", {})])
        doc_two.mentions[0].unseen = True
        doc_two.mentions[1].unseen = True
        assert len(feats.pair_features(doc_two, 0, 1, feats.LEXICAL)) == 1


class TestFeatureTyping:
    def test_partition_of_produced_names(self, fig1):
        seen = set()
        for j in range(len(fig1.mentions)):
            for k in range(j + 1, len(fig1.mentions)):
                seen |= set(feats.pair_features(fig1, j, k, feats.COMBINED))
                seen |= set(feats.cluster_features(fig1, [j], k, feats.COMBINED))
            seen |= set(feats.null_option(fig1, j, feats.COMBINED))
        groups = {"unseen", "lexical", "semi-lexical", "distance", "alias",
                  "string-matching", "grammatical", "semantic"}
        for name in seen:
            assert feats.fine_feature_type(name) in groups, name


def _rich_doc():
    """Appositive, copular, nested and maximal-NP mentions, head spans,
    modifiers, demonstratives, quantifiers, an acronym and name prefixes."""
    sentences = [
        "The International Business Machines Corp. , IBM , said the big blue company was the leader .".split(),
        "Those three old firms and these firms bought some of their shares .".split(),
        "Mr. Smith met Smith and NATO officials .".split(),
        "He said it was a 1990s thing , every one .".split(),
        "The old three firms of I.B.M. agreed .".split(),
        "The firms and NATO said it .".split(),
    ]
    specs = [
        (0, 1, 4, "PROPER", {"ne_tag": "ORGANIZATION", "semclass": "ORGANIZATION", "appositive_with": 1,
                             "subject": True}),
        (0, 6, 7, "PROPER", {"ne_tag": "ORGANIZATION", "semclass": "ORGANIZATION"}),
        (0, 9, 13, "COMMON", {"head_start": 12, "head_end": 13, "definite": True, "copular_with": 3,
                              "maximalnp_group": 1, "number": "SINGULAR"}),
        (0, 14, 16, "COMMON", {"definite": True, "maximalnp_group": 1, "number": "SINGULAR"}),
        (1, 0, 4, "COMMON", {"head_start": 3, "head_end": 4, "demonstrative": True, "number": "PLURAL",
                             "subject": True}),
        (1, 5, 7, "COMMON", {"demonstrative": True, "number": "PLURAL", "animacy": "N"}),
        (1, 10, 11, "PRONOUN", {"nested": True}),
        (1, 10, 12, "COMMON", {"number": "PLURAL", "embedded": True}),
        (2, 0, 2, "PROPER", {"ne_tag": "PERSON", "semclass": "PERSON", "gender": "MALE", "animacy": "Y"}),
        (2, 3, 4, "PROPER", {"ne_tag": "PERSON", "semclass": "PERSON", "animacy": "Y"}),
        (2, 5, 6, "PROPER", {"ne_tag": "ORGANIZATION"}),
        (2, 5, 7, "COMMON", {"number": "PLURAL", "animacy": "Y"}),
        (3, 0, 1, "PRONOUN", {"subject": True}),
        (3, 2, 3, "PRONOUN", {}),
        (3, 4, 7, "COMMON", {"indefinite": True}),
        (3, 8, 10, "COMMON", {"quantified": True}),
        (4, 0, 4, "COMMON", {"definite": True, "number": "PLURAL"}),
        (4, 5, 6, "PROPER", {"ne_tag": "ORGANIZATION", "semclass": "ORGANIZATION"}),
        (5, 0, 2, "COMMON", {"definite": True, "number": "PLURAL", "subject": True}),
        (5, 3, 4, "PROPER", {"ne_tag": "ORGANIZATION"}),
        (5, 5, 6, "PRONOUN", {}),
    ]
    mentions = [
        Mention(id=i, sent=s, start=a, end=b, mtype=t, **extra) for i, (s, a, b, t, extra) in enumerate(specs)
    ]
    clusters = [[0, 1, 2, 3, 17], [4, 5, 16, 18], [6, 7], [8, 9, 12], [10, 11, 19], [13, 14, 20], [15]]
    doc = Document("rich", "NW", sentences, mentions, Partition(clusters))
    doc.validate()
    return doc


@pytest.fixture
def oracle_docs(fig1):
    """fig1, the rich document alone and with every other surface string
    unseen, and synthetic documents with unseen common nouns."""
    rich = _rich_doc()
    vocab = {rich.text(m) for m in rich.mentions[::2]}
    synth = unseen_train(synth_corpus(3, seed=17, mentions_low=12, mentions_high=16), 0.4, seed=2)
    docs = [fig1, rich, *unseen_test([rich], vocab), *synth]
    assert any(m.unseen for d in docs for m in d.mentions)
    assert {m.mtype for d in docs for m in d.mentions} == {"PRONOUN", "PROPER", "COMMON"}
    return docs


def _clusters(doc, k, rng):
    """Gold prefix clusters of mention k plus three random subsets of 0..k-1."""
    out = [tuple(m for m in c if m < k) for c in doc.gold_partition.clusters]
    out = [c for c in out if c]
    out += [tuple(rng.sample(range(k), rng.randint(1, k))) for _ in range(3)]
    return out


class TestTableOracle:
    """The table-based extractors against reference_feats, which derives
    every attribute from scratch and counts predicates by name scan."""

    def test_pair_features(self, oracle_docs):
        for doc in oracle_docs:
            for k in range(len(doc.mentions)):
                for j in range(k):
                    for fs in feats.FEATURE_SETS:
                        got = feats.pair_features(doc, j, k, fs)
                        want = ref.pair_features(doc, j, k, fs)
                        assert list(got.items()) == list(want.items()), (doc.doc_id, j, k, fs)

    def test_anaphoricity_and_null_option(self, oracle_docs):
        for doc in oracle_docs:
            for k in range(len(doc.mentions)):
                assert list(feats.anaphoricity(doc, k).items()) == list(ref.anaphoricity(doc, k).items())
                for fs in feats.FEATURE_SETS:
                    got = feats.null_option(doc, k, fs)
                    assert list(got.items()) == list(ref.null_option(doc, k, fs).items()), (doc.doc_id, k, fs)

    def test_cluster_features(self, oracle_docs):
        rng = random.Random(5)
        for doc in oracle_docs:
            for k in range(1, len(doc.mentions)):
                for cluster in _clusters(doc, k, rng):
                    for fs in feats.FEATURE_SETS:
                        got = feats.cluster_features(doc, cluster, k, fs)
                        want = ref.cluster_features(doc, cluster, k, fs)
                        assert list(got.items()) == list(want.items()), (doc.doc_id, cluster, k, fs)

    def test_rich_doc_exercises_the_text_rows(self):
        doc = _rich_doc()
        fired = set()
        for k in range(len(doc.mentions)):
            fired |= set(feats.anaphoricity(doc, k))
            for j in range(k):
                fired |= set(feats.pair_features(doc, j, k, feats.COMBINED))
        for name in ("ALIAS=C", "MODIFIER_MATCH=C", "MODIFIER_MATCH=I", "APPOSITIVE=C", "COPULAR=C",
                     "MAXIMALNP=I", "SPAN=I", "SUBSTR_MATCH=C", "ORGANIZATION-SAME", "PERSON-SUBSAME",
                     "CONTAINS_PN=Y", "DEMONSTRATIVE=Y", "QUANTIFIED=Y", "STR_MATCH=Y", "UPPERCASE=Y",
                     "PRO_TYPE_MATCH=C", "PRO_TYPE_MATCH=I"):
            assert name in fired, name

    def test_flags_are_read_live(self):
        doc = make_doc("d", [("the airline", "COMMON", {}), ("the carrier", "COMMON", {})])
        assert "LEX:airline|carrier" in feats.pair_features(doc, 0, 1, feats.LEXICAL)
        assert feats.null_option(doc, 1, feats.LEXICAL) == {"NULL-carrier": 1.0}
        doc.mentions[0].unseen = True
        doc.mentions[1].unseen = True
        assert feats.pair_features(doc, 0, 1, feats.LEXICAL) == {"UNSEEN-DIFF": 1.0}
        assert feats.null_option(doc, 1, feats.LEXICAL) == {"NULL-UNSEEN": 1.0}
        assert feats.cluster_features(doc, [0], 1, feats.LEXICAL)["UNSEEN-DIFF"] == 1.0


@pytest.fixture(scope="module")
def scoring_setting():
    """Documents with unseen mentions, and every name their cluster and
    new-cluster vectors can carry, plus names no vector carries."""
    rich = _rich_doc()
    docs = [
        rich,
        *unseen_test([rich], {rich.text(m) for m in rich.mentions[::2]}),
        *unseen_train(synth_corpus(2, seed=31, mentions_low=14, mentions_high=20), 0.4, seed=3),
    ]
    names = set()
    for doc in docs:
        for k in range(1, len(doc.mentions)):
            # singletons give NONE/ALL, the whole prefix the MOST- predicates
            clusters = [[j] for j in range(k)] + [list(range(k))]
            for fs in feats.FEATURE_SETS:
                for cluster in clusters:
                    names |= set(feats.cluster_features(doc, cluster, k, fs))
                names |= set(feats.null_option(doc, k, fs))
    absent = {"MOST-TRUE-NUMBER'=PLURAL-PLURAL", "ALL-NUMBER_2=SINGULAR", "NONE-FOO=1", "NONE-", "ALL-DISTANCE",
              "LEX:zebra|yak", "NULL-zebra", "PERSON|zebra", "HEAD_MATCH=C"}
    assert absent.isdisjoint(names)
    kinds = ("NONE-", "MOST-FALSE-", "MOST-TRUE-", "ALL-", "LEX:", "NULL-", "UNSEEN-")
    assert all(any(n.startswith(kind) for n in names) for kind in kinds)
    assert any("'=" in n for n in names) and any("|" in n and ":" not in n for n in names)
    return docs, sorted(names | absent)


def _random_weights(names, rng, density):
    """Weights of mixed magnitude, so that another order of the sum would
    change its low bits, on a random share of ``names``."""
    return {
        name: rng.choice((rng.uniform(-3, 3), rng.uniform(-1e-9, 1e-9), 1e6 * rng.random(), 0.0, -0.0))
        for name in names
        if rng.random() < density
    }


class TestClusterScoresOracle:
    """Decode-time scores from the (row, value) tables against learn.score
    of the name vectors, compared with == so the order of the sum counts."""

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_equal_to_name_vectors(self, scoring_setting, data, seed, density):
        docs, names = scoring_setting
        doc = data.draw(st.sampled_from(docs))
        k = data.draw(st.integers(1, len(doc.mentions) - 1))
        groups = data.draw(st.integers(1, k))
        owners = data.draw(st.lists(st.integers(0, groups - 1), min_size=k, max_size=k))
        clusters = {}
        for j, owner in enumerate(owners):
            clusters.setdefault(owner, []).append(j)
        clusters = list(clusters.values())
        fs = data.draw(st.sampled_from(feats.FEATURE_SETS))
        rng = random.Random(seed)
        model = learn.LinearModel(_random_weights(names, rng, density), rng.uniform(-2, 2), RANK, learn.HINGE, {})
        scores, null = feats.cluster_scores(doc, model, clusters, k, fs)
        assert scores == [learn.score(model, feats.cluster_features(doc, c, k, fs)) for c in clusters]
        assert null == learn.score(model, feats.null_option(doc, k, fs))

    def test_table_lives_on_the_model(self):
        model = learn.LinearModel({"ALL-DISTANCE=0": 1.5, "NONE-NUMBER'=SINGULAR-SINGULAR": 2.0, "DISTANCE=0": -0.5,
                                   "NUMBER'=PLURAL-SINGULAR": 0.25, "LEX:a|b": 1.0}, 0.0, RANK, learn.HINGE, {})
        table = feats.model_table(model)
        assert feats.model_table(model) is table
        assert table.pair == {("DISTANCE", "0"): -0.5, ("NUMBER'", "PLURAL-SINGULAR"): 0.25}
        assert table.conventional == ((("DISTANCE", "0"), (0.0, 0.0, 0.0, 1.5)),)
        assert table.lexical == table.conventional
        assert table.concat == {("NUMBER'", "SINGULAR-SINGULAR"): ((0, "SINGULAR-SINGULAR"), (2.0, 0.0, 0.0, 0.0))}
        assert feats.model_table(learn.LinearModel(dict(model.weights), 0.0, RANK, learn.HINGE, {})) is not table


@pytest.fixture(scope="module")
def pair_scoring_setting(scoring_setting):
    """scoring_setting's documents, and every name their pair and
    new-cluster vectors can carry, plus names no vector carries."""
    docs, _ = scoring_setting
    names = set()
    half_unseen = False
    for doc in docs:
        for k in range(len(doc.mentions)):
            for fs in feats.FEATURE_SETS:
                names |= set(feats.null_option(doc, k, fs))
                for j in range(k):
                    names |= set(feats.pair_features(doc, j, k, fs))
            half_unseen |= any(doc.mentions[j].unseen != doc.mentions[k].unseen for j in range(k))
    absent = {"HEAD_MATCH=X", "PRONOUN_1=Q", "NUMBER_2=", "LEX:zebra|yak", "NULL-zebra", "PERSON|zebra", "UNSEEN-NONE"}
    assert absent.isdisjoint(names) and half_unseen
    kinds = ("PRONOUN_1=", "NUMBER_2=", "ALIAS=", "DISTANCE=", "PRO_TYPE'=", "LEX:", "NULL-", "UNSEEN-")
    assert all(any(n.startswith(kind) for n in names) for kind in kinds)
    return docs, sorted(names | absent)


class TestPairScoresOracle:
    """Decode-time pair scores from the (row, value) table against
    learn.score of the name vectors, compared with == so the order of the
    sum counts: the mention-pair and mention-ranking models of every set
    and loss score the same vectors."""

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_equal_to_name_vectors(self, pair_scoring_setting, data, seed, density):
        docs, names = pair_scoring_setting
        doc = data.draw(st.sampled_from(docs))
        k = data.draw(st.integers(0, len(doc.mentions) - 1))
        fs = data.draw(st.sampled_from(feats.FEATURE_SETS))
        kind = data.draw(st.sampled_from((CLASSIFY, RANK)))
        loss = data.draw(st.sampled_from((learn.HINGE, learn.LOG)))
        rng = random.Random(seed)
        model = learn.LinearModel(_random_weights(names, rng, density), rng.uniform(-2, 2), kind, loss, {})
        scores, null = feats.pair_scores(doc, model, k, fs)
        vecs = [feats.pair_features(doc, j, k, fs) for j in range(k)]
        assert scores == [learn.score(model, vec) for vec in vecs]
        assert null == learn.score(model, feats.null_option(doc, k, fs))
        if loss == learn.LOG:
            assert [learn.probability(s) for s in scores] == [learn.predict_prob(model, vec) for vec in vecs]

    @pytest.mark.parametrize("fs", feats.FEATURE_SETS)
    def test_every_pair_of_every_doc(self, pair_scoring_setting, fs):
        docs, names = pair_scoring_setting
        rng = random.Random(7)
        for density in (0.3, 1.0):
            model = learn.LinearModel(_random_weights(names, rng, density), rng.uniform(-2, 2), CLASSIFY,
                                      learn.LOG, {})
            for doc in docs:
                for k in range(len(doc.mentions)):
                    scores, null = feats.pair_scores(doc, model, k, fs)
                    assert scores == [learn.score(model, feats.pair_features(doc, j, k, fs)) for j in range(k)]
                    assert null == learn.score(model, feats.null_option(doc, k, fs))
