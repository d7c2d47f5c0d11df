import random

import numpy as np
import pytest

from corefrank import cli, feats, ilp, learn, resolve, score
from corefrank.corpus import Document, Mention, Partition
from corefrank.instances import CLASSIFY, RANK
from corefrank.synth import synth_corpus

import reference_families as ref
from conftest import make_doc


def hinge_model(weights, bias=0.0, kind=CLASSIFY, meta=None):
    return learn.LinearModel(dict(weights), bias, kind, learn.HINGE, meta or {})


def log_model(weights, bias=0.0, kind=CLASSIFY, meta=None):
    return learn.LinearModel(dict(weights), bias, kind, learn.LOG, meta or {})


ALWAYS_NO = hinge_model({}, bias=1.0)  # every score is -1 -> never positive


def str_match_oracle(bias=1.0):
    """Positive exactly on same-string pairs; an oracle on name-repeat docs."""
    return hinge_model({"STR_MATCH=C": 2.0}, bias=bias)


class TestHeadMatch:
    def test_all_distinct_heads_singletons(self):
        doc = make_doc("d", [("a", "COMMON", {}), ("b", "COMMON", {}), ("c", "COMMON", {})])
        assert resolve.head_match(doc).as_sets() == {frozenset({0}), frozenset({1}), frozenset({2})}

    def test_repeat_heads_cluster(self):
        doc = make_doc("d", [("x", "COMMON", {}), ("y", "COMMON", {}), ("x", "COMMON", {})])
        assert resolve.head_match(doc).as_sets() == {frozenset({0, 2}), frozenset({1})}

    def test_fig1_his_he_not_merged(self, fig1):
        partition = resolve.head_match(fig1)
        cluster_of = partition.mention_to_cluster()
        assert cluster_of[2] != cluster_of[5]


class TestMentionPairResolver:
    def spec(self, model, linking=resolve.CLOSEST_FIRST):
        return resolve.ResolverSpec(
            resolve.MENTION_PAIR, feats.CONVENTIONAL, model, linking=linking
        )

    def test_always_negative_all_singletons(self, fig1):
        partition = resolve.resolve(fig1, self.spec(ALWAYS_NO))
        assert all(len(c) == 1 for c in partition.clusters)

    def test_oracle_reproduces_gold(self):
        doc = make_doc(
            "d",
            [("Acme", "PROPER", {}), ("Bolt", "PROPER", {}), ("Acme", "PROPER", {}),
             ("Bolt", "PROPER", {}), ("Acme", "PROPER", {})],
            [[0, 2, 4], [1, 3]],
        )
        partition = resolve.resolve(doc, self.spec(str_match_oracle()))
        assert partition == doc.gold_partition

    def test_closest_vs_best_first(self):
        # scores for m2: 0.9 against m0 (distance 2), 0.2 against m1 (distance 1)
        doc = make_doc("d", [("Acme", "PROPER", {}), ("Bolt", "PROPER", {}), ("it", "PRONOUN", {})])
        model = hinge_model({"DISTANCE=2": 0.9, "DISTANCE=1": 0.2})
        clusters = [[0], [1]]
        closest = resolve.decide_link(doc, self.spec(model), 2, clusters)
        best = resolve.decide_link(doc, self.spec(model, resolve.BEST_FIRST), 2, clusters)
        assert clusters[closest] == [1]
        assert clusters[best] == [0]

    def test_feature_set_mismatch_rejected(self):
        model = hinge_model({}, meta={"features": feats.LEXICAL})
        with pytest.raises(ValueError, match="feature-set mismatch"):
            resolve.ResolverSpec(resolve.MENTION_PAIR, feats.CONVENTIONAL, model)


class TestEntityMentionResolver:
    def spec(self, model, linking=resolve.CLOSEST_FIRST):
        return resolve.ResolverSpec(
            resolve.ENTITY_MENTION, feats.CONVENTIONAL, model, linking=linking
        )

    def test_always_negative_all_singletons(self, fig1):
        partition = resolve.resolve(fig1, self.spec(ALWAYS_NO))
        assert all(len(c) == 1 for c in partition.clusters)

    def test_two_mention_positive_pair(self):
        doc = make_doc("d", [("Acme", "PROPER", {}), ("Acme", "PROPER", {})], [[0, 1]])
        model = hinge_model({"ALL-STR_MATCH=C": 2.0}, bias=1.0)
        partition = resolve.resolve(doc, self.spec(model))
        assert partition.as_sets() == {frozenset({0, 1})}

    def test_closest_vs_best_cluster(self):
        # cluster A (last mention m0) scores 0.9, cluster B (last m1) scores 0.2
        doc = make_doc("d", [("Acme", "PROPER", {}), ("Bolt", "PROPER", {}), ("it", "PRONOUN", {})])
        model = hinge_model({"ALL-DISTANCE=2": 0.9, "ALL-DISTANCE=1": 0.2})
        clusters = [[0], [1]]
        closest = resolve.decide_link(doc, self.spec(model), 2, clusters)
        best = resolve.decide_link(doc, self.spec(model, resolve.BEST_FIRST), 2, clusters)
        assert clusters[closest] == [1]
        assert clusters[best] == [0]


class TestMentionRankingResolver:
    def test_single_mention_doc(self):
        doc = make_doc("d", [("Acme", "PROPER", {})])
        spec = resolve.ResolverSpec(
            resolve.MENTION_RANKING, feats.CONVENTIONAL, hinge_model({}, kind=RANK), anaph=resolve.JOINT
        )
        assert resolve.resolve(doc, spec).as_sets() == {frozenset({0})}

    def test_joint_null_wins_starts_singleton(self):
        doc = make_doc("d", [("Acme", "PROPER", {}), ("Bolt", "PROPER", {})])
        # pair vectors carry STR_MATCH while the new-cluster vector does not,
        # so a negative weight there makes the null option win strictly
        model = hinge_model({"STR_MATCH=I": -4.0}, kind=RANK)
        spec = resolve.ResolverSpec(resolve.MENTION_RANKING, feats.CONVENTIONAL, model)
        partition = resolve.resolve(doc, spec)
        assert partition.as_sets() == {frozenset({0}), frozenset({1})}

    def test_tie_links_to_closest(self):
        doc = make_doc("d", [("Acme", "PROPER", {}), ("Acme", "PROPER", {}), ("it", "PRONOUN", {})])
        model = hinge_model({"PRONOUN_2=Y": 1.0}, kind=RANK)  # equal scores for both candidates
        spec = resolve.ResolverSpec(resolve.MENTION_RANKING, feats.CONVENTIONAL, model)
        partition = resolve.resolve(doc, spec)
        assert partition.mention_to_cluster()[2] == partition.mention_to_cluster()[1]

    def test_null_candidate_exact_tie_resolves_to_link(self):
        doc = make_doc("d", [("Acme", "PROPER", {}), ("Acme", "PROPER", {})])
        # all-zero model: every score is 0.0, null ties with the candidate
        model = hinge_model({}, kind=RANK)
        spec = resolve.ResolverSpec(resolve.MENTION_RANKING, feats.CONVENTIONAL, model)
        partition = resolve.resolve(doc, spec)
        assert partition.as_sets() == {frozenset({0, 1})}

    def test_pipeline_requires_anaph_model(self):
        with pytest.raises(ValueError, match="anaphoricity model"):
            resolve.ResolverSpec(
                resolve.MENTION_RANKING, feats.CONVENTIONAL, hinge_model({}, kind=RANK),
                anaph=resolve.PIPELINE,
            )

    def test_pipeline_requires_log_loss_anaph_model(self):
        with pytest.raises(ValueError, match="log-loss"):
            resolve.ResolverSpec(
                resolve.MENTION_RANKING, feats.CONVENTIONAL, hinge_model({}, kind=RANK),
                anaph=resolve.PIPELINE, anaph_model=hinge_model({}),
            )

    def test_joint_forbids_anaph_model(self):
        with pytest.raises(ValueError, match="joint"):
            resolve.ResolverSpec(
                resolve.MENTION_RANKING, feats.CONVENTIONAL, hinge_model({}, kind=RANK),
                anaph=resolve.JOINT, anaph_model=log_model({}),
            )

    def test_pipeline_gate(self):
        doc = make_doc("d", [("Acme", "PROPER", {}), ("Acme", "PROPER", {})], [[0, 1]])
        ranker = hinge_model({"STR_MATCH=C": 1.0}, kind=RANK)
        gate_all_out = log_model({}, bias=5.0)   # prob ~ 0 -> never anaphoric
        gate_all_in = log_model({}, bias=-5.0)   # prob ~ 1 -> always anaphoric
        out_spec = resolve.ResolverSpec(
            resolve.MENTION_RANKING, feats.CONVENTIONAL, ranker,
            anaph=resolve.PIPELINE, anaph_model=gate_all_out,
        )
        in_spec = resolve.ResolverSpec(
            resolve.MENTION_RANKING, feats.CONVENTIONAL, ranker,
            anaph=resolve.PIPELINE, anaph_model=gate_all_in,
        )
        assert resolve.resolve(doc, out_spec).as_sets() == {
            frozenset({0}), frozenset({1})
        }
        assert resolve.resolve(doc, in_spec).as_sets() == {frozenset({0, 1})}


class TestClusterRankingResolver:
    def test_first_mention_singleton(self):
        doc = make_doc("d", [("Acme", "PROPER", {})])
        spec = resolve.ResolverSpec(
            resolve.CLUSTER_RANKING, feats.CONVENTIONAL, hinge_model({}, kind=RANK)
        )
        assert resolve.resolve(doc, spec).as_sets() == {frozenset({0})}

    def test_fig1_hand_built_weights_link_he(self, fig1):
        # Reward the gender-compatible cluster and the his->he lexical pair
        # so the Obama cluster strictly dominates for "He".
        model = hinge_model(
            {"ALL-GENDER=C": 2.0, "LEX:his|he": 3.0, "PERSON|he": 1.0},
            kind=RANK,
        )
        spec = resolve.ResolverSpec(resolve.CLUSTER_RANKING, feats.COMBINED, model)
        partition = resolve.resolve(fig1, spec)
        cluster_of = partition.mention_to_cluster()
        assert cluster_of[5] == cluster_of[0]
        assert 2 in cluster_of[5]

    def test_tie_prefers_closest_last_mention(self):
        doc = make_doc(
            "d",
            [("Acme", "PROPER", {}), ("Bolt", "PROPER", {}), ("Acme", "PROPER", {}),
             ("it", "PRONOUN", {})],
            [[0, 2], [1], [3]],
        )
        # Two pre-built clusters get identical scores for the pronoun: the
        # winner must be the one whose last mention is nearer.
        model = hinge_model({"NESTED_2=N": 1.0}, kind=RANK)
        spec = resolve.ResolverSpec(resolve.CLUSTER_RANKING, feats.CONVENTIONAL, model)
        partition = resolve.resolve(doc, spec)
        cluster_of = partition.mention_to_cluster()
        # clusters before m3: {0,2} (last=2) and {1} (last=1); tie -> join {0,2}
        assert cluster_of[3] == cluster_of[2]


class TestResolverProperties:
    def truncate(self, doc, m):
        mentions = [Mention(**{f: getattr(x, f) for f in (
            "id", "sent", "start", "end", "mtype", "head_start", "head_end", "number",
            "gender", "semclass", "animacy", "ne_tag", "subject", "nested", "embedded",
            "indefinite", "definite", "demonstrative", "quantified", "appositive_with",
            "copular_with", "maximalnp_group", "unseen")}) for x in doc.mentions[:m]]
        for x in mentions:
            if x.appositive_with is not None and x.appositive_with >= m:
                x.appositive_with = None
            if x.copular_with is not None and x.copular_with >= m:
                x.copular_with = None
        clusters = [
            [i for i in c if i < m] for c in doc.gold_partition.clusters if any(i < m for i in c)
        ]
        return Document(doc.doc_id, doc.source, doc.sentences, mentions, Partition(clusters))

    def test_prefix_determinism(self):
        from corefrank.synth import synth_corpus

        docs = synth_corpus(4, seed=21)
        model = hinge_model({"ALL-STR_MATCH=C": 2.0, "ALL-GENDER=C": 0.5}, bias=1.0)
        spec = resolve.ResolverSpec(resolve.ENTITY_MENTION, feats.CONVENTIONAL, model)
        for doc in docs:
            full = resolve.resolve(doc, spec).mention_to_cluster()
            for m in range(1, len(doc.mentions) + 1):
                part = resolve.resolve(self.truncate(doc, m), spec).mention_to_cluster()
                for k in range(m):
                    assert set(part[k]) == {x for x in full[k] if x < m}

    def test_output_always_partitions_universe(self, fig1):
        for spec in [
            resolve.ResolverSpec(resolve.MENTION_PAIR, feats.CONVENTIONAL, ALWAYS_NO),
            resolve.ResolverSpec(resolve.CLUSTER_RANKING, feats.CONVENTIONAL, hinge_model({}, kind=RANK)),
        ]:
            partition = resolve.resolve(fig1, spec)
            partition.validate(range(len(fig1.mentions)))

    def test_predicted_anaphoricity(self):
        partition = Partition([[0, 2], [1], [3, 4]])
        flags = resolve.predicted_anaphoricity(partition)
        assert flags == {0: False, 1: False, 2: True, 3: False, 4: True}

    def test_constant_score_shift_leaves_decisions_unchanged(self):
        # a bias change shifts every candidate score (null included) equally
        from corefrank.synth import synth_corpus

        docs = synth_corpus(5, seed=31)
        weights = {"ALL-STR_MATCH=C": 2.0, "ALL-GENDER=C": 0.7, "LEX:his|he": 1.0}
        for bias in (0.0, 10.0, -3.5):
            spec = resolve.ResolverSpec(
                resolve.CLUSTER_RANKING, feats.COMBINED,
                hinge_model(weights, bias=bias, kind=RANK),
            )
            results = [resolve.resolve(doc, spec) for doc in docs]
            if bias == 0.0:
                baseline = results
            else:
                assert results == baseline


def _integer_model(rng, vocab, n_names, kind, loss):
    """Small integer weights on a few names, so that exact ties are common."""
    names = rng.sample(vocab, k=n_names)
    weights = {n: float(rng.choice((-2, -1, 1, 2))) for n in names}
    return learn.LinearModel(weights, float(rng.choice((-1, 0, 1))), kind, loss, {})


def _ordered_partitions(n):
    """Every list of disjoint clusters over 0..n-1, in every creation order."""
    if n == 0:
        yield []
        return
    for part in _ordered_partitions(n - 1):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [n - 1]] + part[i + 1:]
        for i in range(len(part) + 1):
            yield part[:i] + [[n - 1]] + part[i:]


SPECS = (
    [(resolve.HEAD_MATCH, None, None, None)]
    + [(family, loss, linking, None)
       for family in resolve.CLASSIFIER_FAMILIES
       for loss in (learn.HINGE, learn.LOG)
       for linking in (resolve.CLOSEST_FIRST, resolve.BEST_FIRST)]
    + [(family, loss, None, anaph)
       for family in resolve.RANKING_FAMILIES
       for loss in (learn.HINGE, learn.LOG)
       for anaph in (resolve.JOINT, resolve.PIPELINE)]
)


class TestFamiliesMatchReference:
    """The generic link decision against the per-family branches it replaced."""

    @pytest.fixture(scope="class")
    def setting(self):
        docs = [*synth_corpus(6, seed=23), *synth_corpus(1, seed=9, mentions_low=40, mentions_high=40)]
        vocab = {}
        for doc in docs:
            for ts in (ref.gen_mention_ranking(doc, feats.COMBINED, joint=True),
                       ref.gen_cluster_ranking(doc, feats.COMBINED, joint=True)):
                vocab.update(dict.fromkeys(ts.feature_vocab))
        anaph_vocab = sorted({n for doc in docs for k in range(len(doc.mentions))
                              for n in feats.anaphoricity(doc, k)})
        return docs, sorted(vocab), anaph_vocab

    @pytest.mark.parametrize("family, loss, linking, anaph", SPECS)
    def test_same_links(self, fig1, setting, family, loss, linking, anaph):
        docs, vocab, anaph_vocab = setting
        rng = random.Random(f"{family}{loss}{linking}{anaph}")
        for n_names in (0, 4, 12):
            if family == resolve.HEAD_MATCH:
                spec = resolve.ResolverSpec(family)
            else:
                kind = RANK if family in resolve.RANKING_FAMILIES else CLASSIFY
                spec = resolve.ResolverSpec(
                    family, feats.COMBINED, _integer_model(rng, vocab, n_names, kind, loss),
                    linking=linking or resolve.CLOSEST_FIRST, anaph=anaph or resolve.JOINT,
                    anaph_model=_integer_model(rng, anaph_vocab, 4, CLASSIFY, learn.LOG)
                    if anaph == resolve.PIPELINE else None,
                )
            for doc in [fig1, *docs]:
                clusters = []
                for k in range(len(doc.mentions)):
                    choice = ref.decide_link(doc, spec, k, clusters)
                    assert resolve.decide_link(doc, spec, k, clusters) == choice, (doc.doc_id, k)
                    if choice is None:
                        clusters.append([k])
                    else:
                        clusters[choice].append(k)
                assert resolve.resolve(doc, spec) == Partition(clusters)
            # fig1's m2 and m3 start at the same token: every cluster state
            # before m4 puts them in either order, together or apart.
            for clusters in _ordered_partitions(4):
                assert resolve.decide_link(fig1, spec, 4, clusters) == ref.decide_link(fig1, spec, 4, clusters)

    @pytest.mark.parametrize("clusters", [[[0], [1], [2], [3]], [[0], [1], [3], [2]]])
    def test_fig1_nested_tie(self, fig1, clusters):
        # m2 "his" and m3 "his secretary of state" both start at token 7.
        # The cluster ranker breaks score ties by token offset and then
        # takes the earlier cluster; the mention ranker and entity-mention
        # take the highest last-mention id, m3.
        zero = hinge_model({}, kind=RANK)
        cr = resolve.ResolverSpec(resolve.CLUSTER_RANKING, feats.CONVENTIONAL, zero)
        assert resolve.decide_link(fig1, cr, 4, clusters) == 2
        mr = resolve.ResolverSpec(resolve.MENTION_RANKING, feats.CONVENTIONAL, zero)
        assert clusters[resolve.decide_link(fig1, mr, 4, clusters)] == [3]
        always_yes = hinge_model({}, bias=-1.0)
        for linking in (resolve.CLOSEST_FIRST, resolve.BEST_FIRST):
            em = resolve.ResolverSpec(resolve.ENTITY_MENTION, feats.CONVENTIONAL, always_yes, linking=linking)
            assert clusters[resolve.decide_link(fig1, em, 4, clusters)] == [3]


def _all_classes_doc():
    """One mention of each of the 13 resolution classes; synth corpora
    realize only six of them."""
    specs = [
        ("Barack Obama", "PROPER", {}),   # 0 proper-na
        ("Obama", "PROPER", {}),          # 1 proper-p
        ("Obama", "PROPER", {}),          # 2 proper-e
        ("IBM", "PROPER", {}),            # 3 proper-na
        ("Big Blue", "PROPER", {}),       # 4 proper-n
        ("the red car", "COMMON", {}),    # 5 common-na
        ("the car", "COMMON", {}),        # 6 common-p
        ("the car", "COMMON", {}),        # 7 common-e
        ("the airline", "COMMON", {}),    # 8 common-na
        ("the carrier", "COMMON", {}),    # 9 common-n
        ("I", "PRONOUN", {}),             # 10 pronoun-na
        ("me", "PRONOUN", {}),            # 11 1+2
        ("he", "PRONOUN", {}),            # 12 G3
        ("it", "PRONOUN", {}),            # 13 U3
        ("who", "PRONOUN", {}),           # 14 oa
    ]
    return make_doc("classes", specs, [[0, 1, 2, 12, 14], [3, 4, 13], [5, 6, 7], [8, 9], [10, 11]])


class TestClassScoreMatchesReference:
    """resolution_class_score against the per-mention loop it replaced."""

    @pytest.fixture(scope="class")
    def setting(self):
        docs = [*synth_corpus(6, seed=23, pronoun_rate=0.4, alias_rate=0.4), _all_classes_doc()]
        vocab = {}
        for doc in docs:
            for ts in (ref.gen_mention_ranking(doc, feats.COMBINED, joint=True),
                       ref.gen_cluster_ranking(doc, feats.COMBINED, joint=True)):
                vocab.update(dict.fromkeys(ts.feature_vocab))
        anaph_vocab = sorted({n for doc in docs for k in range(len(doc.mentions))
                              for n in feats.anaphoricity(doc, k)})
        return docs, sorted(vocab), anaph_vocab

    def test_every_class_realized(self, setting):
        docs, _, _ = setting
        realized = {score.resolution_class_of(doc, k) for doc in docs for k in range(len(doc.mentions))}
        assert realized == set(score.RESOLUTION_CLASSES)

    @pytest.mark.parametrize("family, loss, linking, anaph", SPECS[1:])
    def test_same_class_scores(self, fig1, setting, family, loss, linking, anaph):
        docs, vocab, anaph_vocab = setting
        rng = random.Random(f"classes{family}{loss}{linking}{anaph}")
        kind = RANK if family in resolve.RANKING_FAMILIES else CLASSIFY
        spec = resolve.ResolverSpec(
            family, feats.COMBINED, _integer_model(rng, vocab, 12, kind, loss),
            linking=linking or resolve.CLOSEST_FIRST, anaph=anaph or resolve.JOINT,
            anaph_model=_integer_model(rng, anaph_vocab, 4, CLASSIFY, learn.LOG)
            if anaph == resolve.PIPELINE else None,
        )
        for label in score.RESOLUTION_CLASSES:
            expected = ref.resolution_class_score([fig1, *docs], spec, label)
            assert score.resolution_class_score([fig1, *docs], spec, label) == expected, label


@pytest.fixture(scope="module")
def decode_docs():
    """Ten train and five test documents, one of them of 30 mentions."""
    return [*synth_corpus(14, seed=19), *synth_corpus(1, seed=4, mentions_low=30, mentions_high=30)]


def refuse_coref_name_vectors(monkeypatch, anaph_model):
    """Make every name-vector path of the coreference model raise: the
    pair, cluster and new-cluster extractors, and learn.score and
    learn.predict_prob of any model but ``anaph_model``."""

    def refuse(*args, **kwargs):
        raise AssertionError("name vector built at decode time")

    real_score, real_predict_prob = learn.score, learn.predict_prob

    def anaphoricity_only(real):
        def guarded(model, vec):
            if model is not anaph_model:
                raise AssertionError("coreference model scored from a name vector")
            return real(model, vec)
        return guarded

    for name in ("pair_features", "cluster_features", "null_option"):
        monkeypatch.setattr(feats, name, refuse)
    monkeypatch.setattr(learn, "score", anaphoricity_only(real_score))
    monkeypatch.setattr(learn, "predict_prob", anaphoricity_only(real_predict_prob))


class TestClusterDecodeUsesTables:
    """cr and em decode without cluster or new-cluster name vectors: the
    coreference model is never scored through learn.score.  The pipeline
    gate still scores its anaphoricity vector, with its own model."""

    @pytest.mark.parametrize("family", ["cr", "em"])
    @pytest.mark.parametrize("anaph", ["joint", "pipeline"])
    @pytest.mark.parametrize("loss", ["hinge", "log"])
    def test_no_name_vectors(self, monkeypatch, decode_docs, family, anaph, loss):
        cfg = cli.ExperimentConfig(family=family, loss=loss, anaph=anaph, epochs=5)
        bundle = cli.train_bundle(decode_docs[:10], cfg)
        spec = bundle.resolver_spec()
        test_docs = cli.prepare_test_docs(decode_docs[10:], bundle)
        expected = [ref.resolve(doc, spec) for doc in test_docs]
        assert any(m.unseen for doc in test_docs for m in doc.mentions)
        refuse_coref_name_vectors(monkeypatch, spec.anaph_model)
        assert [resolve.resolve(doc, spec) for doc in test_docs] == expected


class TestMentionDecodeUsesTables:
    """mp, mr and the ILP program decode without pair or new-cluster name
    vectors, as the cluster families do: the coreference model is never
    scored through learn.score or learn.predict_prob."""

    @pytest.mark.parametrize("fs", feats.FEATURE_SETS)
    @pytest.mark.parametrize("family, mode", [
        ("mp", {"linking": "closest"}), ("mp", {"linking": "best"}),
        ("mr", {"anaph": "joint"}), ("mr", {"anaph": "pipeline"}),
    ], ids=["mp-closest", "mp-best", "mr-joint", "mr-pipeline"])
    @pytest.mark.parametrize("loss", ["hinge", "log"])
    def test_no_name_vectors(self, monkeypatch, decode_docs, family, mode, loss, fs):
        cfg = cli.ExperimentConfig(family=family, features=fs, loss=loss, epochs=5, **mode)
        bundle = cli.train_bundle(decode_docs[:10], cfg)
        spec = bundle.resolver_spec()
        test_docs = cli.prepare_test_docs(decode_docs[10:], bundle)
        expected = [ref.resolve(doc, spec) for doc in test_docs]
        assert fs == feats.CONVENTIONAL or any(m.unseen for doc in test_docs for m in doc.mentions)
        refuse_coref_name_vectors(monkeypatch, spec.anaph_model)
        assert [resolve.resolve(doc, spec) for doc in test_docs] == expected

    @pytest.mark.parametrize("fs", feats.FEATURE_SETS)
    def test_ilp_costs_equal_name_vector_costs(self, monkeypatch, decode_docs, fs):
        cfg = cli.ExperimentConfig(family="mp", features=fs, loss="log", epochs=5)
        bundle = cli.train_bundle(decode_docs[:10], cfg)
        test_docs = cli.prepare_test_docs(decode_docs[10:], bundle)
        models = (bundle.coref_model, bundle.anaph_model, fs)
        expected = [ref.build_program(doc, *models) for doc in test_docs]
        refuse_coref_name_vectors(monkeypatch, bundle.anaph_model)
        for doc, want in zip(test_docs, expected):
            got = ilp.build_program(doc, *models)
            assert got.coref_cost == want.coref_cost and got.coref_cost_bar == want.coref_cost_bar
            assert got.anaph_cost == want.anaph_cost and got.anaph_cost_bar == want.anaph_cost_bar
            assert list(got.coref_cost) == list(want.coref_cost)
