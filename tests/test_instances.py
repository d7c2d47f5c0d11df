import pytest

from corefrank import feats, instances
from corefrank.corpus import unseen_train
from corefrank.instances import CLASSIFY, RANK, NULL_CANDIDATE
from corefrank.synth import synth_corpus

import reference_families as ref
from conftest import make_doc


def he_instances(ts):
    return [(i.meta[2], i.label) for i in ts.instances if i.meta[1] == 5]


class TestMentionPair:
    def test_fig1_he_golden(self, fig1):
        ts = instances.gen_mention_pair(fig1, feats.CONVENTIONAL)
        assert ts.kind == CLASSIFY
        # negatives on Monday (4) and secretary of state (3), positive on his (2)
        assert sorted(he_instances(ts)) == [(2, 1.0), (3, -1.0), (4, -1.0)]

    def test_fig1_total_count(self, fig1):
        ts = instances.gen_mention_pair(fig1, feats.CONVENTIONAL)
        # "his" is also anaphoric: positive on Obama, negative on Clinton
        assert len(ts.instances) == 5

    def test_adjacent_antecedent_single_positive(self):
        doc = make_doc("d", [("Clinton", "PROPER", {}), ("Clinton", "PROPER", {})], [[0, 1]])
        ts = instances.gen_mention_pair(doc, feats.CONVENTIONAL)
        assert [(i.meta[2], i.label) for i in ts.instances] == [(0, 1.0)]

    def test_all_singletons_empty(self):
        doc = make_doc("d", [("a", "COMMON", {}), ("b", "COMMON", {}), ("c", "COMMON", {})])
        ts = instances.gen_mention_pair(doc, feats.CONVENTIONAL)
        assert ts.instances == []

    def test_vocab_covers_instances(self, fig1):
        ts = instances.gen_mention_pair(fig1, feats.COMBINED)
        vocab = set(ts.feature_vocab)
        for inst in ts.instances:
            assert set(inst.vec) <= vocab


class TestEntityMention:
    def test_fig1_he_golden(self, fig1):
        ts = instances.gen_entity_mention(fig1, feats.CONVENTIONAL)
        got = sorted(he_instances(ts))
        assert got == [((0, 2), 1.0), ((3,), -1.0), ((4,), -1.0)]

    def test_adjacent_antecedent_single_positive(self):
        doc = make_doc("d", [("Clinton", "PROPER", {}), ("Clinton", "PROPER", {})], [[0, 1]])
        ts = instances.gen_entity_mention(doc, feats.CONVENTIONAL)
        assert [(i.meta[2], i.label) for i in ts.instances] == [((0,), 1.0)]

    def test_all_singletons_empty(self):
        doc = make_doc("d", [("a", "COMMON", {}), ("b", "COMMON", {})])
        assert instances.gen_entity_mention(doc, feats.CONVENTIONAL).instances == []

    def test_candidate_clusters_disjoint_and_preceding(self, fig1):
        for gen in (instances.gen_entity_mention,
                    lambda d, fs: instances.gen_cluster_ranking(d, fs, joint=True)):
            ts = gen(fig1, feats.CONVENTIONAL)
            for group, members in ts.groups().items():
                seen = set()
                for inst in members:
                    cluster = inst.meta[2]
                    if cluster == instances.NULL_CANDIDATE:
                        continue
                    assert max(cluster) < inst.meta[1]
                    assert not seen.intersection(cluster)
                    seen.update(cluster)


class TestMentionRanking:
    def test_fig1_he_ranks(self, fig1):
        ts = instances.gen_mention_ranking(fig1, feats.CONVENTIONAL, joint=False)
        assert ts.kind == RANK
        assert sorted(he_instances(ts)) == [(2, 2.0), (3, 1.0), (4, 1.0)]

    def test_same_vectors_as_mention_pair(self, fig1):
        """The candidate sets and vectors match the mention-pair generator;
        only the label scheme differs."""
        mp = instances.gen_mention_pair(fig1, feats.CONVENTIONAL)
        mr = instances.gen_mention_ranking(fig1, feats.CONVENTIONAL, joint=False)
        mp_items = sorted((i.group, sorted(i.vec.items())) for i in mp.instances)
        mr_items = sorted((i.group, sorted(i.vec.items())) for i in mr.instances)
        assert mp_items == mr_items

    def test_joint_nonanaphoric_null_outranks(self, fig1):
        ts = instances.gen_mention_ranking(fig1, feats.CONVENTIONAL, joint=True)
        monday = [(i.meta[2], i.label) for i in ts.instances if i.meta[1] == 4]
        assert (NULL_CANDIDATE, 2.0) in monday
        assert sorted(l for c, l in monday if c != NULL_CANDIDATE) == [1.0, 1.0, 1.0, 1.0]

    def test_joint_first_mention_group_is_null_only(self, fig1):
        ts = instances.gen_mention_ranking(fig1, feats.CONVENTIONAL, joint=True)
        first = [(i.meta[2], i.label) for i in ts.instances if i.meta[1] == 0]
        assert first == [(NULL_CANDIDATE, 2.0)]

    def test_joint_anaphoric_candidates_cover_all_predecessors(self, fig1):
        ts = instances.gen_mention_ranking(fig1, feats.CONVENTIONAL, joint=True)
        he = he_instances(ts)
        assert set(he) == {(0, 1.0), (1, 1.0), (2, 2.0), (3, 1.0), (4, 1.0), (NULL_CANDIDATE, 1.0)}
        assert len(he) == 6


class TestClusterRanking:
    def test_fig1_he_prefix_clusters(self, fig1):
        ts = instances.gen_cluster_ranking(fig1, feats.CONVENTIONAL, joint=False)
        he = sorted(he_instances(ts))
        assert he == [((0, 2), 2.0), ((1,), 1.0), ((3,), 1.0), ((4,), 1.0)]

    def test_fig1_he_joint_adds_null_rank_1(self, fig1):
        ts = instances.gen_cluster_ranking(fig1, feats.CONVENTIONAL, joint=True)
        he = he_instances(ts)
        assert (NULL_CANDIDATE, 1.0) in he
        assert len(he) == 5

    def test_fig1_clinton_joint(self, fig1):
        ts = instances.gen_cluster_ranking(fig1, feats.CONVENTIONAL, joint=True)
        clinton = [(i.meta[2], i.label) for i in ts.instances if i.meta[1] == 1]
        assert set(clinton) == {((0,), 1.0), (NULL_CANDIDATE, 2.0)}

    def test_pipeline_variant_skips_nonanaphoric(self, fig1):
        ts = instances.gen_cluster_ranking(fig1, feats.CONVENTIONAL, joint=False)
        assert {i.meta[1] for i in ts.instances} == {2, 5}

    def test_every_joint_group_has_one_rank2(self, fig1):
        for gen in (instances.gen_mention_ranking, instances.gen_cluster_ranking):
            ts = gen(fig1, feats.CONVENTIONAL, joint=True)
            for group, members in ts.groups().items():
                assert sum(1 for m in members if m.label == 2.0) == 1, group


GENERATORS = pytest.mark.parametrize(
    "gen, reference, args",
    [(instances.gen_mention_pair, ref.gen_mention_pair, ()),
     (instances.gen_entity_mention, ref.gen_entity_mention, ()),
     (instances.gen_mention_ranking, ref.gen_mention_ranking, (False,)),
     (instances.gen_mention_ranking, ref.gen_mention_ranking, (True,)),
     (instances.gen_cluster_ranking, ref.gen_cluster_ranking, (False,)),
     (instances.gen_cluster_ranking, ref.gen_cluster_ranking, (True,))],
    ids=["mp", "em", "mr", "mr-joint", "cr", "cr-joint"],
)


@pytest.fixture(scope="module")
def oracle_docs():
    """Short synth docs, some with unseen strings, and two 40-mention docs."""
    short = synth_corpus(6, seed=17)
    long = synth_corpus(2, seed=5, mentions_low=40, mentions_high=40)
    return short + unseen_train(short[:3], 0.5, seed=2) + long


def _rows(ts):
    return [(list(i.vec.items()), i.label, i.group, i.meta) for i in ts.instances], ts.kind, ts.feature_vocab


class TestFamiliesMatchReference:
    """The generic generator against the per-family generators it replaced."""

    @pytest.mark.parametrize("fs", feats.FEATURE_SETS)
    @GENERATORS
    def test_same_instances(self, fig1, oracle_docs, fs, gen, reference, args):
        for doc in [fig1, *oracle_docs]:
            assert _rows(gen(doc, fs, *args)) == _rows(reference(doc, fs, *args)), doc.doc_id


class TestAnaphoricityInstances:
    def test_fig1_labels(self, fig1):
        ts = instances.gen_anaphoricity(fig1)
        labels = {i.meta[1]: i.label for i in ts.instances}
        assert labels == {0: -1.0, 1: -1.0, 2: 1.0, 3: -1.0, 4: -1.0, 5: 1.0}

    def test_single_mention_negative(self):
        doc = make_doc("d", [("Clinton", "PROPER", {})])
        ts = instances.gen_anaphoricity(doc)
        assert [i.label for i in ts.instances] == [-1.0]

    def test_repeated_name_positive_with_str_match(self):
        doc = make_doc("d", [("Clinton", "PROPER", {}), ("Clinton", "PROPER", {})], [[0, 1]])
        ts = instances.gen_anaphoricity(doc)
        second = ts.instances[1]
        assert second.label == 1.0
        assert "STR_MATCH=Y" in second.vec


class TestMergeAndDump:
    def test_merge_concatenates(self, fig1):
        a = instances.gen_mention_pair(fig1, feats.CONVENTIONAL)
        b = instances.gen_anaphoricity(fig1)
        with pytest.raises(ValueError):
            instances.merge([])
        merged = instances.merge([a, instances.gen_mention_pair(fig1, feats.CONVENTIONAL)])
        assert len(merged.instances) == 2 * len(a.instances)
        with pytest.raises(ValueError):
            instances.merge([a, instances.gen_mention_ranking(fig1, feats.CONVENTIONAL)])

    @GENERATORS
    def test_merged_vocab_matches_rebuild(self, fig1, gen, reference, args):
        sets = [gen(doc, feats.COMBINED, *args) for doc in [fig1, *synth_corpus(8, seed=4)]]
        merged = instances.merge(sets)
        rebuilt = instances.TrainSet.build([i for ts in sets for i in ts.instances], sets[0].kind)
        assert merged.feature_vocab == rebuilt.feature_vocab
        assert merged.instances == rebuilt.instances

    def test_dump_format(self, fig1, tmp_path):
        import json

        ts = instances.gen_mention_pair(fig1, feats.CONVENTIONAL)
        path = tmp_path / "dump.jsonl"
        instances.dump_instances(ts, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == len(ts.instances)
        rec = json.loads(lines[0])
        assert set(rec) == {"group", "label", "features"}
        assert rec["features"] == sorted(rec["features"])
