import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corefrank import feats, learn, resolve, score
from corefrank.corpus import Partition, PartitionDoc
from corefrank.instances import CLASSIFY

import reference_metrics as ref
from conftest import make_doc


def spans_for(n, offset=0):
    return {i: (0, i + offset, i + offset + 1) for i in range(n)}


def pdoc(clusters, spans=None):
    clusters = [list(c) for c in clusters]
    universe = sorted({m for c in clusters for m in c})
    if spans is None:
        spans = {m: (0, m, m + 1) for m in universe}
    return PartitionDoc("d", spans, Partition(clusters))


class TestAlignment:
    def test_identical_lists_full_bijection(self):
        key = pdoc([[0, 1], [2]])
        resp = pdoc([[0], [1, 2]])
        alignment = score.align_mentions(key, resp)
        assert alignment.resp_to_key == {0: 0, 1: 1, 2: 2}
        assert not alignment.twinless_key and not alignment.twinless_resp

    def test_spurious_span_is_twinless(self):
        key = pdoc([[0, 1]])
        resp = PartitionDoc(
            "d", {0: (0, 0, 1), 1: (0, 1, 2), 5: (0, 9, 10)}, Partition([[0, 1], [5]])
        )
        alignment = score.align_mentions(key, resp)
        assert alignment.twinless_resp == {5}

    def test_off_by_one_span_is_twinless(self):
        key = pdoc([[0]])
        resp = PartitionDoc("d", {0: (0, 0, 2)}, Partition([[0]]))
        alignment = score.align_mentions(key, resp)
        assert alignment.twinless_resp == {0}
        assert alignment.twinless_key == {0}


class TestPreprocessResponse:
    def test_twinless_singleton_removed(self):
        key = pdoc([[0, 1]])
        resp = PartitionDoc(
            "d", {0: (0, 0, 1), 1: (0, 1, 2), 9: (0, 7, 8)}, Partition([[0, 1], [9]])
        )
        out = score.preprocess_response(key, resp)
        assert set(out.spans) == {0, 1}

    def test_twinless_nonsingleton_retained(self):
        key = pdoc([[0, 1]])
        resp = PartitionDoc(
            "d", {0: (0, 0, 1), 8: (0, 6, 7), 9: (0, 7, 8)}, Partition([[0], [8, 9]])
        )
        out = score.preprocess_response(key, resp)
        assert set(out.spans) == {0, 8, 9}

    def test_no_twinless_unchanged(self):
        key = pdoc([[0, 1], [2]])
        resp = pdoc([[0], [1, 2]])
        assert score.preprocess_response(key, resp) is resp

    def test_never_removes_key_mentions(self):
        key = pdoc([[0], [1]])
        resp = pdoc([[0], [1]])
        out = score.preprocess_response(key, resp)
        assert set(out.spans) == {0, 1}


class TestBcubed:
    def test_identity(self):
        key = pdoc([[0, 1, 2], [3]])
        report = score.score_pair(key, pdoc([[0, 1, 2], [3]]), score.BCUBED)
        assert (report.recall, report.precision, report.f1) == (1.0, 1.0, 1.0)

    def test_hand_case_abc_d(self):
        key = pdoc([[0, 1, 2], [3]])
        resp = pdoc([[0, 1], [2, 3]])
        report = score.score_pair(key, resp, score.BCUBED)
        assert report.recall == pytest.approx(2 / 3, abs=1e-12)
        assert report.precision == pytest.approx(3 / 4, abs=1e-12)
        assert report.f1 == pytest.approx(12 / 17, abs=1e-12)

    def test_hand_case_split_pair(self):
        key = pdoc([[0, 1]])
        resp = pdoc([[0], [1]])
        report = score.score_pair(key, resp, score.BCUBED)
        assert report.recall == pytest.approx(0.5, abs=1e-12)
        assert report.precision == pytest.approx(1.0, abs=1e-12)
        assert report.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_empty_universe(self):
        report = score.bcubed(Partition([]), Partition([]), score.MentionAlignment({}, {}, set(), set()))
        assert (report.recall, report.precision, report.f1) == (0.0, 0.0, 0.0)


class TestKuhnMunkres:
    def test_identity_dominant(self):
        pairs, total = score.kuhn_munkres([[5.0, 1.0], [1.0, 5.0]])
        assert total == 10.0
        assert set(pairs) == {(0, 0), (1, 1)}

    def test_antidiagonal(self):
        pairs, total = score.kuhn_munkres([[1.0, 2.0], [2.0, 1.0]])
        assert total == 4.0
        assert set(pairs) == {(0, 1), (1, 0)}

    def test_rectangular_matches_brute_force(self):
        rng = random.Random(9)
        for _ in range(50):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            matrix = [[rng.randint(0, 9) for _ in range(cols)] for _ in range(rows)]
            _, total = score.kuhn_munkres(matrix)
            assert total == ref.best_injection_total(matrix)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scipy(self, seed):
        """Totals equal to scipy's solver on integer matrices up to 30x40,
        sparse and dense, with all-zero rows and columns, 1xn and nx1; the
        pairs are an injection of min(rows, cols) cells summing to the total."""
        from scipy.optimize import linear_sum_assignment

        rng = random.Random(seed)
        shapes = [(1, rng.randint(1, 40)), (rng.randint(1, 40), 1), (30, 40), (40, 30)]
        shapes += [(rng.randint(1, 30), rng.randint(1, 40)) for _ in range(40)]
        for n_rows, n_cols in shapes:
            density = rng.choice([0.05, 0.3, 1.0])
            matrix = [[rng.randint(1, 9) if rng.random() < density else 0 for _ in range(n_cols)]
                      for _ in range(n_rows)]
            for i in rng.sample(range(n_rows), n_rows // 4):
                matrix[i] = [0] * n_cols
            for j in rng.sample(range(n_cols), n_cols // 4):
                for row in matrix:
                    row[j] = 0
            pairs, total = score.kuhn_munkres(matrix)
            rows, cols = linear_sum_assignment(np.array(matrix, dtype=float), maximize=True)
            assert total == float(np.array(matrix)[rows, cols].sum())
            assert len(pairs) == min(n_rows, n_cols)
            assert len({i for i, _ in pairs}) == len(pairs) == len({j for _, j in pairs})
            assert sum(matrix[i][j] for i, j in pairs) == total


class TestCeaf:
    def test_identity(self):
        key = pdoc([[0, 1, 2], [3]])
        report = score.score_pair(key, pdoc([[0, 1, 2], [3]]), score.CEAF)
        assert (report.recall, report.precision, report.f1) == (1.0, 1.0, 1.0)

    def test_hand_case_abc_d(self):
        key = pdoc([[0, 1, 2], [3]])
        resp = pdoc([[0, 1], [2, 3]])
        report = score.score_pair(key, resp, score.CEAF)
        assert report.recall == pytest.approx(0.75, abs=1e-12)
        assert report.precision == pytest.approx(0.75, abs=1e-12)
        assert report.f1 == pytest.approx(0.75, abs=1e-12)

    def test_hand_case_merged(self):
        key = pdoc([[0, 1], [2]])
        resp = pdoc([[0, 1, 2]])
        report = score.score_pair(key, resp, score.CEAF)
        assert report.recall == pytest.approx(2 / 3, abs=1e-12)
        assert report.precision == pytest.approx(2 / 3, abs=1e-12)

    def test_duality(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 8)
            key = pdoc(random_partition(rng, list(range(n))))
            resp = pdoc(random_partition(rng, list(range(n))))
            forward = score.score_pair(key, resp, score.CEAF)
            backward = score.score_pair(resp, key, score.CEAF)
            assert forward.precision == pytest.approx(backward.recall, abs=1e-12)
            assert forward.recall == pytest.approx(backward.precision, abs=1e-12)


def random_partition(rng, universe):
    clusters = []
    for m in universe:
        if clusters and rng.random() < 0.6:
            rng.choice(clusters).append(m)
        else:
            clusters.append([m])
    return clusters


def random_scoring_pair(rng, max_mentions=10):
    """Key and response with overlapping but not identical mention sets."""
    n = rng.randint(1, max_mentions)
    key_ids = list(range(n))
    key_spans = {i: (0, i, i + 1) for i in key_ids}
    key = PartitionDoc("d", key_spans, Partition(random_partition(rng, key_ids)))
    resp_ids = [i for i in key_ids if rng.random() < 0.8]
    spurious = [100 + j for j in range(rng.randint(0, 3))]
    resp_spans = {i: (0, i, i + 1) for i in resp_ids}
    resp_spans.update({j: (1, j, j + 1) for j in spurious})
    all_resp = resp_ids + spurious
    if not all_resp:
        all_resp = [100]
        resp_spans = {100: (1, 100, 101)}
    resp = PartitionDoc("d", resp_spans, Partition(random_partition(rng, all_resp)))
    return key, resp


class TestAgainstReference:
    def test_bcubed_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(200):
            key, resp = random_scoring_pair(rng)
            got = score.score_pair(key, resp, score.BCUBED)
            want_r, want_p, want_f = ref.bcubed_reference(
                key.spans, [set(c) for c in key.partition.clusters],
                resp.spans, [set(c) for c in resp.partition.clusters],
            )
            assert got.recall == pytest.approx(want_r, abs=1e-12)
            assert got.precision == pytest.approx(want_p, abs=1e-12)
            assert got.f1 == pytest.approx(want_f, abs=1e-12)

    def test_ceaf_matches_brute_force(self):
        rng = random.Random(23)
        checked = 0
        while checked < 150:
            key, resp = random_scoring_pair(rng, max_mentions=8)
            if len(key.partition.clusters) > 6 or len(resp.partition.clusters) > 6:
                continue
            checked += 1
            got = score.score_pair(key, resp, score.CEAF)
            want_r, want_p, want_f = ref.ceaf_reference(
                key.spans, [set(c) for c in key.partition.clusters],
                resp.spans, [set(c) for c in resp.partition.clusters],
            )
            assert got.recall == pytest.approx(want_r, abs=1e-12)
            assert got.precision == pytest.approx(want_p, abs=1e-12)
            assert got.f1 == pytest.approx(want_f, abs=1e-12)


class TestAnaphoricityMetrics:
    def test_perfect(self):
        report = score.anaphoricity_metrics([True, False], [True, False])
        assert report.accuracy == 1.0 and report.f1 == 1.0

    def test_all_negative_half_anaphoric(self):
        report = score.anaphoricity_metrics([False] * 4, [True, True, False, False])
        assert report.accuracy == 0.5
        assert report.recall == 0.0

    def test_confusion_arithmetic(self):
        predicted = [True] * 3 + [True] + [False] + [False] * 5
        gold = [True] * 3 + [False] + [True] + [False] * 5
        report = score.anaphoricity_metrics(predicted, gold)
        assert report.accuracy == pytest.approx(0.8)
        assert report.recall == pytest.approx(0.75)
        assert report.precision == pytest.approx(0.75)
        assert report.f1 == pytest.approx(0.75)


class TestResolutionClasses:
    def test_fig1_he_is_g3(self, fig1):
        assert score.resolution_class_of(fig1, 5) == "G3"

    def test_fig1_monday_is_common_na(self, fig1):
        assert score.resolution_class_of(fig1, 4) == "common-na"

    def test_exact_proper_repeat(self):
        doc = make_doc("d", [("Clinton", "PROPER", {}), ("Clinton", "PROPER", {})], [[0, 1]])
        assert score.resolution_class_of(doc, 1) == "proper-e"

    def test_partial_proper_match(self):
        doc = make_doc(
            "d", [("Barack Obama", "PROPER", {}), ("President Obama", "PROPER", {})], [[0, 1]]
        )
        assert score.resolution_class_of(doc, 1) == "proper-p"

    def test_no_content_overlap(self):
        doc = make_doc("d", [("the airline", "COMMON", {}), ("the carrier", "COMMON", {})], [[0, 1]])
        assert score.resolution_class_of(doc, 1) == "common-n"

    def test_first_and_second_person(self):
        doc = make_doc("d", [("I", "PRONOUN", {}), ("me", "PRONOUN", {})], [[0, 1]])
        assert score.resolution_class_of(doc, 1) == "1+2"

    def test_ungendered_third(self):
        doc = make_doc("d", [("the plan", "COMMON", {}), ("it", "PRONOUN", {})], [[0, 1]])
        assert score.resolution_class_of(doc, 1) == "U3"

    def test_out_of_lexicon_pronoun_is_oa(self):
        doc = make_doc("d", [("Clinton", "PROPER", {}), ("who", "PRONOUN", {})], [[0, 1]])
        assert score.resolution_class_of(doc, 1) == "oa"

    def test_unknown_label_rejected(self, fig1):
        spec = resolve.ResolverSpec(resolve.HEAD_MATCH)
        with pytest.raises(ValueError):
            score.resolution_class_score([fig1], spec, "nonsense")


class TestResolutionClassScore:
    def never_model(self):
        return learn.LinearModel({}, 1.0, CLASSIFY, learn.HINGE, {})

    def oracle_model(self):
        return learn.LinearModel({"STR_MATCH=C": 2.0}, 1.0, CLASSIFY, learn.HINGE, {})

    def docs(self):
        return [
            make_doc(
                "d1",
                [("Acme", "PROPER", {}), ("the plan", "COMMON", {}), ("Acme", "PROPER", {})],
                [[0, 2], [1]],
            ),
            make_doc(
                "d2",
                [("Bolt", "PROPER", {}), ("Bolt", "PROPER", {}), ("the crowd", "COMMON", {})],
                [[0, 1], [2]],
            ),
        ]

    def test_perfect_model_scores_one(self):
        spec = resolve.ResolverSpec(resolve.MENTION_PAIR, feats.CONVENTIONAL, self.oracle_model())
        result = score.resolution_class_score(self.docs(), spec, "proper-e")
        assert not result.empty
        assert result.f1 == pytest.approx(1.0)

    def test_empty_class_flagged(self):
        spec = resolve.ResolverSpec(resolve.MENTION_PAIR, feats.CONVENTIONAL, self.never_model())
        result = score.resolution_class_score(self.docs(), spec, "G3")
        assert result.empty
        assert result.mentions == 0

    def test_never_resolver_perfect_on_common_na(self):
        spec = resolve.ResolverSpec(resolve.MENTION_PAIR, feats.CONVENTIONAL, self.never_model())
        result = score.resolution_class_score(self.docs(), spec, "common-na")
        assert not result.empty
        assert result.f1 == pytest.approx(1.0)

    def test_never_resolver_hurts_proper_e(self):
        spec = resolve.ResolverSpec(resolve.MENTION_PAIR, feats.CONVENTIONAL, self.never_model())
        result = score.resolution_class_score(self.docs(), spec, "proper-e")
        assert result.f1 < 1.0


class TestPairedTTest:
    def test_identical_lists_degenerate(self):
        result = score.paired_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert result.degenerate and result.p_value == 1.0

    def test_constant_difference_degenerate(self):
        result = score.paired_t_test([0.6, 0.7, 0.8], [0.5, 0.6, 0.7])
        assert result.degenerate and result.p_value == 1.0

    def test_closed_form_value(self):
        # frozen from the closed-form statistic: d = [1,2,3,4],
        # t = mean / (sd / sqrt(n)) = 2.5 / (1.29099/2) = 3.87298
        result = score.paired_t_test([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])
        assert not result.degenerate
        assert result.t == pytest.approx(3.872983346207417, rel=1e-12)
        assert result.p_value == pytest.approx(0.030466291662170977, rel=1e-9)

    def test_matches_scipy(self):
        from scipy import stats as sps

        rng = np.random.default_rng(4)
        a = list(rng.normal(0.6, 0.1, size=12))
        b = list(rng.normal(0.5, 0.1, size=12))
        ours = score.paired_t_test(a, b)
        reference = sps.ttest_rel(a, b)
        assert ours.t == pytest.approx(reference.statistic, rel=1e-12)
        assert ours.p_value == pytest.approx(reference.pvalue, rel=1e-12)

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # a fresh interpreter: this test process has loaded scipy.stats already
        src = str(Path(score.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import corefrank.cli\n"
            "from corefrank import score\n"
            "assert 'scipy.stats' not in sys.modules, 'imported at load'\n"
            "result = score.paired_t_test([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])\n"
            "assert abs(result.p_value - 0.030466291662170977) < 1e-12, result\n"
            "assert 'scipy.stats' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_length_validation(self):
        with pytest.raises(ValueError):
            score.paired_t_test([1.0], [1.0])
        with pytest.raises(ValueError):
            score.paired_t_test([1.0, 2.0], [1.0])
