"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are fixed here and nowhere else."""

import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from corefrank import cli, corpus, feats, ilp, instances, learn, resolve, score, synth
from corefrank.corpus import Partition, PartitionDoc
from corefrank.instances import CLASSIFY, RANK, NULL_CANDIDATE

import reference_metrics as ref
from conftest import make_doc
from test_score import random_scoring_pair


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


# --------------------------------------------------------------------------


def test_criterion_1_scorer_oracle_equivalence():
    with criterion(1, "B3/CEAF match brute-force references on 1000 random pairs"):
        start = time.monotonic()
        rng = random.Random(20240817)
        checked_ceaf = 0
        for _ in range(1000):
            key, resp = random_scoring_pair(rng, max_mentions=10)
            got_b3 = score.score_pair(key, resp, score.BCUBED)
            want = ref.bcubed_reference(
                key.spans, [set(c) for c in key.partition.clusters],
                resp.spans, [set(c) for c in resp.partition.clusters],
            )
            assert abs(got_b3.recall - want[0]) <= 1e-12
            assert abs(got_b3.precision - want[1]) <= 1e-12
            assert abs(got_b3.f1 - want[2]) <= 1e-12
            if len(key.partition.clusters) <= 6 and len(resp.partition.clusters) <= 6:
                checked_ceaf += 1
                got_ceaf = score.score_pair(key, resp, score.CEAF)
                want_ceaf = ref.ceaf_reference(
                    key.spans, [set(c) for c in key.partition.clusters],
                    resp.spans, [set(c) for c in resp.partition.clusters],
                )
                assert abs(got_ceaf.recall - want_ceaf[0]) <= 1e-12
                assert abs(got_ceaf.precision - want_ceaf[1]) <= 1e-12
                assert abs(got_ceaf.f1 - want_ceaf[2]) <= 1e-12
        assert checked_ceaf >= 500  # the exhaustive mapping check ran broadly
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_hand_worked_metric_cases():
    with criterion(2, "hand-worked B3 and CEAF cases"):
        spans = {i: (0, i, i + 1) for i in range(4)}
        key = PartitionDoc("d", spans, Partition([[0, 1, 2], [3]]))
        resp = PartitionDoc("d", dict(spans), Partition([[0, 1], [2, 3]]))
        b3 = score.score_pair(key, resp, score.BCUBED)
        assert b3.recall == pytest.approx(2 / 3, abs=1e-12)
        assert b3.precision == pytest.approx(3 / 4, abs=1e-12)
        assert b3.f1 == pytest.approx(12 / 17, abs=1e-12)
        ceaf = score.score_pair(key, resp, score.CEAF)
        assert ceaf.recall == pytest.approx(3 / 4, abs=1e-12)
        assert ceaf.precision == pytest.approx(3 / 4, abs=1e-12)
        assert ceaf.f1 == pytest.approx(3 / 4, abs=1e-12)


def test_criterion_3_figure_golden_instances(fig1):
    with criterion(3, "running-example instances reproduced verbatim"):
        he = 5
        mp = instances.gen_mention_pair(fig1, feats.CONVENTIONAL)
        got = {(i.meta[2], i.label) for i in mp.instances if i.meta[1] == he}
        assert got == {(4, -1.0), (3, -1.0), (2, 1.0)}

        em = instances.gen_entity_mention(fig1, feats.CONVENTIONAL)
        got = {(i.meta[2], i.label) for i in em.instances if i.meta[1] == he}
        assert got == {((4,), -1.0), ((3,), -1.0), ((0, 2), 1.0)}

        mr = instances.gen_mention_ranking(fig1, feats.CONVENTIONAL, joint=False)
        got = {(i.meta[2], i.label) for i in mr.instances if i.meta[1] == he}
        assert got == {(4, 1.0), (3, 1.0), (2, 2.0)}

        cr = instances.gen_cluster_ranking(fig1, feats.CONVENTIONAL, joint=True)
        got = {(i.meta[2], i.label) for i in cr.instances if i.meta[1] == he}
        assert (NULL_CANDIDATE, 1.0) in got
        assert ((0, 2), 2.0) in got
        assert len(got) == 5


def test_criterion_4_predicate_partition_law():
    with criterion(4, "exactly one cluster predicate fires per base feature"):
        rng = random.Random(99)
        genders = ["MALE", "FEMALE", "NEUTER", "UNKNOWN"]
        mtype_tokens = {"PROPER": "Alvarez", "COMMON": "the airline", "PRONOUN": "he"}
        closed = [
            f"{row}={value}"
            for row, alphabet in feats.RELATIONAL_ALPHABETS.items()
            for value in alphabet
        ]
        configurations = 0
        while configurations < 10_000:
            size = rng.randint(1, 6)
            specs = []
            for _ in range(size):
                mtype = rng.choice(list(mtype_tokens))
                specs.append((mtype_tokens[mtype], mtype, {"gender": rng.choice(genders)}))
            specs.append(("Keller", "PROPER", {"gender": "MALE"}))
            doc = make_doc("d", specs)
            k = size
            vec = feats.cluster_features(doc, list(range(size)), k, feats.CONVENTIONAL)
            for _ in range(10):
                base = rng.choice(closed)
                fired = [p for p in feats.PREDICATES if f"{p}-{base}" in vec]
                assert len(fired) == 1, (base, fired)
                configurations += 1
        # boundary cases: true for 1 of 3 members, then 2 of 4
        def scripted(truths):
            specs = [("Alvarez", "PROPER", {"gender": "MALE" if t else "FEMALE"}) for t in truths]
            specs.append(("he", "PRONOUN", {}))
            doc = make_doc("d", specs)
            return feats.cluster_features(doc, list(range(len(truths))), len(truths), feats.CONVENTIONAL)

        assert "MOST-FALSE-GENDER=C" in scripted([True, False, False])
        assert "MOST-TRUE-GENDER=C" in scripted([True, True, False, False])


def test_criterion_5_learner_checks():
    with criterion(5, "ranker accuracy, gradient checks, ranking-classification equivalence"):
        rng = np.random.default_rng(515)
        w_star = rng.normal(size=10)
        payload = []
        train_rows = []
        for g in range(100):
            while True:
                cands = rng.normal(size=(5, 10))
                scores = cands @ w_star
                order = np.argsort(scores)[::-1]
                if scores[order[0]] - scores[order[1]] >= 0.5:
                    break
            best = int(np.argmax(scores))
            payload.append((cands, best))
            for c in range(5):
                vec = {f"f{d}": float(cands[c, d]) for d in range(10)}
                train_rows.append(instances.Instance(vec, 2.0 if c == best else 1.0, f"g{g}", ()))
        ts = instances.TrainSet.build(train_rows, RANK)
        cfg = learn.TrainerConfig(seed=5, epochs=50)
        ranker = learn.train_hinge_ranker(ts, cfg)
        agree = 0
        for cands, best in payload:
            scored = [
                learn.score(ranker, {f"f{d}": float(cands[c, d]) for d in range(10)})
                for c in range(5)
            ]
            agree += int(int(np.argmax(scored)) == best)
        assert agree == 100

        # analytic log-loss gradients against central differences
        points = [
            ({f"f{d}": float(v) for d, v in enumerate(rng.normal(size=6))},
             1.0 if rng.random() < 0.5 else -1.0)
            for _ in range(15)
        ]
        cls_ts = instances.TrainSet.build(
            [instances.Instance(vec, label, f"i{i}", ()) for i, (vec, label) in enumerate(points)],
            CLASSIFY,
        )
        weights = {f"f{d}": float(rng.normal()) for d in range(6)}
        bias = float(rng.normal())
        tcfg = learn.TrainerConfig(c=2.0)
        _, grad_w, grad_b = learn.log_classifier_objective(cls_ts, weights, bias, tcfg)
        h = 1e-6
        for name in weights:
            up, down = dict(weights), dict(weights)
            up[name] += h
            down[name] -= h
            o_up, _, _ = learn.log_classifier_objective(cls_ts, up, bias, tcfg)
            o_down, _, _ = learn.log_classifier_objective(cls_ts, down, bias, tcfg)
            numeric = (o_up - o_down) / (2 * h)
            assert abs(numeric - grad_w[name]) <= 1e-5 * max(1.0, abs(numeric))
        o_up, _, _ = learn.log_classifier_objective(cls_ts, weights, bias + h, tcfg)
        o_down, _, _ = learn.log_classifier_objective(cls_ts, weights, bias - h, tcfg)
        numeric = (o_up - o_down) / (2 * h)
        assert abs(numeric - grad_b) <= 1e-5 * max(1.0, abs(numeric))

        rank_groups = []
        for g in range(4):
            for c in range(3):
                vec = {f"f{d}": float(rng.normal()) for d in range(5)}
                rank_groups.append(instances.Instance(vec, 2.0 if c == 0 else 1.0, f"r{g}", ()))
        rank_ts = instances.TrainSet.build(rank_groups, RANK)
        rweights = {f"f{d}": float(rng.normal()) for d in range(5)}
        _, rgrad = learn.log_ranker_objective(rank_ts, rweights, tcfg)
        for name in rweights:
            up, down = dict(rweights), dict(rweights)
            up[name] += h
            down[name] -= h
            o_up, _ = learn.log_ranker_objective(rank_ts, up, tcfg)
            o_down, _ = learn.log_ranker_objective(rank_ts, down, tcfg)
            numeric = (o_up - o_down) / (2 * h)
            assert abs(numeric - rgrad[name]) <= 1e-5 * max(1.0, abs(numeric))

        # hinge ranking vs explicit difference-vector classification
        classifier = learn.train_hinge_classifier(learn.pairwise_difference_set(ts), cfg)
        for _ in range(100):
            cands = rng.normal(size=(5, 10))
            vecs = [{f"f{d}": float(cands[c, d]) for d in range(10)} for c in range(5)]
            argmax_r = int(np.argmax([learn.score(ranker, v) for v in vecs]))
            argmax_c = int(np.argmax([learn.score(classifier, v) for v in vecs]))
            assert argmax_r == argmax_c


def test_criterion_6_oracle_resolver_reproduces_gold():
    with criterion(6, "oracle-driven closest-first resolution recovers gold exactly"):
        docs = synth.synth_corpus(100, seed=606, pronoun_rate=0.0, alias_rate=0.0)
        # on these corpora gold coreference and string equality coincide
        for doc in docs:
            by_string = {}
            for m in doc.mentions:
                by_string.setdefault(doc.text(m), set()).add(m.id)
            assert set(map(frozenset, by_string.values())) == doc.gold_partition.as_sets()
        oracle = learn.LinearModel({"STR_MATCH=C": 2.0}, 1.0, CLASSIFY, learn.HINGE, {})
        spec = resolve.ResolverSpec(
            resolve.MENTION_PAIR, feats.CONVENTIONAL, oracle, linking=resolve.CLOSEST_FIRST
        )
        pairs = []
        for doc in docs:
            partition = resolve.resolve(doc, spec)
            pairs.append(
                (corpus.key_partition_doc(doc), corpus.response_partition_doc(doc, partition))
            )
        b3, _ = score.corpus_stats(pairs)
        assert b3.report().f1 == pytest.approx(1.0, abs=1e-12)


def test_criterion_7_end_to_end_learnability():
    with criterion(7, "joint cluster ranking reaches B3 F >= 0.95 on held-out docs"):
        start = time.monotonic()
        docs = synth.synth_corpus(200, seed=707)
        train_docs, test_docs = docs[:160], docs[160:]
        assert len(test_docs) == 40
        cfg = cli.ExperimentConfig(
            family="cr", features=feats.COMBINED, loss="hinge", anaph="joint", seed=707
        )
        bundle = cli.train_bundle(train_docs, cfg)
        responses = cli.resolve_docs(test_docs, bundle)
        pairs = [
            (corpus.key_partition_doc(doc), resp) for doc, resp in zip(test_docs, responses)
        ]
        b3, _ = score.corpus_stats(pairs)
        f1 = b3.report().f1
        elapsed = time.monotonic() - start
        assert f1 >= 0.95, f"held-out B3 F = {f1:.4f}"
        assert elapsed < 120.0, f"criterion 7 took {elapsed:.1f}s"


def _enumerate_optimum_vectorized(p):
    """Exhaustive 0/1 enumeration via bit matrices; independent of the
    branch-and-bound search."""
    pairs = p.pairs()
    names = [("x", jk) for jk in pairs] + [("y", k) for k in range(p.n)]
    n_vars = len(names)
    bits = np.arange(2 ** n_vars, dtype=np.int64)
    table = np.zeros((2 ** n_vars, n_vars), dtype=bool)
    for i in range(n_vars):
        table[:, i] = (bits >> i) & 1
    x_cols = {jk: i for i, (kind, jk) in enumerate(names) if kind == "x"}
    y_cols = {k: i for i, (kind, k) in enumerate(names) if kind == "y"}
    feasible = np.ones(2 ** n_vars, dtype=bool)
    for (j, k), col in x_cols.items():
        feasible &= ~table[:, col] | table[:, y_cols[k]]
    for k in range(p.n):
        incoming = [x_cols[(j, k)] for j in range(k)]
        if incoming:
            feasible &= ~table[:, y_cols[k]] | table[:, incoming].any(axis=1)
        else:
            feasible &= ~table[:, y_cols[k]]
    objective = np.zeros(2 ** n_vars)
    for jk, col in x_cols.items():
        objective += np.where(table[:, col], p.coref_cost[jk], p.coref_cost_bar[jk])
    for k, col in y_cols.items():
        objective += np.where(table[:, col], p.anaph_cost[k], p.anaph_cost_bar[k])
    return float(objective[feasible].min())


def test_criterion_8_ilp_exactness():
    with criterion(8, "exact solver matches exhaustive enumeration on 200 programs"):
        rng = np.random.default_rng(808)

        def random_program(n):
            def costs(prob):
                return -math.log(prob), -math.log(1.0 - prob)

            coref_cost, coref_cost_bar, anaph_cost, anaph_cost_bar = {}, {}, {}, {}
            for k in range(n):
                c, cb = costs(float(rng.uniform(0.02, 0.98)))
                anaph_cost[k], anaph_cost_bar[k] = c, cb
                for j in range(k):
                    c, cb = costs(float(rng.uniform(0.02, 0.98)))
                    coref_cost[(j, k)], coref_cost_bar[(j, k)] = c, cb
            return ilp.IlpProgram("d", n, coref_cost, coref_cost_bar, anaph_cost, anaph_cost_bar)

        for trial in range(200):
            n = int(rng.integers(2, 6))  # up to 10 + 5 = 15 variables
            program = random_program(n)
            assert program.n_variables() <= 15
            solution = ilp.solve_exact(program)
            want = _enumerate_optimum_vectorized(program)
            assert solution.objective == pytest.approx(want, abs=1e-9), trial
            for (j, k), value in solution.x.items():
                assert value <= solution.y[k]
            for k in range(n):
                if solution.y[k]:
                    assert sum(solution.x[(j, k)] for j in range(k)) >= 1

        worked = ilp.IlpProgram(
            "d", 2,
            coref_cost={(0, 1): -math.log(0.9)},
            coref_cost_bar={(0, 1): -math.log(0.1)},
            anaph_cost={0: -math.log(0.1), 1: -math.log(0.8)},
            anaph_cost_bar={0: -math.log(0.9), 1: -math.log(0.2)},
        )
        solution = ilp.solve_exact(worked)
        assert solution.x[(0, 1)] == 1 and solution.y == {0: 0, 1: 1}
        assert solution.objective == pytest.approx(
            -math.log(0.9) - math.log(0.8) - math.log(0.9), abs=1e-12
        )
        assert solution.objective == pytest.approx(_enumerate_optimum_vectorized(worked), abs=1e-12)


def test_criterion_9_unseen_protocol():
    with criterion(9, "replacement rate, string closure, and seed determinism"):
        docs = synth.synth_common_corpus(10_000, seed=909)
        total_common = sum(
            1 for d in docs for m in d.mentions if m.mtype == "COMMON"
        )
        assert total_common == 10_000
        out1 = corpus.unseen_train(docs, 0.10, seed=7)
        marked = sum(1 for d in out1 for m in d.mentions if m.unseen)
        fraction = marked / total_common
        assert 0.08 <= fraction <= 0.12, f"replaced fraction {fraction:.4f}"
        by_string = {}
        for d in out1:
            for m in d.mentions:
                by_string.setdefault(d.text(m), set()).add(m.unseen)
        assert all(len(flags) == 1 for flags in by_string.values()), "closure violated"
        out2 = corpus.unseen_train(docs, 0.10, seed=7)
        assert [m.unseen for d in out1 for m in d.mentions] == [
            m.unseen for d in out2 for m in d.mentions
        ]


def test_criterion_10_crossval_determinism(tmp_path):
    with criterion(10, "byte-identical reports and model files across reruns"):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus.save_corpus(synth.synth_corpus(30, seed=1010), str(corpus_path))
        outputs = []
        for run_dir in ("run1", "run2"):
            outdir = tmp_path / run_dir
            outdir.mkdir()
            rc = cli.main([
                "crossval", str(corpus_path), "--family", "cr", "--features", "combined",
                "--anaph", "joint", "--epochs", "8", "--folds", "3", "--seed", "42",
                "--out", str(outdir / "report.json"), "--models-dir", str(outdir),
            ])
            assert rc == 0
            outputs.append(outdir)
        first, second = outputs
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
        for fold in range(3):
            name = f"fold{fold}.bundle.json"
            assert (first / name).read_bytes() == (second / name).read_bytes()
