import json
import math

import numpy as np
import pytest

import reference_learn
from corefrank import cli, corpus, instances, learn, synth
from corefrank.cli import ExperimentConfig
from corefrank.instances import CLASSIFY, RANK, Instance, TrainSet


def cls_set(points):
    return TrainSet.build(
        [Instance(dict(vec), label, f"g{i}", ()) for i, (vec, label) in enumerate(points)],
        CLASSIFY,
    )


def rank_set(groups):
    insts = []
    for g, members in enumerate(groups):
        for vec, label in members:
            insts.append(Instance(dict(vec), label, f"g{g}", ()))
    return TrainSet.build(insts, RANK)


def dense(values, prefix="f"):
    return {f"{prefix}{i}": float(v) for i, v in enumerate(values) if v != 0.0}


def perceptron_separator(rows, labels, dim, max_epochs=1000):
    """Oracle: the classic perceptron finds a separator iff one exists."""
    w = np.zeros(dim + 1)
    for _ in range(max_epochs):
        errors = 0
        for x, y in zip(rows, labels):
            xa = np.append(x, 1.0)
            if y * float(w @ xa) <= 0:
                w += y * xa
                errors += 1
        if errors == 0:
            return w
    raise AssertionError("oracle could not separate the data")


class TestHingeClassifier:
    def test_1d_separable_signs(self):
        ts = cls_set([({"x": 2.0}, 1.0), ({"x": -2.0}, -1.0)])
        model = learn.train_hinge_classifier(ts, learn.TrainerConfig(seed=1))
        assert learn.score(model, {"x": 2.0}) > 0
        assert learn.score(model, {"x": -2.0}) < 0

    def test_200_random_separable_zero_errors(self):
        rng = np.random.default_rng(7)
        w_true = rng.normal(size=10)
        rows, labels, points = [], [], []
        while len(rows) < 200:
            x = rng.normal(size=10)
            margin = float(w_true @ x)
            if abs(margin) < 1.0:
                continue
            rows.append(x)
            labels.append(1.0 if margin > 0 else -1.0)
            points.append((dense(x), labels[-1]))
        perceptron_separator(rows, labels, dim=10)  # certifies separability
        ts = cls_set(points)
        model = learn.train_hinge_classifier(ts, learn.TrainerConfig(seed=3))
        errors = sum(
            1
            for (vec, y) in points
            if (learn.score(model, vec) > 0) != (y > 0)
        )
        assert errors == 0

    def test_zero_hinge_violations_on_wide_margin_data(self):
        rng = np.random.default_rng(11)
        points = []
        for _ in range(100):
            x = rng.normal(size=6)
            y = 1.0 if rng.random() < 0.5 else -1.0
            x[0] = y * (3.0 + abs(x[0]))
            points.append((dense(x), y))
        ts = cls_set(points)
        model = learn.train_hinge_classifier(ts, learn.TrainerConfig(c=100.0, epochs=100, seed=4))
        violations = sum(
            1 for vec, y in points if y * learn.score(model, vec) < 1.0
        )
        assert violations == 0

    def test_empty_train_set_rejected(self):
        ts = TrainSet([], [], CLASSIFY)
        with pytest.raises(ValueError):
            learn.train_hinge_classifier(ts, learn.TrainerConfig())

    def test_objective_monotone_in_epochs(self):
        rng = np.random.default_rng(5)
        points = [
            (dense(rng.normal(size=5)), 1.0 if rng.random() < 0.5 else -1.0)
            for _ in range(40)
        ]
        ts = cls_set(points)
        model = learn.train_hinge_classifier(ts, learn.TrainerConfig(epochs=12, seed=6))
        trace = model.meta["epoch_objectives"]
        assert len(trace) == 12
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-9


class TestHingeRanker:
    def test_two_candidate_group(self):
        ts = rank_set([[({"x": 1.0}, 2.0), ({}, 1.0)]])
        model = learn.train_hinge_ranker(ts, learn.TrainerConfig(seed=1))
        assert learn.score(model, {"x": 1.0}) > learn.score(model, {})

    def test_equal_rank_group_contributes_nothing(self):
        ts = rank_set(
            [
                [({"x": 1.0}, 2.0), ({"y": 1.0}, 1.0)],
                [({"z": 1.0}, 1.0), ({"w": 1.0}, 1.0)],
            ]
        )
        diffs = learn.pairwise_difference_set(ts)
        groups = {i.group for i in diffs.instances}
        assert groups == {"g0"}

    def test_difference_vectors_cancel_shared_features(self):
        ts = rank_set([[({"shared": 1.0, "a": 1.0}, 2.0), ({"shared": 1.0, "b": 1.0}, 1.0)]])
        diffs = learn.pairwise_difference_set(ts)
        assert diffs.instances[0].vec == {"a": 1.0, "b": -1.0}

    def test_synthetic_groups_100_percent_top1(self):
        rng = np.random.default_rng(42)
        w_star = rng.normal(size=10)
        groups, payload = [], []
        for g in range(100):
            while True:
                cands = rng.normal(size=(5, 10))
                scores = cands @ w_star
                order = np.argsort(scores)[::-1]
                if scores[order[0]] - scores[order[1]] >= 0.5:
                    break
            best = int(np.argmax(scores))
            payload.append((cands, best))
            groups.append(
                [(dense(cands[c]), 2.0 if c == best else 1.0) for c in range(5)]
            )
        ts = rank_set(groups)
        model = learn.train_hinge_ranker(ts, learn.TrainerConfig(seed=7, epochs=50))
        agree = sum(
            int(
                int(np.argmax([learn.score(model, dense(cands[c])) for c in range(5)]))
                == best
            )
            for cands, best in payload
        )
        assert agree == 100

    def test_equivalent_to_classifier_on_differences(self):
        rng = np.random.default_rng(9)
        groups = []
        for g in range(30):
            cands = rng.normal(size=(4, 6))
            best = int(rng.integers(0, 4))
            groups.append([(dense(cands[c]), 2.0 if c == best else 1.0) for c in range(4)])
        ts = rank_set(groups)
        cfg = learn.TrainerConfig(seed=11)
        ranker = learn.train_hinge_ranker(ts, cfg)
        classifier = learn.train_hinge_classifier(learn.pairwise_difference_set(ts), cfg)
        assert ranker.weights == classifier.weights
        assert ranker.bias == classifier.bias
        # identical argmaxes on held-out groups
        for _ in range(50):
            cands = rng.normal(size=(4, 6))
            scores_r = [learn.score(ranker, dense(c)) for c in cands]
            scores_c = [learn.score(classifier, dense(c)) for c in cands]
            assert int(np.argmax(scores_r)) == int(np.argmax(scores_c))


class TestLogClassifier:
    def test_uninformative_feature_gives_half(self):
        ts = cls_set([({"x": 1.0}, 1.0), ({"x": 1.0}, -1.0)] * 10)
        model = learn.train_log_classifier(ts, learn.TrainerConfig(seed=1))
        assert abs(learn.predict_prob(model, {"x": 1.0}) - 0.5) < 0.01

    def test_separable_probabilities_on_correct_side(self):
        ts = cls_set([({"x": 1.0}, 1.0), ({"y": 1.0}, -1.0)] * 5)
        model = learn.train_log_classifier(ts, learn.TrainerConfig(seed=2))
        assert learn.predict_prob(model, {"x": 1.0}) > 0.5
        assert learn.predict_prob(model, {"y": 1.0}) < 0.5

    def test_two_point_large_c_matches_grid_oracle(self):
        ts = cls_set([({"x": 1.0}, 1.0), ({}, -1.0)])
        model = learn.train_log_classifier(ts, learn.TrainerConfig(c=100.0, epochs=200, seed=3))
        ours = learn.predict_prob(model, {"x": 1.0})

        # oracle: grid search of the same regularized objective in (w, b)
        lam = 1.0 / (100.0 * 2)
        best = (math.inf, 0.0, 0.0)
        for w in np.linspace(-10, 10, 401):
            for b in np.linspace(-10, 10, 401):
                obj = 0.5 * lam * (w * w + b * b) + 0.5 * (
                    math.log1p(math.exp(-(w - b))) + math.log1p(math.exp(-b))
                )
                if obj < best[0]:
                    best = (obj, w, b)
        _, w_star, b_star = best
        oracle_prob = 1.0 / (1.0 + math.exp(-(w_star - b_star)))
        assert oracle_prob > 0.9
        assert ours > 0.9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        points = [
            (dense(rng.normal(size=6)), 1.0 if rng.random() < 0.5 else -1.0)
            for _ in range(12)
        ]
        ts = cls_set(points)
        weights = {f"f{i}": float(rng.normal()) for i in range(6)}
        bias = float(rng.normal())
        cfg = learn.TrainerConfig(c=2.0)
        obj, grad_w, grad_b = learn.log_classifier_objective(ts, weights, bias, cfg)
        h = 1e-6
        for name in weights:
            up = dict(weights); up[name] += h
            down = dict(weights); down[name] -= h
            o_up, _, _ = learn.log_classifier_objective(ts, up, bias, cfg)
            o_down, _, _ = learn.log_classifier_objective(ts, down, bias, cfg)
            numeric = (o_up - o_down) / (2 * h)
            assert abs(numeric - grad_w[name]) <= 1e-5 * max(1.0, abs(numeric))
        o_up, _, _ = learn.log_classifier_objective(ts, weights, bias + h, cfg)
        o_down, _, _ = learn.log_classifier_objective(ts, weights, bias - h, cfg)
        numeric = (o_up - o_down) / (2 * h)
        assert abs(numeric - grad_b) <= 1e-5 * max(1.0, abs(numeric))


class TestLogRanker:
    def test_identical_vectors_balanced(self):
        ts = rank_set([[({"x": 1.0}, 2.0), ({"x": 1.0}, 1.0)]])
        obj, grad = learn.log_ranker_objective(ts, {"x": 0.0}, learn.TrainerConfig())
        assert abs(grad["x"]) < 1e-12
        assert obj == pytest.approx(math.log(2.0))

    def test_dominant_candidate_wins(self):
        ts = rank_set(
            [[({"a": 2.0, "b": 1.0}, 2.0), ({"a": 1.0, "b": 0.5}, 1.0)] for _ in range(5)]
        )
        model = learn.train_log_ranker(ts, learn.TrainerConfig(seed=5))
        assert learn.score(model, {"a": 2.0, "b": 1.0}) > learn.score(model, {"a": 1.0, "b": 0.5})

    def test_group_without_rank2_rejected(self):
        ts = rank_set([[({"x": 1.0}, 1.0), ({"y": 1.0}, 1.0)]])
        with pytest.raises(ValueError, match="rank-2"):
            learn.train_log_ranker(ts, learn.TrainerConfig())

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        groups = []
        for g in range(4):
            members = []
            for c in range(3):
                members.append((dense(rng.normal(size=5)), 2.0 if c == 0 else 1.0))
            groups.append(members)
        ts = rank_set(groups)
        weights = {f"f{i}": float(rng.normal()) for i in range(5)}
        cfg = learn.TrainerConfig(c=1.5)
        obj, grad = learn.log_ranker_objective(ts, weights, cfg)
        h = 1e-6
        for name in weights:
            up = dict(weights); up[name] += h
            down = dict(weights); down[name] -= h
            o_up, _ = learn.log_ranker_objective(ts, up, cfg)
            o_down, _ = learn.log_ranker_objective(ts, down, cfg)
            numeric = (o_up - o_down) / (2 * h)
            assert abs(numeric - grad[name]) <= 1e-5 * max(1.0, abs(numeric))


class TestScoreAndProb:
    def test_empty_vector_scores_minus_bias(self):
        model = learn.LinearModel({"a": 1.0}, bias=0.25, kind=CLASSIFY, loss=learn.HINGE)
        assert learn.score(model, {}) == -0.25

    def test_unknown_features_ignored(self):
        model = learn.LinearModel({"a": 1.0}, bias=0.25, kind=CLASSIFY, loss=learn.HINGE)
        assert learn.score(model, {"zzz": 5.0}) == -0.25

    def test_dot_product_arithmetic(self):
        model = learn.LinearModel({"a": 2.0, "b": -1.0}, bias=0.0, kind=CLASSIFY, loss=learn.HINGE)
        assert learn.score(model, {"a": 1.0, "b": 3.0}) == -1.0

    def test_prob_at_zero_score(self):
        model = learn.LinearModel({}, bias=0.0, kind=CLASSIFY, loss=learn.LOG)
        assert learn.predict_prob(model, {}) == 0.5

    def test_prob_saturates_toward_one(self):
        model = learn.LinearModel({"a": 1000.0}, bias=0.0, kind=CLASSIFY, loss=learn.LOG)
        assert learn.predict_prob(model, {"a": 1.0}) > 1 - 1e-9

    def test_prob_at_log3(self):
        model = learn.LinearModel({"a": math.log(3.0)}, bias=0.0, kind=CLASSIFY, loss=learn.LOG)
        assert learn.predict_prob(model, {"a": 1.0}) == pytest.approx(0.75)

    def test_prob_requires_log_model(self):
        model = learn.LinearModel({}, bias=0.0, kind=CLASSIFY, loss=learn.HINGE)
        with pytest.raises(ValueError):
            learn.predict_prob(model, {})

    def test_ranker_shift_invariance(self):
        model = learn.LinearModel({"a": 1.0, "const": 0.7}, bias=0.3, kind=RANK, loss=learn.HINGE)
        group = [{"a": 1.0}, {"a": 2.0}, {}]
        base = [learn.score(model, v) for v in group]
        shifted = [learn.score(model, {**v, "const": 5.0}) for v in group]
        base_diffs = [s - base[0] for s in base]
        shifted_diffs = [s - shifted[0] for s in shifted]
        assert base_diffs == pytest.approx(shifted_diffs)
        assert int(np.argmax(base)) == int(np.argmax(shifted))


class TestTrainerConfig:
    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_c_must_be_positive_and_finite(self, c):
        with pytest.raises(ValueError, match="C must be a positive finite number"):
            learn.TrainerConfig(c=c)


class TestModelRecordChecks:
    def record(self):
        model = learn.LinearModel({"a": 1.5, "b": -2.0}, 0.25, RANK, learn.HINGE, {"feature_vocab": ["a", "b", "c"]})
        return learn.model_to_record(model)

    @pytest.mark.parametrize("field, value", [
        ("format", "corefrank-bundle"),
        ("version", 2),
        ("version", True),
        ("kind", "BOGUS"),
        ("loss", "hinge"),
        ("bias", "0.25"),
        ("bias", math.nan),
        ("bias", 10 ** 400),
        ("meta", []),
        ("feature_vocab", "abc"),
        ("feature_vocab", ["a", 5]),
        ("weights", {"a": 1.5}),
        ("weights", [[5, 1.0]]),
        ("weights", [["a", "1.5"]]),
        ("weights", [["a", True]]),
        ("weights", [["a", math.inf]]),
        ("weights", [["a", 1.0, 2.0]]),
    ])
    def test_bad_field_named(self, field, value):
        rec = {**self.record(), field: value}
        with pytest.raises(ValueError, match=f"model field '{field}'"):
            learn.model_from_record(rec)

    @pytest.mark.parametrize("field", ["format", "version", "kind", "loss", "bias", "meta", "feature_vocab",
                                       "weights"])
    def test_missing_field_named(self, field):
        rec = self.record()
        del rec[field]
        with pytest.raises(ValueError, match=f"model record has no '{field}' field"):
            learn.model_from_record(rec)

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="model record must be a JSON object"):
            learn.model_from_record([])

    def test_integer_values_accepted(self):
        rec = {**self.record(), "bias": 1, "weights": [["a", 2]]}
        model = learn.model_from_record(rec)
        assert model.bias == 1.0 and model.weights == {"a": 2.0}


class TestDeterminismAndFiles:
    def test_bitwise_identical_models(self):
        rng = np.random.default_rng(10)
        points = [
            (dense(rng.normal(size=5)), 1.0 if rng.random() < 0.5 else -1.0)
            for _ in range(30)
        ]
        ts = cls_set(points)
        cfg = learn.TrainerConfig(seed=12)
        m1 = learn.train_hinge_classifier(ts, cfg)
        m2 = learn.train_hinge_classifier(ts, cfg)
        assert m1.weights == m2.weights
        assert m1.bias == m2.bias

    def test_model_file_roundtrip_bit_exact(self):
        rng = np.random.default_rng(13)
        points = [
            (dense(rng.normal(size=5)), 1.0 if rng.random() < 0.5 else -1.0)
            for _ in range(20)
        ]
        model = learn.train_log_classifier(cls_set(points), learn.TrainerConfig(seed=1))
        text = json.dumps(learn.model_to_record(model), ensure_ascii=False, indent=1, sort_keys=True)
        loaded = learn.model_from_record(json.loads(text))
        assert loaded.weights == model.weights
        assert loaded.bias == model.bias
        assert loaded.kind == model.kind and loaded.loss == model.loss
        assert json.dumps(learn.model_to_record(loaded), ensure_ascii=False, indent=1, sort_keys=True) == text


def record_bytes(model):
    return json.dumps(learn.model_to_record(model), sort_keys=True).encode()


TRAINERS = ["train_hinge_classifier", "train_log_classifier", "train_hinge_ranker", "train_log_ranker"]


def random_set(rng, kind, scale):
    """Sparse rows over 8 shared names: 1-39 rows labeled +-1, or 1-14
    ranking groups of 1-5 candidates with ranks 0-2, at least one of them 2
    (the softmax ranker's correct candidate is the first 2).  About a third
    of the rows have every value exactly 1.0, as conventional feature rows
    do, so the trainer's scalar update meets real-valued rows in one set."""
    def vec():
        names = [f"f{i}" for i in range(8) if rng.random() < 0.5]
        if rng.random() < 1 / 3:
            return dict.fromkeys(names, 1.0)
        return {name: float(scale * rng.normal()) for name in names}

    if kind == CLASSIFY:
        return cls_set([(vec(), 1.0 if rng.random() < 0.5 else -1.0) for _ in range(int(rng.integers(1, 40)))])
    groups = []
    for _ in range(int(rng.integers(1, 15))):
        size = int(rng.integers(1, 6))
        labels = [2.0] + [float(rng.integers(0, 3)) for _ in range(size - 1)]
        rng.shuffle(labels)
        groups.append([(vec(), label) for label in labels])
    return rank_set(groups)


class TestMatchesReference:
    """The single trainer against the four separate ones it replaced,
    byte for byte on the model record (weights, bias, epoch objectives)."""

    @pytest.mark.parametrize("name", TRAINERS)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_sets(self, name, seed):
        rng = np.random.default_rng(seed)
        kind = RANK if name.endswith("ranker") else CLASSIFY
        # scale 100 drives log-loss margins past exp underflow (zero coefficients)
        ts = random_set(rng, kind, scale=(1.0, 100.0)[seed % 2])
        cfg = learn.TrainerConfig(c=float(rng.choice([0.1, 1.0, 1e4])), epochs=int(rng.integers(1, 12)), seed=seed)
        if name == "train_hinge_ranker" and not learn.pairwise_difference_set(ts).instances:
            with pytest.raises(ValueError, match="empty"):
                learn.train_hinge_ranker(ts, cfg)
            return
        meta = {"family": "x"} if seed % 3 == 0 else None
        ours = getattr(learn, name)(ts, cfg, meta)
        assert record_bytes(ours) == record_bytes(getattr(reference_learn, name)(ts, cfg, meta))

    @pytest.mark.parametrize("family", ["mp", "mr", "cr"])
    @pytest.mark.parametrize("loss", ["hinge", "log"])
    def test_synth_train_sets(self, family, loss):
        """All three feature sets.  Every mp row is all 1.0 (the scalar
        update); the rankers' sets mix all-1.0 rows with other values, the
        lexical and combined hinge difference rows having few or none."""
        docs = corpus.unseen_train(synth.synth_corpus(8, seed=5), 0.1, 3)
        for features in ["conventional", "lexical", "combined"]:
            cfg = ExperimentConfig(family=family, features=features, loss=loss, epochs=4, seed=3)
            ts = cli._gen_train_set(docs, cfg)
            name = f"train_{loss}_{'ranker' if ts.kind == RANK else 'classifier'}"
            tcfg = cfg.trainer_config()
            ours = getattr(learn, name)(ts, tcfg, {"family": family})
            assert record_bytes(ours) == record_bytes(getattr(reference_learn, name)(ts, tcfg, {"family": family}))

    def test_anaphoricity_set(self):
        docs = synth.synth_corpus(8, seed=6)
        ts = instances.merge([instances.gen_anaphoricity(doc) for doc in docs])
        cfg = learn.TrainerConfig(epochs=5, seed=2)
        assert record_bytes(learn.train_log_classifier(ts, cfg)) == record_bytes(
            reference_learn.train_log_classifier(ts, cfg)
        )


class TestHingeSubgradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences_off_the_kink(self, seed):
        """The subgradient the hinge steps use, against central differences
        at random points where no margin is within 1e-3 of the kink."""
        rng = np.random.default_rng(seed)
        ts = random_set(rng, CLASSIFY, scale=1.0)
        enc = learn._Encoded(ts, softmax=False)
        lam = 1.0 / (2.0 * enc.units)
        while True:
            w = rng.normal(size=len(enc.names))
            if np.all(np.abs(1.0 - enc.labels * learn._scores(enc, w)) > 1e-3):
                break
        grad = learn._gradient(enc, w, lam, learn.HINGE)
        h = 1e-7
        for i in range(len(w)):
            step = np.zeros_like(w)
            step[i] = h
            up = learn._objective(enc, w + step, lam, learn.HINGE)
            down = learn._objective(enc, w - step, lam, learn.HINGE)
            numeric = (up - down) / (2 * h)
            assert abs(numeric - grad[i]) <= 1e-6 * max(1.0, abs(numeric))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def csr_scores_and_gradient(ts, softmax, w, lam, loss):
    """w.x of every row and the (sub)gradient, from the scipy CSR matrix of
    the reference encoding (the same rows in the same order)."""
    enc = learn._Encoded(ts, softmax)
    matrix = reference_learn._Encoded(ts, with_bias=not softmax).matrix()
    scores = matrix @ w
    if softmax:
        coefs = np.zeros(len(enc.rows))
        for rows, correct in zip(enc.groups, enc.correct):
            coefs[rows] = learn._ranker_coefs(scores[rows], correct)
    else:
        coefs = np.array([learn._classifier_coef(loss, y, s) for y, s in zip(enc.labels, scores)])
    return enc, scores, lam * w - matrix.T @ coefs / enc.units


class TestScoresMatchCsr:
    """``_scores`` and ``_gradient`` on the padded position-major rows give
    the bits of the CSR mat-vec and its transpose product."""

    def check(self, ts, softmax, w, loss):
        lam = 1.0 / (3.0 * len(ts.instances))
        enc, scores, grad = csr_scores_and_gradient(ts, softmax, w, lam, loss)
        assert np.array_equal(bits(learn._scores(enc, w)), bits(scores))
        assert np.array_equal(bits(learn._gradient(enc, w, lam, loss)), bits(grad))

    @pytest.mark.parametrize("loss", [learn.HINGE, learn.LOG])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_sets(self, seed, loss):
        rng = np.random.default_rng(seed)
        softmax = loss == learn.LOG and seed % 2 == 1
        ts = random_set(rng, RANK if softmax else CLASSIFY, scale=(1.0, 100.0)[seed % 4 // 2])
        dim = len(ts.feature_vocab) + (0 if softmax else 1)
        # weights over many magnitudes, some of them +-0.0
        w = rng.normal(size=dim) * 10.0 ** rng.integers(-8, 9, size=dim)
        w[rng.random(dim) < 0.2] = 0.0
        w[rng.random(dim) < 0.2] = -0.0
        self.check(ts, softmax, w, loss)

    def test_rows_of_negative_zero_products(self):
        """Rows of mixed length whose every product is -0.0: the CSR sum
        is +0.0, and so is the sum over the padded rows."""
        ts = cls_set([({"a": 1.0}, 1.0), ({"a": 2.0, "b": 0.5, "c": 3.0}, -1.0), ({}, 1.0), ({"c": 1.0}, -1.0)])
        w = np.full(4, -0.0)
        self.check(ts, False, w, learn.HINGE)
        assert np.array_equal(bits(learn._scores(learn._Encoded(ts, False), w)), bits(np.zeros(4)))

    @pytest.mark.parametrize("family, loss", [("mp", "log"), ("mp", "hinge"), ("cr", "log"), ("cr", "hinge")])
    def test_synth_sets(self, family, loss):
        docs = synth.synth_corpus(6, seed=5)
        ts = cli._gen_train_set(docs, ExperimentConfig(family=family, features="combined", loss=loss))
        softmax = ts.kind == RANK and loss == "log"
        if ts.kind == RANK and loss == "hinge":
            ts = learn.pairwise_difference_set(ts)
        rng = np.random.default_rng(len(ts.instances))
        w = rng.normal(size=len(ts.feature_vocab) + (0 if softmax else 1))
        self.check(ts, softmax, w, learn.LOG if loss == "log" else learn.HINGE)
