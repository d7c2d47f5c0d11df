"""Linear model training and scoring.

Four regimes over sparse feature vectors:

* hinge-loss classification   min  lam/2 |w|^2 + (1/n) sum max(0, 1 - y*s)
* hinge-loss pairwise ranking the same objective on within-group
  difference vectors of instances with unequal ranks
* log-loss classification     min  lam/2 |w|^2 + (1/n) sum log(1 + e^(-y*s))
* log-loss group ranking      min  lam/2 |w|^2 + (1/G) sum -log softmax

with s = w.x - b and lam = 1/(C*n).  All trainers run seeded averaged
stochastic (sub)gradient descent with step size 1/(lam*(t+1)); the model
returned is the epoch-end averaged iterate with the best objective seen,
so the recorded objective trace is non-increasing by construction.

The bias is handled as a dedicated always-on feature (so a classifier
learns it like any weight, and it cancels in ranking comparisons); it is
reported separately on the model, with score(v) = w.v - bias.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import sparse

from .instances import CLASSIFY, RANK, Instance, TrainSet

HINGE = "HINGE"
LOG = "LOG"

_BIAS = "__bias__"


@dataclass
class TrainerConfig:
    c: float = 1.0
    epochs: int = 50
    seed: int = 0
    fit_bias: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"C must be a positive finite number, got {self.c}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class LinearModel:
    weights: dict[str, float]
    bias: float
    kind: str
    loss: str
    meta: dict = field(default_factory=dict)


def score(model: LinearModel, vec: dict[str, float]) -> float:
    """Dot product against the weight vector minus the bias; unknown
    feature names contribute nothing."""
    weights = model.weights
    total = 0.0
    for name, value in vec.items():
        w = weights.get(name)
        if w is not None:
            total += w * value
    return total - model.bias


def _sigmoid(s: float) -> float:
    if s >= 0:
        z = math.exp(-s)
        return 1.0 / (1.0 + z)
    z = math.exp(s)
    return z / (1.0 + z)


def probability(s: float) -> float:
    """Logistic probability of a score, clamped to the open unit interval."""
    return min(max(_sigmoid(s), 1e-12), 1.0 - 1e-12)


def predict_prob(model: LinearModel, vec: dict[str, float]) -> float:
    """Logistic probability of the positive class, in the open unit interval."""
    if model.loss != LOG:
        raise ValueError("predict_prob requires a log-loss model")
    return probability(score(model, vec))


# --------------------------------------------------------------------------
# Encoding
# --------------------------------------------------------------------------


class _Encoded:
    """A TrainSet flattened to index/value arrays over a frozen vocabulary."""

    def __init__(self, ts: TrainSet, with_bias: bool):
        self.names = list(ts.feature_vocab)
        if with_bias:
            self.names.append(_BIAS)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.dim = len(self.names)
        self.rows: list[tuple[np.ndarray, np.ndarray]] = []
        self.labels = np.array([inst.label for inst in ts.instances], dtype=np.float64)
        bias_idx = self.index.get(_BIAS)
        for inst in ts.instances:
            idx = [self.index[name] for name in inst.vec]
            val = [float(v) for v in inst.vec.values()]
            if bias_idx is not None:
                idx.append(bias_idx)
                val.append(1.0)
            self.rows.append(
                (np.array(idx, dtype=np.int64), np.array(val, dtype=np.float64))
            )
        self.groups: list[np.ndarray] = []
        by_group: dict[str, list[int]] = {}
        for i, inst in enumerate(ts.instances):
            by_group.setdefault(inst.group, []).append(i)
        self.group_keys = list(by_group)
        self.groups = [np.array(rows, dtype=np.int64) for rows in by_group.values()]

    def matrix(self) -> sparse.csr_matrix:
        indptr = [0]
        indices: list[np.ndarray] = []
        data: list[np.ndarray] = []
        for idx, val in self.rows:
            indices.append(idx)
            data.append(val)
            indptr.append(indptr[-1] + len(idx))
        if not self.rows:
            return sparse.csr_matrix((0, self.dim))
        return sparse.csr_matrix(
            (np.concatenate(data), np.concatenate(indices), np.array(indptr)),
            shape=(len(self.rows), self.dim),
        )


# --------------------------------------------------------------------------
# Averaged SGD core
# --------------------------------------------------------------------------


class _AveragedSGD:
    """Pegasos-style iterates w = a*v with lazily settled running averages.

    The invariant is sum-over-steps of w = acc + v*(q - q_stamp) per
    coordinate, which lets each step touch only its active features.
    """

    def __init__(self, dim: int, lam: float):
        self.lam = lam
        self.v = np.zeros(dim)
        self.a = 1.0
        self.q = 0.0
        self.acc = np.zeros(dim)
        self.stamp = np.zeros(dim)
        self.t = 0
        self.steps = 0

    def dot(self, idx: np.ndarray, val: np.ndarray) -> float:
        """Score of a sparse row under the current iterate."""
        return self.a * float(self.v[idx] @ val)

    def begin_step(self) -> float:
        """Apply the regularization shrink and return the step size."""
        self.t += 1
        eta = 1.0 / (self.lam * (self.t + 1))
        self.a *= self.t / (self.t + 1.0)
        return eta

    def add(self, idx: np.ndarray, delta: np.ndarray) -> None:
        """Sparse additive update of the current iterate: w[idx] += delta."""
        self.acc[idx] += self.v[idx] * (self.q - self.stamp[idx])
        self.stamp[idx] = self.q
        self.v[idx] += delta / self.a

    def end_step(self) -> None:
        self.q += self.a
        self.steps += 1

    def averaged(self) -> np.ndarray:
        if self.steps == 0:
            return np.zeros_like(self.v)
        return (self.acc + self.v * (self.q - self.stamp)) / self.steps


# --------------------------------------------------------------------------
# Objectives (shared by the trainers and the gradient tests)
# --------------------------------------------------------------------------


def _lambda(c: float, n_examples: int) -> float:
    return 1.0 / (c * max(n_examples, 1))


def _classifier_objective_arrays(
    matrix: sparse.csr_matrix, labels: np.ndarray, w: np.ndarray, lam: float, loss: str
) -> float:
    margins = labels * (matrix @ w)
    if loss == HINGE:
        per = np.maximum(0.0, 1.0 - margins)
    else:
        per = np.logaddexp(0.0, -margins)
    return 0.5 * lam * float(w @ w) + float(per.mean())


def _ranker_objective_arrays(
    matrix: sparse.csr_matrix,
    labels: np.ndarray,
    groups: Sequence[np.ndarray],
    w: np.ndarray,
    lam: float,
) -> float:
    scores = matrix @ w
    total = 0.0
    for rows in groups:
        s = scores[rows]
        correct = np.flatnonzero(labels[rows] == 2.0)
        lse = float(np.logaddexp.reduce(s))
        total += lse - float(s[correct[0]])
    return 0.5 * lam * float(w @ w) + total / len(groups)


def _vec_to_arrays(enc: _Encoded, weights: dict[str, float], bias: float) -> np.ndarray:
    w = np.zeros(enc.dim)
    for name, value in weights.items():
        i = enc.index.get(name)
        if i is not None:
            w[i] = value
    if _BIAS in enc.index:
        w[enc.index[_BIAS]] = -bias
    return w


def log_classifier_objective(
    ts: TrainSet, weights: dict[str, float], bias: float, cfg: TrainerConfig
) -> tuple[float, dict[str, float], float]:
    """Regularized negative log-likelihood with its analytic gradient.

    Exactly the function train_log_classifier minimizes; the bias enters
    as a regularized always-on feature with weight -bias.
    """
    enc = _Encoded(ts, with_bias=cfg.fit_bias)
    lam = _lambda(cfg.c, len(enc.rows))
    w = _vec_to_arrays(enc, weights, bias)
    matrix = enc.matrix()
    obj = _classifier_objective_arrays(matrix, enc.labels, w, lam, LOG)
    margins = enc.labels * (matrix @ w)
    coef = np.array([-_sigmoid(-m) for m in margins]) * enc.labels / len(enc.rows)
    grad = lam * w + matrix.T @ coef
    grad_w = {name: float(grad[i]) for name, i in enc.index.items() if name != _BIAS}
    grad_b = -float(grad[enc.index[_BIAS]]) if cfg.fit_bias else 0.0
    return obj, grad_w, grad_b


def log_ranker_objective(
    ts: TrainSet, weights: dict[str, float], cfg: TrainerConfig
) -> tuple[float, dict[str, float]]:
    """Group-conditional softmax negative log-likelihood with its gradient."""
    enc = _Encoded(ts, with_bias=False)
    _require_rank2(enc)
    lam = _lambda(cfg.c, len(enc.groups))
    w = _vec_to_arrays(enc, weights, 0.0)
    matrix = enc.matrix()
    scores = matrix @ w
    grad = lam * w
    for rows in enc.groups:
        s = scores[rows]
        correct = rows[np.flatnonzero(enc.labels[rows] == 2.0)[0]]
        p = np.exp(s - s.max())
        p /= p.sum()
        for local, row in enumerate(rows):
            idx, val = enc.rows[row]
            target = p[local] - (1.0 if row == correct else 0.0)
            grad[idx] += target * val / len(enc.groups)
    obj = _ranker_objective_arrays(matrix, enc.labels, enc.groups, w, lam)
    grad_w = {name: float(grad[i]) for name, i in enc.index.items()}
    return obj, grad_w


# --------------------------------------------------------------------------
# Trainers
# --------------------------------------------------------------------------


def _check_trainable(ts: TrainSet, kind: str) -> None:
    if not ts.instances:
        raise ValueError("cannot train on an empty TrainSet")
    if ts.kind != kind:
        raise ValueError(f"expected a {kind} TrainSet, got {ts.kind}")


def _require_rank2(enc: _Encoded) -> None:
    for key, rows in zip(enc.group_keys, enc.groups):
        if not np.any(enc.labels[rows] == 2.0):
            raise ValueError(f"ranking group {key!r} has no rank-2 instance")


def _finalize(
    enc: _Encoded,
    w: np.ndarray,
    kind: str,
    loss: str,
    cfg: TrainerConfig,
    objectives: list[float],
    meta: dict | None,
) -> LinearModel:
    weights = {}
    bias = 0.0
    for name, i in enc.index.items():
        value = float(w[i])
        if name == _BIAS:
            bias = -value
        elif value != 0.0:
            weights[name] = value
    model_meta = {
        "c": cfg.c,
        "epochs": cfg.epochs,
        "seed": cfg.seed,
        "epoch_objectives": objectives,
    }
    if meta:
        model_meta.update(meta)
    # frozen training vocabulary; unknown test features score zero
    model_meta.setdefault(
        "feature_vocab", sorted(name for name in enc.names if name != _BIAS)
    )
    return LinearModel(weights, bias, kind, loss, model_meta)


def _run_classifier_sgd(
    enc: _Encoded, cfg: TrainerConfig, loss: str
) -> tuple[np.ndarray, list[float]]:
    n = len(enc.rows)
    lam = _lambda(cfg.c, n)
    sgd = _AveragedSGD(enc.dim, lam)
    rng = np.random.default_rng(cfg.seed)
    matrix = enc.matrix()
    best_w: np.ndarray | None = None
    best_obj = math.inf
    trace: list[float] = []
    for _ in range(cfg.epochs):
        for i in rng.permutation(n):
            idx, val = enc.rows[i]
            y = enc.labels[i]
            s = sgd.dot(idx, val)
            eta = sgd.begin_step()
            if loss == HINGE:
                if y * s < 1.0:
                    sgd.add(idx, eta * y * val)
            else:
                coef = _sigmoid(-y * s) * y
                sgd.add(idx, eta * coef * val)
            sgd.end_step()
        w_avg = sgd.averaged()
        obj = _classifier_objective_arrays(matrix, enc.labels, w_avg, lam, loss)
        if obj <= best_obj:
            best_obj = obj
            best_w = w_avg
        trace.append(best_obj)
    assert best_w is not None
    return best_w, trace


def train_hinge_classifier(ts: TrainSet, cfg: TrainerConfig, meta: dict | None = None) -> LinearModel:
    _check_trainable(ts, CLASSIFY)
    enc = _Encoded(ts, with_bias=cfg.fit_bias)
    w, trace = _run_classifier_sgd(enc, cfg, HINGE)
    return _finalize(enc, w, CLASSIFY, HINGE, cfg, trace, meta)


def train_log_classifier(ts: TrainSet, cfg: TrainerConfig, meta: dict | None = None) -> LinearModel:
    _check_trainable(ts, CLASSIFY)
    enc = _Encoded(ts, with_bias=cfg.fit_bias)
    w, trace = _run_classifier_sgd(enc, cfg, LOG)
    return _finalize(enc, w, CLASSIFY, LOG, cfg, trace, meta)


def pairwise_difference_set(ts: TrainSet) -> TrainSet:
    """Difference vectors for every within-group pair with unequal ranks.

    For instances a (earlier) and b (later) the vector is vec(a) - vec(b),
    labeled +1 iff a outranks b.  Groups with fewer than two distinct ranks
    contribute nothing.
    """
    if ts.kind != RANK:
        raise ValueError(f"expected a RANK TrainSet, got {ts.kind}")
    diffs: list[Instance] = []
    for group, members in ts.groups().items():
        for ai in range(len(members)):
            for bi in range(ai + 1, len(members)):
                a, b = members[ai], members[bi]
                if a.label == b.label:
                    continue
                vec: dict[str, float] = dict(a.vec)
                for name, value in b.vec.items():
                    left = vec.get(name, 0.0) - value
                    if left == 0.0:
                        vec.pop(name, None)
                    else:
                        vec[name] = left
                label = 1.0 if a.label > b.label else -1.0
                diffs.append(Instance(vec, label, group, (group, a.meta, b.meta)))
    return TrainSet.build(diffs, CLASSIFY)


def train_hinge_ranker(ts: TrainSet, cfg: TrainerConfig, meta: dict | None = None) -> LinearModel:
    """Hinge ranking via a classifier over pairwise difference vectors."""
    _check_trainable(ts, RANK)
    model = train_hinge_classifier(pairwise_difference_set(ts), cfg, meta)
    # the vocabulary is the ranking set's, not the difference set's
    model.meta["feature_vocab"] = sorted(ts.feature_vocab)
    return replace(model, kind=RANK)


def train_log_ranker(ts: TrainSet, cfg: TrainerConfig, meta: dict | None = None) -> LinearModel:
    """Group-conditional softmax ranker: the rank-2 instance per group is
    the correct outcome.  The bias is inert in a softmax and stays zero."""
    _check_trainable(ts, RANK)
    enc = _Encoded(ts, with_bias=False)
    _require_rank2(enc)
    n_groups = len(enc.groups)
    lam = _lambda(cfg.c, n_groups)
    sgd = _AveragedSGD(enc.dim, lam)
    rng = np.random.default_rng(cfg.seed)
    matrix = enc.matrix()
    best_w: np.ndarray | None = None
    best_obj = math.inf
    trace: list[float] = []
    for _ in range(cfg.epochs):
        for g in rng.permutation(n_groups):
            rows = enc.groups[g]
            s = np.array([sgd.dot(*enc.rows[r]) for r in rows])
            eta = sgd.begin_step()
            s -= s.max()
            p = np.exp(s)
            p /= p.sum()
            correct = np.flatnonzero(enc.labels[rows] == 2.0)[0]
            for local, r in enumerate(rows):
                idx, val = enc.rows[r]
                coef = p[local] - (1.0 if local == correct else 0.0)
                if coef != 0.0:
                    sgd.add(idx, -eta * coef * val)
            sgd.end_step()
        w_avg = sgd.averaged()
        obj = _ranker_objective_arrays(matrix, enc.labels, enc.groups, w_avg, lam)
        if obj <= best_obj:
            best_obj = obj
            best_w = w_avg
        trace.append(best_obj)
    assert best_w is not None
    return _finalize(enc, best_w, RANK, LOG, cfg, trace, meta)


# --------------------------------------------------------------------------
# Model files
# --------------------------------------------------------------------------

_MODEL_FORMAT = "corefrank-model"
_MODEL_VERSION = 1


def _finite_number(value: object) -> bool:
    if type(value) is int:  # JSON integers are unbounded; float() must not overflow
        return abs(value) <= sys.float_info.max
    return type(value) is float and math.isfinite(value)


class Field(NamedTuple):
    """What a record field must be: ``test`` checks its value and, for a
    list, ``each`` checks every item, so an error can point at the item."""

    expected: str
    test: Callable[[object], bool]
    each: Callable[[object], bool] | None = None

    @classmethod
    def one_of(cls, *values: str) -> "Field":
        return cls("one of " + ", ".join(map(repr, values)), lambda v: v in values)


# Every field is required.
_MODEL_FIELDS = {
    "format": Field(repr(_MODEL_FORMAT), lambda v: v == _MODEL_FORMAT),
    "version": Field(str(_MODEL_VERSION), lambda v: type(v) is int and v == _MODEL_VERSION),
    "kind": Field.one_of(CLASSIFY, RANK),
    "loss": Field.one_of(HINGE, LOG),
    "bias": Field("a finite number", _finite_number),
    "meta": Field("an object", lambda v: type(v) is dict),
    "feature_vocab": Field("a list of strings", lambda v: type(v) is list, lambda v: type(v) is str),
    "weights": Field(
        "a list of [name, finite number] pairs",
        lambda v: type(v) is list,
        lambda p: type(p) is list and len(p) == 2 and type(p[0]) is str and _finite_number(p[1]),
    ),
}


def check_fields(rec: object, fields: dict[str, Field], record: str) -> None:
    """Raise a ValueError naming the first field of ``rec`` that is missing
    or is not what ``fields`` says it must be."""
    if type(rec) is not dict:
        raise ValueError(f"{record} record must be a JSON object, got {type(rec).__name__}")
    for name, (expected, test, each) in fields.items():
        if name not in rec:
            raise ValueError(f"{record} record has no {name!r} field")
        value = rec[name]
        if not test(value):
            raise ValueError(f"{record} field {name!r} must be {expected}, got {reprlib.repr(value)}")
        if each is not None and value is not None:
            for i, item in enumerate(value):
                if not each(item):
                    raise ValueError(
                        f"{record} field {name!r} must be {expected}, got {reprlib.repr(item)} at index {i}"
                    )


def model_to_record(model: LinearModel) -> dict:
    meta = {k: v for k, v in model.meta.items() if k != "feature_vocab"}
    return {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "kind": model.kind,
        "loss": model.loss,
        "bias": model.bias,
        "meta": meta,
        "feature_vocab": model.meta.get("feature_vocab", sorted(model.weights)),
        "weights": sorted(model.weights.items()),
    }


def model_from_record(rec: dict) -> LinearModel:
    check_fields(rec, _MODEL_FIELDS, "model")
    return LinearModel(
        weights=dict((name, float(v)) for name, v in rec["weights"]),
        bias=float(rec["bias"]),
        kind=rec["kind"],
        loss=rec["loss"],
        meta={**rec["meta"], "feature_vocab": rec["feature_vocab"]},
    )


def save_model(model: LinearModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_record(model), fh, ensure_ascii=False, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> LinearModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_record(json.load(fh))
