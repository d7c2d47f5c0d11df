"""Linear model training and scoring.

Four regimes over sparse feature vectors:

* hinge-loss classification   min  lam/2 |w|^2 + (1/n) sum max(0, 1 - y*s)
* hinge-loss pairwise ranking the same objective on within-group
  difference vectors of instances with unequal ranks
* log-loss classification     min  lam/2 |w|^2 + (1/n) sum log(1 + e^(-y*s))
* log-loss group ranking      min  lam/2 |w|^2 + (1/G) sum -log softmax

with s = w.x - b and lam = 1/(C*n) (or 1/(C*G)).  One trainer, ``_train``,
runs all four as seeded averaged stochastic (sub)gradient descent with step
size 1/(lam*(t+1)): an epoch steps once per row for the classifiers (the
hinge ranker's rows are its difference vectors) and once per group for the
softmax ranker.  The model returned is the epoch-end averaged iterate with
the best objective seen, so the recorded objective trace is non-increasing
by construction.  The per-row and per-group loss coefficients that the steps
use also give the full-batch gradient (``_gradient``), which the tests check
against finite differences of the objective the trainer records.  The
objective's scores (``_scores``) add each row's products in the row's own
order, from 0.0, over numpy arrays of the padded rows; the tests check them
bit for bit against a sparse CSR mat-vec.

The bias is handled as a dedicated always-on feature (so a classifier
learns it like any weight, and it cancels in ranking comparisons); it is
reported separately on the model, with score(v) = w.v - bias.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from numpy.random import default_rng

from .instances import CLASSIFY, RANK, Instance, TrainSet

HINGE = "HINGE"
LOG = "LOG"

_BIAS = "__bias__"


@dataclass
class TrainerConfig:
    c: float = 1.0
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"C must be a positive finite number, got {self.c}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    """A TrainSet flattened to sparse rows over a frozen vocabulary.

    Classifier rows end in the always-on bias column.  The softmax ranker
    has no bias column (a bias is inert in a softmax); its rows are grouped
    instead, each group with the position of its first rank-2 instance.
    Each row is (indices, values, ones), where ``ones`` says that every
    value is exactly 1.0, so an update may add a scalar (c * 1.0 == c).
    ``cols`` and ``vals`` hold the rows again, position-major: entry
    [p, r] is row r's p-th (index, value), and rows shorter than the
    longest are padded with (0, 0.0).
    """

    def __init__(self, ts: TrainSet, softmax: bool):
        self.softmax = softmax
        self.names = list(ts.feature_vocab)
        if not softmax:
            self.names.append(_BIAS)
        index = {name: i for i, name in enumerate(self.names)}
        self.labels = np.array([inst.label for inst in ts.instances], dtype=np.float64)
        self.rows: list[tuple[np.ndarray, np.ndarray, bool]] = []
        for inst in ts.instances:
            idx = [index[name] for name in inst.vec]
            val = [float(v) for v in inst.vec.values()]
            if not softmax:
                idx.append(index[_BIAS])
                val.append(1.0)
            ones = all(x == 1.0 for x in val)
            self.rows.append((np.array(idx, dtype=np.int64), np.array(val, dtype=np.float64), ones))
        width = max((len(idx) for idx, _, _ in self.rows), default=0)
        self.cols = np.zeros((width, len(self.rows)), dtype=np.int64)
        self.vals = np.zeros((width, len(self.rows)))
        for r, (idx, val, _) in enumerate(self.rows):
            self.cols[: len(idx), r] = idx
            self.vals[: len(val), r] = val
        self.groups: list[list[int]] = []
        self.correct: list[int] = []
        if softmax:
            by_group: dict[str, list[int]] = {}
            for i, inst in enumerate(ts.instances):
                by_group.setdefault(inst.group, []).append(i)
            for key, rows in by_group.items():
                rank2 = [local for local, i in enumerate(rows) if ts.instances[i].label == 2.0]
                if not rank2:
                    raise ValueError(f"ranking group {key!r} has no rank-2 instance")
                self.groups.append(rows)
                self.correct.append(rank2[0])
        # one SGD step per unit, and the data term averages over units
        self.units = len(self.groups) if softmax else len(self.rows)


# --------------------------------------------------------------------------
# Objective and gradient (shared by the trainer and the gradient tests)
# --------------------------------------------------------------------------


def _classifier_coef(loss: str, y: float, s: float) -> float:
    """Minus the derivative of one row's loss with respect to its score s,
    for the label y = +-1: an SGD step adds eta*coef times the row."""
    if loss == HINGE:
        return y if y * s < 1.0 else 0.0
    return _sigmoid(-y * s) * y


def _ranker_coefs(s: np.ndarray, correct: int) -> np.ndarray:
    """Minus the derivative of a group's -log softmax with respect to its
    candidates' scores s: the one-hot target minus the softmax."""
    p = np.exp(s - s.max())
    p /= p.sum()
    p[correct] -= 1.0
    return -p


def _scores(enc: _Encoded, w: np.ndarray) -> np.ndarray:
    """Every row's w.x, summed 0.0 + t0 + t1 + ... in the row's own order,
    as a sparse CSR mat-vec sums it.  A padding term is +-0.0, which leaves
    such a sum unchanged (it is never -0.0)."""
    scores = np.zeros(len(enc.rows))
    for terms in enc.vals * w[enc.cols]:
        scores += terms
    return scores


def _objective(enc: _Encoded, w: np.ndarray, lam: float, loss: str) -> float:
    """The regularized objective at w, as recorded in epoch_objectives."""
    scores = _scores(enc, w)
    if enc.softmax:
        # summed group by group in Python floats; np.sum would round differently
        total = 0.0
        for rows, correct in zip(enc.groups, enc.correct):
            s = scores[rows]
            total += float(np.logaddexp.reduce(s)) - float(s[correct])
        data = total / len(enc.groups)
    else:
        margins = enc.labels * scores
        per = np.maximum(0.0, 1.0 - margins) if loss == HINGE else np.logaddexp(0.0, -margins)
        data = float(per.mean())
    return 0.5 * lam * float(w @ w) + data


def _gradient(enc: _Encoded, w: np.ndarray, lam: float, loss: str) -> np.ndarray:
    """The (sub)gradient of _objective, from the coefficients the SGD steps use."""
    scores = _scores(enc, w)
    if enc.softmax:
        coefs = np.zeros(len(enc.rows))
        for rows, correct in zip(enc.groups, enc.correct):
            coefs[rows] = _ranker_coefs(scores[rows], correct)
    else:
        coefs = np.array([_classifier_coef(loss, y, s) for y, s in zip(enc.labels, scores)])
    # X^T coefs, added up row by row in row order (the padding adds +-0.0)
    xt_coefs = np.bincount(enc.cols.T.ravel(), (enc.vals * coefs).T.ravel(), minlength=len(w))
    return lam * w - xt_coefs / enc.units


def _objective_at(
    enc: _Encoded, weights: dict[str, float], cfg: TrainerConfig, loss: str
) -> tuple[float, dict[str, float]]:
    """_objective and _gradient at the named weights, the gradient by name."""
    w = np.array([weights.get(name, 0.0) for name in enc.names])
    lam = 1.0 / (cfg.c * enc.units)
    grad = _gradient(enc, w, lam, loss)
    return _objective(enc, w, lam, loss), dict(zip(enc.names, grad.tolist()))


def log_classifier_objective(
    ts: TrainSet, weights: dict[str, float], bias: float, cfg: TrainerConfig
) -> tuple[float, dict[str, float], float]:
    """Regularized negative log-likelihood with its analytic gradient.

    Exactly the function train_log_classifier minimizes; the bias enters
    as a regularized always-on feature with weight -bias.
    """
    obj, grad = _objective_at(_Encoded(ts, softmax=False), {**weights, _BIAS: -bias}, cfg, LOG)
    return obj, grad, -grad.pop(_BIAS)


def log_ranker_objective(
    ts: TrainSet, weights: dict[str, float], cfg: TrainerConfig
) -> tuple[float, dict[str, float]]:
    """Group-conditional softmax negative log-likelihood with its gradient."""
    return _objective_at(_Encoded(ts, softmax=True), weights, cfg, LOG)


# --------------------------------------------------------------------------
# Trainers
# --------------------------------------------------------------------------


# A diverging run overflows on the way; the check on the best objective reports it.
@np.errstate(over="ignore", invalid="ignore")
def _train(ts: TrainSet, cfg: TrainerConfig, meta: dict | None, kind: str, loss: str) -> LinearModel:
    """Seeded averaged SGD.  Each epoch steps once per row for a classifier
    (the hinge ranker is a classifier over its pairwise difference vectors)
    and once per group for the softmax ranker.  The model is the epoch-end
    average with the best objective seen."""
    if ts.kind != kind:
        raise ValueError(f"expected a {kind} TrainSet, got {ts.kind}")
    softmax = kind == RANK and loss == LOG
    rows_ts = pairwise_difference_set(ts) if kind == RANK and loss == HINGE else ts
    if not rows_ts.instances:
        raise ValueError("cannot train on an empty TrainSet")
    enc = _Encoded(rows_ts, softmax)
    lam = 1.0 / (cfg.c * enc.units)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(
            f"C = {cfg.c} over {enc.units} training units gives the regularization 1/(C*units) = {lam}, "
            "not a positive finite number"
        )
    # Pegasos-style iterate w = a*v: a step shrinks a and adds to v[idx] only.
    # Each coordinate's running sum of w is acc + v*(q - stamp), settled
    # lazily when the coordinate is next updated.
    dim = len(enc.names)
    v, acc, stamp = np.zeros(dim), np.zeros(dim), np.zeros(dim)
    a, q, t = 1.0, 0.0, 0
    rows, groups, correct = enc.rows, enc.groups, enc.correct
    labels = enc.labels.tolist()
    # a log-loss step settles the lazy averages even at coef 0, which the
    # rounding of later steps depends on
    step_at_zero = loss == LOG
    rng = default_rng(cfg.seed)
    best_w: np.ndarray | None = None
    best_obj = math.inf
    trace: list[float] = []
    for _ in range(cfg.epochs):
        for u in rng.permutation(enc.units).tolist():
            if softmax:
                group = groups[u]
                s = np.array([a * float(v[rows[r][0]].dot(rows[r][1])) for r in group])
                coefs = _ranker_coefs(s, correct[u]).tolist()
            else:
                idx, val, ones = rows[u]
                vi = v[idx]
                coef = _classifier_coef(loss, labels[u], a * float(vi.dot(val)))
            t += 1
            eta = 1.0 / (lam * (t + 1))
            a *= t / (t + 1.0)
            if softmax:
                for r, coef in zip(group, coefs):
                    if coef != 0.0:
                        idx, val, ones = rows[r]
                        vi = v[idx]
                        acc[idx] = acc[idx] + vi * (q - stamp[idx])
                        stamp[idx] = q
                        c = eta * coef
                        v[idx] = vi + (c / a if ones else c * val / a)
            elif coef != 0.0 or step_at_zero:
                acc[idx] = acc[idx] + vi * (q - stamp[idx])
                stamp[idx] = q
                c = eta * coef
                v[idx] = vi + (c / a if ones else c * val / a)
            q += a
        w_avg = (acc + v * (q - stamp)) / t
        obj = _objective(enc, w_avg, lam, loss)
        if obj <= best_obj:
            best_obj = obj
            best_w = w_avg
        trace.append(best_obj)
    # a finite objective bounds w @ w, so the kept weights are finite too
    if not math.isfinite(best_obj):
        raise ValueError(f"training diverged with C = {cfg.c} over {enc.units} training units: no finite objective")
    weights = dict(zip(enc.names, best_w.tolist()))
    bias = 0.0 if softmax else -weights.pop(_BIAS)
    model_meta = {"c": cfg.c, "epochs": cfg.epochs, "seed": cfg.seed, "epoch_objectives": trace, **(meta or {})}
    # frozen training vocabulary; unknown test features score zero
    model_meta.setdefault("feature_vocab", sorted(ts.feature_vocab))
    return LinearModel({n: v for n, v in weights.items() if v != 0.0}, bias, kind, loss, model_meta)


def train_hinge_classifier(ts: TrainSet, cfg: TrainerConfig, meta: dict | None = None) -> LinearModel:
    return _train(ts, cfg, meta, CLASSIFY, HINGE)


def train_log_classifier(ts: TrainSet, cfg: TrainerConfig, meta: dict | None = None) -> LinearModel:
    return _train(ts, cfg, meta, CLASSIFY, LOG)


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
    return _train(ts, cfg, meta, RANK, HINGE)


def train_log_ranker(ts: TrainSet, cfg: TrainerConfig, meta: dict | None = None) -> LinearModel:
    """Group-conditional softmax ranker: the rank-2 instance per group is
    the correct outcome.  The bias is inert in a softmax and stays zero."""
    return _train(ts, cfg, meta, RANK, LOG)


# --------------------------------------------------------------------------
# Model records
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

