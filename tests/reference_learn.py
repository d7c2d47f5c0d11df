"""The four trainers written out separately: one SGD epoch loop for the
classifiers and another for the softmax ranker, each with its own
full-batch objective.  Kept as the oracle for the single trainer
``corefrank.learn._train``; tests compare ``model_to_record`` of both
byte for byte, epoch objectives included.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np
from scipy import sparse

from corefrank.instances import CLASSIFY, RANK, TrainSet
from corefrank.learn import HINGE, LOG, LinearModel, TrainerConfig, pairwise_difference_set

_BIAS = "__bias__"


def _sigmoid(s: float) -> float:
    if s >= 0:
        z = math.exp(-s)
        return 1.0 / (1.0 + z)
    z = math.exp(s)
    return z / (1.0 + z)


class _Encoded:
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
            self.rows.append((np.array(idx, dtype=np.int64), np.array(val, dtype=np.float64)))
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
        return sparse.csr_matrix(
            (np.concatenate(data), np.concatenate(indices), np.array(indptr)),
            shape=(len(self.rows), self.dim),
        )


class _AveragedSGD:
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
        return self.a * float(self.v[idx] @ val)

    def begin_step(self) -> float:
        self.t += 1
        eta = 1.0 / (self.lam * (self.t + 1))
        self.a *= self.t / (self.t + 1.0)
        return eta

    def add(self, idx: np.ndarray, delta: np.ndarray) -> None:
        self.acc[idx] += self.v[idx] * (self.q - self.stamp[idx])
        self.stamp[idx] = self.q
        self.v[idx] += delta / self.a

    def end_step(self) -> None:
        self.q += self.a
        self.steps += 1

    def averaged(self) -> np.ndarray:
        return (self.acc + self.v * (self.q - self.stamp)) / self.steps


def _lambda(c: float, n_examples: int) -> float:
    return 1.0 / (c * max(n_examples, 1))


def _classifier_objective(matrix, labels: np.ndarray, w: np.ndarray, lam: float, loss: str) -> float:
    margins = labels * (matrix @ w)
    if loss == HINGE:
        per = np.maximum(0.0, 1.0 - margins)
    else:
        per = np.logaddexp(0.0, -margins)
    return 0.5 * lam * float(w @ w) + float(per.mean())


def _ranker_objective(matrix, labels: np.ndarray, groups: Sequence[np.ndarray], w: np.ndarray, lam: float) -> float:
    scores = matrix @ w
    total = 0.0
    for rows in groups:
        s = scores[rows]
        correct = np.flatnonzero(labels[rows] == 2.0)
        lse = float(np.logaddexp.reduce(s))
        total += lse - float(s[correct[0]])
    return 0.5 * lam * float(w @ w) + total / len(groups)


def _check_trainable(ts: TrainSet, kind: str) -> None:
    if not ts.instances:
        raise ValueError("cannot train on an empty TrainSet")
    if ts.kind != kind:
        raise ValueError(f"expected a {kind} TrainSet, got {ts.kind}")


def _finalize(enc, w, kind, loss, cfg, objectives, meta) -> LinearModel:
    weights = {}
    bias = 0.0
    for name, i in enc.index.items():
        value = float(w[i])
        if name == _BIAS:
            bias = -value
        elif value != 0.0:
            weights[name] = value
    model_meta = {"c": cfg.c, "epochs": cfg.epochs, "seed": cfg.seed, "epoch_objectives": objectives}
    if meta:
        model_meta.update(meta)
    model_meta.setdefault("feature_vocab", sorted(name for name in enc.names if name != _BIAS))
    return LinearModel(weights, bias, kind, loss, model_meta)


def _run_classifier_sgd(enc: _Encoded, cfg: TrainerConfig, loss: str):
    n = len(enc.rows)
    lam = _lambda(cfg.c, n)
    sgd = _AveragedSGD(enc.dim, lam)
    rng = np.random.default_rng(cfg.seed)
    matrix = enc.matrix()
    best_w = None
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
        obj = _classifier_objective(matrix, enc.labels, w_avg, lam, loss)
        if obj <= best_obj:
            best_obj = obj
            best_w = w_avg
        trace.append(best_obj)
    return best_w, trace


def train_hinge_classifier(ts: TrainSet, cfg: TrainerConfig, meta: dict | None = None) -> LinearModel:
    _check_trainable(ts, CLASSIFY)
    enc = _Encoded(ts, with_bias=True)
    w, trace = _run_classifier_sgd(enc, cfg, HINGE)
    return _finalize(enc, w, CLASSIFY, HINGE, cfg, trace, meta)


def train_log_classifier(ts: TrainSet, cfg: TrainerConfig, meta: dict | None = None) -> LinearModel:
    _check_trainable(ts, CLASSIFY)
    enc = _Encoded(ts, with_bias=True)
    w, trace = _run_classifier_sgd(enc, cfg, LOG)
    return _finalize(enc, w, CLASSIFY, LOG, cfg, trace, meta)


def train_hinge_ranker(ts: TrainSet, cfg: TrainerConfig, meta: dict | None = None) -> LinearModel:
    _check_trainable(ts, RANK)
    model = train_hinge_classifier(pairwise_difference_set(ts), cfg, meta)
    model.meta["feature_vocab"] = sorted(ts.feature_vocab)
    return replace(model, kind=RANK)


def train_log_ranker(ts: TrainSet, cfg: TrainerConfig, meta: dict | None = None) -> LinearModel:
    _check_trainable(ts, RANK)
    enc = _Encoded(ts, with_bias=False)
    for key, rows in zip(enc.group_keys, enc.groups):
        if not np.any(enc.labels[rows] == 2.0):
            raise ValueError(f"ranking group {key!r} has no rank-2 instance")
    n_groups = len(enc.groups)
    lam = _lambda(cfg.c, n_groups)
    sgd = _AveragedSGD(enc.dim, lam)
    rng = np.random.default_rng(cfg.seed)
    matrix = enc.matrix()
    best_w = None
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
        obj = _ranker_objective(matrix, enc.labels, enc.groups, w_avg, lam)
        if obj <= best_obj:
            best_obj = obj
            best_w = w_avg
        trace.append(best_obj)
    return _finalize(enc, best_w, RANK, LOG, cfg, trace, meta)
