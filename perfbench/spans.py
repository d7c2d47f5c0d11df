"""Spans around the public functions of each corefrank module, and the
per-layer metrics computed from them.

`Tracer.install` replaces module attributes with timing wrappers.  Callers
inside corefrank look these functions up through their module (`resolve`
calls `feats.cluster_features`, `ilp` calls `learn.predict_prob`, `cli`
calls `instances.gen_*`), so the wrappers see every call without an edit
to the package.  Spans stay in memory until `Tracer.dump`.

A span is one JSON object per line: run id, span id, parent span id, name,
start, end, the time covered by its direct children, and counts (docs,
mentions, instances, calls, ...).  Self time is duration minus children.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from collections import defaultdict


def _docs(result, *args, **kwargs):
    return {"docs": len(result), "mentions": sum(len(d.mentions) for d in result)}


def _pds_arg(result, pds, *args, **kwargs):
    return {"docs": len(pds)}


def _pds_result(result, *args, **kwargs):
    return {"docs": len(result)}


def _one_doc(result, doc, *args, **kwargs):
    return {"docs": 1, "mentions": len(doc.mentions)}


def _gen(result, doc, *args, **kwargs):
    return {"docs": 1, "mentions": len(doc.mentions), "instances": len(result.instances)}


def _trainer(result, ts, cfg, meta=None):
    return {
        "instances": len(ts.instances),
        "epochs": cfg.epochs,
        "vocab": len(ts.feature_vocab),
        "anaph": int((meta or {}).get("family") == "anaphoricity"),
    }


def _program(result, doc, *args, **kwargs):
    return {"docs": 1, "mentions": len(doc.mentions), "variables": result.n_variables()}


def _pairs(result, pairs):
    return {"docs": len(pairs)}


# module -> {function: count extractor or None}
TRACED = {
    "cli": {"main": None, "load_bundle": None, "save_bundle": None},
    "corpus": {
        "load_corpus": _docs,
        "load_partition_file": _pds_result,
        "save_partition_file": _pds_arg,
        "unseen_train": _docs,
        "unseen_test": _docs,
    },
    "instances": {
        "gen_mention_pair": _gen,
        "gen_entity_mention": _gen,
        "gen_mention_ranking": _gen,
        "gen_cluster_ranking": _gen,
        "gen_anaphoricity": _gen,
        "merge": None,
    },
    "feats": {"pair_features": None, "cluster_features": None, "anaphoricity": None, "null_option": None},
    "learn": {
        "train_hinge_classifier": _trainer,
        "train_log_classifier": _trainer,
        "train_hinge_ranker": _trainer,
        "train_log_ranker": _trainer,
        "score": None,
        "predict_prob": None,
    },
    "resolve": {"resolve": _one_doc},
    "ilp": {"build_program": _program, "solve_exact": None, "decode_partition": None},
    "score": {"corpus_stats": _pairs, "score_pair": None, "kuhn_munkres": None},
}

TRAINERS = tuple(f"learn.{name}" for name in TRACED["learn"] if name.startswith("train_"))
COREF_GENERATORS = ("gen_mention_pair", "gen_entity_mention", "gen_mention_ranking", "gen_cluster_ranking")


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0

    def install(self) -> None:
        import importlib

        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"corefrank.{module_name}")
            for attr, count in functions.items():
                name = f"{module_name}.{attr}"
                setattr(module, attr, self._wrap(name, getattr(module, attr), count))

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, parent, name, start, {"failed": 1})
                raise
            self._close(frame, parent, name, start, None)
            if count is not None:
                self.spans[-1][6] = count(result, *args, **kwargs)
            return result

        return traced

    def _close(self, frame, parent, name, start, counts) -> None:
        end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append([frame[0], parent, name, start, end, frame[1], counts])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, child, counts in self.spans:
                rec = {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                       "start": start, "end": end, "child": child, "counts": counts or {}}
                fh.write(json.dumps(rec) + "\n")


def load_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    "feats.cluster_us_per_vec": "us",
    "feats.cluster_calls": "count",
    "feats.pair_us_per_vec": "us",
    "feats.pair_calls": "count",
    "feats.anaph_us_per_vec": "us",
    "feats.null_us_per_vec": "us",
    "instances.gen_self_ms_per_doc": "ms",
    "instances.count": "count",
    "learn.us_per_instance_epoch": "us",
    "learn.train_ms": "ms",
    "learn.vocab_size": "count",
    "learn.score_us_per_call": "us",
    "learn.predict_prob_us_per_call": "us",
    "resolve.ms_per_doc.m40": "ms",
    "resolve.ms_per_doc.m80": "ms",
    "resolve.self_ms_per_doc": "ms",
    "resolve.doc_ms_p50": "ms",
    "resolve.doc_ms_tail": "ms",
    "resolve.doc_tail_pct": "%",
    "resolve.docs": "count",
    "ilp.build_ms_per_doc": "ms",
    "ilp.solve_ms_per_doc": "ms",
    "ilp.decode_ms_per_doc": "ms",
    "ilp.variables_per_doc": "count",
    "corpus.load_ms_per_doc": "ms",
    "corpus.unseen_ms_per_doc": "ms",
    "corpus.write_ms_per_doc": "ms",
    "cli.bundle_io_ms": "ms",
    "cli.self_ms": "ms",
    "score.ms_per_doc": "ms",
    "score.kuhn_munkres_us_per_call": "us",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    """A layer that did no work reads 0."""
    return num / den if den else 0.0


def round_layers(spans: list[dict]) -> tuple[dict[str, float], list[float]]:
    """Per-layer metrics of one traced round, and the wall time of each
    `resolve.resolve` call in ms."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(*names):
        return sum(dur(s) for n in names for s in by_name[n])

    def self_time(*names):
        return sum(dur(s) - s["child"] for n in names for s in by_name[n])

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def counted(key, *names):
        return sum(s["counts"].get(key, 0) for n in names for s in by_name[n])

    def per_call_us(name):
        return 1e6 * _ratio(total(name), calls(name))

    ids = {s["id"]: s for s in spans}
    outer_trainers = [
        s for n in TRAINERS for s in by_name[n]
        if s["parent"] is None or ids[s["parent"]]["name"] not in TRAINERS
    ]
    gens = [f"instances.{g}" for g in COREF_GENERATORS] + ["instances.gen_anaphoricity"]
    coref_docs = calls(*(f"instances.{g}" for g in COREF_GENERATORS))
    resolve_ms = [1e3 * dur(s) for s in by_name["resolve.resolve"]]

    def resolve_ms_at(mentions):
        sel = [1e3 * dur(s) for s in by_name["resolve.resolve"] if s["counts"]["mentions"] == mentions]
        return _ratio(sum(sel), len(sel))

    train_s = sum(dur(s) for s in outer_trainers)
    instance_epochs = sum(s["counts"]["instances"] * s["counts"]["epochs"] for s in outer_trainers)
    ilp_docs = calls("ilp.build_program")
    score_docs = counted("docs", "score.corpus_stats")
    layers = {
        "feats.cluster_us_per_vec": per_call_us("feats.cluster_features"),
        "feats.cluster_calls": calls("feats.cluster_features"),
        "feats.pair_us_per_vec": per_call_us("feats.pair_features"),
        "feats.pair_calls": calls("feats.pair_features"),
        "feats.anaph_us_per_vec": per_call_us("feats.anaphoricity"),
        "feats.null_us_per_vec": per_call_us("feats.null_option"),
        "instances.gen_self_ms_per_doc": 1e3 * _ratio(self_time(*gens, "instances.merge"), coref_docs),
        "instances.count": counted("instances", *gens),
        "learn.us_per_instance_epoch": 1e6 * _ratio(train_s, instance_epochs),
        "learn.train_ms": 1e3 * train_s,
        "learn.vocab_size": sum(s["counts"]["vocab"] for s in outer_trainers if not s["counts"]["anaph"]),
        "learn.score_us_per_call": per_call_us("learn.score"),
        "learn.predict_prob_us_per_call": per_call_us("learn.predict_prob"),
        "resolve.ms_per_doc.m40": resolve_ms_at(40),
        "resolve.ms_per_doc.m80": resolve_ms_at(80),
        "resolve.self_ms_per_doc": 1e3 * _ratio(self_time("resolve.resolve"), calls("resolve.resolve")),
        "ilp.build_ms_per_doc": 1e3 * _ratio(total("ilp.build_program"), ilp_docs),
        "ilp.solve_ms_per_doc": 1e3 * _ratio(total("ilp.solve_exact"), ilp_docs),
        "ilp.decode_ms_per_doc": 1e3 * _ratio(total("ilp.decode_partition"), ilp_docs),
        "ilp.variables_per_doc": _ratio(counted("variables", "ilp.build_program"), ilp_docs),
        "corpus.load_ms_per_doc": 1e3 * _ratio(
            total("corpus.load_corpus", "corpus.load_partition_file"),
            counted("docs", "corpus.load_corpus", "corpus.load_partition_file")),
        "corpus.unseen_ms_per_doc": 1e3 * _ratio(
            total("corpus.unseen_train", "corpus.unseen_test"),
            counted("docs", "corpus.unseen_train", "corpus.unseen_test")),
        "corpus.write_ms_per_doc": 1e3 * _ratio(
            total("corpus.save_partition_file"), counted("docs", "corpus.save_partition_file")),
        "cli.bundle_io_ms": 1e3 * total("cli.load_bundle", "cli.save_bundle"),
        "cli.self_ms": 1e3 * self_time("cli.main"),
        "score.ms_per_doc": 1e3 * _ratio(total("score.corpus_stats", "score.score_pair"), score_docs),
        "score.kuhn_munkres_us_per_call": per_call_us("score.kuhn_munkres"),
    }
    return layers, resolve_ms


def tail(samples: list[float]) -> tuple[float, float, float]:
    """Median, and the highest whole percentile with at least ten samples
    beyond it, with that percentile.  Below 20 samples no percentile above
    the median qualifies, and the tail is the median."""
    if not samples:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    p50 = statistics.median(ordered)
    pct = math.floor(100 * (n - 10) / n)
    if pct <= 50:
        return p50, p50, 50.0
    return p50, ordered[math.ceil(pct / 100 * n) - 1], float(pct)


def run_layers(rounds: list[tuple[dict[str, float], list[float]]], overhead_s: float) -> dict[str, float]:
    """Medians of `round_layers` results over traced rounds; document
    latencies pooled over rounds."""
    doc_ms = [ms for _, resolve_ms in rounds for ms in resolve_ms]
    out = {name: statistics.median(layers[name] for layers, _ in rounds) for name in rounds[0][0]}
    p50, tail_ms, pct = tail(doc_ms)
    out.update({
        "resolve.doc_ms_p50": p50,
        "resolve.doc_ms_tail": tail_ms,
        "resolve.doc_tail_pct": pct,
        "resolve.docs": len(doc_ms),
        "trace.overhead_s": overhead_s,
    })
    return {name: out[name] for name in LAYER_UNITS}
