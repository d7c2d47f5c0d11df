"""Experiment harness and command-line interface.

Commands: validate, synth, train, resolve, score, crossval, ablate,
adapt, ilp-resolve, classes.  Every command is deterministic given its
inputs and the --seed flag, never mutates its input files, and exits
nonzero with a JSON error record on stderr when something goes wrong.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from statistics import pstdev
from typing import Callable, Sequence

from . import corpus as corpus_mod
from . import feats, ilp, instances, learn, resolve, score, synth
from .corpus import Document, PartitionDoc

FAMILY_CODES = {
    "hm": resolve.HEAD_MATCH,
    "mp": resolve.MENTION_PAIR,
    "em": resolve.ENTITY_MENTION,
    "mr": resolve.MENTION_RANKING,
    "cr": resolve.CLUSTER_RANKING,
}
LINKING_CODES = {"closest": resolve.CLOSEST_FIRST, "best": resolve.BEST_FIRST}
ANAPH_CODES = {"pipeline": resolve.PIPELINE, "joint": resolve.JOINT}

_BUNDLE_FORMAT = "corefrank-bundle"
_BUNDLE_VERSION = 1


@dataclass
class ExperimentConfig:
    family: str = "cr"
    features: str = feats.COMBINED
    loss: str = "hinge"
    linking: str = "closest"
    anaph: str = "joint"
    c: float = 1.0
    epochs: int = 50
    seed: int = 0
    unseen_rate: float = 0.10
    folds: int = 5
    metric: str = score.BCUBED

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        # checked here, since the trainer and the unseen marking see them
        # only for some families and feature sets
        self.trainer_config()
        corpus_mod.check_rate("unseen_rate", self.unseen_rate)

    def trainer_config(self) -> learn.TrainerConfig:
        return learn.TrainerConfig(c=self.c, epochs=self.epochs, seed=self.seed)

    def uses_lexical(self) -> bool:
        return self.features in (feats.LEXICAL, feats.COMBINED)


@dataclass
class FeatureTypeGroup:
    name: str
    predicate: Callable[[str], bool]


def default_groups(features: str) -> list[FeatureTypeGroup]:
    """Feature-type partition used for backward elimination."""

    def by_types(types: set[str]) -> Callable[[str], bool]:
        return lambda name: feats.fine_feature_type(name) in types

    if features == feats.LEXICAL:
        names = [("unseen", {"unseen"}), ("lexical", {"lexical"}),
                 ("semi-lexical", {"semi-lexical"}), ("distance", {"distance"}),
                 ("alias", {"alias"})]
    elif features == feats.COMBINED:
        names = [("unseen", {"unseen"}), ("lexical", {"lexical"}),
                 ("semi-lexical", {"semi-lexical"}), ("distance", {"distance"}),
                 ("string-matching", {"string-matching"}),
                 ("grammatical", {"grammatical"}),
                 ("semantic", {"semantic", "alias"})]
    elif features == feats.CONVENTIONAL:
        names = [("string-matching", {"string-matching"}),
                 ("grammatical", {"grammatical"}),
                 ("semantic", {"semantic", "alias"}),
                 ("distance", {"distance"})]
    else:
        raise ValueError(f"unknown feature set {features!r}")
    return [FeatureTypeGroup(name, by_types(types)) for name, types in names]


# --------------------------------------------------------------------------
# Training and resolving
# --------------------------------------------------------------------------


@dataclass
class ModelBundle:
    family: str
    features: str
    loss: str
    linking: str
    anaph: str
    coref_model: learn.LinearModel | None
    anaph_model: learn.LinearModel | None
    unseen_vocab: set[str] | None
    config: dict = field(default_factory=dict)

    def resolver_spec(self) -> resolve.ResolverSpec:
        return resolve.ResolverSpec(
            family=self.family,
            fs=self.features,
            coref_model=self.coref_model,
            linking=self.linking,
            anaph=self.anaph,
            anaph_model=self.anaph_model,
        )


def _gen_train_set(docs: Sequence[Document], cfg: ExperimentConfig) -> instances.TrainSet:
    family = FAMILY_CODES[cfg.family]
    joint = ANAPH_CODES[cfg.anaph] == resolve.JOINT
    sets = []
    for doc in docs:
        if family == resolve.MENTION_PAIR:
            sets.append(instances.gen_mention_pair(doc, cfg.features))
        elif family == resolve.ENTITY_MENTION:
            sets.append(instances.gen_entity_mention(doc, cfg.features))
        elif family == resolve.MENTION_RANKING:
            sets.append(instances.gen_mention_ranking(doc, cfg.features, joint=joint))
        elif family == resolve.CLUSTER_RANKING:
            sets.append(instances.gen_cluster_ranking(doc, cfg.features, joint=joint))
        else:
            raise ValueError(f"family {cfg.family!r} is not trainable")
    return instances.merge(sets)


def _filter_train_set(ts: instances.TrainSet, kept: set[str]) -> instances.TrainSet:
    filtered = [
        instances.Instance({n: v for n, v in inst.vec.items() if n in kept}, inst.label, inst.group, inst.meta)
        for inst in ts.instances
    ]
    return instances.TrainSet(filtered, [n for n in ts.feature_vocab if n in kept], ts.kind)


def _train_base(docs: Sequence[Document], cfg: ExperimentConfig) -> tuple[ModelBundle, instances.TrainSet | None]:
    """Everything `train_bundle` builds but the coreference model: the
    unseen marking, the anaphoricity classifier whenever the architecture
    can use one, and the coreference train set (None for head match)."""
    family = FAMILY_CODES[cfg.family]
    vocab = None
    train_docs = list(docs)
    if cfg.uses_lexical():
        train_docs = corpus_mod.unseen_train(train_docs, cfg.unseen_rate, cfg.seed)
        vocab = corpus_mod.surface_vocab(train_docs)
    ts = None if family == resolve.HEAD_MATCH else _gen_train_set(train_docs, cfg)
    anaph_model = None
    joint_ranker = family in resolve.RANKING_FAMILIES and ANAPH_CODES[cfg.anaph] == resolve.JOINT
    if family != resolve.HEAD_MATCH and not joint_ranker:
        anaph_ts = instances.merge([instances.gen_anaphoricity(doc) for doc in train_docs])
        anaph_model = learn.train_log_classifier(anaph_ts, cfg.trainer_config(), {"family": "anaphoricity"})
    return ModelBundle(
        family=family,
        features=cfg.features,
        loss=cfg.loss,
        linking=LINKING_CODES[cfg.linking],
        anaph=ANAPH_CODES[cfg.anaph],
        coref_model=None,
        anaph_model=anaph_model,
        unseen_vocab=vocab,
        config={"c": cfg.c, "epochs": cfg.epochs, "seed": cfg.seed, "unseen_rate": cfg.unseen_rate},
    ), ts


def _with_coref_model(bundle: ModelBundle, ts: instances.TrainSet, cfg: ExperimentConfig) -> ModelBundle:
    meta = {"features": cfg.features, "family": cfg.family}
    if bundle.unseen_vocab is not None:
        meta["unseen_vocab"] = sorted(bundle.unseen_vocab)
    if ts.kind == instances.RANK:
        trainer = learn.train_hinge_ranker if cfg.loss == "hinge" else learn.train_log_ranker
    else:
        trainer = learn.train_hinge_classifier if cfg.loss == "hinge" else learn.train_log_classifier
    return replace(bundle, coref_model=trainer(ts, cfg.trainer_config(), meta))


def train_bundle(docs: Sequence[Document], cfg: ExperimentConfig) -> ModelBundle:
    """Train the coreference model for the configured family, plus an
    anaphoricity classifier whenever the architecture can use one."""
    bundle, ts = _train_base(docs, cfg)
    return bundle if ts is None else _with_coref_model(bundle, ts, cfg)


def prepare_test_docs(docs: Sequence[Document], bundle: ModelBundle) -> list[Document]:
    if bundle.unseen_vocab is not None:
        return corpus_mod.unseen_test(docs, bundle.unseen_vocab)
    return list(docs)


def resolve_docs(docs: Sequence[Document], bundle: ModelBundle) -> list[PartitionDoc]:
    spec = bundle.resolver_spec()
    prepared = prepare_test_docs(docs, bundle)
    return [
        corpus_mod.response_partition_doc(doc, resolve.resolve(doc, spec)) for doc in prepared
    ]


def bundle_to_record(bundle: ModelBundle) -> dict:
    return {
        "format": _BUNDLE_FORMAT,
        "version": _BUNDLE_VERSION,
        "family": bundle.family,
        "features": bundle.features,
        "loss": bundle.loss,
        "linking": bundle.linking,
        "anaph": bundle.anaph,
        "coref_model": learn.model_to_record(bundle.coref_model) if bundle.coref_model else None,
        "anaph_model": learn.model_to_record(bundle.anaph_model) if bundle.anaph_model else None,
        "unseen_vocab": sorted(bundle.unseen_vocab) if bundle.unseen_vocab is not None else None,
        "config": bundle.config,
    }


# Every field is required; the two models are then checked against the
# model record's own table.
_BUNDLE_FIELDS = {
    "format": learn.Field(repr(_BUNDLE_FORMAT), lambda v: v == _BUNDLE_FORMAT),
    "version": learn.Field(str(_BUNDLE_VERSION), lambda v: type(v) is int and v == _BUNDLE_VERSION),
    "family": learn.Field.one_of(*FAMILY_CODES.values()),
    "features": learn.Field.one_of(*feats.FEATURE_SETS),
    "loss": learn.Field.one_of("hinge", "log"),
    "linking": learn.Field.one_of(*LINKING_CODES.values()),
    "anaph": learn.Field.one_of(*ANAPH_CODES.values()),
    "coref_model": learn.Field("an object or null", lambda v: v is None or type(v) is dict),
    "anaph_model": learn.Field("an object or null", lambda v: v is None or type(v) is dict),
    "unseen_vocab": learn.Field(
        "a list of strings or null", lambda v: v is None or type(v) is list, lambda v: type(v) is str
    ),
    "config": learn.Field("an object", lambda v: type(v) is dict),
}


def _model_field(rec: dict, name: str) -> learn.LinearModel | None:
    if rec[name] is None:
        return None
    try:
        return learn.model_from_record(rec[name])
    except ValueError as exc:
        raise ValueError(f"bundle field {name!r}: {exc}") from None


def bundle_from_record(rec: dict) -> ModelBundle:
    learn.check_fields(rec, _BUNDLE_FIELDS, "bundle")
    return ModelBundle(
        family=rec["family"],
        features=rec["features"],
        loss=rec["loss"],
        linking=rec["linking"],
        anaph=rec["anaph"],
        coref_model=_model_field(rec, "coref_model"),
        anaph_model=_model_field(rec, "anaph_model"),
        unseen_vocab=set(rec["unseen_vocab"]) if rec["unseen_vocab"] is not None else None,
        config=rec["config"],
    )


def save_bundle(bundle: ModelBundle, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bundle_to_record(bundle), fh, ensure_ascii=False, indent=1, sort_keys=True)
        fh.write("\n")


def load_bundle(path: str) -> ModelBundle:
    with open(path, encoding="utf-8") as fh:
        return bundle_from_record(json.load(fh))


# --------------------------------------------------------------------------
# Evaluation plumbing
# --------------------------------------------------------------------------


def _evaluate_pairs(pairs: list[tuple[PartitionDoc, PartitionDoc]]) -> dict:
    b3, ceaf = score.corpus_stats(pairs)
    b3_report = b3.report()
    ceaf_report = ceaf.report()
    return {
        "bcubed": {"recall": b3_report.recall, "precision": b3_report.precision, "f1": b3_report.f1},
        "ceaf": {"recall": ceaf_report.recall, "precision": ceaf_report.precision, "f1": ceaf_report.f1},
        "documents": len(pairs),
    }


def _anaphoricity_report(docs: Sequence[Document], responses: Sequence[PartitionDoc]) -> dict:
    predicted: list[bool] = []
    gold: list[bool] = []
    for doc, resp in zip(docs, responses):
        implied = resolve.predicted_anaphoricity(resp.partition)
        for k in range(len(doc.mentions)):
            predicted.append(implied.get(k, False))
            gold.append(doc.anaphoric(k))
    report = score.anaphoricity_metrics(predicted, gold)
    return {
        "accuracy": report.accuracy,
        "recall": report.recall,
        "precision": report.precision,
        "f1": report.f1,
    }


def stratified_folds(docs: Sequence[Document], folds: int, seed: int) -> list[int]:
    """Fold index per document: a seeded shuffle within each source, then
    round-robin, so fold sizes within a source differ by at most one."""
    if len(docs) < folds:
        raise ValueError(f"corpus has {len(docs)} documents, fewer than {folds} folds")
    assignment = [0] * len(docs)
    by_source: dict[str, list[int]] = {}
    for i, doc in enumerate(docs):
        by_source.setdefault(doc.source, []).append(i)
    for source, indices in sorted(by_source.items()):
        rng = random.Random(f"{seed}:{source}")
        shuffled = list(indices)
        rng.shuffle(shuffled)
        for position, doc_index in enumerate(shuffled):
            assignment[doc_index] = position % folds
    return assignment


def run_crossval(docs: Sequence[Document], cfg: ExperimentConfig, outdir: str | None = None) -> dict:
    """Train on folds-1 folds per round, resolve the held-out fold, and
    score the pooled held-out responses."""
    assignment = stratified_folds(docs, cfg.folds, cfg.seed)
    all_pairs: list[tuple[PartitionDoc, PartitionDoc]] = []
    all_docs: list[Document] = []
    all_responses: list[PartitionDoc] = []
    fold_reports = []
    for fold in range(cfg.folds):
        train_docs = [doc for doc, f in zip(docs, assignment) if f != fold]
        test_docs = [doc for doc, f in zip(docs, assignment) if f == fold]
        bundle = train_bundle(train_docs, cfg)
        if outdir is not None:
            save_bundle(bundle, f"{outdir}/fold{fold}.bundle.json")
        responses = resolve_docs(test_docs, bundle)
        pairs = [(corpus_mod.key_partition_doc(d), r) for d, r in zip(test_docs, responses)]
        all_pairs.extend(pairs)
        all_docs.extend(test_docs)
        all_responses.extend(responses)
        fold_reports.append(_evaluate_pairs(pairs))
    report = _evaluate_pairs(all_pairs)
    report["anaphoricity"] = _anaphoricity_report(all_docs, all_responses)
    report["folds"] = fold_reports
    report["config"] = _config_record(cfg)
    return report


def run_ablation(
    docs: Sequence[Document], cfg: ExperimentConfig, groups: list[FeatureTypeGroup] | None = None
) -> dict:
    """Backward elimination over feature types.

    Each round retrains with every remaining group removed in turn and
    permanently drops the group whose removal scores best.  Only the
    coreference model is retrained: the train set, the unseen marking, the
    anaphoricity model and the prepared test docs are built once.
    """
    if groups is None:
        groups = default_groups(cfg.features)
    if len(groups) < 2:
        raise ValueError("ablation requires at least two feature-type groups")
    assignment = stratified_folds(docs, cfg.folds, cfg.seed)
    train_docs = [doc for doc, f in zip(docs, assignment) if f != 0]
    test_docs = [doc for doc, f in zip(docs, assignment) if f == 0]
    base, ts = _train_base(train_docs, cfg)
    keys = [corpus_mod.key_partition_doc(doc) for doc in test_docs]
    prepared = prepare_test_docs(test_docs, base)

    def evaluate(removed: set[str]) -> float:
        active = [g for g in groups if g.name not in removed]
        bundle = base
        if ts is not None:
            kept = {n for n in ts.feature_vocab if any(g.predicate(n) for g in active)}
            bundle = _with_coref_model(base, _filter_train_set(ts, kept), cfg)
        spec = bundle.resolver_spec()
        responses = [corpus_mod.response_partition_doc(doc, resolve.resolve(doc, spec)) for doc in prepared]
        return _evaluate_pairs(list(zip(keys, responses)))[cfg.metric]["f1"]

    remaining = [g.name for g in groups]
    removed: set[str] = set()
    rounds = []
    baseline = evaluate(removed)
    while len(remaining) > 1:
        scores = {}
        for name in remaining:
            scores[name] = evaluate(removed | {name})
        eliminated = max(remaining, key=lambda name: scores[name])
        rounds.append({"scores": scores, "eliminated": eliminated})
        removed.add(eliminated)
        remaining.remove(eliminated)
    return {
        "metric": cfg.metric,
        "full_score": baseline,
        "rounds": rounds,
        "elimination_order": [r["eliminated"] for r in rounds],
        "config": _config_record(cfg),
    }


def run_adaptability(docs: Sequence[Document], cfg: ExperimentConfig) -> dict:
    """Train on each source, evaluate on every source's held-out fold."""
    by_source: dict[str, list[Document]] = {}
    for doc in docs:
        by_source.setdefault(doc.source, []).append(doc)
    sources = sorted(by_source)
    if len(sources) < 2:
        raise ValueError("adaptability requires at least two data sources")
    for source, members in by_source.items():
        if len(members) < 2:
            raise ValueError(f"source {source!r} has too few documents ({len(members)})")
    splits: dict[str, tuple[list[Document], list[Document]]] = {}
    for source, members in by_source.items():
        rng = random.Random(f"{cfg.seed}:{source}")
        shuffled = list(members)
        rng.shuffle(shuffled)
        cut = max(1, len(shuffled) // cfg.folds)
        splits[source] = (shuffled[cut:], shuffled[:cut])
    matrix: dict[str, dict[str, float]] = {}
    for train_source in sources:
        bundle = train_bundle(splits[train_source][0], cfg)
        row = {}
        for test_source in sources:
            test_docs = splits[test_source][1]
            responses = resolve_docs(test_docs, bundle)
            pairs = [(corpus_mod.key_partition_doc(d), r) for d, r in zip(test_docs, responses)]
            row[test_source] = _evaluate_pairs(pairs)[cfg.metric]["f1"]
        matrix[train_source] = row
    max_min = {}
    std_dev = {}
    for test_source in sources:
        column = [matrix[t][test_source] for t in sources]
        max_min[test_source] = max(column) - min(column)
        std_dev[test_source] = pstdev(column)
    return {
        "metric": cfg.metric,
        "sources": sources,
        "matrix": matrix,
        "max_min": max_min,
        "std_dev": std_dev,
        "config": _config_record(cfg),
    }


def _config_record(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


# --------------------------------------------------------------------------
# Command-line interface
# --------------------------------------------------------------------------


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per `ExperimentConfig` field, with that field's default."""
    choices = {"family": sorted(FAMILY_CODES), "features": feats.FEATURE_SETS, "loss": ("hinge", "log"),
               "linking": sorted(LINKING_CODES), "anaph": sorted(ANAPH_CODES), "metric": score.METRICS}
    for f in fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, type=type(f.default), choices=choices.get(f.name), default=f.default)


def _cfg_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(**{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)})


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, ensure_ascii=False, indent=1, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_keys(path: str) -> list[PartitionDoc]:
    """A corpus if the first non-blank line is an object with sentences,
    otherwise a partition file, whose loader names a malformed line."""
    with open(path, encoding="utf-8") as fh:
        first = next((line for line in fh if line.strip()), "")
    try:
        rec = json.loads(first)
    except json.JSONDecodeError:
        rec = None
    if isinstance(rec, dict) and "sentences" in rec:
        return [corpus_mod.key_partition_doc(d) for d in corpus_mod.load_corpus(path)]
    return corpus_mod.load_partition_file(path)


def _print_metric_line(name: str, entry: dict) -> None:
    print(
        f"{name:8s} R={entry['recall']:.4f} P={entry['precision']:.4f} F={entry['f1']:.4f}"
    )


def cmd_validate(args) -> None:
    docs = corpus_mod.load_corpus(args.corpus)
    mentions = sum(len(d.mentions) for d in docs)
    print(f"ok: {len(docs)} documents, {mentions} mentions")


def cmd_synth(args) -> None:
    docs = synth.synth_corpus(
        args.docs,
        args.seed,
        pronoun_rate=args.pronoun_rate,
        alias_rate=args.alias_rate,
    )
    corpus_mod.save_corpus(docs, args.out)
    print(f"wrote {len(docs)} documents to {args.out}")


def cmd_train(args) -> None:
    cfg = _cfg_from_args(args)
    if args.dump_instances and FAMILY_CODES[cfg.family] == resolve.HEAD_MATCH:
        raise ValueError(f"--dump-instances: family {cfg.family!r} is not trainable")
    docs = corpus_mod.load_corpus(args.corpus)
    bundle = train_bundle(docs, cfg)
    save_bundle(bundle, args.out)
    if args.dump_instances:
        instances.dump_instances(_gen_train_set(prepare_test_docs(docs, bundle), cfg), args.dump_instances)
    print(f"wrote model bundle to {args.out}")


def cmd_resolve(args) -> None:
    bundle = load_bundle(args.model)
    docs = corpus_mod.load_corpus(args.corpus)
    responses = resolve_docs(docs, bundle)
    corpus_mod.save_partition_file(responses, args.out)
    print(f"wrote {len(responses)} response partitions to {args.out}")


def _report_entry(report: score.ScoreReport) -> dict:
    return {"recall": report.recall, "precision": report.precision, "f1": report.f1}


def cmd_score(args) -> None:
    keys = {pd.doc_id: pd for pd in _load_keys(args.key)}
    responses = _load_keys(args.response)
    pairs = []
    for resp in responses:
        if resp.doc_id not in keys:
            raise ValueError(f"response document {resp.doc_id!r} missing from the key file")
        pairs.append((keys[resp.doc_id], resp))
    # Both files hold each doc_id at most once (the loader checks), so every
    # key document is scored exactly once when none is missing.
    covered = {resp.doc_id for resp in responses}
    missing = next((doc_id for doc_id in keys if doc_id not in covered), None)
    if missing is not None:
        raise ValueError(f"key document {missing!r} missing from the response file")
    b3, ceaf = score.BcubedStats(), score.CeafStats()
    per_doc = {}
    for key, resp in pairs:
        doc_b3, doc_ceaf = score.document_stats(key, resp)
        b3, ceaf = b3 + doc_b3, ceaf + doc_ceaf
        per_doc[resp.doc_id] = {
            score.BCUBED: _report_entry(doc_b3.report()), score.CEAF: _report_entry(doc_ceaf.report())
        }
    report = {
        "bcubed": _report_entry(b3.report()),
        "ceaf": _report_entry(ceaf.report()),
        "counts": {
            "documents": len(pairs),
            "key_mentions": ceaf.key_mentions,
            "response_mentions": ceaf.resp_mentions,
        },
        "per_doc": per_doc,
    }
    for metric in args.metric:
        _print_metric_line(metric, report[metric])
    _write_json(report, args.out)


def cmd_crossval(args) -> None:
    cfg = _cfg_from_args(args)
    docs = corpus_mod.load_corpus(args.corpus)
    report = run_crossval(docs, cfg, outdir=args.models_dir)
    _print_metric_line("bcubed", report["bcubed"])
    _print_metric_line("ceaf", report["ceaf"])
    _write_json(report, args.out)


def cmd_ablate(args) -> None:
    cfg = _cfg_from_args(args)
    docs = corpus_mod.load_corpus(args.corpus)
    trace = run_ablation(docs, cfg)
    _print_ablation_trace(trace)
    _write_json(trace, args.out)


def _print_ablation_trace(trace: dict) -> None:
    order = trace["elimination_order"]
    rounds = trace["rounds"]
    survivors = [name for name in rounds[-1]["scores"] if name != rounds[-1]["eliminated"]]
    columns = survivors + list(reversed(order))
    width = max(12, max(len(c) for c in columns) + 2)
    print(f"full feature set: F={trace['full_score']:.4f} ({trace['metric']})")
    print("".join(c.rjust(width) for c in columns))
    for rnd in rounds:
        cells = []
        for c in columns:
            cells.append(f"{rnd['scores'][c]:.4f}".rjust(width) if c in rnd["scores"] else " " * width)
        print("".join(cells))


def cmd_adapt(args) -> None:
    cfg = _cfg_from_args(args)
    docs = corpus_mod.load_corpus(args.corpus)
    result = run_adaptability(docs, cfg)
    sources = result["sources"]
    width = 10
    print("train\\test".ljust(width) + "".join(s.rjust(width) for s in sources))
    for train_source in sources:
        row = result["matrix"][train_source]
        print(train_source.ljust(width) + "".join(f"{row[s]:.4f}".rjust(width) for s in sources))
    print("Max-Min".ljust(width) + "".join(f"{result['max_min'][s]:.4f}".rjust(width) for s in sources))
    print("Std.Dev".ljust(width) + "".join(f"{result['std_dev'][s]:.4f}".rjust(width) for s in sources))
    _write_json(result, args.out)


def cmd_ilp_resolve(args) -> None:
    bundle = load_bundle(args.model)
    if bundle.family != resolve.MENTION_PAIR or bundle.loss != "log":
        raise ValueError("ilp-resolve requires a log-loss mention-pair bundle")
    if bundle.anaph_model is None:
        raise ValueError("ilp-resolve requires a bundle with an anaphoricity model")
    docs = corpus_mod.load_corpus(args.corpus)
    prepared = prepare_test_docs(docs, bundle)
    responses = []
    for doc in prepared:
        partition = ilp.resolve_ilp(
            doc, bundle.coref_model, bundle.anaph_model, bundle.features, max_vars=args.max_vars
        )
        responses.append(corpus_mod.response_partition_doc(doc, partition))
    corpus_mod.save_partition_file(responses, args.out)
    print(f"wrote {len(responses)} response partitions to {args.out}")


def cmd_classes(args) -> None:
    bundle = load_bundle(args.model)
    docs = corpus_mod.load_corpus(args.corpus)
    prepared = prepare_test_docs(docs, bundle)
    spec = bundle.resolver_spec()
    rows = {}
    for label in score.RESOLUTION_CLASSES:
        result = score.resolution_class_score(prepared, spec, label)
        rows[label] = {
            "f1": result.f1,
            "recall": result.recall,
            "precision": result.precision,
            "mentions": result.mentions,
            "empty": result.empty,
        }
        shown = "EMPTY" if result.empty else f"{result.f1:.4f}"
        print(f"{label:12s} n={result.mentions:5d} F={shown}")
    _write_json({"classes": rows}, args.out)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _unit_rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="corefrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a corpus file")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="emit a seeded synthetic corpus")
    p.add_argument("--docs", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pronoun-rate", type=_unit_rate, default=0.15)
    p.add_argument("--alias-rate", type=_unit_rate, default=0.2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model bundle")
    p.add_argument("corpus")
    _add_experiment_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-instances")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("resolve", help="resolve a corpus with a trained bundle")
    p.add_argument("corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("score", help="score a response file against a key file")
    p.add_argument("key")
    p.add_argument("response")
    p.add_argument("--metric", action="append", choices=score.METRICS, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("crossval", help="stratified cross-validation")
    p.add_argument("corpus")
    _add_experiment_flags(p)
    p.add_argument("--out")
    p.add_argument("--models-dir")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("ablate", help="backward elimination over feature types")
    p.add_argument("corpus")
    _add_experiment_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("adapt", help="train-source x test-source matrix")
    p.add_argument("corpus")
    _add_experiment_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("ilp-resolve", help="joint inference with the exact solver")
    p.add_argument("corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--max-vars", type=_positive_int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ilp_resolve)

    p = sub.add_parser("classes", help="diagnostic scores per resolution class")
    p.add_argument("corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_classes)

    return parser


# Built once, at import: parsing leaves no state in it, and argparse's
# first build imports gettext's locale support.
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if getattr(args, "metric", None) is None and args.command == "score":
        args.metric = list(score.METRICS)
    try:
        args.func(args)
    except Exception as exc:  # surfaced as a machine-readable record
        record = {"error": type(exc).__name__, "detail": str(exc)}
        print(json.dumps(record, ensure_ascii=False), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
