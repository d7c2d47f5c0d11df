"""Backward elimination in which every retrain goes through
`train_bundle` with a feature filter and `eval_split`, so each one
rebuilds the train set, the unseen marking, the anaphoricity model and
the prepared test docs.  Kept as the oracle for
``corefrank.cli.run_ablation`` and ``corefrank.cli.train_bundle``; tests
compare reports and bundle records byte for byte.
"""

from __future__ import annotations

from typing import Callable, Sequence

from corefrank import instances, learn, resolve
from corefrank import corpus as corpus_mod
from corefrank.cli import (
    ANAPH_CODES,
    FAMILY_CODES,
    LINKING_CODES,
    ExperimentConfig,
    FeatureTypeGroup,
    ModelBundle,
    _anaphoricity_report,
    _config_record,
    _evaluate_pairs,
    _gen_train_set,
    default_groups,
    resolve_docs,
    stratified_folds,
)
from corefrank.corpus import Document


def _filter_train_set(ts: instances.TrainSet, keep: Callable[[str], bool]) -> instances.TrainSet:
    filtered = [
        instances.Instance({n: v for n, v in inst.vec.items() if keep(n)}, inst.label, inst.group, inst.meta)
        for inst in ts.instances
    ]
    return instances.TrainSet.build(filtered, ts.kind)


def train_bundle(
    docs: Sequence[Document],
    cfg: ExperimentConfig,
    feature_filter: Callable[[str], bool] | None = None,
) -> ModelBundle:
    """Train the coreference model for the configured family, plus an
    anaphoricity classifier whenever the architecture can use one."""
    family = FAMILY_CODES[cfg.family]
    vocab = None
    train_docs = list(docs)
    if cfg.uses_lexical():
        train_docs = corpus_mod.unseen_train(train_docs, cfg.unseen_rate, cfg.seed)
        vocab = corpus_mod.surface_vocab(train_docs)
    tcfg = cfg.trainer_config()
    coref_model = None
    if family != resolve.HEAD_MATCH:
        ts = _gen_train_set(train_docs, cfg)
        if feature_filter is not None:
            ts = _filter_train_set(ts, feature_filter)
        meta = {"features": cfg.features, "family": cfg.family}
        if vocab is not None:
            meta["unseen_vocab"] = sorted(vocab)
        if ts.kind == instances.RANK:
            trainer = learn.train_hinge_ranker if cfg.loss == "hinge" else learn.train_log_ranker
        else:
            trainer = learn.train_hinge_classifier if cfg.loss == "hinge" else learn.train_log_classifier
        coref_model = trainer(ts, tcfg, meta)
    anaph_model = None
    joint_ranker = family in resolve.RANKING_FAMILIES and ANAPH_CODES[cfg.anaph] == resolve.JOINT
    if family != resolve.HEAD_MATCH and not joint_ranker:
        anaph_ts = instances.merge([instances.gen_anaphoricity(doc) for doc in train_docs])
        anaph_model = learn.train_log_classifier(anaph_ts, tcfg, {"family": "anaphoricity"})
    return ModelBundle(
        family=family,
        features=cfg.features,
        loss=cfg.loss,
        linking=LINKING_CODES[cfg.linking],
        anaph=ANAPH_CODES[cfg.anaph],
        coref_model=coref_model,
        anaph_model=anaph_model,
        unseen_vocab=vocab,
        config={"c": cfg.c, "epochs": cfg.epochs, "seed": cfg.seed, "unseen_rate": cfg.unseen_rate},
    )


def eval_split(
    train_docs: Sequence[Document], test_docs: Sequence[Document], cfg: ExperimentConfig,
    feature_filter: Callable[[str], bool] | None = None,
) -> dict:
    bundle = train_bundle(train_docs, cfg, feature_filter)
    responses = resolve_docs(test_docs, bundle)
    pairs = [(corpus_mod.key_partition_doc(doc), resp) for doc, resp in zip(test_docs, responses)]
    report = _evaluate_pairs(pairs)
    report["anaphoricity"] = _anaphoricity_report(test_docs, responses)
    return report


def run_ablation(
    docs: Sequence[Document], cfg: ExperimentConfig, groups: list[FeatureTypeGroup] | None = None
) -> dict:
    """Backward elimination over feature types.

    Each round retrains with every remaining group removed in turn and
    permanently drops the group whose removal scores best.
    """
    if groups is None:
        groups = default_groups(cfg.features)
    if len(groups) < 2:
        raise ValueError("ablation requires at least two feature-type groups")
    assignment = stratified_folds(docs, cfg.folds, cfg.seed)
    train_docs = [doc for doc, f in zip(docs, assignment) if f != 0]
    test_docs = [doc for doc, f in zip(docs, assignment) if f == 0]

    def evaluate(removed: set[str]) -> float:
        active = [g for g in groups if g.name not in removed]

        def keep(name: str) -> bool:
            return any(g.predicate(name) for g in active)

        report = eval_split(train_docs, test_docs, cfg, feature_filter=keep)
        return report[cfg.metric]["f1"]

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
