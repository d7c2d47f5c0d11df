"""Training-instance generation for the four coreference models and the
anaphoricity classifier.

Classification instances carry labels in {+1, -1}; ranking instances carry
rank values in {1, 2} where 2 marks the correct choice within a group.
Groups are keyed by ``doc_id#k`` so a ranker never forms pairs across
different active mentions.

Training-time candidate clusters are gold prefix clusters: each gold
cluster intersected with the mentions preceding the active one.  Test-time
clusters are system-built and live in the resolver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from . import feats
from .corpus import Document

CLASSIFY = "CLASSIFY"
RANK = "RANK"

NULL_CANDIDATE = "NULL"


@dataclass
class Instance:
    vec: dict[str, float]
    label: float
    group: str
    meta: tuple


@dataclass
class TrainSet:
    instances: list[Instance]
    feature_vocab: list[str]
    kind: str

    @classmethod
    def build(cls, instances: list[Instance], kind: str) -> "TrainSet":
        vocab: dict[str, None] = {}
        for inst in instances:
            for name in inst.vec:
                vocab.setdefault(name)
        return cls(instances, list(vocab), kind)

    def groups(self) -> dict[str, list[Instance]]:
        out: dict[str, list[Instance]] = {}
        for inst in self.instances:
            out.setdefault(inst.group, []).append(inst)
        return out


def merge(train_sets: Iterable[TrainSet]) -> TrainSet:
    sets = list(train_sets)
    if not sets:
        raise ValueError("cannot merge zero train sets")
    kinds = {ts.kind for ts in sets}
    if len(kinds) != 1:
        raise ValueError(f"cannot merge train sets of different kinds: {kinds}")
    instances = [inst for ts in sets for inst in ts.instances]
    vocab = dict.fromkeys(name for ts in sets for name in ts.feature_vocab)
    return TrainSet(instances, list(vocab), kinds.pop())


def _group_id(doc: Document, k: int) -> str:
    return f"{doc.doc_id}#{k}"


def _closest_antecedent(doc: Document, k: int) -> int | None:
    cluster = doc.gold_partition.cluster_of(k)
    earlier = [m for m in cluster if m < k]
    return max(earlier) if earlier else None


def _generate(doc: Document, fs: str, over_clusters: bool, kind: str, joint: bool) -> TrainSet:
    """Instances of one model family, built from its two choices.

    Candidates for mention k are the preceding mentions in ascending order,
    or (``over_clusters``) the gold prefix clusters in gold order; each has
    a last mention and is correct iff it holds the closest antecedent j.
    Without ``joint`` only anaphoric mentions get a group.  Classifiers and
    the mention ranker without ``joint`` skip candidates whose last mention
    precedes j; ``joint`` adds the new-cluster instance, correct iff k is
    non-anaphoric.  Labels are +1/-1 for CLASSIFY and 2/1 for RANK.
    """
    good, bad = (1.0, -1.0) if kind == CLASSIFY else (2.0, 1.0)
    keep_all = joint or (over_clusters and kind == RANK)
    featurize = feats.cluster_features if over_clusters else feats.pair_features
    instances = []
    for k in range(len(doc.mentions)):
        j = _closest_antecedent(doc, k)
        if j is None and not joint:
            continue
        group = _group_id(doc, k)
        if over_clusters:
            prefixes = (tuple(m for m in c if m < k) for c in doc.gold_partition.clusters)
            candidates = [(c, max(c), j in c) for c in prefixes if c]
        else:
            candidates = [(t, t, t == j) for t in range(k)]
        for cand, last, correct in candidates:
            if keep_all or last >= j:
                label = good if correct else bad
                instances.append(Instance(featurize(doc, cand, k, fs), label, group, (doc.doc_id, k, cand)))
        if joint:
            label = good if j is None else bad
            instances.append(
                Instance(feats.null_option(doc, k, fs), label, group, (doc.doc_id, k, NULL_CANDIDATE))
            )
    return TrainSet.build(instances, kind)


def gen_mention_pair(doc: Document, fs: str) -> TrainSet:
    """One positive instance per anaphoric mention and its closest antecedent,
    one negative per intervening mention."""
    return _generate(doc, fs, over_clusters=False, kind=CLASSIFY, joint=False)


def gen_entity_mention(doc: Document, fs: str) -> TrainSet:
    """Positive instance against the anaphor's own gold prefix cluster,
    negatives against every prefix cluster whose last mention lies between
    the anaphor and its closest antecedent."""
    return _generate(doc, fs, over_clusters=True, kind=CLASSIFY, joint=False)


def gen_mention_ranking(doc: Document, fs: str, joint: bool = False) -> TrainSet:
    """Rank candidate antecedents: 2 for the closest antecedent, 1 otherwise.

    Without the joint option the candidate set is identical to the
    mention-pair one.  With it, every mention contributes a group over all
    preceding mentions plus a new-cluster instance ranked 2 iff the mention
    is non-anaphoric.
    """
    return _generate(doc, fs, over_clusters=False, kind=RANK, joint=joint)


def gen_cluster_ranking(doc: Document, fs: str, joint: bool = False) -> TrainSet:
    """Rank all gold prefix clusters: 2 for the cluster the anaphor belongs
    to, 1 otherwise; the joint option adds the new-cluster instance."""
    return _generate(doc, fs, over_clusters=True, kind=RANK, joint=joint)


def gen_anaphoricity(doc: Document) -> TrainSet:
    """One instance per mention, positive iff it has a coreferent predecessor."""
    instances = []
    for k in range(len(doc.mentions)):
        label = 1.0 if doc.anaphoric(k) else -1.0
        instances.append(
            Instance(feats.anaphoricity(doc, k), label, _group_id(doc, k), (doc.doc_id, k, None))
        )
    return TrainSet.build(instances, CLASSIFY)


def dump_instances(ts: TrainSet, path: str) -> None:
    """Write one record per instance for debugging and golden tests."""
    with open(path, "w", encoding="utf-8") as fh:
        for inst in ts.instances:
            rec = {
                "group": inst.group,
                "label": inst.label,
                "features": sorted(inst.vec.items()),
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
