"""Resolvers: turn trained models into document partitions.

``resolve(doc, spec)`` resolves every family through ``left_to_right``,
which assigns mentions in document order given the clusters built so
far, so the assignment of mention k depends only on mentions before it.
The per-mention choice is a function: ``decide_link`` for ``resolve``;
for the class diagnostic, ``decide_link`` on class members and a gold
oracle elsewhere.

Every family scores its candidates and new-cluster option from the
model's ``(row, value)`` table: the mention families with
``feats.pair_scores``, the cluster families with ``feats.cluster_scores``.
Only training builds name vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import feats, learn
from .corpus import Document, Partition

HEAD_MATCH = "HEAD_MATCH"
MENTION_PAIR = "MENTION_PAIR"
ENTITY_MENTION = "ENTITY_MENTION"
MENTION_RANKING = "MENTION_RANKING"
CLUSTER_RANKING = "CLUSTER_RANKING"
FAMILIES = (HEAD_MATCH, MENTION_PAIR, ENTITY_MENTION, MENTION_RANKING, CLUSTER_RANKING)
CLASSIFIER_FAMILIES = (MENTION_PAIR, ENTITY_MENTION)
RANKING_FAMILIES = (MENTION_RANKING, CLUSTER_RANKING)
CLUSTER_FAMILIES = (ENTITY_MENTION, CLUSTER_RANKING)

CLOSEST_FIRST = "CLOSEST_FIRST"
BEST_FIRST = "BEST_FIRST"
PIPELINE = "PIPELINE"
JOINT = "JOINT"


@dataclass
class ResolverSpec:
    family: str
    fs: str = feats.CONVENTIONAL
    coref_model: learn.LinearModel | None = None
    linking: str = CLOSEST_FIRST
    anaph: str = JOINT
    anaph_model: learn.LinearModel | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown resolver family {self.family!r}")
        if self.family == HEAD_MATCH:
            return
        if self.coref_model is None:
            raise ValueError(f"{self.family} requires a coreference model")
        model_fs = self.coref_model.meta.get("features")
        if model_fs is not None and model_fs != self.fs:
            raise ValueError(
                f"feature-set mismatch: resolver uses {self.fs!r} but the model "
                f"was trained with {model_fs!r}"
            )
        if self.family in CLASSIFIER_FAMILIES:
            if self.linking not in (CLOSEST_FIRST, BEST_FIRST):
                raise ValueError(f"unknown linking regime {self.linking!r}")
        else:
            if self.anaph == PIPELINE and self.anaph_model is None:
                raise ValueError("pipeline ranking requires an anaphoricity model")
            if self.anaph == PIPELINE and self.anaph_model.loss != learn.LOG:
                raise ValueError("the anaphoricity model must be log-loss to provide probabilities")
            if self.anaph == JOINT and self.anaph_model is not None:
                raise ValueError("joint ranking must not carry an anaphoricity model")
            if self.anaph not in (PIPELINE, JOINT):
                raise ValueError(f"unknown anaphoricity mode {self.anaph!r}")


def _gated_out(doc: Document, spec: ResolverSpec, k: int) -> bool:
    if spec.anaph != PIPELINE:
        return False
    return not learn.predict_prob(spec.anaph_model, feats.anaphoricity(doc, k)) > 0.5


def decide_link(doc: Document, spec: ResolverSpec, k: int, clusters: list[list[int]]) -> int | None:
    """Decide which of the current clusters mention k joins, or None to
    start a new one.  ``clusters`` holds the system clusters over mentions
    0..k-1 in creation order, each in ascending order.

    Candidates are the preceding clusters (entity-mention, cluster ranking)
    or the preceding mentions (mention pair, mention ranking), each with its
    cluster and last mention.  A classifier links to the closest positive
    candidate, or to the best one with ties going to the closest, where
    closest means the highest last-mention id.  A ranker takes the best
    candidate, with ties going to the largest token offset of the last
    mention and then to the earlier candidate; preceding mentions are listed
    nearest first, so among mentions this is the closest too.
    """
    if spec.family == HEAD_MATCH:
        table = feats.mention_table(doc)
        hk = table[k].head
        for ci, cluster in enumerate(clusters):
            if any(table[j].head == hk for j in cluster):
                return ci
        return None

    model = spec.coref_model
    ranker = spec.family in RANKING_FAMILIES
    if not clusters or (ranker and _gated_out(doc, spec, k)):
        return None
    # (cluster index, last mention, strength) per candidate, all scored in
    # one pass from the model's (row, value) table; mentions nearest first.
    if spec.family in CLUSTER_FAMILIES:
        scores, null_score = feats.cluster_scores(doc, model, clusters, k, spec.fs)
        keys = [(ci, cluster[-1]) for ci, cluster in enumerate(clusters)]
    else:
        scores, null_score = feats.pair_scores(doc, model, k, spec.fs)
        scores.reverse()
        owner = {j: ci for ci, cluster in enumerate(clusters) for j in cluster}
        keys = [(owner[j], j) for j in reversed(range(k))]
    classify_log = not ranker and model.loss == learn.LOG
    if classify_log:
        scores = [learn.probability(s) for s in scores]
    candidates = [(ci, last, s) for (ci, last), s in zip(keys, scores)]

    if not ranker:
        # A classifier links strictly above its threshold.
        threshold = 0.5 if classify_log else 0.0
        positives = [c for c in candidates if c[2] > threshold]
        if spec.linking == BEST_FIRST and positives:
            best = max(s for _, _, s in positives)
            positives = [p for p in positives if p[2] == best]
        return max(positives, key=lambda p: p[1])[0] if positives else None

    best = max(s for _, _, s in candidates)
    tied = [(ci, last) for ci, last, s in candidates if s == best]
    ci = max(tied, key=lambda t: doc.token_offset(doc.mentions[t[1]]))[0]
    # An exact tie against the new-cluster option resolves to the link.
    if spec.anaph == JOINT and null_score > best:
        return None
    return ci


def left_to_right(doc: Document, choose: Callable[[int, list[list[int]]], int | None]) -> Partition:
    """Assign mentions in document order: ``choose(k, clusters)`` returns
    the index of the cluster mention k joins, or None to start a new one,
    given the clusters over mentions 0..k-1 in creation order."""
    clusters: list[list[int]] = []
    for k in range(len(doc.mentions)):
        choice = choose(k, clusters)
        if choice is None:
            clusters.append([k])
        else:
            clusters[choice].append(k)
    return Partition(clusters)


def resolve(doc: Document, spec: ResolverSpec) -> Partition:
    """Resolve ``doc`` with the family, features and models of ``spec``."""
    return left_to_right(doc, lambda k, clusters: decide_link(doc, spec, k, clusters))


def head_match(doc: Document) -> Partition:
    """Transitive closure of head-string equality."""
    return resolve(doc, ResolverSpec(HEAD_MATCH))


def predicted_anaphoricity(partition: Partition) -> dict[int, bool]:
    """Anaphoricity implied by a resolution: a mention linked to some
    predecessor (not the first of its cluster) counts as anaphoric."""
    return {m: m != min(cluster) for cluster in partition.clusters for m in cluster}
