"""Resolvers: turn trained models into document partitions.

All resolvers process mentions left to right and maintain the clusters
built so far, so the assignment of mention k depends only on mentions
before it.  ``decide_link`` exposes the single-mention decision procedure,
which the diagnostic class scorer reuses with oracle overrides.
"""

from __future__ import annotations

from dataclasses import dataclass

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
            if self.anaph == JOINT and self.anaph_model is not None:
                raise ValueError("joint ranking must not carry an anaphoricity model")
            if self.anaph not in (PIPELINE, JOINT):
                raise ValueError(f"unknown anaphoricity mode {self.anaph!r}")


def _positive(model: learn.LinearModel, vec: dict[str, float]) -> bool:
    """Coreference decision of a classifier: strictly above the threshold."""
    if model.loss == learn.LOG:
        return learn.predict_prob(model, vec) > 0.5
    return learn.score(model, vec) > 0.0


def _strength(model: learn.LinearModel, vec: dict[str, float]) -> float:
    if model.loss == learn.LOG:
        return learn.predict_prob(model, vec)
    return learn.score(model, vec)


def _cluster_distance(doc: Document, cluster: list[int], k: int) -> int:
    """Token-offset distance from mention k back to the cluster's last mention."""
    last = max(cluster)
    return doc.token_offset(doc.mentions[k]) - doc.token_offset(doc.mentions[last])


def _gated_out(doc: Document, spec: ResolverSpec, k: int) -> bool:
    if spec.anaph != PIPELINE:
        return False
    vec = feats.anaphoricity(doc, k)
    return not _positive(spec.anaph_model, vec)


def decide_link(doc: Document, spec: ResolverSpec, k: int, clusters: list[list[int]]) -> int | None:
    """Decide which of the current clusters mention k joins, or None to
    start a new one.  ``clusters`` holds the system clusters over mentions
    0..k-1 in creation order."""
    if spec.family == HEAD_MATCH:
        table = feats.mention_table(doc)
        hk = table[k].head
        for ci, cluster in enumerate(clusters):
            if any(table[j].head == hk for j in cluster):
                return ci
        return None

    if spec.family == MENTION_PAIR:
        positives = []
        for j in range(k):
            vec = feats.pair_features(doc, j, k, spec.fs)
            if _positive(spec.coref_model, vec):
                positives.append((j, _strength(spec.coref_model, vec)))
        if not positives:
            return None
        if spec.linking == CLOSEST_FIRST:
            j = max(p[0] for p in positives)
        else:
            best = max(s for _, s in positives)
            j = max(j for j, s in positives if s == best)
        return next(ci for ci, cluster in enumerate(clusters) if j in cluster)

    if spec.family == ENTITY_MENTION:
        positives = []
        for ci, cluster in enumerate(clusters):
            vec = feats.cluster_features(doc, cluster, k, spec.fs)
            if _positive(spec.coref_model, vec):
                positives.append((ci, max(cluster), _strength(spec.coref_model, vec)))
        if not positives:
            return None
        if spec.linking == CLOSEST_FIRST:
            return max(positives, key=lambda p: p[1])[0]
        best = max(s for _, _, s in positives)
        return max((p for p in positives if p[2] == best), key=lambda p: p[1])[0]

    if spec.family == MENTION_RANKING:
        if k == 0 or _gated_out(doc, spec, k):
            return None
        scores = [
            (j, learn.score(spec.coref_model, feats.pair_features(doc, j, k, spec.fs)))
            for j in range(k)
        ]
        best = max(s for _, s in scores)
        j = max(j for j, s in scores if s == best)  # ties toward the closest
        if spec.anaph == JOINT:
            null_score = learn.score(spec.coref_model, feats.null_option(doc, k, spec.fs))
            # An exact tie against the new-cluster option resolves to the link.
            if null_score > best:
                return None
        return next(ci for ci, cluster in enumerate(clusters) if j in cluster)

    # CLUSTER_RANKING
    if not clusters or _gated_out(doc, spec, k):
        return None
    scores = [
        (ci, learn.score(spec.coref_model, feats.cluster_features(doc, cluster, k, spec.fs)))
        for ci, cluster in enumerate(clusters)
    ]
    best = max(s for _, s in scores)
    tied = [ci for ci, s in scores if s == best]
    ci = min(tied, key=lambda c: _cluster_distance(doc, clusters[c], k))
    if spec.anaph == JOINT:
        null_score = learn.score(spec.coref_model, feats.null_option(doc, k, spec.fs))
        if null_score > best:
            return None
    return ci


def _run(doc: Document, spec: ResolverSpec) -> Partition:
    clusters: list[list[int]] = []
    for k in range(len(doc.mentions)):
        choice = decide_link(doc, spec, k, clusters)
        if choice is None:
            clusters.append([k])
        else:
            clusters[choice].append(k)
    return Partition(clusters)


def head_match(doc: Document) -> Partition:
    """Transitive closure of head-string equality."""
    return _run(doc, ResolverSpec(HEAD_MATCH))


def resolve_mention_pair(doc: Document, spec: ResolverSpec) -> Partition:
    if spec.family != MENTION_PAIR:
        raise ValueError(f"expected a MENTION_PAIR spec, got {spec.family}")
    return _run(doc, spec)


def resolve_entity_mention(doc: Document, spec: ResolverSpec) -> Partition:
    if spec.family != ENTITY_MENTION:
        raise ValueError(f"expected an ENTITY_MENTION spec, got {spec.family}")
    return _run(doc, spec)


def resolve_mention_ranking(doc: Document, spec: ResolverSpec) -> Partition:
    if spec.family != MENTION_RANKING:
        raise ValueError(f"expected a MENTION_RANKING spec, got {spec.family}")
    return _run(doc, spec)


def resolve_cluster_ranking(doc: Document, spec: ResolverSpec) -> Partition:
    if spec.family != CLUSTER_RANKING:
        raise ValueError(f"expected a CLUSTER_RANKING spec, got {spec.family}")
    return _run(doc, spec)


def resolve(doc: Document, spec: ResolverSpec) -> Partition:
    """Dispatch to the resolver for the configured family."""
    return _run(doc, spec)


def predicted_anaphoricity(partition: Partition) -> dict[int, bool]:
    """Anaphoricity implied by a resolution: a mention linked to some
    predecessor (not the first of its cluster) counts as anaphoric."""
    return {m: m != min(cluster) for cluster in partition.clusters for m in cluster}
