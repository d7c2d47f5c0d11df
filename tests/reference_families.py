"""One instance generator and one link-decision branch per model family,
written out separately, as oracles for the generic
``corefrank.instances._generate`` and ``corefrank.resolve.decide_link``,
the resolution-class diagnostic with its own left-to-right loop, as the
oracle for ``corefrank.score.resolution_class_score``, and the ILP costs
from pair name vectors, as the oracle for ``corefrank.ilp.build_program``.

Tests compare the generic code with them instance by instance (vectors
in order, labels, groups, metadata), decision by decision, class score
by class score and cost by cost.
"""

from __future__ import annotations

from corefrank import feats, ilp, learn
from corefrank.corpus import Document, Partition
from corefrank.instances import CLASSIFY, NULL_CANDIDATE, RANK, Instance, TrainSet
from corefrank.resolve import (
    CLOSEST_FIRST,
    ENTITY_MENTION,
    HEAD_MATCH,
    JOINT,
    MENTION_PAIR,
    MENTION_RANKING,
    PIPELINE,
    ResolverSpec,
)
from corefrank.score import BcubedStats, ClassScore, resolution_class_of


def _group_id(doc: Document, k: int) -> str:
    return f"{doc.doc_id}#{k}"


def _closest_antecedent(doc: Document, k: int) -> int | None:
    cluster = doc.gold_partition.cluster_of(k)
    earlier = [m for m in cluster if m < k]
    return max(earlier) if earlier else None


def _prefix_clusters(doc: Document, k: int) -> list[tuple[int, ...]]:
    """Gold clusters restricted to mentions preceding k, empty ones dropped."""
    out = []
    for cluster in doc.gold_partition.clusters:
        prefix = tuple(m for m in cluster if m < k)
        if prefix:
            out.append(prefix)
    return out


def gen_mention_pair(doc: Document, fs: str) -> TrainSet:
    """One positive instance per anaphoric mention and its closest antecedent,
    one negative per intervening mention."""
    instances = []
    for k in range(len(doc.mentions)):
        j = _closest_antecedent(doc, k)
        if j is None:
            continue
        group = _group_id(doc, k)
        for t in range(j, k):
            label = 1.0 if t == j else -1.0
            instances.append(
                Instance(feats.pair_features(doc, t, k, fs), label, group, (doc.doc_id, k, t))
            )
    return TrainSet.build(instances, CLASSIFY)


def gen_entity_mention(doc: Document, fs: str) -> TrainSet:
    """Positive instance against the anaphor's own gold prefix cluster,
    negatives against every prefix cluster whose last mention lies between
    the anaphor and its closest antecedent."""
    instances = []
    for k in range(len(doc.mentions)):
        j = _closest_antecedent(doc, k)
        if j is None:
            continue
        group = _group_id(doc, k)
        own = tuple(m for m in doc.gold_partition.cluster_of(k) if m < k)
        for cluster in _prefix_clusters(doc, k):
            if cluster == own:
                label = 1.0
            elif j < max(cluster) < k:
                label = -1.0
            else:
                continue
            instances.append(
                Instance(
                    feats.cluster_features(doc, cluster, k, fs),
                    label,
                    group,
                    (doc.doc_id, k, cluster),
                )
            )
    return TrainSet.build(instances, CLASSIFY)


def gen_mention_ranking(doc: Document, fs: str, joint: bool = False) -> TrainSet:
    """Rank candidate antecedents: 2 for the closest antecedent, 1 otherwise.

    Without the joint option the candidate set is identical to the
    mention-pair one.  With it, every mention contributes a group over all
    preceding mentions plus a new-cluster instance ranked 2 iff the mention
    is non-anaphoric.
    """
    instances = []
    for k in range(len(doc.mentions)):
        j = _closest_antecedent(doc, k)
        group = _group_id(doc, k)
        if not joint:
            if j is None:
                continue
            candidates = range(j, k)
        else:
            candidates = range(k)
        for t in candidates:
            label = 2.0 if t == j else 1.0
            instances.append(
                Instance(feats.pair_features(doc, t, k, fs), label, group, (doc.doc_id, k, t))
            )
        if joint:
            label = 2.0 if j is None else 1.0
            instances.append(
                Instance(
                    feats.null_option(doc, k, fs), label, group, (doc.doc_id, k, NULL_CANDIDATE)
                )
            )
    return TrainSet.build(instances, RANK)


def gen_cluster_ranking(doc: Document, fs: str, joint: bool = False) -> TrainSet:
    """Rank all gold prefix clusters: 2 for the cluster the anaphor belongs
    to, 1 otherwise; the joint option adds the new-cluster instance."""
    instances = []
    for k in range(len(doc.mentions)):
        anaphoric = _closest_antecedent(doc, k) is not None
        if not joint and not anaphoric:
            continue
        group = _group_id(doc, k)
        own = tuple(m for m in doc.gold_partition.cluster_of(k) if m < k)
        for cluster in _prefix_clusters(doc, k):
            label = 2.0 if cluster == own else 1.0
            instances.append(
                Instance(
                    feats.cluster_features(doc, cluster, k, fs),
                    label,
                    group,
                    (doc.doc_id, k, cluster),
                )
            )
        if joint:
            label = 1.0 if anaphoric else 2.0
            instances.append(
                Instance(
                    feats.null_option(doc, k, fs), label, group, (doc.doc_id, k, NULL_CANDIDATE)
                )
            )
    return TrainSet.build(instances, RANK)


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


def resolve(doc: Document, spec: ResolverSpec) -> Partition:
    clusters: list[list[int]] = []
    for k in range(len(doc.mentions)):
        choice = decide_link(doc, spec, k, clusters)
        if choice is None:
            clusters.append([k])
        else:
            clusters[choice].append(k)
    return Partition(clusters)


def _oracle_choice(doc: Document, k: int, clusters: list[list[int]], label: str) -> int | None:
    if not doc.anaphoric(k):
        return None
    antecedents = [j for j in doc.gold_partition.cluster_of(k) if j < k]
    outside = [j for j in antecedents if resolution_class_of(doc, j) != label]
    pool = outside or antecedents
    j = max(pool)
    return next(ci for ci, cluster in enumerate(clusters) if j in cluster)


def resolution_class_score(docs: list[Document], spec: ResolverSpec, label: str) -> ClassScore:
    """Class members resolved by the model, every other mention by the
    gold oracle; B3 averaged over the class members."""
    stats = BcubedStats()
    n_members = 0
    for doc in docs:
        members = [k for k in range(len(doc.mentions)) if resolution_class_of(doc, k) == label]
        n_members += len(members)
        if not members:
            continue
        clusters: list[list[int]] = []
        for k in range(len(doc.mentions)):
            if resolution_class_of(doc, k) == label:
                choice = decide_link(doc, spec, k, clusters)
            else:
                choice = _oracle_choice(doc, k, clusters, label)
            if choice is None:
                clusters.append([k])
            else:
                clusters[choice].append(k)
        response = Partition(clusters)
        key_cluster = doc.gold_partition.mention_to_cluster()
        resp_cluster = response.mention_to_cluster()
        for k in members:
            kc = key_cluster[k]
            rc = resp_cluster[k]
            inter = sum(1 for member in rc if member in kc)
            stats.recall_sum += inter / len(kc)
            stats.precision_sum += inter / len(rc)
            stats.universe += 1
    report = stats.report()
    return ClassScore(label, report.recall, report.precision, report.f1, n_members, n_members == 0)


def build_program(
    doc: Document, coref_model: learn.LinearModel, anaph_model: learn.LinearModel, fs: str
) -> ilp.IlpProgram:
    """The ILP costs with every pair probability taken from the pair's name
    vector through ``learn.predict_prob``."""
    n = len(doc.mentions)
    coref_cost = {}
    coref_cost_bar = {}
    for k in range(n):
        for j in range(k):
            p = learn.predict_prob(coref_model, feats.pair_features(doc, j, k, fs))
            coref_cost[(j, k)] = ilp._cost(p)
            coref_cost_bar[(j, k)] = ilp._cost(1.0 - p)
    anaph_cost = {}
    anaph_cost_bar = {}
    for k in range(n):
        p = learn.predict_prob(anaph_model, feats.anaphoricity(doc, k))
        anaph_cost[k] = ilp._cost(p)
        anaph_cost_bar[k] = ilp._cost(1.0 - p)
    return ilp.IlpProgram(doc.doc_id, n, coref_cost, coref_cost_bar, anaph_cost, anaph_cost_bar)
