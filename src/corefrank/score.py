"""Coreference evaluation.

Two metrics over a key (gold) and a response (system) partition:

* B3 averages per-mention recall |R_m & K_m| / |K_m| and precision
  |R_m & K_m| / |R_m|.  A mention with no exact-span twin on the other
  side scores zero for both.  The averaging universe is the union of key
  mentions and retained response mentions, each identity counted once.
* CEAF (intersection-size variant) aligns clusters one-to-one with the
  Kuhn-Munkres algorithm (``kuhn_munkres``, in plain Python); recall
  divides the total aligned intersection by the key mention count,
  precision by the response mention count.  The intersections are
  integers, so every optimal alignment gives the same exact total.

Before scoring, response mentions that are both twinless and singleton
clusters are removed; twinless non-singletons stay and are penalized.

The module also houses anaphoricity metrics, the diagnostic scoring of
resolution classes with an oracle for out-of-class mentions, and the
paired t-test used for significance reporting, the only user of scipy
(``scipy.stats``, imported on first use).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pronouns
from . import resolve as resolve_mod
from .corpus import Document, Partition, PartitionDoc, pronoun_entry

BCUBED = "bcubed"
CEAF = "ceaf"
METRICS = (BCUBED, CEAF)


@dataclass
class ScoreReport:
    metric: str
    recall: float
    precision: float
    f1: float


def _f1(recall: float, precision: float) -> float:
    if recall + precision == 0.0:
        return 0.0
    return 2.0 * recall * precision / (recall + precision)


@dataclass
class MentionAlignment:
    """Exact-span alignment between response and key mentions."""

    resp_to_key: dict[int, int]
    key_to_resp: dict[int, int]
    twinless_key: set[int]
    twinless_resp: set[int]


def align_mentions(key: PartitionDoc, resp: PartitionDoc) -> MentionAlignment:
    """Align by exact (sentence, start, end) span equality; everything
    else is twinless."""
    if key.doc_id != resp.doc_id:
        raise ValueError(f"document mismatch: {key.doc_id!r} vs {resp.doc_id!r}")
    by_span = {span: mid for mid, span in key.spans.items()}
    resp_to_key = {}
    for mid, span in resp.spans.items():
        twin = by_span.get(span)
        if twin is not None:
            resp_to_key[mid] = twin
    key_to_resp = {k: r for r, k in resp_to_key.items()}
    return MentionAlignment(
        resp_to_key,
        key_to_resp,
        twinless_key=set(key.spans) - set(key_to_resp),
        twinless_resp=set(resp.spans) - set(resp_to_key),
    )


def preprocess_response(key: PartitionDoc, resp: PartitionDoc) -> PartitionDoc:
    """Remove all and only the response mentions that are both twinless
    and singletons; the resolver already got them right and should not be
    penalized for them."""
    alignment = align_mentions(key, resp)
    removed = {
        cluster[0]
        for cluster in resp.partition.clusters
        if len(cluster) == 1 and cluster[0] in alignment.twinless_resp
    }
    if not removed:
        return resp
    spans = {mid: span for mid, span in resp.spans.items() if mid not in removed}
    clusters = [c for c in resp.partition.clusters if not (len(c) == 1 and c[0] in removed)]
    return PartitionDoc(resp.doc_id, spans, Partition(clusters))


# --------------------------------------------------------------------------
# B3
# --------------------------------------------------------------------------


@dataclass
class BcubedStats:
    """Micro-aggregatable per-mention sums."""

    recall_sum: float = 0.0
    precision_sum: float = 0.0
    universe: int = 0

    def __add__(self, other: "BcubedStats") -> "BcubedStats":
        return BcubedStats(
            self.recall_sum + other.recall_sum,
            self.precision_sum + other.precision_sum,
            self.universe + other.universe,
        )

    def report(self) -> ScoreReport:
        if self.universe == 0:
            return ScoreReport(BCUBED, 0.0, 0.0, 0.0)
        recall = self.recall_sum / self.universe
        precision = self.precision_sum / self.universe
        return ScoreReport(BCUBED, recall, precision, _f1(recall, precision))


def bcubed_stats(
    key: Partition, response: Partition, alignment: MentionAlignment
) -> BcubedStats:
    key_cluster = key.mention_to_cluster()
    resp_cluster = response.mention_to_cluster()
    stats_ = BcubedStats()
    for km in sorted(key.universe()):
        rm = alignment.key_to_resp.get(km)
        if rm is None or rm not in resp_cluster:
            stats_.universe += 1  # twinless key mention: scores zero
            continue
        kc = key_cluster[km]
        rc = resp_cluster[rm]
        inter = sum(1 for member in rc if alignment.resp_to_key.get(member) in kc)
        stats_.recall_sum += inter / len(kc)
        stats_.precision_sum += inter / len(rc)
        stats_.universe += 1
    for rm in sorted(response.universe()):
        if alignment.resp_to_key.get(rm) in key_cluster:
            continue  # aligned identity already counted on the key side
        stats_.universe += 1  # retained twinless response mention: zero scores
    return stats_


def bcubed(key: Partition, response: Partition, alignment: MentionAlignment) -> ScoreReport:
    """B3 report; ``preprocess_response`` must already have been applied."""
    return bcubed_stats(key, response, alignment).report()


# --------------------------------------------------------------------------
# CEAF
# --------------------------------------------------------------------------


def kuhn_munkres(score_matrix) -> tuple[list[tuple[int, int]], float]:
    """Maximum-score one-to-one partial assignment of rows to columns.

    Returns the assignment pairs, one per row or per column (whichever are
    fewer) and sorted by row, and the total score.  Shortest augmenting
    paths with row and column potentials (the Hungarian method), O(n^2 m)
    for n <= m; a matrix with more rows than columns is solved transposed.
    On integer scores every step is exact, so the total is the exact
    optimum however ties are broken.
    """
    matrix = [list(row) for row in score_matrix]
    if not matrix or not matrix[0]:
        return [], 0.0
    transposed = len(matrix) > len(matrix[0])
    # minimize the negated scores; rows and columns are numbered from 1,
    # and column 0 is where each row's search for a free column starts
    cost = [[-x for x in row] for row in (zip(*matrix) if transposed else matrix)]
    n, m = len(cost), len(cost[0])
    u = [0] * (n + 1)
    v = [0] * (m + 1)
    owner = [0] * (m + 1)  # the row assigned to each column, 0 if none
    way = [0] * (m + 1)  # the previous column on the shortest path
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        dist = [math.inf] * (m + 1)
        used = [False] * (m + 1)
        while owner[j0]:
            used[j0] = True
            row = cost[owner[j0] - 1]
            u0 = u[owner[j0]]
            delta, j1 = math.inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = row[j - 1] - u0 - v[j]
                    if reduced < dist[j]:
                        dist[j], way[j] = reduced, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(m + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
        while j0:  # flip the assignments along the path
            owner[j0] = owner[way[j0]]
            j0 = way[j0]
    pairs = [(owner[j] - 1, j - 1) for j in range(1, m + 1) if owner[j]]
    pairs = sorted((c, r) for r, c in pairs) if transposed else sorted(pairs)
    return pairs, float(sum(matrix[r][c] for r, c in pairs))


@dataclass
class CeafStats:
    matched: float = 0.0
    key_mentions: int = 0
    resp_mentions: int = 0

    def __add__(self, other: "CeafStats") -> "CeafStats":
        return CeafStats(
            self.matched + other.matched,
            self.key_mentions + other.key_mentions,
            self.resp_mentions + other.resp_mentions,
        )

    def report(self) -> ScoreReport:
        recall = self.matched / self.key_mentions if self.key_mentions else 0.0
        precision = self.matched / self.resp_mentions if self.resp_mentions else 0.0
        return ScoreReport(CEAF, recall, precision, _f1(recall, precision))


def ceaf_stats(key: Partition, response: Partition, alignment: MentionAlignment) -> CeafStats:
    key_index = {m: i for i, kc in enumerate(key.clusters) for m in kc}
    # |key cluster i & response cluster j|, counted in one pass over the response
    matrix = [[0] * len(response.clusters) for _ in key.clusters]
    for j, rc in enumerate(response.clusters):
        for member in rc:
            i = key_index.get(alignment.resp_to_key.get(member))
            if i is not None:
                matrix[i][j] += 1
    _, matched = kuhn_munkres(matrix)
    return CeafStats(matched, len(key.universe()), len(response.universe()))


def ceaf_phi3(key: Partition, response: Partition, alignment: MentionAlignment) -> ScoreReport:
    """CEAF report under the intersection-size cluster similarity;
    ``preprocess_response`` must already have been applied."""
    return ceaf_stats(key, response, alignment).report()


def document_stats(key: PartitionDoc, resp: PartitionDoc) -> tuple[BcubedStats, CeafStats]:
    """B3 and CEAF stats of one document, in `METRICS` order, preprocessed and aligned once."""
    resp = preprocess_response(key, resp)
    alignment = align_mentions(key, resp)
    return (
        bcubed_stats(key.partition, resp.partition, alignment),
        ceaf_stats(key.partition, resp.partition, alignment),
    )


def score_pair(key: PartitionDoc, resp: PartitionDoc, metric: str) -> ScoreReport:
    """Convenience wrapper: preprocess, align, and score one document."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    return document_stats(key, resp)[METRICS.index(metric)].report()


def corpus_stats(
    pairs: list[tuple[PartitionDoc, PartitionDoc]]
) -> tuple[BcubedStats, CeafStats]:
    """Micro-aggregated stats over (key, response) document pairs."""
    b3 = BcubedStats()
    ceaf = CeafStats()
    for key, resp in pairs:
        doc_b3, doc_ceaf = document_stats(key, resp)
        b3, ceaf = b3 + doc_b3, ceaf + doc_ceaf
    return b3, ceaf


# --------------------------------------------------------------------------
# Anaphoricity metrics
# --------------------------------------------------------------------------


@dataclass
class AnaphReport:
    accuracy: float
    recall: float
    precision: float
    f1: float


def anaphoricity_metrics(predicted: list[bool], gold: list[bool]) -> AnaphReport:
    """Accuracy over all mentions plus R/P/F on the anaphoric class."""
    if len(predicted) != len(gold):
        raise ValueError("predicted and gold anaphoricity must cover the same mentions")
    tp = sum(1 for p, g in zip(predicted, gold) if p and g)
    fp = sum(1 for p, g in zip(predicted, gold) if p and not g)
    fn = sum(1 for p, g in zip(predicted, gold) if not p and g)
    tn = len(gold) - tp - fp - fn
    accuracy = (tp + tn) / len(gold) if gold else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    return AnaphReport(accuracy, recall, precision, _f1(recall, precision))


# --------------------------------------------------------------------------
# Resolution classes
# --------------------------------------------------------------------------

RESOLUTION_CLASSES = (
    "proper-e",
    "proper-p",
    "proper-n",
    "proper-na",
    "common-e",
    "common-p",
    "common-n",
    "common-na",
    "1+2",
    "G3",
    "U3",
    "oa",
    "pronoun-na",
)

_CLASS_STOPWORDS = {"a", "an", "the", "this", "that", "these", "those"}


def _content_words(doc: Document, mid: int) -> set[str]:
    """Tokens that are neither determiners nor pronoun forms, lowercased."""
    m = doc.mentions[mid]
    if m.mtype == "PRONOUN":
        return set()
    return {
        t.lower()
        for t in doc.mention_tokens(m)
        if t.lower() not in _CLASS_STOPWORDS and pronouns.lookup(t) is None
    }


def resolution_class_of(doc: Document, k: int) -> str:
    """One of the 13 diagnostic classes for mention k."""
    mk = doc.mentions[k]
    anaphoric = doc.anaphoric(k)
    if mk.mtype == "PRONOUN":
        if not anaphoric:
            return "pronoun-na"
        entry = pronoun_entry(doc, mk)
        if entry is None:
            return "oa"
        if entry.person in (1, 2):
            return "1+2"
        if entry.gender in ("MALE", "FEMALE"):
            return "G3"
        return "U3"
    prefix = "proper" if mk.mtype == "PROPER" else "common"
    if not anaphoric:
        return f"{prefix}-na"
    antecedents = [j for j in doc.gold_partition.cluster_of(k) if j < k]
    text_k = doc.text(mk)
    if any(doc.text(doc.mentions[j]) == text_k for j in antecedents):
        return f"{prefix}-e"
    words_k = _content_words(doc, k)
    if any(words_k & _content_words(doc, j) for j in antecedents):
        return f"{prefix}-p"
    return f"{prefix}-n"


def _oracle_choice(doc: Document, k: int, clusters: list[list[int]], in_class: set[int]) -> int | None:
    """Correct resolution for an out-of-class mention, preferring the
    closest cluster holding an antecedent outside the scored class."""
    if not doc.anaphoric(k):
        return None
    antecedents = [j for j in doc.gold_partition.cluster_of(k) if j < k]
    outside = [j for j in antecedents if j not in in_class]
    pool = outside or antecedents
    j = max(pool)
    return next(ci for ci, cluster in enumerate(clusters) if j in cluster)


def resolution_class_score(
    docs: list[Document], spec: "resolve_mod.ResolverSpec", label: str
):
    """B3 F-score for one resolution class.

    Mentions of the class are resolved by the model; everything else is
    resolved correctly by an oracle, so remaining errors are attributable
    to the class.  The per-mention scores are averaged over class members
    only.  Returns a ClassScore flagged empty when the class never occurs.
    """
    if label not in RESOLUTION_CLASSES:
        raise ValueError(f"unknown resolution class {label!r}")
    stats_ = BcubedStats()
    n_members = 0
    for doc in docs:
        members = [k for k in range(len(doc.mentions)) if resolution_class_of(doc, k) == label]
        n_members += len(members)
        if not members:
            continue
        in_class = set(members)

        def choose(k: int, clusters: list[list[int]]) -> int | None:
            if k in in_class:
                return resolve_mod.decide_link(doc, spec, k, clusters)
            return _oracle_choice(doc, k, clusters, in_class)

        response = resolve_mod.left_to_right(doc, choose)
        key_cluster = doc.gold_partition.mention_to_cluster()
        resp_cluster = response.mention_to_cluster()
        for k in members:
            kc = key_cluster[k]
            rc = resp_cluster[k]
            inter = sum(1 for member in rc if member in kc)
            stats_.recall_sum += inter / len(kc)
            stats_.precision_sum += inter / len(rc)
            stats_.universe += 1
    report = stats_.report()
    return ClassScore(
        label=label,
        recall=report.recall,
        precision=report.precision,
        f1=report.f1,
        mentions=n_members,
        empty=n_members == 0,
    )


@dataclass
class ClassScore:
    label: str
    recall: float
    precision: float
    f1: float
    mentions: int
    empty: bool


# --------------------------------------------------------------------------
# Paired t-test
# --------------------------------------------------------------------------


@dataclass
class TTestResult:
    t: float
    p_value: float
    degenerate: bool


def paired_t_test(a: list[float], b: list[float]) -> TTestResult:
    """Two-sided paired t-test on per-document scores.

    Zero-variance differences (including a == b) are flagged degenerate
    and reported with p = 1 rather than a spurious significance.
    """
    if len(a) != len(b):
        raise ValueError("paired t-test requires equally long score lists")
    if len(a) < 2:
        raise ValueError("paired t-test requires at least two pairs")
    diffs = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    sd = float(diffs.std(ddof=1))
    # Constant differences only reach exact zero variance in exact
    # arithmetic; under floats, variance at rounding scale is degenerate too.
    if sd <= 1e-12 * max(1.0, float(np.abs(diffs).max())):
        return TTestResult(0.0, 1.0, True)
    # Imported on first use: scipy.stats takes about half a second to
    # import and nothing else in the package needs it.
    from scipy import stats

    n = len(diffs)
    t = float(diffs.mean()) / (sd / math.sqrt(n))
    p = 2.0 * float(stats.t.sf(abs(t), df=n - 1))
    return TTestResult(t, p, False)
