"""Joint inference over anaphoricity and pairwise coreference decisions.

The 0/1 program has one variable y_k per mention (anaphoric or not) and
one variable x_(j,k) per ordered pair j < k (coreferent or not).  Costs
are negative log probabilities from independently trained log-loss
models, and the feasible set couples the variables per mention:

    x_(j,k) <= y_k                (a linked mention is anaphoric)
    y_k <= sum_j x_(j,k)          (an anaphoric mention links somewhere)

The third published family (non-anaphoric mentions link nowhere) is the
contrapositive of the first and needs no separate constraints.

Each x_(j,k) appears only in mention k's constraints, and the objective is
a sum of per-variable costs.  The program therefore splits into one
independent problem per mention over y_k and its links x_(0,k)..x_(k-1,k),
and the sum of the per-mention optima is the global optimum.  Each
per-mention problem has two cases (y_k = 0 forces every link off; y_k = 1
lets every link take its cheaper value, subject to at least one being on),
so the exact solve is a single O(n^2) pass.  It is certified against
exhaustive enumeration and cross-checked against a MILP solver.

The pair costs come from ``feats.pair_scores``, which reads each pair's
score from the coreference model's ``(row, value)`` table, so building a
program formats no pair feature names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import feats, learn
from .corpus import Document, Partition

PROB_CLAMP = 1e-6


@dataclass
class IlpProgram:
    doc_id: str
    n: int
    coref_cost: dict[tuple[int, int], float]
    coref_cost_bar: dict[tuple[int, int], float]
    anaph_cost: dict[int, float]
    anaph_cost_bar: dict[int, float]

    def n_variables(self) -> int:
        return len(self.coref_cost) + self.n

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.coref_cost)


@dataclass
class IlpSolution:
    x: dict[tuple[int, int], int]
    y: dict[int, int]
    objective: float


def _cost(prob: float) -> float:
    return -math.log(min(max(prob, PROB_CLAMP), 1.0 - PROB_CLAMP))


def build_program(
    doc: Document,
    coref_model: learn.LinearModel,
    anaph_model: learn.LinearModel,
    fs: str = feats.CONVENTIONAL,
) -> IlpProgram:
    """Assemble assignment costs from the two probabilistic models.

    Pair probabilities come from the mention-pair scores of ``fs`` for
    every ordered pair (``feats.pair_scores``, read from the coreference
    model's ``(row, value)`` table); anaphoricity probabilities come from
    the anaphoricity feature set.
    """
    for name, model in (("coreference", coref_model), ("anaphoricity", anaph_model)):
        if model.loss != learn.LOG:
            raise ValueError(f"the {name} model must be log-loss to provide probabilities")
    n = len(doc.mentions)
    coref_cost = {}
    coref_cost_bar = {}
    for k in range(n):
        scores, _ = feats.pair_scores(doc, coref_model, k, fs)
        for j, s in enumerate(scores):
            p = learn.probability(s)
            coref_cost[(j, k)] = _cost(p)
            coref_cost_bar[(j, k)] = _cost(1.0 - p)
    anaph_cost = {}
    anaph_cost_bar = {}
    for k in range(n):
        p = learn.predict_prob(anaph_model, feats.anaphoricity(doc, k))
        anaph_cost[k] = _cost(p)
        anaph_cost_bar[k] = _cost(1.0 - p)
    return IlpProgram(doc.doc_id, n, coref_cost, coref_cost_bar, anaph_cost, anaph_cost_bar)


def objective_value(p: IlpProgram, x: dict[tuple[int, int], int], y: dict[int, int]) -> float:
    total = 0.0
    for pair, cost in p.coref_cost.items():
        total += cost if x[pair] else p.coref_cost_bar[pair]
    for k in range(p.n):
        total += p.anaph_cost[k] if y[k] else p.anaph_cost_bar[k]
    return total


def _feasible(p: IlpProgram, x: dict[tuple[int, int], int], y: dict[int, int]) -> bool:
    for (j, k), value in x.items():
        if value and not y[k]:
            return False
    for k in range(p.n):
        if y[k] and not any(x.get((j, k), 0) for j in range(k)):
            return False
    return True


def solve_exact(p: IlpProgram, max_vars: int | None = None) -> IlpSolution:
    """Minimize the program exactly, one mention at a time.

    Mention k's cheapest block is y_k = 0 with every link off, or y_k = 1
    with each link at its cheaper value, plus the cheapest extra cost of
    one forced link when no link is strictly cheaper on than off.  y_k = 1
    is chosen only when strictly cheaper; a forced link goes to the
    earliest j with the smallest extra cost.  ``max_vars`` is an optional
    guard against programs larger than the caller expects.
    """
    if max_vars is not None and p.n_variables() > max_vars:
        raise ValueError(
            f"document {p.doc_id!r}: program has {p.n_variables()} variables, "
            f"above the limit {max_vars}"
        )
    x: dict[tuple[int, int], int] = {}
    y: dict[int, int] = {}
    objective = 0.0
    for k in range(p.n):
        links = [(j, p.coref_cost_bar[(j, k)], p.coref_cost[(j, k)]) for j in range(k)]
        off_cost = p.anaph_cost_bar[k] + sum(off for _, off, _ in links)
        on_cost = p.anaph_cost[k]
        for _, off, on in links:
            on_cost += min(on, off)
        chosen = [j for j, off, on in links if on < off]
        if links and not chosen:
            extra, j = min((on - off, j) for j, off, on in links)
            on_cost += extra
            chosen.append(j)
        # Mention 0 has no predecessors, so y_0 <= (empty sum) forces y_0 = 0.
        y[k] = int(bool(links) and on_cost < off_cost)
        for j, _, _ in links:
            x[(j, k)] = 0
        if y[k]:
            for j in chosen:
                x[(j, k)] = 1
        objective += on_cost if y[k] else off_cost
    solution = IlpSolution(x, y, objective)
    assert _feasible(p, solution.x, solution.y)
    return solution


def decode_partition(solution: IlpSolution, doc: Document) -> Partition:
    """One cluster per connected component of the links set to 1 (their
    transitive closure)."""
    n = len(doc.mentions)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (j, k), value in solution.x.items():
        if value:
            rj, rk = find(j), find(k)
            if rj != rk:
                parent[rk] = rj
    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    return Partition(clusters.values())


def resolve_ilp(
    doc: Document,
    coref_model: learn.LinearModel,
    anaph_model: learn.LinearModel,
    fs: str = feats.CONVENTIONAL,
    max_vars: int | None = None,
) -> Partition:
    program = build_program(doc, coref_model, anaph_model, fs)
    return decode_partition(solve_exact(program, max_vars), doc)
