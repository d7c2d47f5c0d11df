import itertools
import math

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from corefrank import ilp, learn, synth
from corefrank.corpus import Partition
from corefrank.instances import CLASSIFY

from conftest import make_doc


def log_model(weights, bias=0.0):
    return learn.LinearModel(dict(weights), bias, CLASSIFY, learn.LOG, {})


def random_program(rng, n):
    def costs(p):
        return -math.log(p), -math.log(1.0 - p)

    coref_cost, coref_cost_bar = {}, {}
    for k in range(n):
        for j in range(k):
            c, cb = costs(rng.uniform(0.05, 0.95))
            coref_cost[(j, k)] = c
            coref_cost_bar[(j, k)] = cb
    anaph_cost, anaph_cost_bar = {}, {}
    for k in range(n):
        c, cb = costs(rng.uniform(0.05, 0.95))
        anaph_cost[k] = c
        anaph_cost_bar[k] = cb
    return ilp.IlpProgram("d", n, coref_cost, coref_cost_bar, anaph_cost, anaph_cost_bar)


def feasible(p, x, y):
    return all(not x[(j, k)] or y[k] for (j, k) in p.pairs()) and all(
        not y[k] or any(x.get((j, k), 0) for j in range(k)) for k in range(p.n)
    )


def enumerate_optimum(p):
    """Exhaustive oracle over all 0/1 assignments."""
    pairs = p.pairs()
    best = math.inf
    for x_bits in itertools.product((0, 1), repeat=len(pairs)):
        x = dict(zip(pairs, x_bits))
        for y_bits in itertools.product((0, 1), repeat=p.n):
            y = dict(enumerate(y_bits))
            if not feasible(p, x, y):
                continue
            best = min(best, ilp.objective_value(p, x, y))
    return best


def highs_solution(p):
    """Independent MILP solve (HiGHS) from the rows x - y <= 0 and y - sum x <= 0."""
    pairs = p.pairs()
    n_x = len(pairs)
    cost = [p.coref_cost[jk] - p.coref_cost_bar[jk] for jk in pairs]
    cost += [p.anaph_cost[k] - p.anaph_cost_bar[k] for k in range(p.n)]
    rows = np.zeros((n_x + p.n, n_x + p.n))
    for i, (j, k) in enumerate(pairs):
        rows[i, i], rows[i, n_x + k] = 1.0, -1.0
        rows[n_x + k, i] = -1.0
    for k in range(p.n):
        rows[n_x + k, n_x + k] = 1.0
    result = milp(
        cost,
        constraints=LinearConstraint(rows, -np.inf, 0.0),
        integrality=np.ones(n_x + p.n),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0.0},
    )
    assert result.success
    bits = np.round(result.x).astype(int)
    x = {jk: int(bits[i]) for i, jk in enumerate(pairs)}
    y = {k: int(bits[n_x + k]) for k in range(p.n)}
    return x, y


class TestBuildProgram:
    def test_uniform_half_probabilities(self):
        doc = make_doc("d", [("a", "COMMON", {}), ("b", "COMMON", {}), ("c", "COMMON", {})])
        model = log_model({})
        program = ilp.build_program(doc, model, model)
        for cost in list(program.coref_cost.values()) + list(program.anaph_cost.values()):
            assert cost == pytest.approx(math.log(2.0))
        for cost in list(program.coref_cost_bar.values()) + list(program.anaph_cost_bar.values()):
            assert cost == pytest.approx(math.log(2.0))

    def test_probability_clamp(self):
        doc = make_doc("d", [("a", "COMMON", {}), ("b", "COMMON", {})])
        sure = log_model({}, bias=-1000.0)  # prob ~ 1 for everything
        program = ilp.build_program(doc, sure, sure)
        assert program.coref_cost[(0, 1)] == pytest.approx(-math.log(1 - 1e-6), rel=1e-3)
        assert all(c >= 0.0 and math.isfinite(c) for c in program.coref_cost_bar.values())

    def test_two_mention_worked_costs(self):
        doc = make_doc("d", [("Acme", "PROPER", {}), ("Acme", "PROPER", {})], [[0, 1]])
        logit = lambda p: math.log(p / (1 - p))
        coref = log_model({"STR_MATCH=C": logit(0.9)})
        anaph = log_model({"STR_MATCH=Y": logit(0.8), "STR_MATCH=N": logit(0.1)})
        program = ilp.build_program(doc, coref, anaph)
        expected = {
            "c_coref": -math.log(0.9),
            "cbar_coref": -math.log(0.1),
            "c_anaph_1": -math.log(0.8),
            "cbar_anaph_1": -math.log(0.2),
            "c_anaph_0": -math.log(0.1),
            "cbar_anaph_0": -math.log(0.9),
        }
        assert program.coref_cost[(0, 1)] == pytest.approx(expected["c_coref"], rel=1e-9)
        assert program.coref_cost_bar[(0, 1)] == pytest.approx(expected["cbar_coref"], rel=1e-9)
        assert program.anaph_cost[1] == pytest.approx(expected["c_anaph_1"], rel=1e-9)
        assert program.anaph_cost_bar[1] == pytest.approx(expected["cbar_anaph_1"], rel=1e-9)
        assert program.anaph_cost[0] == pytest.approx(expected["c_anaph_0"], rel=1e-9)
        assert program.anaph_cost_bar[0] == pytest.approx(expected["cbar_anaph_0"], rel=1e-9)

    def test_hinge_model_rejected(self):
        doc = make_doc("d", [("a", "COMMON", {}), ("b", "COMMON", {})])
        hinge = learn.LinearModel({}, 0.0, CLASSIFY, learn.HINGE, {})
        with pytest.raises(ValueError):
            ilp.build_program(doc, hinge, log_model({}))


class TestSolveExact:
    def test_uniform_costs_objective(self):
        rng = np.random.default_rng(0)
        p = random_program(rng, 3)
        for key in p.coref_cost:
            p.coref_cost[key] = p.coref_cost_bar[key] = math.log(2.0)
        for k in range(3):
            p.anaph_cost[k] = p.anaph_cost_bar[k] = math.log(2.0)
        solution = ilp.solve_exact(p)
        n_vars = 3 + 3
        assert solution.objective == pytest.approx(n_vars * math.log(2.0))
        # A tie keeps y = 0, so nothing links.
        assert set(solution.y.values()) == {0}
        assert set(solution.x.values()) == {0}

    def test_worked_two_mention_example(self):
        p = ilp.IlpProgram(
            "d", 2,
            coref_cost={(0, 1): -math.log(0.9)},
            coref_cost_bar={(0, 1): -math.log(0.1)},
            anaph_cost={0: -math.log(0.1), 1: -math.log(0.8)},
            anaph_cost_bar={0: -math.log(0.9), 1: -math.log(0.2)},
        )
        solution = ilp.solve_exact(p)
        assert solution.x[(0, 1)] == 1
        assert solution.y == {0: 0, 1: 1}
        assert solution.objective == pytest.approx(-math.log(0.9) - math.log(0.8) - math.log(0.9))
        assert solution.objective == pytest.approx(enumerate_optimum(p))

    def test_strong_pair_weak_anaphor(self):
        p = ilp.IlpProgram(
            "d", 2,
            coref_cost={(0, 1): -math.log(0.9)},
            coref_cost_bar={(0, 1): -math.log(0.1)},
            anaph_cost={0: -math.log(0.5), 1: -math.log(0.01)},
            anaph_cost_bar={0: -math.log(0.5), 1: -math.log(0.99)},
        )
        solution = ilp.solve_exact(p)
        assert solution.objective == pytest.approx(enumerate_optimum(p))

    def test_forced_link_goes_to_earliest_cheapest(self):
        # Mention 3 is cheaper anaphoric, but no link into it is strictly
        # cheaper on than off; the extra costs are 0.7, 0, 0, so only the
        # earliest of the cheapest, j = 1, is linked.
        off, on = -math.log(0.8), -math.log(0.2)
        coref_cost = {(j, k): on for k in range(4) for j in range(k)}
        coref_cost_bar = {pair: off for pair in coref_cost}
        for j, extra in enumerate((0.7, 0.0, 0.0)):
            coref_cost[(j, 3)] = off + extra
        p = ilp.IlpProgram(
            "d", 4, coref_cost, coref_cost_bar,
            anaph_cost={0: -math.log(0.1), 1: -math.log(0.1), 2: -math.log(0.1), 3: -math.log(0.99)},
            anaph_cost_bar={0: -math.log(0.9), 1: -math.log(0.9), 2: -math.log(0.9), 3: -math.log(0.01)},
        )
        solution = ilp.solve_exact(p)
        assert solution.y == {0: 0, 1: 0, 2: 0, 3: 1}
        assert [pair for pair, value in solution.x.items() if value] == [(1, 3)]
        assert solution.objective == pytest.approx(enumerate_optimum(p), abs=1e-9)

    def test_matches_enumeration_on_random_programs(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 5))  # up to 4+6 = 10 variables
            p = random_program(rng, n)
            solution = ilp.solve_exact(p)
            assert solution.objective == pytest.approx(enumerate_optimum(p), abs=1e-9)

    def test_constraints_hold_on_solutions(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            p = random_program(rng, n)
            s = ilp.solve_exact(p)
            for (j, k), value in s.x.items():
                assert value <= s.y[k]
            for k in range(n):
                if s.y[k]:
                    assert any(s.x[(j, k)] for j in range(k))
            assert s.y[0] == 0

    def test_matches_highs_beyond_enumeration(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            n = int(rng.integers(2, 31))  # up to 435 + 30 variables
            p = random_program(rng, n)
            solution = ilp.solve_exact(p)
            x, y = highs_solution(p)
            assert feasible(p, solution.x, solution.y), trial
            assert feasible(p, x, y), trial
            assert solution.objective == pytest.approx(ilp.objective_value(p, x, y), abs=1e-9), trial

    def test_variable_limit(self):
        rng = np.random.default_rng(1)
        p = random_program(rng, 10)  # 45 + 10 variables
        with pytest.raises(ValueError, match="variables"):
            ilp.solve_exact(p, max_vars=40)

    def test_limit_is_optional_and_names_the_document(self):
        rng = np.random.default_rng(1)
        p = random_program(rng, 10)
        p.doc_id = "wsj_0042"
        with pytest.raises(ValueError, match="wsj_0042"):
            ilp.solve_exact(p, max_vars=54)
        assert ilp.solve_exact(p).objective == pytest.approx(ilp.solve_exact(p, max_vars=55).objective)


class TestResolveIlp:
    def test_two_hundred_mentions(self):
        doc = synth.synth_corpus(1, seed=5, mentions_low=200, mentions_high=200)[0]
        coref = log_model({"STR_MATCH=C": 4.0}, bias=-2.0)
        anaph = log_model({"STR_MATCH=Y": 3.0}, bias=-1.0)
        partition = ilp.resolve_ilp(doc, coref, anaph)
        partition.validate(range(200), doc_id=doc.doc_id)
        assert len(partition.clusters) < 200


class TestDecodePartition:
    def test_all_zero_singletons(self):
        doc = make_doc("d", [("a", "COMMON", {}), ("b", "COMMON", {}), ("c", "COMMON", {})])
        solution = ilp.IlpSolution({(0, 1): 0, (0, 2): 0, (1, 2): 0}, {0: 0, 1: 0, 2: 0}, 0.0)
        assert ilp.decode_partition(solution, doc).as_sets() == {
            frozenset({0}), frozenset({1}), frozenset({2})
        }

    def test_chain_closure(self):
        doc = make_doc("d", [("a", "COMMON", {})] * 3)
        solution = ilp.IlpSolution({(0, 1): 1, (1, 2): 1, (0, 2): 0}, {0: 0, 1: 1, 2: 1}, 0.0)
        assert ilp.decode_partition(solution, doc).as_sets() == {frozenset({0, 1, 2})}

    def test_disjoint_pairs(self):
        doc = make_doc("d", [("a", "COMMON", {})] * 4)
        x = {(j, k): 0 for k in range(4) for j in range(k)}
        x[(0, 1)] = 1
        x[(2, 3)] = 1
        solution = ilp.IlpSolution(x, {0: 0, 1: 1, 2: 0, 3: 1}, 0.0)
        assert ilp.decode_partition(solution, doc).as_sets() == {
            frozenset({0, 1}), frozenset({2, 3})
        }

