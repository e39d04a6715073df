import itertools

import pytest

import inputs
from scentgen import chemrules, sensorselect, smiles


def brute_force_optimum(cover):
    """Smallest number of sensors covering every coverable target, by bitmasks."""
    index = {t: k for k, t in enumerate(sorted(cover.targets))}
    masks = [sum(1 << index[t] for t in detects) for _, detects, _ in cover.sensors]
    need = 0
    for m in masks:
        need |= m
    for size in range(len(masks) + 1):
        for combo in itertools.combinations(masks, size):
            got = 0
            for m in combo:
                got |= m
            if got == need:
                return size
    raise AssertionError("all sensors together cover every coverable target")


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_sensors, optimum", [(4, 1), (5, 2), (6, 3), (8, 3), (9, 4)])
def test_planted_optimum_matches_brute_force(seed, n_sensors, optimum):
    names = [f"t{k}" for k in range(optimum + 6)]
    cover = inputs.planted_cover(n_sensors, optimum, names, inputs.rng_for(seed, "test"))
    assert len(cover.sensors) == n_sensors
    assert brute_force_optimum(cover) == optimum
    detected = set().union(*(d for _, d, _ in cover.sensors))
    assert detected == cover.targets - cover.uncoverable


@pytest.mark.parametrize("seed", range(3))
def test_exact_cover_returns_the_planted_sensors(seed):
    cover = inputs.planted_cover(8, 3, [f"t{k}" for k in range(12)], inputs.rng_for(seed, "exact"))
    catalog = sensorselect.SensorCatalog(tuple(sensorselect.Sensor(*s) for s in cover.sensors))
    result = sensorselect.exact_cover(sensorselect.CoverageProblem(cover.targets, catalog))
    assert tuple(sorted(result.chosen)) == cover.planted
    assert result.uncovered == cover.uncoverable


def _symbols_and_hydrogens(text):
    graph = chemrules.sanitize(smiles.parse(text)).graph
    hydrogens = sum(d.implicit_hydrogens for d in chemrules.valence_check(graph).per_atom)
    return [a.symbol for a in graph.atoms], hydrogens


@pytest.mark.parametrize("name, text, formula", inputs.HAND_WRITTEN + (inputs.KNOWN_FAILING,))
def test_reference_formulas_match_the_cascade(name, text, formula):
    symbols, hydrogens = _symbols_and_hydrogens(text)
    assert inputs.formula_matches(symbols, hydrogens, formula)


@pytest.mark.parametrize("name, text, formula", inputs.HAND_WRITTEN)
def test_formula_check_catches_a_wrong_hydrogen_count(name, text, formula):
    symbols, hydrogens = _symbols_and_hydrogens(text)
    assert not inputs.formula_matches(symbols, hydrogens + 1, formula)
    assert not inputs.formula_matches(symbols, hydrogens - 1, formula)


def test_hill_formula_order():
    assert inputs.hill_formula(["O", "C", "N", "C"], 5) == "C2H5NO"
    assert inputs.hill_formula(["O"], 2) == "H2O"
    assert inputs.hill_formula(["N"], 3) == "H3N"


@pytest.mark.parametrize("name, text, stage", inputs.KNOWN_INVALID)
def test_known_invalid_inputs_fail_at_their_stage(name, text, stage):
    try:
        graph = smiles.parse(text)
    except smiles.SmilesSyntaxError:
        assert stage == "parse"
        return
    report = chemrules.sanitize(graph).report
    assert next(s.name for s in report.stages if not s.passed) == stage


def test_queries_depend_only_on_seed_and_index():
    vocab = ("floral", "fruity", "green", "musky", "sweet", "woody")
    pool = (1, 2, 2, 3, 3, 3, 4, 5, 6, 7, 8, 9, 10, 11)
    assert inputs.make_query(5, 3, vocab, pool) == inputs.make_query(5, 3, vocab, pool)
    queries = [inputs.make_query(5, k, vocab, pool) for k in range(40)]
    assert all(1 <= len(q.terms) <= 3 and set(q.terms) <= set(vocab) for q in queries)
    assert [q.constrained for q in queries[:4]] == [False, True, False, True]
    assert {q.n_atoms for q in queries} <= set(pool)


def test_atom_counts_follow_the_pool_quantiles():
    pool = tuple(sorted([2] * 10 + [5] * 60 + [9] * 30))
    vocab = ("a", "b", "c")
    for seed in range(5):
        counts = [inputs.make_query(seed, k, vocab, pool).n_atoms for k in range(20)]
        # evenly spread quantiles: each size's share is within one query of the pool's
        for size, share in ((2, 0.1), (5, 0.6), (9, 0.3)):
            assert abs(counts.count(size) - share * 20) <= 1.5
