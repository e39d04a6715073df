"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavier criteria carry
their stated runtime budgets as assertions.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from scentgen import chemrules, dataio, diffusion, egnn, generator, numcore, sensorselect, smiles
from scentgen.chemrules import DEFAULT_VALENCES, valence_check
from scentgen.diffusion import NoiseSchedule, TrainConfig, beta_at, forward_noise
from scentgen.egnn import NodeState, egnn_forward, init_egnn_layer
from scentgen.molgraph import Atom, BondType, MoleculeGraph, new_graph
from scentgen.numcore import ParamStore, Tensor


def announce(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


@pytest.fixture(scope="module")
def corpus_split(fixture_dataset):
    vocab, molecules = fixture_dataset
    return vocab, dataio.split_80_20(molecules, seed=7)


@pytest.fixture(scope="module")
def acceptance_model(corpus_split):
    """Model trained on the bundled corpus train split (desk-scale budget)."""
    vocab, split = corpus_split
    examples = dataio.to_training_examples(split.train, vocab)
    config = TrainConfig(steps=1000, epochs=150, batch_size=32, seed=11)
    params, metrics = diffusion.train(examples, config)
    return vocab, split, params


# -------------------------------------------------------------- criterion 1


def test_c01_e3_equivariance(rng):
    start = time.time()
    worst_feat = 0.0
    worst_coord = 0.0
    with numcore.no_grad():
        for mol_idx in range(100):
            n = int(rng.integers(3, 21))
            params = ParamStore()
            layer_rng = np.random.default_rng(1000 + mol_idx)
            for layer in ("egnn.0", "egnn.1"):
                init_egnn_layer(params, layer, 8, 8, layer_rng)
            feats = rng.normal(size=(n, 8))
            coords = rng.normal(size=(n, 3))
            base = egnn_forward(NodeState(Tensor(feats), Tensor(coords)), params)
            for _ in range(100):
                q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
                if np.linalg.det(q) < 0:
                    q[:, 0] *= -1
                v = rng.normal(size=3)
                moved = egnn_forward(
                    NodeState(Tensor(feats), Tensor(coords @ q.T + v)), params
                )
                worst_feat = max(
                    worst_feat, float(np.abs(moved.features.data - base.features.data).max())
                )
                worst_coord = max(
                    worst_coord,
                    float(np.abs(moved.coords.data - (base.coords.data @ q.T + v)).max()),
                )
    elapsed = time.time() - start
    assert worst_feat < 1e-6, worst_feat
    assert worst_coord < 1e-6, worst_coord
    assert elapsed < 30.0, f"equivariance sweep took {elapsed:.1f}s"
    announce(
        "criterion 1 (E(3) equivariance)",
        f"100 molecules x 100 transforms, max feature err {worst_feat:.2e}, "
        f"max coord err {worst_coord:.2e}, {elapsed:.1f}s",
    )


# -------------------------------------------------------------- criterion 2


def test_c02_gradient_fidelity():
    start = time.time()
    vocab_size = 6
    eps_fd = 1e-5
    worst = 0.0
    for seed in range(20):
        local = np.random.default_rng(seed)
        params = diffusion.init_params(vocab_size, seed=seed)
        n = int(local.integers(3, 6))
        sched = NoiseSchedule(500)
        t = int(local.integers(1, 501))
        x0 = local.normal(6.5, 1.0, size=(n, 1))
        coords = local.normal(size=(n, 3))
        edges = tuple((i, i + 1) for i in range(n - 1))
        labels = local.integers(0, 4, size=n - 1)
        y = (local.random(vocab_size) < 0.5).astype(np.float64)
        x_t, eps = forward_noise(x0, t, sched, local)

        def loss_value():
            out = diffusion.denoiser_forward(x_t, coords, edges, t, sched, y, params)
            return diffusion.loss_total(out.eps_hat, eps, out.bond_logits, labels, tau=1.0)

        loss = loss_value()
        params.zero_grad()
        numcore.backward(loss)
        for name in params.names():
            tensor = params[name]
            flat = tensor.data.reshape(-1)
            analytic = tensor.grad.reshape(-1)
            numeric = np.zeros_like(flat)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + eps_fd
                up = loss_value().item()
                flat[k] = keep - eps_fd
                down = loss_value().item()
                flat[k] = keep
                numeric[k] = (up - down) / (2 * eps_fd)
            denom = np.linalg.norm(analytic) + np.linalg.norm(numeric)
            if denom == 0.0:
                continue  # parameter unused by this loss; both sides exactly zero
            rel = np.linalg.norm(analytic - numeric) / denom
            worst = max(worst, float(rel))
            assert rel < 1e-4, (seed, name, rel)
    elapsed = time.time() - start
    assert elapsed < 120.0, f"gradient check took {elapsed:.1f}s"
    announce(
        "criterion 2 (gradient fidelity)",
        f"20 seeds, worst tensor-norm relative error {worst:.2e}, {elapsed:.1f}s",
    )


# -------------------------------------------------------------- criterion 3


def test_c03_forward_process_statistics():
    sched = NoiseSchedule(1000)
    rng = np.random.default_rng(99)
    draws = 100_000
    results = []
    for t in (250, 500, 1000):
        x0 = np.zeros((draws, 1))
        x_t, _ = forward_noise(x0, t, sched, rng)
        var = float((x_t - x0).var())
        beta = beta_at(sched, t)
        assert abs(var - beta) <= 0.05 * beta, (t, var, beta)
        results.append(f"t={t}: var {var:.4f} vs beta {beta:.3f}")
    announce("criterion 3 (forward-process statistics)", "; ".join(results))


# -------------------------------------------------------------- criterion 4


def test_c04_overfit_sanity(fixture_dataset):
    start = time.time()
    vocab, molecules = fixture_dataset
    pure_carbon = [m for m in molecules if {a.atomic_number for a in m.graph.atoms} == {6}]
    pure_carbon.sort(key=lambda m: (-m.graph.n_atoms, m.smiles))
    subset = pure_carbon[:10]
    assert len(subset) == 10
    examples = dataio.to_training_examples(subset, vocab)
    config = TrainConfig(steps=1000, epochs=500, batch_size=1, learning_rate=2e-4, seed=2)
    _, metrics = diffusion.train(examples, config)

    ratio = metrics[-1].total / metrics[0].total
    assert ratio < 0.1, f"final/epoch-1 ratio {ratio:.3f}"

    windows = [
        float(np.mean([m.total for m in metrics[k : k + 25]])) for k in range(0, 500, 25)
    ]
    rises = [(k, windows[k], windows[k + 1]) for k in range(len(windows) - 1) if windows[k + 1] > windows[k]]
    assert not rises, f"smoothed loss rose at windows {rises}"

    elapsed = time.time() - start
    assert elapsed < 300.0, f"overfit run took {elapsed:.1f}s"
    announce(
        "criterion 4 (overfit sanity)",
        f"loss {metrics[0].total:.3f} -> {metrics[-1].total:.3f} "
        f"(ratio {ratio:.4f}), 20 smoothed windows nonincreasing, {elapsed:.1f}s",
    )


# -------------------------------------------------------------- criterion 5


def connected_topologies(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All connected unlabeled graphs on n nodes, as canonical edge tuples."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for mask in range(2 ** len(pairs)):
        edges = tuple(pairs[k] for k in range(len(pairs)) if mask >> k & 1)
        # connectivity via union-find
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in edges:
            parent[find(a)] = find(b)
        if len({find(v) for v in range(n)}) != 1:
            continue
        canon = min(
            tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges)) for p in perms
        )
        if canon in seen:
            continue
        seen.add(canon)
        out.append(canon)
    return out


def oracle_atom_ok(z: int, incident_orders: list[float]) -> bool:
    """Independent enumeration: some allowed valence admits a hydrogen fill."""
    allowed = DEFAULT_VALENCES[z]
    total = math.floor(sum(incident_orders) + 0.5)
    return any(total + h == v for v in allowed for h in range(max(allowed) + 1))


ELEMENTS_7 = (6, 7, 8, 9, 15, 16, 17)
ORDER_TYPES = (BondType.SINGLE, BondType.DOUBLE, BondType.TRIPLE)


def test_c05_valence_oracle_equivalence():
    start = time.time()
    topologies = {n: connected_topologies(n) for n in range(1, 6)}
    assert [len(topologies[n]) for n in range(1, 6)] == [1, 1, 2, 6, 21]

    checked = 0
    # Exhaustive per-atom equivalence: every topology, every bond-order
    # assignment, every element placed uniformly.  Both verdicts factor per
    # atom over (element, incident-order multiset), so uniform placements
    # exhaust the whole state space.
    for n, topos in topologies.items():
        for edges in topos:
            for orders in itertools.product(ORDER_TYPES, repeat=len(edges)):
                incident: dict[int, list[float]] = {v: [] for v in range(n)}
                for (a, b), t in zip(edges, orders):
                    incident[a].append(t.order)
                    incident[b].append(t.order)
                bonds = tuple(
                    sorted((min(a, b), max(a, b), t) for (a, b), t in zip(edges, orders))
                )
                for z in ELEMENTS_7:
                    g = MoleculeGraph(atoms=tuple(Atom(z) for _ in range(n)), bonds=bonds)
                    result = valence_check(g)
                    for v in range(n):
                        want = oracle_atom_ok(z, incident[v])
                        got = result.per_atom[v].ok
                        assert got == want, (n, edges, orders, z, v)
                        checked += 1
                    assert result.passed == all(d.ok for d in result.per_atom)

    # Mixed-element composition over random full graphs.
    rng = np.random.default_rng(505)
    mixed = 0
    for _ in range(4000):
        n = int(rng.integers(2, 6))
        topos = topologies[n]
        edges = topos[int(rng.integers(len(topos)))]
        orders = [ORDER_TYPES[int(rng.integers(3))] for _ in edges]
        zs = [ELEMENTS_7[int(rng.integers(7))] for _ in range(n)]
        incident = {v: [] for v in range(n)}
        for (a, b), t in zip(edges, orders):
            incident[a].append(t.order)
            incident[b].append(t.order)
        bonds = tuple(sorted((min(a, b), max(a, b), t) for (a, b), t in zip(edges, orders)))
        g = MoleculeGraph(atoms=tuple(Atom(z) for z in zs), bonds=bonds)
        want = all(oracle_atom_ok(zs[v], incident[v]) for v in range(n))
        assert valence_check(g).passed == want, (edges, orders, zs)
        mixed += 1
    elapsed = time.time() - start
    announce(
        "criterion 5 (valence oracle equivalence)",
        f"{checked} exhaustive per-atom checks + {mixed} mixed-element graphs, "
        f"zero disagreements, {elapsed:.1f}s",
    )


# -------------------------------------------------------------- criterion 6


def permuted(g: MoleculeGraph, perm: list[int]) -> MoleculeGraph:
    inverse = {old: new for new, old in enumerate(perm)}
    atoms = tuple(g.atoms[old] for old in perm)
    bonds = tuple(
        sorted((min(inverse[i], inverse[j]), max(inverse[i], inverse[j]), t) for i, j, t in g.bonds)
    )
    return MoleculeGraph(atoms=atoms, bonds=bonds)


def graphs_isomorphic(a: MoleculeGraph, b: MoleculeGraph) -> bool:
    import networkx as nx

    ga, gb = nx.Graph(), nx.Graph()
    for target, src in ((ga, a), (gb, b)):
        for i, atom in enumerate(src.atoms):
            target.add_node(i, z=atom.atomic_number)
        for i, j, t in src.bonds:
            target.add_edge(i, j, t=t.value)
    return nx.is_isomorphic(
        ga, gb, node_match=lambda x, y: x["z"] == y["z"], edge_match=lambda x, y: x["t"] == y["t"]
    )


def test_c06_smiles_round_trip_and_canonical_invariance(fixture_dataset, rng):
    _, molecules = fixture_dataset
    corpus = [m.smiles for m in molecules[::4]][:50]
    assert len(corpus) == 50
    for text in corpus:
        g = smiles.parse(text)
        canonical = smiles.canonicalize(g)
        assert graphs_isomorphic(smiles.parse(canonical), g), text
        for _ in range(50):
            perm = list(rng.permutation(g.n_atoms))
            assert smiles.canonicalize(permuted(g, perm)) == canonical, (text, perm)
    announce(
        "criterion 6 (SMILES round trip + canonical invariance)",
        f"{len(corpus)} molecules x 50 permutations byte-identical, round trips isomorphic",
    )


# -------------------------------------------------------------- criterion 7


def test_c07_constrained_mode_closure(acceptance_model, rng):
    vocab, split, params = acceptance_model
    allowlist = frozenset({6, 7, 8, 9, 15, 16, 17})
    pool = tuple(sorted(m.graph.n_atoms for m in split.train))
    config = generator.GenerationConfig(
        mode=generator.Mode.CONSTRAINED,
        allowlist=allowlist,
        atom_count_pool=pool,
        steps=50,
        seed=0,
    )
    y = dataio.multi_hot({"fruity", "sweet"}, vocab)
    offenders = 0
    decoded_total = 0
    for k in range(1000):
        report = generator.sample(y, config, params, seed=k)
        decoded_total += len(report.decoded_atoms)
        offenders += sum(1 for z in report.decoded_atoms if z not in allowlist)
    assert offenders == 0

    # The desk-scale model rarely lands features inside the allowlist band, so
    # also drive the same decode path with raw sweeps spanning it: closure must
    # hold while in-band values demonstrably survive (non-vacuous filter check).
    survivors = 0
    for _ in range(1000):
        raw = rng.uniform(-10.0, 130.0, size=int(rng.integers(1, 12)))
        _, decoded = generator.decode_atoms(raw, config)
        assert all(z in allowlist for z in decoded)
        survivors += len(decoded)
    assert survivors > 0
    announce(
        "criterion 7 (constrained-mode closure)",
        f"1000 samples ({decoded_total} decoded atoms) + 1000 raw sweeps "
        f"({survivors} in-allowlist decodes), 0 outside {sorted(allowlist)}",
    )


# -------------------------------------------------------------- criterion 8


def test_c08_set_cover_correctness(rng):
    from scentgen.sensorselect import CoverageProblem, Sensor, SensorCatalog

    matches = 0
    total = 500
    for _ in range(total):
        n_targets = int(rng.integers(2, 13))
        n_sensors = int(rng.integers(2, 13))
        density = 0.4 + 0.4 * rng.random()  # per-instance detection density
        targets = frozenset(f"t{k}" for k in range(n_targets))
        sensors = []
        for k in range(n_sensors):
            detects = {f"t{j}" for j in range(n_targets) if rng.random() < density}
            if not detects:
                detects = {f"t{int(rng.integers(n_targets))}"}
            sensors.append(Sensor(f"s{k:02d}", frozenset(detects), 1.0))
        problem = CoverageProblem(targets=targets, catalog=SensorCatalog(tuple(sensors)))
        greedy = sensorselect.greedy_cover(problem)
        exact = sensorselect.exact_cover(problem)
        assert greedy.covered == exact.covered
        bound = (math.log(n_targets) + 1) * max(len(exact.chosen), 1)
        assert len(greedy.chosen) <= bound, "greedy exceeded the ln(n)+1 bound"
        matches += len(greedy.chosen) == len(exact.chosen)
    rate = matches / total
    assert rate >= 0.95, f"greedy matched optimum on only {rate:.1%}"

    problem, current = sensorselect.load_scenario(sensorselect.bundled_scenario_path())
    add_result = sensorselect.greedy_cover(problem)
    prune_result = sensorselect.subtractive_prune(current, problem)
    assert len(add_result.chosen) == 4
    assert len(prune_result.chosen) == 4
    announce(
        "criterion 8 (set-cover correctness)",
        f"greedy == optimum on {rate:.1%} of 500 instances, bound never exceeded, "
        f"bundled 16-sensor scenario -> 4 sensors (add and subtract)",
    )


# -------------------------------------------------------------- criterion 9


def test_c09_validity_rate_disclosure(acceptance_model, fixture_corpus):
    vocab, split, params = acceptance_model
    pool = tuple(sorted(m.graph.n_atoms for m in split.train))
    y = dataio.multi_hot({"fruity", "sweet"}, vocab)

    rates = {}
    reports_by_mode = {}
    for mode in (generator.Mode.UNCONSTRAINED, generator.Mode.CONSTRAINED):
        config = generator.GenerationConfig(
            mode=mode, atom_count_pool=pool, steps=60, seed=123
        )
        reports = [
            generator.sample(y, config, params, corpus=fixture_corpus, seed=1000 + k)
            for k in range(200)
        ]
        rates[mode.value] = generator.validity_rate(reports)
        reports_by_mode[mode.value] = reports

    # (a) Table-style report of the validity metric.
    print()
    print("  validity of generated molecules (bundled mini dataset, 200 samples each)")
    print("  dataset          constrained   unconstrained")
    print(
        f"  mini-scents      {rates['constrained']:>10.2%}   {rates['unconstrained']:>12.2%}"
    )
    print(
        "  note: rates from a full-scale corpus with externally produced descriptor"
    )
    print(
        "  permutations (reference targets 27.71% / 28.20% / <10%) are not reproducible"
    )
    print("  from this bundled fixture and are reported, not asserted.")

    # (b) strictly positive unconstrained validity after mini-dataset training
    assert rates["unconstrained"] > 0.0

    # (c) every emitted SMILES re-parses and re-validates
    emitted = 0
    for reports in reports_by_mode.values():
        for report in reports:
            if report.smiles is None:
                continue
            emitted += 1
            again = chemrules.sanitize(smiles.parse(report.smiles))
            assert again.report.final_verdict, report.smiles
    assert emitted > 0
    announce(
        "criterion 9 (validity-rate disclosure)",
        f"unconstrained {rates['unconstrained']:.2%} > 0, constrained {rates['constrained']:.2%}, "
        f"{emitted} emitted SMILES all re-validate",
    )


# ------------------------------------------------------------- criterion 10


def run_pipeline(workdir: Path) -> dict[str, bytes]:
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = "1"
    workdir.mkdir(parents=True, exist_ok=True)
    checkpoint = workdir / "model.json"
    metrics = workdir / "metrics.csv"
    gen_out = workdir / "generated.jsonl"
    summary = workdir / "summary.json"
    selection = workdir / "selection.json"
    query = workdir / "query.json"
    query.write_text(json.dumps({"descriptors": ["fruity", "sweet"], "count": 20}))

    def run(args, stdout_path):
        with open(stdout_path, "w") as fh:
            proc = subprocess.run(
                [sys.executable, "-m", "scentgen", *args],
                stdout=fh,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
        assert proc.returncode == 0, proc.stderr
        return proc

    run(
        [
            "train", "--data", str(dataio.bundled_dataset_path()), "--out", str(checkpoint),
            "--metrics", str(metrics), "--epochs", "50", "--seed", "4", "--steps", "1000",
        ],
        workdir / "train_stdout.json",
    )
    run(
        [
            "generate", "--checkpoint", str(checkpoint), "--query", str(query),
            "--out", str(gen_out), "--seed", "4", "--steps", "800",
        ],
        summary,
    )
    run(
        ["select-sensors", str(sensorselect.bundled_scenario_path()), "--mode", "add"],
        selection,
    )
    return {
        name: (workdir / name).read_bytes()
        for name in ("model.json", "metrics.csv", "generated.jsonl", "summary.json", "selection.json")
    }


def test_c10_pipeline_determinism(tmp_path):
    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    announce(
        "criterion 10 (determinism)",
        "two train(50 epochs) -> generate(20) -> select-sensors runs byte-identical "
        f"across {len(first)} artifacts",
    )
