"""The three workloads: set-up, the timed closed loop, and the output checks.

Each workload runs in one fresh, single-threaded process (see worker.py).  A
timed operation is one call sequence into the library; everything the
benchmark does to build inputs or check outputs happens outside the timing.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs

MODULES = ("numcore", "egnn", "diffusion", "generator", "dataio", "smiles", "chemrules", "sensorselect", "molgraph")

DIFFUSION_STEPS = inputs.GENERATE_STEPS
CHECKPOINT_EPOCHS = 2
CHECKPOINT_SEED = 0
TRAIN_BATCH = 32
COVER_REPS_PER_ROUND = 3  # bundled select-sensors solves after each generate query or train epoch
FEATURE_CLIP = 1e4
EQUIVARIANCE_TOL = 1e-9


def load_modules() -> dict:
    return {name: importlib.import_module(f"scentgen.{name}") for name in MODULES}


class Checks:
    """Named output checks; keeps the first few failures for the report."""

    def __init__(self):
        self.made = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: object = "") -> None:
        self.made += 1
        if not ok and len(self.failures) < 20:
            self.failures.append(f"{name}: {detail}")
        elif not ok:
            self.failures[-1] = f"{name}: {detail} (and more)"

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class RunResult:
    op_seconds: list[float] = field(default_factory=list)
    cover_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    units: int = 0  # molecules sampled, training examples processed, or candidates curated
    busy_seconds: float = 0.0  # time inside timed operations, cover problems included
    rounds: int = 0
    extra: dict = field(default_factory=dict)


class _Phase:
    """Sets the tracer's phase label for a block (no-op without a tracer)."""

    def __init__(self, tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        if self.tracer is not None:
            self.previous, self.tracer.phase = self.tracer.phase, self.name

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.phase = self.previous


def _next_op(tracer) -> None:
    if tracer is not None:
        tracer.op_id += 1


def solve_cover(m: dict, problem, current: list[str]):
    """One sensor-selection problem: exact, greedy and subtractive, timed together."""
    sensorselect = m["sensorselect"]
    start = time.perf_counter()
    exact = sensorselect.exact_cover(problem)
    greedy = sensorselect.greedy_cover(problem)
    pruned = sensorselect.subtractive_prune(current, problem)
    return exact, greedy, pruned, time.perf_counter() - start


def check_cover(checks: Checks, problem, current, exact, greedy, pruned, planted=None, uncoverable=None) -> None:
    """Properties of the three solvers' answers, checked with plain set algebra."""
    detects = {s.id: s.detects & problem.targets for s in problem.catalog.sensors}
    coverable = set().union(*detects.values())
    checks.expect("exact covers every coverable target", set(exact.covered) == coverable, sorted(exact.uncovered))
    checks.expect("greedy covers every coverable target", set(greedy.covered) == coverable)
    if planted is not None:
        checks.expect("exact returns the planted optimum", tuple(sorted(exact.chosen)) == planted,
                      f"{sorted(exact.chosen)} != {planted}")
        checks.expect("uncoverable targets reported", set(exact.uncovered) == set(uncoverable))
    baseline = set().union(*(detects[s] for s in current))
    kept = list(pruned.chosen)
    checks.expect("pruning keeps coverage", set(pruned.covered) == baseline)
    for sid in kept:
        rest = set().union(*(detects[o] for o in kept if o != sid))
        checks.expect("every pruned-loadout sensor is necessary", rest != baseline, sid)


class BundledCover:
    """The pipeline's last step, select-sensors on the bundled scenario.

    generate and train solve it a few times after every round, outside the
    timed operations, so that cover_ms_p50 samples the whole run.
    """

    def __init__(self, m: dict):
        self.m = m
        sensorselect = m["sensorselect"]
        self.problem, self.current = sensorselect.load_scenario(sensorselect.bundled_scenario_path())

    def solve(self, tracer, checks: Checks, result: RunResult) -> None:
        with _Phase(tracer, "cover"):
            for _ in range(COVER_REPS_PER_ROUND):
                exact, greedy, pruned, seconds = solve_cover(self.m, self.problem, self.current)
                result.cover_seconds.append(seconds)
            with _Phase(tracer, "check"):
                check_cover(checks, self.problem, self.current, exact, greedy, pruned)


# --------------------------------------------------------------------------
# generate


def prepare_checkpoint(m: dict, path: Path) -> None:
    """Train the checkpoint the generate workload samples from (fixed seed)."""
    dataio, diffusion, numcore = m["dataio"], m["diffusion"], m["numcore"]
    vocab, molecules = dataio.load_csv(dataio.bundled_dataset_path())
    split = dataio.split_80_20(molecules, CHECKPOINT_SEED)
    examples = dataio.to_training_examples(split.train, vocab)
    config = diffusion.TrainConfig(steps=DIFFUSION_STEPS, epochs=CHECKPOINT_EPOCHS, seed=CHECKPOINT_SEED)
    params, _ = diffusion.train(examples, config)
    meta = {
        "vocabulary": list(vocab.terms),
        "steps": DIFFUSION_STEPS,
        "tau": 0.5,
        "atom_count_pool": sorted(mol.graph.n_atoms for mol in split.train),
    }
    numcore.save_checkpoint(params, str(path), meta)


class Generate:
    """Descriptor queries sampled at 800 reverse steps; one op is one molecule."""

    def __init__(self, m: dict, seed: int, workdir: Path):
        self.m, self.seed, self.workdir = m, seed, workdir

    def setup(self) -> None:
        numcore, dataio = self.m["numcore"], self.m["dataio"]
        self.params, self.meta = numcore.load_checkpoint(str(self.workdir / "checkpoint.json"))
        self.corpus = dataio.load_corpus(dataio.bundled_dataset_path())
        self.vocab = dataio.OdourVocabulary(tuple(self.meta["vocabulary"]))
        self.pool = tuple(int(c) for c in self.meta["atom_count_pool"])

    def _config(self, query):
        generator = self.m["generator"]
        return generator.GenerationConfig(
            mode=generator.Mode.CONSTRAINED if query.constrained else generator.Mode.UNCONSTRAINED,
            n_atoms=query.n_atoms,
            atom_count_pool=self.pool,
            steps=DIFFUSION_STEPS,
            tau=float(self.meta["tau"]),
            seed=query.seed,
        )

    def _sample(self, y, config, seed) -> tuple[object, str]:
        report = self.m["generator"].sample(y, config, self.params, corpus=self.corpus, seed=seed)
        return report, json.dumps(report.to_dict(), sort_keys=True)

    def run(self, seconds: float, tracer, checks: Checks) -> RunResult:
        m = self.m
        result = RunResult()
        first = None
        valid = multiatom = 0
        cover = BundledCover(m)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            with _Phase(tracer, "inputs"):
                query = inputs.make_query(self.seed, result.rounds, self.vocab.terms, self.pool)
                y = m["dataio"].multi_hot(query.terms, self.vocab)
                config = self._config(query)
            for k in range(query.count):
                _next_op(tracer)
                t0 = time.perf_counter()
                report, line = self._sample(y, config, query.seed + k)
                elapsed = time.perf_counter() - t0
                result.op_seconds.append(elapsed)
                result.busy_seconds += elapsed
                with _Phase(tracer, "check"):
                    self._check_report(checks, report, config)
                if first is None:
                    first = (y, config, query.seed + k, line)
                valid += report.valid
                multiatom += report.valid and report.graph is not None and len(report.graph["atoms"]) >= 2
            cover.solve(tracer, checks, result)
            result.rounds += 1
        result.attempted = result.units = len(result.op_seconds)
        result.extra = {
            "valid_per_sample": valid / result.units,
            "multiatom_valid_per_sample": multiatom / result.units,
            "checkpoint_bytes": (self.workdir / "checkpoint.json").stat().st_size,
        }
        with _Phase(tracer, "check"):
            y, config, seed, line = first
            checks.expect("re-sampling a seed gives a byte-identical report", self._sample(y, config, seed)[1] == line)
            self._check_equivariance(checks)
        return result

    def _check_report(self, checks: Checks, report, config) -> None:
        generator, smiles = self.m["generator"], self.m["smiles"]
        checks.expect("steps_executed equals 800", report.steps_executed == DIFFUSION_STEPS, report.steps_executed)
        checks.expect(
            "raw features finite and inside the clip",
            all(math.isfinite(v) and abs(v) <= FEATURE_CLIP for v in report.raw_features),
        )
        checks.expect("decoded atoms in [1, 118]", all(1 <= z <= 118 for z in report.decoded_atoms), report.decoded_atoms)
        if config.mode is generator.Mode.CONSTRAINED:
            checks.expect("constrained atoms inside the allowlist",
                          set(report.decoded_atoms) <= set(config.allowlist), report.decoded_atoms)
        if report.valid:
            checks.expect("valid SMILES round-trips",
                          smiles.canonicalize(smiles.parse(report.smiles)) == report.smiles, report.smiles)
            checks.expect("corpus_match agrees with the corpus", report.corpus_match == (report.smiles in self.corpus))

    def _check_equivariance(self, checks: Checks) -> None:
        """One denoiser pass commutes with a random rotation and translation."""
        import numpy as np

        diffusion = self.m["diffusion"]
        rng = np.random.default_rng(self.seed)
        n = 6
        x = rng.standard_normal((n, 1))
        coords = rng.standard_normal((n, 3))
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        rotation = q * np.sign(np.diag(r))
        if np.linalg.det(rotation) < 0:
            rotation[:, 0] *= -1
        shift = rng.standard_normal(3)
        y = np.zeros(len(self.vocab))
        y[0] = 1.0
        schedule = diffusion.NoiseSchedule(DIFFUSION_STEPS)
        with self.m["numcore"].no_grad():
            base = diffusion.denoiser_forward(x, coords, (), DIFFUSION_STEPS // 2, schedule, y, self.params)
            moved = diffusion.denoiser_forward(x, coords @ rotation.T + shift, (), DIFFUSION_STEPS // 2, schedule, y, self.params)
        scale = max(1.0, float(np.abs(base.coords.data).max()))
        checks.expect("eps_hat invariant under rotation",
                      float(np.abs(base.eps_hat.data - moved.eps_hat.data).max()) <= EQUIVARIANCE_TOL * scale)
        expected = base.coords.data @ rotation.T + shift
        checks.expect("coordinates equivariant under rotation",
                      float(np.abs(expected - moved.coords.data).max()) <= EQUIVARIANCE_TOL * scale)


# --------------------------------------------------------------------------
# train


class Train:
    """Optimizer steps of `diffusion.train` over the 80 % split; one op is one step."""

    def __init__(self, m: dict, seed: int, workdir: Path):
        self.m, self.seed, self.workdir = m, seed, workdir

    def setup(self) -> None:
        dataio = self.m["dataio"]
        self.vocab, molecules = dataio.load_csv(dataio.bundled_dataset_path())
        split = dataio.split_80_20(molecules, self.seed)
        self.examples = dataio.to_training_examples(split.train, self.vocab)

    def run(self, seconds: float, tracer, checks: Checks) -> RunResult:
        diffusion = self.m["diffusion"]
        result = RunResult()
        params = diffusion.init_params(len(self.vocab), diffusion.HIDDEN_DIM, self.seed)
        epoch_losses: list[float] = []
        losses: list[float] = []
        cover = BundledCover(self.m)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            rng = inputs.rng_for(self.seed, "epoch", result.rounds)
            order = inputs.permutation(len(self.examples), rng)
            total = 0.0
            for lo in range(0, len(order), TRAIN_BATCH):
                batch = [self.examples[i] for i in order[lo : lo + TRAIN_BATCH]]
                config = diffusion.TrainConfig(
                    steps=DIFFUSION_STEPS, epochs=1, batch_size=TRAIN_BATCH, seed=rng.randrange(2**31)
                )
                _next_op(tracer)
                t0 = time.perf_counter()
                _, metrics = diffusion.train(batch, config, params)
                elapsed = time.perf_counter() - t0
                result.op_seconds.append(elapsed)
                result.busy_seconds += elapsed
                losses.append(metrics[0].total)
                total += metrics[0].total * len(batch)
            epoch_losses.append(total / len(order))
            cover.solve(tracer, checks, result)
            result.rounds += 1
        result.attempted = len(result.op_seconds)
        result.units = result.rounds * len(self.examples)
        with _Phase(tracer, "check"):
            checks.expect("all losses finite", all(math.isfinite(v) for v in losses))
            checks.expect("last epoch's mean loss below the first's", epoch_losses[-1] < epoch_losses[0],
                          f"{epoch_losses[0]} -> {epoch_losses[-1]}")
            checks.expect("adam_steps equals the number of batches", params.adam_steps == result.attempted,
                          f"{params.adam_steps} != {result.attempted}")
            self._check_gradient(checks, params)
            self._check_checkpoint(checks, params)
        result.extra = {"first_epoch_loss": epoch_losses[0], "last_epoch_loss": epoch_losses[-1]}
        return result

    def _check_gradient(self, checks: Checks, params) -> None:
        """One parameter gradient against central finite differences."""
        import numpy as np

        diffusion, numcore = self.m["diffusion"], self.m["numcore"]
        ex = max(self.examples, key=lambda e: len(e.bond_edges))
        schedule = diffusion.NoiseSchedule(DIFFUSION_STEPS)
        t = DIFFUSION_STEPS // 3
        x_t, eps = diffusion.forward_noise(ex.features, t, schedule, np.random.default_rng(self.seed))

        def loss():
            out = diffusion.denoiser_forward(x_t, ex.coords, ex.bond_edges, t, schedule, ex.condition, params)
            return diffusion.loss_total(out.eps_hat, eps, out.bond_logits, ex.bond_labels, 1.0)

        name, index = "egnn.0.node_mlp.w1", (0, 0)
        params.zero_grad()
        numcore.backward(loss())
        analytic = float(params[name].grad[index])
        h = 1e-6
        data = params[name].data
        original = data[index]
        data[index] = original + h
        plus = loss().item()
        data[index] = original - h
        minus = loss().item()
        data[index] = original
        numeric = (plus - minus) / (2 * h)
        checks.expect("gradient matches central finite differences",
                      abs(analytic - numeric) <= 1e-5 * max(1.0, abs(analytic)), f"{analytic} vs {numeric}")

    def _check_checkpoint(self, checks: Checks, params) -> None:
        import numpy as np

        numcore = self.m["numcore"]
        path = self.workdir / "train-checkpoint.json"
        numcore.save_checkpoint(params, str(path), {"seed": self.seed})
        loaded, meta = numcore.load_checkpoint(str(path))
        same = (
            loaded.names() == params.names()
            and loaded.adam_steps == params.adam_steps
            and meta == {"seed": self.seed}
            and all(
                np.array_equal(loaded[n].data, params[n].data)
                and np.array_equal(loaded._adam_m[n], params._adam_m[n])
                and np.array_equal(loaded._adam_v[n], params._adam_v[n])
                for n in params.names()
            )
        )
        checks.expect("checkpoint save then load is bitwise equal", same)


# --------------------------------------------------------------------------
# curate


@dataclass(frozen=True)
class Candidate:
    kind: str  # corpus, corpus-perm, hand, hand-perm, failing, invalid
    text: str
    source: str = ""  # the unpermuted SMILES a permutation came from
    expect: str = ""  # reference formula (hand, failing) or rejecting stage (invalid)


class Curate:
    """Dataset construction: parse, sanitize, canonicalize, corpus check; covers at intervals."""

    TARGETS_PER_PROBLEM = 40

    def __init__(self, m: dict, seed: int, workdir: Path):
        self.m, self.seed, self.workdir = m, seed, workdir

    def setup(self) -> None:
        dataio = self.m["dataio"]
        self.corpus = dataio.load_corpus(dataio.bundled_dataset_path())

    def _corpus_rows(self) -> list[str]:
        lines = self.m["dataio"].bundled_dataset_path().read_text(encoding="utf-8").splitlines()[1:]
        return [line.partition(",")[0].strip() for line in lines if line.strip()]

    def _permuted(self, text: str, rng) -> str:
        """The same molecule written from a seeded atom order."""
        molgraph, smiles = self.m["molgraph"], self.m["smiles"]
        graph = smiles.parse(text)
        order = inputs.permutation(graph.n_atoms, rng)
        new_index = {old: new for new, old in enumerate(order)}
        atoms = tuple(graph.atoms[old] for old in order)
        bonds = tuple(sorted(
            (min(new_index[i], new_index[j]), max(new_index[i], new_index[j]), t) for i, j, t in graph.bonds
        ))
        return smiles.write(molgraph.MoleculeGraph(atoms=atoms, bonds=bonds))

    def round_candidates(self, round_index: int) -> list[Candidate]:
        rng = inputs.rng_for(self.seed, "curate", round_index)
        out = [Candidate("corpus", s) for s in self.rows]
        out += [Candidate("corpus-perm", self._permuted(s, rng), source=s) for s in self.rows]
        for _, text, formula in inputs.HAND_WRITTEN:
            out.append(Candidate("hand", text, expect=formula))
            out += [Candidate("hand-perm", self._permuted(text, rng), source=text, expect=formula)
                    for _ in range(inputs.HAND_PERMUTATIONS)]
        out.append(Candidate("failing", inputs.KNOWN_FAILING[1], expect=inputs.KNOWN_FAILING[2]))
        out += [Candidate("invalid", text, expect=stage) for _, text, stage in inputs.KNOWN_INVALID]
        rng.shuffle(out)
        return out

    def _curate(self, text: str):
        """The timed operation: (first failing stage or None, graph, canonical, corpus member)."""
        smiles, chemrules, molgraph = self.m["smiles"], self.m["chemrules"], self.m["molgraph"]
        try:
            graph = smiles.parse(text)
        except (smiles.SmilesSyntaxError, molgraph.UnknownElement):
            return "parse", None, None, False
        result = chemrules.sanitize(graph)
        if not result.report.final_verdict:
            stage = next(s.name for s in result.report.stages if not s.passed)
            return stage, result.graph, None, False
        canonical = smiles.canonicalize(result.graph)
        return None, result.graph, canonical, canonical in self.corpus

    def run(self, seconds: float, tracer, checks: Checks) -> RunResult:
        self.rows = self._corpus_rows()
        result = RunResult()
        canonical_of: dict[str, str] = {}
        seen_canonical: set[str] = set()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            with _Phase(tracer, "inputs"):
                candidates = self.round_candidates(result.rounds)
            cover_at = {len(candidates) * (k + 1) // len(inputs.COVER_SIZES): k for k in range(len(inputs.COVER_SIZES))}
            round_canonical: list[str] = []
            pending_perms: list[tuple[Candidate, str]] = []
            for position, cand in enumerate(candidates, start=1):
                _next_op(tracer)
                t0 = time.perf_counter()
                try:
                    stage, graph, canonical, member = self._curate(cand.text)
                    failed = False
                except RuntimeError as exc:
                    failed, error = True, exc
                elapsed = time.perf_counter() - t0
                result.op_seconds.append(elapsed)
                result.busy_seconds += elapsed
                if failed:
                    result.failed += 1
                    checks.expect("only the known failing molecule fails", cand.kind == "failing", f"{cand.text}: {error}")
                else:
                    with _Phase(tracer, "check"):
                        self._check_candidate(checks, cand, stage, graph, canonical, member, seen_canonical)
                    if canonical is not None:
                        round_canonical.append(canonical)
                        if cand.kind in ("corpus", "hand"):
                            canonical_of[cand.text] = canonical
                        elif cand.kind in ("corpus-perm", "hand-perm"):
                            pending_perms.append((cand, canonical))
                if position in cover_at:
                    n_sensors, optimum = inputs.COVER_SIZES[cover_at[position]]
                    self._cover_problem(checks, tracer, result, n_sensors, optimum, round_canonical, position)
            with _Phase(tracer, "check"):
                for cand, canonical in pending_perms:
                    checks.expect("canonical SMILES invariant under atom permutation",
                                  canonical_of.get(cand.source) == canonical, f"{cand.source} vs {cand.text}")
            result.rounds += 1
        result.units = result.attempted = len(result.op_seconds)
        result.attempted += len(result.cover_seconds)
        return result

    def _check_candidate(self, checks, cand: Candidate, stage, graph, canonical, member, seen_canonical) -> None:
        smiles, chemrules = self.m["smiles"], self.m["chemrules"]
        if cand.kind == "invalid":
            checks.expect("invalid input rejected at its stage", stage == cand.expect, f"{cand.text}: {stage} != {cand.expect}")
            return
        checks.expect("valid input passes the cascade", stage is None and canonical is not None, f"{cand.text}: {stage}")
        if canonical is None:
            return
        if cand.kind in ("corpus", "corpus-perm"):
            checks.expect("corpus rows are corpus members", member, cand.text)
        if cand.expect:
            valence = chemrules.valence_check(graph)
            hydrogens = sum(d.implicit_hydrogens for d in valence.per_atom)
            symbols = [a.symbol for a in graph.atoms]
            checks.expect("formula matches the reference", inputs.formula_matches(symbols, hydrogens, cand.expect),
                          f"{cand.text}: {inputs.hill_formula(symbols, hydrogens)} != {cand.expect}")
        if canonical not in seen_canonical:
            seen_canonical.add(canonical)
            checks.expect("canonical SMILES round-trips", smiles.canonicalize(smiles.parse(canonical)) == canonical, canonical)
            again = chemrules.sanitize(graph)
            checks.expect("sanitize is idempotent",
                          again.graph == graph and again.report.final_verdict, cand.text)

    def _cover_problem(self, checks, tracer, result, n_sensors, optimum, names, position) -> None:
        sensorselect = self.m["sensorselect"]
        with _Phase(tracer, "inputs"):
            rng = inputs.rng_for(self.seed, "cover", result.rounds, position)
            pool = sorted(set(names))
            planted = inputs.planted_cover(n_sensors, optimum, rng.sample(pool, min(len(pool), self.TARGETS_PER_PROBLEM)), rng)
            catalog = sensorselect.SensorCatalog(
                tuple(sensorselect.Sensor(sid, detects, cost) for sid, detects, cost in planted.sensors)
            )
            problem = sensorselect.CoverageProblem(planted.targets, catalog)
            current = [sid for sid, _, _ in planted.sensors]
        _next_op(tracer)
        exact, greedy, pruned, seconds = solve_cover(self.m, problem, current)
        result.cover_seconds.append(seconds)
        result.busy_seconds += seconds
        with _Phase(tracer, "check"):
            check_cover(checks, problem, current, exact, greedy, pruned, planted.planted, planted.uncoverable)


WORKLOADS = {"generate": Generate, "train": Train, "curate": Curate}
