import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scentgen import chemrules, dataio, diffusion, generator, numcore, smiles
from scentgen.diffusion import NoiseSchedule, beta_at
from scentgen.generator import (
    BondSource,
    EmptyInput,
    GenerationConfig,
    Mode,
    UntrainedParams,
    assign_bond_types,
    decode_atoms,
    finalize,
    propose_edges,
    sample,
    summarize,
    validity_rate,
)
from scentgen.molgraph import Atom, BondType, add_bond, graph_to_dict, new_graph
from scentgen.numcore import ParamStore


def constrained(**kw):
    defaults = dict(mode=Mode.CONSTRAINED, steps=30, n_atoms=5, seed=0)
    defaults.update(kw)
    return GenerationConfig(**defaults)


# ------------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(mode=Mode.CONSTRAINED, allowlist=frozenset())
    with pytest.raises(ValueError):
        GenerationConfig(allowlist=frozenset({300}), mode=Mode.CONSTRAINED)
    with pytest.raises(ValueError):
        GenerationConfig(n_atoms=0)
    with pytest.raises(ValueError):
        GenerationConfig(atom_count_pool=(3, 0))
    with pytest.raises(ValueError):
        GenerationConfig(seed=-1)


# ------------------------------------------------------------------ decode


def test_decode_rounding_constrained():
    cfg = constrained(allowlist=frozenset({6}))
    assert decode_atoms([5.8, 6.4], cfg) == ([0, 1], [6, 6])


def test_decode_nan_dropped():
    cfg = GenerationConfig(steps=10)
    assert decode_atoms([float("nan")], cfg) == ([], [])


def test_decode_allowlist_filter():
    cfg = constrained(allowlist=frozenset({6, 7, 8}))
    assert decode_atoms([9.2], cfg) == ([], [])


def test_decode_unconstrained_keeps_range():
    cfg = GenerationConfig(mode=Mode.UNCONSTRAINED, steps=10)
    assert decode_atoms([9.2, 200.0, -5.0, 1.2], cfg) == ([0, 3], [9, 1])


def test_atomic_range_round_and_filter():
    assert decode_atoms([6.2, 7.9, -3.0], GenerationConfig()) == ([0, 1], [6, 8])


def test_atomic_range_out_of_range():
    assert decode_atoms([200.0], GenerationConfig()) == ([], [])


def test_atomic_range_boundaries():
    assert decode_atoms([1.0, 118.0], GenerationConfig()) == ([0, 1], [1, 118])
    assert decode_atoms([0.4, 118.4], GenerationConfig()) == ([1], [118])


def test_atomic_range_non_finite():
    assert decode_atoms([float("nan"), float("inf"), 6.0], GenerationConfig()) == ([2], [6])


def per_atom_decode(x, config):
    """The per-atom decoding rule: round each value (a non-finite one as 0), keep it in [1, 118]
    and, in constrained mode, on the allowlist."""
    keep, atoms = [], []
    for idx, v in enumerate(np.asarray(x, dtype=np.float64).reshape(-1)):
        v = float(v)
        z = round(v if math.isfinite(v) else 0.0)
        if 1 <= z <= 118 and (config.mode is Mode.UNCONSTRAINED or z in config.allowlist):
            keep.append(idx)
            atoms.append(z)
    return keep, atoms


DECODE_EDGES = [0.5, -0.5, 1.5, 2.5, 0.4, 118.4, 118.5, 117.5, 0.0, -0.0, math.nan, math.inf, -math.inf, 1e4, -1e4]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.sampled_from(DECODE_EDGES)
        | st.integers(-300, 300).map(lambda k: k / 2)
        | st.floats(-1e4, 1e4)
        | st.floats(),
        max_size=12,
    ),
    mode=st.sampled_from(list(Mode)),
    allowlist=st.frozensets(st.integers(1, 118), min_size=1, max_size=8),
)
def test_decode_atoms_matches_the_per_atom_rule(values, mode, allowlist):
    config = GenerationConfig(mode=mode, allowlist=allowlist)
    keep, atoms = decode_atoms(values, config)
    assert (keep, atoms) == per_atom_decode(values, config)
    assert all(type(k) is int for k in keep) and all(type(z) is int for z in atoms)


# ------------------------------------------------------------------- edges


def test_propose_edges_threshold():
    coords = np.array([[0.0, 0, 0], [1.2, 0, 0]])
    assert propose_edges(coords, [6, 6]) == [(0, 1)]


def test_propose_edges_far_apart():
    coords = np.array([[0.0, 0, 0], [5.0, 0, 0]])
    assert propose_edges(coords, [6, 6]) == []


def test_propose_edges_collinear():
    coords = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    assert propose_edges(coords, [6, 6, 6]) == [(0, 1), (1, 2)]


# -------------------------------------------------------------- bond types


def test_assign_bond_types_classifier_argmax():
    params = ParamStore()
    w = np.zeros((2 * diffusion.HIDDEN_DIM, 4))
    b = np.array([50.0, 0.0, 0.0, 0.0])  # logits pinned to class SINGLE
    params.add("bond.w", w)
    params.add("bond.b", b)
    h = np.random.default_rng(0).normal(size=(3, diffusion.HIDDEN_DIM))
    typed = assign_bond_types([(0, 1), (1, 2)], h, [6, 6, 6], params)
    assert all(t is BondType.SINGLE for _, _, t in typed)


def test_assign_bond_types_is_argmax_of_bond_head():
    params = diffusion.init_params(vocab_size=3, seed=2)
    h = np.random.default_rng(1).normal(size=(5, diffusion.HIDDEN_DIM))
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    typed = assign_bond_types(edges, h, [6] * 5, params)
    logits = diffusion.bond_head(numcore.Tensor(h), edges, params).data
    assert [t for _, _, t in typed] == [diffusion.BOND_CLASSES[k] for k in np.argmax(logits, axis=1)]


def test_classifier_bond_typing_records_no_tape(monkeypatch):
    """Bond typing runs on plain arrays: it constructs no Tensor, so it records nothing."""
    params = diffusion.init_params(vocab_size=3, seed=2)
    h = np.random.default_rng(1).normal(size=(4, diffusion.HIDDEN_DIM))
    init, made = numcore.Tensor.__init__, []

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(numcore.Tensor, "__init__", counting_init)
    assert len(assign_bond_types([(0, 1), (2, 3)], h, [6] * 4, params)) == 2
    assert made == []


def test_assign_bond_types_checks_the_bond_head_shape():
    params = diffusion.init_params(vocab_size=3, seed=2)
    h = np.zeros((2, diffusion.HIDDEN_DIM + 1))
    with pytest.raises(numcore.ShapeMismatch):
        assign_bond_types([(0, 1)], h, [6, 6], params)
    with pytest.raises(numcore.UnknownParam):
        assign_bond_types([(0, 1)], h, [6, 6], ParamStore())


def test_assign_bond_types_heuristic():
    typed = assign_bond_types([(0, 1)], np.zeros((2, 8)), [6, 8], ParamStore(), source=BondSource.HEURISTIC)
    assert typed == [(0, 1, chemrules.heuristic_bond_type(6, 8))]


def test_assign_bond_types_empty():
    assert assign_bond_types([], np.zeros((0, 8)), [], ParamStore()) == []


# ---------------------------------------------------------------- finalize


def ethanol_graph():
    g = new_graph([Atom(6, (0, 0, 0)), Atom(6, (1.5, 0, 0)), Atom(8, (3.0, 0, 0))])
    g = add_bond(g, 0, 1, BondType.SINGLE)
    g = add_bond(g, 1, 2, BondType.SINGLE)
    return g


def test_finalize_ethanol_with_corpus():
    corpus = frozenset({smiles.canonicalize(smiles.parse("CCO"))})
    report, text, matched, corrected = finalize(ethanol_graph(), corpus)
    assert report.final_verdict
    assert text == smiles.canonicalize(smiles.parse("CCO"))
    assert matched


def test_finalize_pentavalent_fails():
    g = new_graph([Atom(6, (float(k), 0, 0)) for k in range(6)])
    for k in range(1, 6):
        g = add_bond(g, 0, k, BondType.SINGLE)
    report, text, matched, _ = finalize(g)
    assert not report.final_verdict
    assert text is None
    assert not matched


def test_finalize_novel_molecule_not_failure():
    report, text, matched, _ = finalize(ethanol_graph(), corpus=frozenset({"XYZ"}))
    assert report.final_verdict
    assert text is not None
    assert matched is False


# ------------------------------------------------------------------ sample


def reference_sample(y, config, params, seed):
    """`sample` as a plain loop over the reverse steps, on coordinates held fixed.

    Every reverse step embeds its own timestep and descriptor, builds its own
    edges and runs the EGNN's whole coordinate stream anew:
    `denoiser_forward` is called without prepared constants, and with
    recording on, so each pass is the taped chain of primitives.  The step
    size is worked out from `beta_at` at every step.  The output coordinates
    are read and dropped; the drawn ones place the atoms.  The classifier's
    bond types are the argmax of the taped bond head.
    """
    y = diffusion.descriptor_vector(y, params)
    rng = np.random.default_rng(seed)
    n = config.n_atoms if config.n_atoms is not None else int(rng.choice(config.atom_count_pool))
    schedule = NoiseSchedule(config.steps)
    x = rng.standard_normal((n, 1))
    coords = 0.8 * rng.standard_normal((n, 3))
    steps_executed = 0
    embeddings = np.zeros((n, diffusion.HIDDEN_DIM))
    for t in range(config.steps, 0, -1):
        out = diffusion.denoiser_forward(x, coords, (), t, schedule, y, params)
        sqrt_bt = math.sqrt(beta_at(schedule, t))
        sqrt_bt_prev = math.sqrt(beta_at(schedule, t - 1)) if t > 1 else 0.0
        x = np.clip(x - (sqrt_bt - sqrt_bt_prev) * out.eps_hat.data, -1e4, 1e4)
        embeddings = out.node_embeddings.data
        steps_executed += 1
    raw = [float(v) for v in x.reshape(-1)]
    keep, decoded = decode_atoms(x, config)
    kept_coords = coords[keep]
    edges = propose_edges(kept_coords, decoded)
    if config.bond_source is BondSource.HEURISTIC:
        typed = assign_bond_types(edges, embeddings[keep], decoded, params, config.bond_source)
    else:
        logits = diffusion.bond_head(numcore.Tensor(embeddings[keep]), edges, params).data
        typed = [(i, j, diffusion.BOND_CLASSES[k]) for (i, j), k in zip(edges, np.argmax(logits, axis=1))]
    assembled = new_graph([Atom(z, tuple(xyz)) for z, xyz in zip(decoded, kept_coords)], typed)
    report, text, matched, corrected = finalize(assembled)
    return generator.GenerationReport(
        raw_features=raw,
        decoded_atoms=decoded,
        proposed_edges=edges,
        typed_edges=[(i, j, t.value) for i, j, t in typed],
        validation=report,
        smiles=text,
        corpus_match=matched,
        fragments=len(corrected.connected_components()),
        steps_executed=steps_executed,
        seed=seed,
        graph=graph_to_dict(corrected) if report.final_verdict else None,
    )


@pytest.mark.parametrize("n_atoms", [1, 2, 6, 11])
@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("bonds", list(BondSource))
def test_sample_equals_the_per_step_reverse_loop(quick_trained, n_atoms, mode, bonds):
    """Tape-free passes over constants built once per trajectory give the bits of taped passes that build their own."""
    vocab, params = quick_trained
    y = dataio.multi_hot({"fruity", "sweet"}, vocab)
    cfg = GenerationConfig(mode=mode, n_atoms=n_atoms, steps=12, bond_source=bonds)
    for seed in (0, 1, 2):
        assert sample(y, cfg, params, seed=seed).to_dict() == reference_sample(y, cfg, params, seed).to_dict()


def test_clip_features_has_the_bits_of_np_clip():
    special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e4, -1e4, 1e4 + 1e-12, -1e4 - 1e-12, 1e308, -5e-324, 3.5]
    x = np.array(special).reshape(-1, 1)
    with np.errstate(invalid="ignore"):
        want = np.clip(x, -1e4, 1e4)
    got = generator.clip_features(x)
    assert got.tobytes() == want.tobytes() and got is not x
    assert generator.FEATURE_BOUND == 1e4


def test_sample_requires_params():
    with pytest.raises(UntrainedParams):
        sample(np.zeros(3), constrained(), ParamStore())


def denoiser_params(vocab_size=3, drop=(), replace=None, extra=None):
    """init_params(vocab_size) without the names in `drop`, with `replace` values and `extra` names."""
    full = diffusion.init_params(vocab_size)
    params = ParamStore()
    for name in full.names():
        if name not in drop:
            params.add(name, (replace or {}).get(name, full[name].data))
    for name, value in (extra or {}).items():
        params.add(name, value)
    return params


@pytest.mark.parametrize(
    "params",
    [
        denoiser_params(drop=("head.b",)),
        denoiser_params(replace={"head.b": np.zeros((1, 1))}),
        denoiser_params(replace={"cond.w": np.zeros((3, diffusion.HIDDEN_DIM + 1))}),
        denoiser_params(replace={"egnn.1.coord_mlp.w2": np.zeros(diffusion.HIDDEN_DIM)}),
        denoiser_params(extra={"head.w2": np.zeros((2, 2))}),
    ],
    ids=["without head.b", "head.b of shape (1, 1)", "cond.w too wide", "a weight of one axis", "an extra weight"],
)
def test_sample_requires_every_parameter_in_its_shape(params):
    with pytest.raises(UntrainedParams):
        sample(np.zeros(3), constrained(), params)


@pytest.mark.parametrize("vocab_size", [0, 1, 7])
def test_sample_accepts_any_vocabulary_size(vocab_size):
    cond = np.random.default_rng(0).normal(size=(vocab_size, diffusion.HIDDEN_DIM))
    params = denoiser_params(replace={"cond.w": cond})
    assert sample(np.zeros(vocab_size), constrained(steps=3), params).steps_executed == 3


def test_sample_deterministic(quick_trained):
    vocab, params = quick_trained
    y = np.zeros(len(vocab))
    cfg = constrained(seed=21)
    r1 = sample(y, cfg, params)
    r2 = sample(y, cfg, params)
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)


def test_sample_constrained_closure(quick_trained):
    vocab, params = quick_trained
    y = np.zeros(len(vocab))
    cfg = constrained(seed=2, n_atoms=None, atom_count_pool=(3, 4, 5, 6))
    for k in range(60):
        report = sample(y, cfg, params, seed=k)
        assert all(z in cfg.allowlist for z in report.decoded_atoms)


def test_sample_steps_executed(quick_trained):
    vocab, params = quick_trained
    report = sample(np.zeros(len(vocab)), constrained(steps=17), params)
    assert report.steps_executed == 17


def test_sample_descriptor_set_path(quick_trained):
    """A descriptor set reaches the sampler as its multi-hot vector."""
    vocab, params = quick_trained
    y = dataio.multi_hot({"fruity"}, vocab)
    assert y.sum() == 1.0 and y[vocab.index("fruity")] == 1.0
    report = sample(y, constrained(seed=4), params)
    assert report.steps_executed == 30


@pytest.mark.parametrize("y", [{"fruity"}, ["fruity"], "fruity", None, [[1.0], [0.0, 1.0]], [1j, 0j]])
def test_sample_rejects_non_numeric_descriptor(quick_trained, y):
    _, params = quick_trained
    with pytest.raises(TypeError):
        sample(y, constrained(steps=2), params)


def test_sample_wrong_length_raises_length_mismatch(quick_trained):
    vocab, params = quick_trained
    for y in (np.zeros(len(vocab) + 1), [1] * (len(vocab) - 1), 1.0):
        with pytest.raises(diffusion.LengthMismatch):
            sample(y, constrained(steps=2), params)


def test_sample_refuses_a_non_finite_descriptor():
    """NaN or an infinity would turn the conditioning row NaN and leave the features at their draw."""
    params = diffusion.init_params(vocab_size=4)
    with pytest.raises(diffusion.NonFiniteDescriptor):
        sample([math.nan, 1, 0, math.inf], constrained(steps=2), params)


def test_sample_checks_its_descriptor_once(quick_trained, monkeypatch):
    vocab, params = quick_trained
    checked = []
    check = diffusion._descriptors

    def spy(*args, **kwargs):
        checked.append(args[0])
        return check(*args, **kwargs)

    monkeypatch.setattr(diffusion, "_descriptors", spy)
    y = dataio.multi_hot({"fruity"}, vocab)
    for seed in (0, 1):
        sample(y, constrained(seed=seed, steps=3), params)
        assert len(checked) == 1 and checked[0] is y
        checked.clear()


def test_sample_numeric_descriptor_forms_agree(quick_trained):
    """A list, a bool array and an int array sample exactly like the float vector."""
    vocab, params = quick_trained
    y = dataio.multi_hot({"fruity", "sweet"}, vocab)
    want = json.dumps(sample(y, constrained(seed=6, steps=8), params).to_dict(), sort_keys=True)
    for form in (list(y), y.astype(bool), y.astype(np.int64)):
        got = sample(form, constrained(seed=6, steps=8), params)
        assert json.dumps(got.to_dict(), sort_keys=True) == want


def test_sample_zero_params_no_crash(quick_trained):
    vocab, params = quick_trained
    zeroed = ParamStore()
    for name in params.names():
        zeroed.add(name, np.zeros_like(params[name].data))
    report = sample(np.zeros(len(vocab)), constrained(seed=1), zeroed)
    assert report.validation is not None  # ran to completion


def test_sample_valid_reports_reparse(quick_trained, fixture_corpus):
    """Every emitted SMILES re-parses and re-sanitizes to a pass verdict."""
    vocab, params = quick_trained
    y = np.zeros(len(vocab))
    cfg = GenerationConfig(steps=40, n_atoms=None, atom_count_pool=(1, 2, 3, 4, 5), seed=0)
    seen_valid = 0
    for k in range(80):
        report = sample(y, cfg, params, corpus=fixture_corpus, seed=k)
        assert (report.smiles is not None) == report.valid
        if report.valid:
            seen_valid += 1
            again = chemrules.sanitize(smiles.parse(report.smiles))
            assert again.report.final_verdict
    assert seen_valid >= 1


# ----------------------------------------- sample as a library entry point

PROPERTY_VOCAB = 4
PROPERTY_PARAMS = diffusion.init_params(PROPERTY_VOCAB, seed=3)


def descriptor_cases():
    """(kind, descriptor) pairs: vectors `sample` takes, and the ones it must refuse."""
    number = st.floats(allow_nan=False, allow_infinity=False) | st.booleans() | st.integers(-3, 3)
    good = st.lists(number, min_size=PROPERTY_VOCAB, max_size=PROPERTY_VOCAB)
    non_finite = st.tuples(
        good, st.integers(0, PROPERTY_VOCAB - 1), st.sampled_from([math.nan, math.inf, -math.inf])
    ).map(lambda case: case[0][: case[1]] + [case[2]] + case[0][case[1] + 1 :])
    wrong_length = st.lists(st.floats(-2, 2), max_size=9).filter(lambda v: len(v) != PROPERTY_VOCAB)
    non_numeric = (
        st.lists(st.text(max_size=3), min_size=1, max_size=PROPERTY_VOCAB)
        | st.sets(st.integers(0, 3), min_size=1)
        | st.sampled_from([None, "fruity", [1j, 0j, 0j, 1j]])
    )
    ragged = st.tuples(
        st.lists(st.floats(-1, 1), min_size=1, max_size=2), st.lists(st.floats(-1, 1), min_size=3, max_size=4)
    ).map(list)
    return (
        st.tuples(st.just("good"), good)
        | st.tuples(st.just("good"), good.map(np.array))
        | st.tuples(st.just("length"), wrong_length)
        | st.tuples(st.just("non-finite"), non_finite)
        | st.tuples(st.just("non-finite"), non_finite.map(np.array))
        | st.tuples(st.just("non-numeric"), non_numeric)
        | st.tuples(st.just("ragged"), ragged)
    )


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    case=descriptor_cases(),
    n_atoms=st.integers(1, 11),
    steps=st.integers(1, 4),
    mode=st.sampled_from(list(Mode)),
    allowlist=st.just(generator.DEFAULT_ALLOWLIST) | st.frozensets(st.integers(-1, 120), max_size=3),
    seed=st.integers(0, 2**63),
    trained=st.sampled_from([True, True, True, False]),
)
def test_sample_returns_a_report_or_raises_a_documented_error(case, n_atoms, steps, mode, allowlist, seed, trained):
    """A config ValueError, UntrainedParams, TypeError, LengthMismatch or NonFiniteDescriptor.

    Each for its cause; else a report.
    """
    kind, y = case
    try:
        config = GenerationConfig(mode=mode, allowlist=allowlist, n_atoms=n_atoms, steps=steps, seed=seed)
    except ValueError:
        assert mode is Mode.CONSTRAINED and (not allowlist or min(allowlist) < 1 or max(allowlist) > 118)
        return
    params = PROPERTY_PARAMS if trained else ParamStore()
    expected = {
        "length": diffusion.LengthMismatch,
        "non-finite": diffusion.NonFiniteDescriptor,
        "non-numeric": TypeError,
        "ragged": TypeError,
    }.get(kind)
    if not trained:
        expected = UntrainedParams
    if expected is not None:
        with pytest.raises(expected):
            sample(y, config, params)
        return
    report = sample(y, config, params)
    assert report.steps_executed == steps and report.seed == seed
    assert len(report.raw_features) == n_atoms
    assert all(math.isfinite(v) and abs(v) <= 1e4 for v in report.raw_features)
    if mode is Mode.CONSTRAINED:
        assert set(report.decoded_atoms) <= allowlist


# ---------------------------------------------------------------- reporting


def test_validity_rate_all_pass(quick_trained, fixture_corpus):
    class Stub:
        def __init__(self, valid):
            self.valid = valid
            self.corpus_match = False

    assert validity_rate([Stub(True)] * 4) == 1.0
    assert validity_rate([Stub(True), Stub(False), Stub(False), Stub(False)]) == 0.25
    with pytest.raises(EmptyInput):
        validity_rate([])


def test_summarize_counts(quick_trained):
    vocab, params = quick_trained
    y = np.zeros(len(vocab))
    cfg = constrained(seed=3)
    reports = [sample(y, cfg, params, seed=k) for k in range(5)]
    summary = summarize(reports, Mode.CONSTRAINED, seed=3)
    assert summary["samples"] == 5
    assert summary["valid"] == sum(1 for r in reports if r.valid)
    assert summary["mode"] == "constrained"
    assert 0.0 <= summary["validity_rate"] <= 1.0


def report_of(atoms, fragments, passed=True):
    validation = chemrules.ValidationReport([chemrules.StageResult("valence", passed)])
    return generator.GenerationReport(
        raw_features=[float(z) for z in atoms], decoded_atoms=atoms, proposed_edges=[], typed_edges=[],
        validation=validation, smiles="C" if passed else None, corpus_match=False, fragments=fragments,
        steps_executed=1, seed=0,
    )


def test_summarize_counts_multiatom_and_connected_valid_samples():
    reports = [
        report_of([1], 1),          # a lone [H]: connected, not multi-atom
        report_of([1, 1], 1),       # two atoms, neither heavy
        report_of([6, 1], 1),       # one heavy atom
        report_of([6, 8], 2),       # two heavy atoms, two fragments
        report_of([6, 8, 1], 1),    # two heavy atoms, one fragment
        report_of([6, 6], 1, passed=False),
    ]
    summary = summarize(reports, Mode.UNCONSTRAINED, seed=0)
    assert summary["valid"] == 5
    assert summary["valid_multiatom"] == 2
    assert summary["valid_connected"] == 4
    assert summary["failure_stages"] == {"valence": 1}
