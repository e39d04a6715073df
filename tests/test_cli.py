import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scentgen import cli, dataio, diffusion, numcore, sensorselect
from scentgen.cli import EXIT_BAD_INPUT, EXIT_DIVERGED, EXIT_INVALID, EXIT_OK


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TINY_ROWS = ["CCO,floral;sweet", "CCC,waxy", "CCN,fishy", "CC=O,green", "CCCO,alcoholic",
             "CC(C)O,alcoholic", "CCCC,gasoline", "CC(=O)C,solvent", "COC,ethereal", "CCS,sulfurous"]


@pytest.fixture()
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("smiles,descriptors\n" + "\n".join(TINY_ROWS) + "\n")
    return path


@pytest.fixture()
def trained_checkpoint(tmp_path, tiny_csv, capsys):
    out = tmp_path / "model.json"
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"steps": 900, "epochs": 8, "batch_size": 4, "seed": 3}))
    code = cli.main(["train", "--data", str(tiny_csv), "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    return out


# ------------------------------------------------------------------- ingest


def test_ingest_summary(tiny_csv, capsys):
    code, out, _ = run_cli(capsys, "ingest", str(tiny_csv))
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["molecules"] == 10
    assert "floral" in summary["vocabulary"]


def test_ingest_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "ingest", str(tmp_path / "none.csv"))
    assert code == EXIT_BAD_INPUT
    assert "not found" in err


# -------------------------------------------------------------------- train


def test_train_writes_checkpoint_and_metrics(tmp_path, tiny_csv, capsys):
    out = tmp_path / "ckpt.json"
    metrics = tmp_path / "metrics.csv"
    code, stdout, _ = run_cli(
        capsys, "train", "--data", str(tiny_csv), "--out", str(out),
        "--metrics", str(metrics), "--epochs", "5", "--steps", "800", "--seed", "1",
    )
    assert code == EXIT_OK
    assert out.exists()
    lines = metrics.read_text().splitlines()
    assert lines[0] == "epoch,mse_loss,ce_loss,total_loss"
    assert len(lines) == 6  # header + one row per epoch


def test_train_missing_dataset(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "train", "--data", str(tmp_path / "none.csv"), "--out", str(tmp_path / "x.json"),
        "--epochs", "1",
    )
    assert code == EXIT_BAD_INPUT


@pytest.mark.parametrize(
    "bad",
    [
        {"batch_size": 0},
        {"batch_size": -3},
        {"epochs": -1},
        {"learning_rate": "nan"},
        {"learning_rate": "inf"},
        {"learning_rate": 0.0},
        {"learning_rate": -1e-3},
        {"batch_size": "many"},
        {"learning_rate": float("nan")},
        {"learning_rate": "0.001"},
        {"learning_rate": False},
        {"tau": "1"},
        {"tau": True},
        {"batch_size": True},
        {"batch_size": 4.0},
        {"epochs": "1"},
        {"epochs": True},
        {"epochs": 1.5},
        {"steps": "900"},
        {"seed": "1"},
        {"seed": 1.0},
    ],
)
def test_train_rejects_config_that_cannot_train(tmp_path, tiny_csv, capsys, bad):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"steps": 900, "epochs": 1, **bad}))
    out = tmp_path / "model.json"
    code, stdout, err = run_cli(
        capsys, "train", "--data", str(tiny_csv), "--config", str(config), "--out", str(out)
    )
    assert code == EXIT_BAD_INPUT
    assert stdout == "" and not out.exists()
    assert "bad training config" in err


def test_train_steps_range_enforced(tmp_path, tiny_csv, capsys):
    code, _, err = run_cli(
        capsys, "train", "--data", str(tiny_csv), "--out", str(tmp_path / "x.json"),
        "--epochs", "1", "--steps", "50",
    )
    assert code == EXIT_BAD_INPUT
    assert "--steps" in err


def test_train_divergence_exit_code(tmp_path, tiny_csv, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"learning_rate": 1e3, "epochs": 60, "batch_size": 2}))
    code, _, err = run_cli(
        capsys, "train", "--data", str(tiny_csv), "--config", str(config),
        "--out", str(tmp_path / "x.json"),
    )
    assert code == EXIT_DIVERGED
    assert "diverged" in err


def test_config_numbers_are_read_by_their_json_type(tmp_path):
    """Counts, steps and seeds are JSON integers; a float setting may also be written as an integer."""
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"steps": 900, "epochs": 2, "batch_size": 3, "tau": 2, "learning_rate": 1, "seed": 4}))
    read, _, _ = cli._train_config(
        cli.build_parser().parse_args(["train", "--data", "x", "--out", "y", "--config", str(config)])
    )
    assert (read.steps, read.epochs, read.batch_size, read.seed) == (900, 2, 3, 4)
    assert (read.tau, read.learning_rate) == (2.0, 1.0)
    assert type(read.tau) is float and type(read.learning_rate) is float


def test_default_epochs_and_steps_match_contract():
    config, _, _ = cli._train_config(
        cli.build_parser().parse_args(["train", "--data", "x", "--out", "y"])
    )
    assert config.epochs == 1000
    assert config.steps == 1000


# ----------------------------------------------------------------- generate


def test_generate_reports_and_summary(tmp_path, trained_checkpoint, capsys):
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"descriptors": ["floral", "sweet"], "count": 4}))
    out = tmp_path / "gen.jsonl"
    code, stdout, _ = run_cli(
        capsys, "generate", "--checkpoint", str(trained_checkpoint), "--query", str(query),
        "--out", str(out), "--seed", "7",
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    report = json.loads(lines[0])
    assert {"smiles", "validation", "decoded_atoms", "corpus_match"} <= set(report)
    summary = json.loads(stdout)
    assert summary["samples"] == 4
    assert {"validity_rate", "valid_multiatom", "valid_connected"} <= set(summary)
    assert summary["valid_connected"] <= summary["valid"] and summary["valid_multiatom"] <= summary["valid"]


def test_generate_unknown_descriptor_warns(tmp_path, trained_checkpoint, capsys):
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"descriptors": ["no_such_scent"], "count": 1}))
    out = tmp_path / "gen.jsonl"
    code, stdout, err = run_cli(
        capsys, "generate", "--checkpoint", str(trained_checkpoint), "--query", str(query),
        "--out", str(out),
    )
    assert code == EXIT_OK
    summary = json.loads(stdout)
    assert summary["dropped_descriptors"] == ["no_such_scent"]


def test_generate_zero_samples(tmp_path, trained_checkpoint, capsys):
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"descriptors": [], "count": 0}))
    out = tmp_path / "gen.jsonl"
    code, stdout, _ = run_cli(
        capsys, "generate", "--checkpoint", str(trained_checkpoint), "--query", str(query),
        "--out", str(out),
    )
    assert code == EXIT_OK
    assert out.read_text() == ""
    summary = json.loads(stdout)
    assert summary["samples"] == 0
    assert summary["corpus_matches"] == 0 and summary["failure_stages"] == {}

    code, one_sample, _ = run_cli(
        capsys, "generate", "--checkpoint", str(trained_checkpoint), "--query", str(query),
        "--out", str(out), "--n", "1",
    )
    assert code == EXIT_OK
    assert set(summary) == set(json.loads(one_sample))


def test_generate_reads_the_meta_that_train_and_the_benchmark_write(tmp_path, trained_checkpoint, capsys):
    """The meta `train` writes, and the one perfbench's `prepare_checkpoint` writes, set up a run."""
    params, trained = numcore.load_checkpoint(str(trained_checkpoint))
    benchmark = {"vocabulary": trained["vocabulary"], "steps": 800, "tau": 0.5, "atom_count_pool": [2, 3, 3, 5]}
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"descriptors": ["floral"], "count": 1}))
    for name, meta in (("trained", trained), ("benchmark", benchmark)):
        checkpoint, out = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
        numcore.save_checkpoint(params, str(checkpoint), meta)
        code, _, err = run_cli(
            capsys, "generate", "--checkpoint", str(checkpoint), "--query", str(query), "--out", str(out)
        )
        assert code == EXIT_OK, err
        assert json.loads(out.read_text())["steps_executed"] == meta["steps"]


def test_generate_missing_checkpoint(tmp_path, capsys):
    query = tmp_path / "query.json"
    query.write_text("{}")
    code, _, _ = run_cli(
        capsys, "generate", "--checkpoint", str(tmp_path / "none.json"), "--query", str(query),
        "--out", str(tmp_path / "o.jsonl"),
    )
    assert code == EXIT_BAD_INPUT


# ----------------------------------------------------------------- validate


def test_validate_all_pass(tmp_path, capsys):
    path = tmp_path / "mols.smi"
    path.write_text("CCO\nc1ccccc1\nCC(=O)O\n")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.splitlines()]
    assert all(r["verdict"] for r in records)


def test_validate_failure_names_stage(tmp_path, capsys):
    path = tmp_path / "mols.smi"
    path.write_text("CCO\nC(C)(C)(C)(C)C\n")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == EXIT_INVALID
    records = [json.loads(line) for line in out.splitlines()]
    failing = [r for r in records if not r["verdict"]]
    assert failing
    stages = {s["name"]: s["passed"] for s in failing[0]["validation"]["stages"]}
    assert stages["valence"] is False


def test_validate_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.smi"
    path.write_text("")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == EXIT_OK
    assert "checked 0" in err


def test_validate_unreadable(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "validate", str(tmp_path / "none.smi"))
    assert code == EXIT_BAD_INPUT


def test_validate_parse_error_is_failure(tmp_path, capsys):
    path = tmp_path / "mols.smi"
    path.write_text("C(C\nC\u00b2\n", encoding="utf-8")  # "C²": a superscript two is no ring closure
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == EXIT_INVALID
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 2
    assert all(not record["verdict"] and "error" in record for record in records)


# ----------------------------------------------------------- select-sensors


def test_select_sensors_bundled_add(capsys):
    code, out, _ = run_cli(
        capsys, "select-sensors", str(sensorselect.bundled_scenario_path()), "--mode", "add"
    )
    assert code == EXIT_OK
    result = json.loads(out)
    assert len(result["chosen"]) == 4
    assert result["uncovered"] == []


def test_select_sensors_bundled_subtract(capsys):
    code, out, _ = run_cli(
        capsys, "select-sensors", str(sensorselect.bundled_scenario_path()), "--mode", "subtract"
    )
    assert code == EXIT_OK
    assert len(json.loads(out)["chosen"]) == 4


def test_select_sensors_exact_flag(tmp_path, capsys):
    scenario = tmp_path / "abc.json"
    scenario.write_text(json.dumps({
        "targets": ["NO", "NO2"],
        "sensors": [
            {"id": "A", "detects": ["NO"], "cost": 1.0},
            {"id": "B", "detects": ["NO2"], "cost": 1.0},
            {"id": "C", "detects": ["NO", "NO2"], "cost": 1.0},
        ],
    }))
    code, out, _ = run_cli(capsys, "select-sensors", str(scenario), "--mode", "add", "--exact")
    assert code == EXIT_OK
    assert json.loads(out)["chosen"] == ["C"]


def test_select_sensors_malformed(tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    scenario.write_text("{not json")
    code, _, _ = run_cli(capsys, "select-sensors", str(scenario))
    assert code == EXIT_BAD_INPUT


@pytest.mark.parametrize("cost", ["NaN", "Infinity", "-Infinity", '"nan"'])
def test_select_sensors_non_finite_cost_is_malformed(tmp_path, capsys, cost):
    scenario = tmp_path / "nan.json"
    scenario.write_text(
        '{"targets": ["NO"], "sensors": [{"id": "a", "detects": ["NO"], "cost": %s},'
        ' {"id": "b", "detects": ["NO"], "cost": 1.0}]}' % cost
    )
    for mode in (["--mode", "add", "--exact"], ["--mode", "add"]):
        code, out, err = run_cli(capsys, "select-sensors", str(scenario), *mode)
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert "malformed scenario" in err and "non-finite cost" in err


@pytest.mark.parametrize(
    "payload",
    [
        {"targets": ["NO2"], "sensors": [{"id": "A", "detects": "NO2"}]},
        {"targets": "NO2", "sensors": [{"id": "A", "detects": ["NO2"]}]},
        {"targets": ["NO2"], "sensors": [{"id": "A", "detects": ["NO2"]}], "current": "A"},
    ],
)
def test_select_sensors_string_for_list_is_malformed(tmp_path, capsys, payload):
    scenario = tmp_path / "letters.json"
    scenario.write_text(json.dumps(payload))
    for mode in (["--mode", "add"], ["--mode", "subtract"]):
        code, out, err = run_cli(capsys, "select-sensors", str(scenario), *mode)
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert "malformed scenario" in err and "must be a list" in err


def test_select_sensors_subtract_needs_current(tmp_path, capsys):
    scenario = tmp_path / "nc.json"
    scenario.write_text(json.dumps({
        "targets": ["NO"], "sensors": [{"id": "A", "detects": ["NO"], "cost": 1.0}],
    }))
    code, _, err = run_cli(capsys, "select-sensors", str(scenario), "--mode", "subtract")
    assert code == EXIT_BAD_INPUT
    assert "current" in err


# ------------------------------------------------------------- metrics-plot


def test_metrics_plot_three_polylines(tmp_path, capsys):
    csv = tmp_path / "m.csv"
    rows = ["epoch,mse_loss,ce_loss,total_loss"] + [f"{k},{1.0/k},{0.5/k},{1.5/k}" for k in range(1, 41)]
    csv.write_text("\n".join(rows) + "\n")
    svg = tmp_path / "m.svg"
    code, _, _ = run_cli(capsys, "metrics-plot", str(csv), "--out", str(svg))
    assert code == EXIT_OK
    text = svg.read_text()
    assert text.count("<polyline") == 3


def test_metrics_plot_single_row(tmp_path, capsys):
    csv = tmp_path / "m.csv"
    csv.write_text("epoch,mse_loss,ce_loss,total_loss\n1,1.0,0.5,1.5\n")
    svg = tmp_path / "one.svg"
    code, _, _ = run_cli(capsys, "metrics-plot", str(csv), "--out", str(svg))
    assert code == EXIT_OK
    assert svg.exists()


def test_metrics_plot_missing_column(tmp_path, capsys):
    csv = tmp_path / "m.csv"
    csv.write_text("epoch,mse_loss\n1,1.0\n")
    code, _, _ = run_cli(capsys, "metrics-plot", str(csv), "--out", str(tmp_path / "x.svg"))
    assert code == EXIT_BAD_INPUT


# ---------------------------------------------------------------- bad input

SCENARIO_SENSOR = {"id": "A", "detects": ["NO"], "cost": 1.0}
NOT_UTF8 = b"smiles,descriptors\nCCO,floral\n\xff\xfe\n"
THROUGH_FILE = "{tmp}/query.json/x"  # a path whose parent is a regular file
METRICS_ROW = b"epoch,mse_loss,ce_loss,total_loss\n1,1.0,0.5,1.5\n"
DEEP = b"[" * 100_000  # json raises RecursionError before it finds the file unterminated


def init_checkpoint(edit):
    """A file payload: the JSON of an init_params(2) checkpoint over two terms, changed in place by `edit`."""

    def write(path):
        numcore.save_checkpoint(diffusion.init_params(2), str(path), {"vocabulary": ["floral", "sweet"]})
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))

    return write


# name -> (subcommand and extra arguments, files to write: bytes as they are, a callable as it writes
# the path it is given, anything else as JSON)
BAD_INPUTS = {
    "generate --n-atoms 0": (["generate", "--n-atoms", "0"], {}),
    "generate --tau 0": (["generate", "--tau", "0"], {}),
    "train --tau 0": (["train", "--tau", "0"], {}),
    "train --tau nan": (["train", "--tau", "nan"], {}),
    "train --allowlist ²": (["train", "--allowlist", "²"], {}),
    "train --allowlist 0": (["train", "--allowlist", "0"], {}),
    "generate --allowlist 999": (["generate", "--allowlist", "999"], {}),
    "count not an integer": (["generate"], {"query.json": {"descriptors": [], "count": "x"}}),
    "count a numeric string": (["generate"], {"query.json": {"descriptors": [], "count": "2"}}),
    "count the string 1": (["generate"], {"query.json": {"descriptors": [], "count": "1"}}),
    "count a fraction": (["generate"], {"query.json": {"descriptors": [], "count": 1.9}}),
    "count an integral float": (["generate"], {"query.json": {"descriptors": [], "count": 1.0}}),
    "count true": (["generate"], {"query.json": {"descriptors": [], "count": True}}),
    "query is a list": (["generate"], {"query.json": [{"count": 1}]}),
    "config is a list": (["train", "--config", "{tmp}/config.json"], {"config.json": [{"epochs": 1}]}),
    "query is a directory": (["generate", "--query", "{tmp}"], {}),
    "scenario is a list": (["select-sensors", "{tmp}/scenario.json"], {"scenario.json": [SCENARIO_SENSOR]}),
    "sensor entry not an object": (
        ["select-sensors", "{tmp}/scenario.json"],
        {"scenario.json": {"targets": ["NO"], "sensors": [SCENARIO_SENSOR, "B"]}},
    ),
    "sensors not a list": (["select-sensors", "{tmp}/scenario.json"], {"scenario.json": {"targets": ["NO"], "sensors": 5}}),
    "ingest a directory": (["ingest", "{tmp}"], {}),
    "train --data a directory": (["train", "--data", "{tmp}"], {}),
    "generate --checkpoint a directory": (["generate", "--checkpoint", "{tmp}"], {}),
    "generate --corpus a directory": (["generate", "--corpus", "{tmp}"], {}),
    "select-sensors a directory": (["select-sensors", "{tmp}"], {}),
    "metrics-plot a directory": (["metrics-plot", "{tmp}", "--out", "{tmp}/out"], {}),
    "ingest through a file": (["ingest", THROUGH_FILE], {}),
    "train --data through a file": (["train", "--data", THROUGH_FILE], {}),
    "train --config through a file": (["train", "--config", THROUGH_FILE], {}),
    "generate --query through a file": (["generate", "--query", THROUGH_FILE], {}),
    "generate --checkpoint through a file": (["generate", "--checkpoint", THROUGH_FILE], {}),
    "generate --corpus through a file": (["generate", "--corpus", THROUGH_FILE], {}),
    "validate through a file": (["validate", THROUGH_FILE], {}),
    "select-sensors through a file": (["select-sensors", THROUGH_FILE], {}),
    "metrics-plot through a file": (["metrics-plot", THROUGH_FILE, "--out", "{tmp}/out"], {}),
    "ingest not UTF-8": (["ingest", "{tmp}/bytes"], {"bytes": NOT_UTF8}),
    "train --data not UTF-8": (["train", "--data", "{tmp}/bytes"], {"bytes": NOT_UTF8}),
    "train --config not UTF-8": (["train", "--config", "{tmp}/bytes"], {"bytes": NOT_UTF8}),
    "generate --query not UTF-8": (["generate", "--query", "{tmp}/bytes"], {"bytes": NOT_UTF8}),
    "generate --checkpoint not UTF-8": (["generate", "--checkpoint", "{tmp}/bytes"], {"bytes": NOT_UTF8}),
    "generate --corpus not UTF-8": (["generate", "--corpus", "{tmp}/bytes"], {"bytes": NOT_UTF8}),
    "validate not UTF-8": (["validate", "{tmp}/bytes"], {"bytes": NOT_UTF8}),
    "select-sensors not UTF-8": (["select-sensors", "{tmp}/bytes"], {"bytes": NOT_UTF8}),
    "metrics-plot not UTF-8": (["metrics-plot", "{tmp}/bytes", "--out", "{tmp}/out"], {"bytes": NOT_UTF8}),
    "checkpoint is a list": (["generate", "--checkpoint", "{tmp}/ckpt.json"], {"ckpt.json": []}),
    "checkpoint params not an object": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"], {"ckpt.json": {"format_version": 1, "params": 5}}
    ),
    "checkpoint adam not an object": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"],
        {"ckpt.json": {"format_version": 1, "params": {}, "adam": 3}},
    ),
    "checkpoint vocabulary not a list": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"],
        {"ckpt.json": {"format_version": 1, "params": {}, "meta": {"vocabulary": 5}}},
    ),
    "checkpoint atom_count_pool not integers": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"],
        {"ckpt.json": {"format_version": 1, "params": {}, "meta": {"atom_count_pool": ["x"]}}},
    ),
    "checkpoint mode unknown": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"],
        {"ckpt.json": {"format_version": 1, "params": {}, "meta": {"mode": "x"}}},
    ),
    "descriptors not a list": (["generate"], {"query.json": {"descriptors": 5}}),
    "descriptors a string": (["generate"], {"query.json": {"descriptors": "fruity"}}),
    "config allowlist not a list": (["train", "--config", "{tmp}/config.json"], {"config.json": {"allowlist": 5}}),
    "config constrained a string": (
        ["train", "--config", "{tmp}/config.json"], {"config.json": {"constrained": "false"}}
    ),
    "config seed negative": (["train", "--config", "{tmp}/config.json"], {"config.json": {"seed": -1}}),
    "config batch_size infinite": (
        ["train", "--config", "{tmp}/config.json"], {"config.json": {"batch_size": float("inf")}}
    ),
    "generate --seed negative": (["generate", "--seed", "-1"], {}),
    "count infinite": (["generate"], {"query.json": {"descriptors": [], "count": float("inf")}}),
    "checkpoint allowlist infinite": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"],
        {"ckpt.json": {"format_version": 1, "params": {}, "meta": {"allowlist": [float("inf")]}}},
    ),
    "checkpoint atom_count_pool zero": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"],
        {"ckpt.json": {"format_version": 1, "params": {}, "meta": {"atom_count_pool": [0]}}},
    ),
    "checkpoint adam steps infinite": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"],
        {"ckpt.json": {"format_version": 1, "params": {}, "adam": {"steps": float("inf")}}},
    ),
    "train --out into a missing directory": (["train", "--out", "{tmp}/nodir/model.json"], {}),
    "train --metrics into a missing directory": (["train", "--metrics", "{tmp}/nodir/m.csv"], {}),
    "generate --out into a missing directory": (["generate", "--out", "{tmp}/nodir/gen.jsonl"], {}),
    "ingest --out into a missing directory": (["ingest", "{tmp}/tiny.csv", "--out", "{tmp}/nodir/s.json"], {}),
    "metrics-plot --out into a missing directory": (
        ["metrics-plot", "{tmp}/m.csv", "--out", "{tmp}/nodir/m.svg"], {"m.csv": METRICS_ROW}
    ),
    "ingest --out a directory": (["ingest", "{tmp}/tiny.csv", "--out", "{tmp}"], {}),
    "train --out a directory": (["train", "--out", "{tmp}"], {}),
    "train --out the working directory": (["train", "--out", "."], {}),
    "train --metrics a directory": (["train", "--metrics", "{tmp}"], {}),
    "generate --out a directory": (["generate", "--out", "{tmp}"], {}),
    "metrics-plot --out a directory": (["metrics-plot", "{tmp}/m.csv", "--out", "{tmp}"], {"m.csv": METRICS_ROW}),
    "checkpoint nested too deep": (["generate", "--checkpoint", "{tmp}/deep.json"], {"deep.json": DEEP}),
    "query nested too deep": (["generate", "--query", "{tmp}/deep.json"], {"deep.json": DEEP}),
    "config nested too deep": (["train", "--config", "{tmp}/deep.json"], {"deep.json": DEEP}),
    "scenario nested too deep": (["select-sensors", "{tmp}/deep.json"], {"deep.json": DEEP}),
    "checkpoint without parameters": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"], {"ckpt.json": {"format_version": 1, "params": {}}}
    ),
    "checkpoint vocabulary longer than its weights": (  # two conditioning rows under five terms
        ["generate", "--checkpoint", "{tmp}/five.json"],
        {"five.json": init_checkpoint(lambda c: c["meta"].update(vocabulary=["floral", "sweet", "a", "b", "c"]))},
    ),
    "checkpoint without head.b": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"],
        {"ckpt.json": init_checkpoint(lambda c: c["params"].pop("head.b"))},
    ),
    "checkpoint head.b of the wrong shape": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"],
        {"ckpt.json": init_checkpoint(lambda c: c["params"]["head.b"].update(shape=[1, 1]))},
    ),
    # checkpoints that fit the model, with a meta field of the wrong JSON type
    "checkpoint steps a numeric string": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"],
        {"ckpt.json": init_checkpoint(lambda c: c["meta"].update(steps="800"))},
    ),
    "checkpoint tau a numeric string": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"],
        {"ckpt.json": init_checkpoint(lambda c: c["meta"].update(tau="0.5"))},
    ),
    "checkpoint allowlist of a string and a fraction": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"],
        {"ckpt.json": init_checkpoint(lambda c: c["meta"].update(allowlist=["6", 7.9]))},
    ),
    "checkpoint atom_count_pool of true and a string": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"],
        {"ckpt.json": init_checkpoint(lambda c: c["meta"].update(atom_count_pool=[True, "2"]))},
    ),
    "checkpoint vocabulary a string": (
        ["generate", "--checkpoint", "{tmp}/ckpt.json"],
        {"ckpt.json": init_checkpoint(lambda c: c["meta"].update(vocabulary="floral"))},
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2(tmp_path, tiny_csv, capsys, case):
    argv, files = BAD_INPUTS[case]
    checkpoint = tmp_path / "model.json"
    numcore.save_checkpoint(diffusion.init_params(2), str(checkpoint), {"vocabulary": ["floral", "sweet"]})
    (tmp_path / "query.json").write_text(json.dumps({"descriptors": ["floral"], "count": 1}))
    for name, payload in files.items():
        if callable(payload):
            payload(tmp_path / name)
        elif isinstance(payload, bytes):
            (tmp_path / name).write_bytes(payload)
        else:
            (tmp_path / name).write_text(json.dumps(payload))
    out = tmp_path / "out"
    base = {
        "generate": ["--checkpoint", str(checkpoint), "--query", str(tmp_path / "query.json"), "--out", str(out)],
        "train": ["--data", str(tiny_csv), "--out", str(out), "--epochs", "1", "--steps", "800"],
        "select-sensors": [],
        "ingest": [],
        "metrics-plot": [],
        "validate": [],
    }[argv[0]]
    code, stdout, err = run_cli(capsys, argv[0], *base, *(a.format(tmp=tmp_path) for a in argv[1:]))
    assert code == EXIT_BAD_INPUT
    assert stdout == "" and not out.exists()
    assert err.startswith("error: ") and "internal error" not in err


# Each of the nine input files, with "{fuzz}" where random bytes go; the other
# inputs are valid, and generate samples nothing so that a run stays short.
FUZZED_INPUTS = {
    "ingest": ["ingest", "{fuzz}"],
    "train --data": ["train", "--data", "{fuzz}", "--out", "{dir}/trained.json", "--epochs", "1", "--steps", "800"],
    "train --config": [
        "train", "--data", "{dir}/tiny.csv", "--config", "{fuzz}", "--out", "{dir}/trained.json",
        "--epochs", "1", "--steps", "800",
    ],
    "generate --checkpoint": [
        "generate", "--checkpoint", "{fuzz}", "--query", "{dir}/query.json", "--corpus", "{dir}/tiny.csv",
        "--out", "{dir}/gen.jsonl", "--n", "0",
    ],
    "generate --query": [
        "generate", "--checkpoint", "{dir}/model.json", "--query", "{fuzz}", "--corpus", "{dir}/tiny.csv",
        "--out", "{dir}/gen.jsonl", "--n", "0",
    ],
    "generate --corpus": [
        "generate", "--checkpoint", "{dir}/model.json", "--query", "{dir}/query.json", "--corpus", "{fuzz}",
        "--out", "{dir}/gen.jsonl", "--n", "0",
    ],
    "validate": ["validate", "{fuzz}"],
    "select-sensors": ["select-sensors", "{fuzz}"],
    "metrics-plot": ["metrics-plot", "{fuzz}", "--out", "{dir}/m.svg"],
}

# Field names of every JSON input, so that generated objects reach the typed reads.
JSON_KEYS = (
    "descriptors", "count", "steps", "epochs", "batch_size", "tau", "learning_rate", "seed", "constrained",
    "allowlist", "sensors", "targets", "current", "id", "detects", "cost", "format_version", "params",
    "adam", "meta", "shape", "data", "vocabulary", "mode", "atom_count_pool",
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(JSON_KEYS), inner, max_size=4),
    max_leaves=8,
)
FILE_BYTES = st.one_of(
    st.binary(max_size=64),
    st.text(alphabet="CNOScno()[]=#+-12%.,;: \n", max_size=64).map(str.encode),
    JSON_VALUES.map(lambda value: json.dumps(value).encode()),
)


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    (root / "tiny.csv").write_text("smiles,descriptors\n" + "\n".join(TINY_ROWS) + "\n")
    (root / "query.json").write_text(json.dumps({"descriptors": ["floral"], "count": 1}))
    numcore.save_checkpoint(diffusion.init_params(2), str(root / "model.json"), {"vocabulary": ["floral", "sweet"]})
    return root


@pytest.mark.parametrize("case", list(FUZZED_INPUTS))
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(content=FILE_BYTES)
def test_any_input_file_exits_with_a_documented_code(input_dir, case, content):
    fuzz = input_dir / "fuzz"
    fuzz.write_bytes(content)
    argv = [a.format(fuzz=fuzz, dir=input_dir) for a in FUZZED_INPUTS[case]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (EXIT_OK, EXIT_BAD_INPUT, EXIT_DIVERGED, EXIT_INVALID), stderr.getvalue()
    assert "internal error" not in stderr.getvalue()


# ------------------------------------------------------------- entry point


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "scentgen", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "select-sensors" in proc.stdout
