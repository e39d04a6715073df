import json
import subprocess
import sys

import pytest

from scentgen import cli, dataio, diffusion, numcore, sensorselect
from scentgen.cli import EXIT_BAD_INPUT, EXIT_DIVERGED, EXIT_INVALID, EXIT_OK


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def tiny_csv(tmp_path):
    rows = ["CCO,floral;sweet", "CCC,waxy", "CCN,fishy", "CC=O,green", "CCCO,alcoholic",
            "CC(C)O,alcoholic", "CCCC,gasoline", "CC(=O)C,solvent", "COC,ethereal", "CCS,sulfurous"]
    path = tmp_path / "tiny.csv"
    path.write_text("smiles,descriptors\n" + "\n".join(rows) + "\n")
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
    assert "validity_rate" in summary


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
    path.write_text("C(C\n")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == EXIT_INVALID
    record = json.loads(out.splitlines()[0])
    assert not record["verdict"]
    assert "error" in record


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

# name -> (subcommand and extra arguments, files to write as JSON)
BAD_INPUTS = {
    "generate --n-atoms 0": (["generate", "--n-atoms", "0"], {}),
    "generate --tau 0": (["generate", "--tau", "0"], {}),
    "train --tau 0": (["train", "--tau", "0"], {}),
    "train --tau nan": (["train", "--tau", "nan"], {}),
    "count not an integer": (["generate"], {"query.json": {"descriptors": [], "count": "x"}}),
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
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2(tmp_path, tiny_csv, capsys, case):
    argv, files = BAD_INPUTS[case]
    checkpoint = tmp_path / "model.json"
    numcore.save_checkpoint(diffusion.init_params(2), str(checkpoint), {"vocabulary": ["floral", "sweet"]})
    (tmp_path / "query.json").write_text(json.dumps({"descriptors": ["floral"], "count": 1}))
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    out = tmp_path / "out"
    base = {
        "generate": ["--checkpoint", str(checkpoint), "--query", str(tmp_path / "query.json"), "--out", str(out)],
        "train": ["--data", str(tiny_csv), "--out", str(out), "--epochs", "1", "--steps", "800"],
        "select-sensors": [],
        "ingest": [],
        "metrics-plot": [],
    }[argv[0]]
    code, stdout, err = run_cli(capsys, argv[0], *base, *(a.format(tmp=tmp_path) for a in argv[1:]))
    assert code == EXIT_BAD_INPUT
    assert stdout == "" and not out.exists()
    assert err.startswith("error: ") and "internal error" not in err


# ------------------------------------------------------------- entry point


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "scentgen", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "select-sensors" in proc.stdout
