"""Command-line pipeline: ingest, train, generate, validate, select-sensors, metrics-plot.

Machine-readable JSON/JSONL/CSV goes to stdout or files; human-oriented notes
go to stderr.  Every source of randomness hangs off the single --seed flag.
Exit codes: 0 success, 1 internal error, 2 bad input, 3 diverged training,
4 validation failures.  Bad input is an input file that is missing,
unreadable, not UTF-8 or malformed (JSON nested too deep to decode included);
a JSON field of the wrong type; a checkpoint that does not fit the model; a
setting out of range; or an output path that is a directory or lies in a
directory that does not exist.  Every input file is read through `_load`,
the one place that maps file errors to exit 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path


from . import chemrules, dataio, diffusion, generator, numcore, sensorselect, smiles
from .molgraph import SYMBOL_TO_NUMBER, UnknownElement

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_DIVERGED = 3
EXIT_INVALID = 4

STEPS_RANGE = (800, 1200)  # accepted diffusion step counts at the CLI surface

# What reading a JSON value as a setting raises when the value has the wrong
# type or range: int(1e400) raises OverflowError, int([]) TypeError.
BAD_VALUE = (KeyError, TypeError, ValueError, OverflowError)

logger = logging.getLogger("scentgen")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fail(message: str, code: int = EXIT_BAD_INPUT) -> CliError:
    return CliError(code, message)


def _check_steps(steps: int) -> int:
    lo, hi = STEPS_RANGE
    if not lo <= steps <= hi:
        raise _fail(f"--steps must lie in [{lo}, {hi}], got {steps}")
    return steps


def _load(what: str, loader, path, *malformed: type[Exception]):
    """`loader(path)`; bad input (exit 2) if the file is missing, unreadable or one of `malformed`.

    `RecursionError` counts as malformed: `json` raises it for arrays or
    objects nested too deep to decode.
    """
    try:
        return loader(path)
    except FileNotFoundError:
        raise _fail(f"{what} not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise _fail(f"cannot read {what} {path}: {exc}")
    except (RecursionError, *malformed) as exc:
        raise _fail(f"malformed {what} {path}: {exc}")


def _read_json(what: str, path: str) -> dict:
    """The JSON object in `path`; bad input (exit 2) if it cannot be read or is not an object."""
    payload = _load(what, lambda p: json.loads(Path(p).read_text(encoding="utf-8")), path, ValueError)
    if not isinstance(payload, dict):
        raise _fail(f"{what} {path} must hold a JSON object, got {type(payload).__name__}")
    return payload


def _json_number(raw: dict, key: str, default, kind: type[int] | type[float]):
    """`raw[key]` (`default` when absent) as `kind`: a JSON integer, or for float any JSON number.

    Anything else raises TypeError: a bool, though Python counts it an int;
    a string, though `int()` and `float()` parse one; a fraction for an int.
    """
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        raise TypeError(f"{key} must be a JSON {'number' if kind is float else 'integer'}, got {value!r}")
    return kind(value)


def _check_out(*paths: str | None) -> None:
    """Bad input (exit 2) if an output path is a directory or its directory does not exist, before any work."""
    for path in paths:
        if path is None:
            continue
        if Path(path).is_dir():
            raise _fail(f"output path is a directory: {path}")
        if not Path(path).parent.is_dir():
            raise _fail(f"output directory not found: {Path(path).parent}")


def _parse_allowlist(text: str) -> frozenset[int]:
    out = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.isdigit():
            out.add(int(token))
        elif token.capitalize() in SYMBOL_TO_NUMBER:
            out.add(SYMBOL_TO_NUMBER[token.capitalize()])
        else:
            raise _fail(f"unknown element {token!r} in allowlist")
    if not out:
        raise _fail("allowlist is empty")
    return frozenset(out)


def cmd_ingest(args) -> int:
    _check_out(args.out)
    vocab, molecules = _load("dataset", dataio.load_csv, args.data, dataio.EmptyDataset)
    summary = {
        "molecules": len(molecules),
        "vocab_size": len(vocab),
        "vocabulary": list(vocab.terms),
        "atom_counts": sorted(m.graph.n_atoms for m in molecules),
    }
    print(json.dumps(summary, sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, sort_keys=True), encoding="utf-8")
    return EXIT_OK


def _train_config(args) -> tuple[diffusion.TrainConfig, generator.Mode, frozenset[int]]:
    raw = _read_json("training config", args.config) if args.config else {}
    try:
        steps = args.steps if args.steps is not None else _json_number(raw, "steps", 1000, int)
        _check_steps(steps)
        config = diffusion.TrainConfig(
            steps=steps,
            epochs=args.epochs if args.epochs is not None else _json_number(raw, "epochs", 1000, int),
            batch_size=_json_number(raw, "batch_size", 32, int),
            tau=args.tau if args.tau is not None else _json_number(raw, "tau", 1.0, float),
            learning_rate=_json_number(raw, "learning_rate", 1e-3, float),
            seed=args.seed if args.seed is not None else _json_number(raw, "seed", 0, int),
        )
        constrained = raw.get("constrained", False)
        if not isinstance(constrained, bool):
            raise TypeError(f"constrained must be true or false, got {constrained!r}")
        listed = raw.get("allowlist", [])
        if not isinstance(listed, list):
            raise TypeError(f"allowlist must be a list, got {listed!r}")
    except BAD_VALUE as exc:
        raise _fail(f"bad training config: {exc}")
    mode = generator.Mode.CONSTRAINED if args.constrained or constrained else generator.Mode.UNCONSTRAINED
    if args.allowlist:
        allowlist = _parse_allowlist(args.allowlist)
    elif listed:
        allowlist = _parse_allowlist(",".join(str(t) for t in listed))
    else:
        allowlist = generator.DEFAULT_ALLOWLIST
    return config, mode, allowlist


def cmd_train(args) -> int:
    _check_out(args.out)  # first: a directory such as "." has no name to give a suffix
    metrics_path = args.metrics or str(Path(args.out).with_suffix(".metrics.csv"))
    _check_out(metrics_path)
    config, mode, allowlist = _train_config(args)

    def load_split(path):
        vocab, molecules = dataio.load_csv(path)
        return vocab, dataio.split_80_20(molecules, config.seed)

    vocab, split = _load("dataset", load_split, args.data, dataio.EmptyDataset, dataio.TooFewSamples)
    examples = dataio.to_training_examples(split.train, vocab)
    try:
        params, metrics = diffusion.train(examples, config)
    except diffusion.DivergedLoss as exc:
        raise CliError(EXIT_DIVERGED, f"training diverged: {exc}")
    meta = {
        "vocabulary": list(vocab.terms),
        "steps": config.steps,
        "tau": config.tau,
        "hidden_dim": diffusion.HIDDEN_DIM,
        "mode": mode.value,
        "allowlist": sorted(allowlist),
        "atom_count_pool": sorted(m.graph.n_atoms for m in split.train),
        "train_size": len(split.train),
        "test_size": len(split.test),
        "seed": config.seed,
        "epochs": config.epochs,
    }
    numcore.save_checkpoint(params, args.out, meta)
    diffusion.write_metrics_csv(metrics, metrics_path)
    print(json.dumps({"checkpoint": args.out, "metrics": metrics_path, "epochs": len(metrics)}, sort_keys=True))
    return EXIT_OK


def _check_fits(params: numcore.ParamStore, vocab: dataio.OdourVocabulary, path: str) -> None:
    """Bad input (exit 2) unless the checkpoint holds exactly the denoiser's parameters, for its vocabulary."""
    try:
        generator._check_trained(params)
    except generator.UntrainedParams as exc:
        raise _fail(f"checkpoint {path} does not fit the model: {exc}")
    shape = params["cond.w"].data.shape
    if shape[:1] != (len(vocab),):
        raise _fail(
            f"checkpoint {path} does not fit the model: {len(vocab)} vocabulary terms"
            f" vs conditioning weights of shape {shape}"
        )


def cmd_generate(args) -> int:
    _check_out(args.out)
    params, meta = _load("checkpoint", numcore.load_checkpoint, args.checkpoint, *BAD_VALUE)
    query = _read_json("query", args.query)
    descriptors = query.get("descriptors", [])
    if not isinstance(descriptors, list) or not all(isinstance(d, str) for d in descriptors):
        raise _fail(f"query descriptors must be a list of strings, got {descriptors!r}")
    try:
        n = args.n if args.n is not None else _json_number(query, "count", 10, int)
    except TypeError:
        raise _fail(f"sample count must be an integer, got {query['count']!r}")
    if n < 0:
        raise _fail(f"sample count must be >= 0, got {n}")

    seed = args.seed if args.seed is not None else 0
    try:
        vocab = dataio.OdourVocabulary(tuple(meta.get("vocabulary", ())))
        steps = _check_steps(args.steps if args.steps is not None else int(meta.get("steps", 1000)))
        if args.constrained:
            mode = generator.Mode.CONSTRAINED
        elif args.unconstrained:
            mode = generator.Mode.UNCONSTRAINED
        else:
            mode = generator.Mode(meta.get("mode", "unconstrained"))
        allowlist = (
            _parse_allowlist(args.allowlist)
            if args.allowlist
            else frozenset(int(z) for z in meta.get("allowlist", sorted(generator.DEFAULT_ALLOWLIST)))
        )
        config = generator.GenerationConfig(
            mode=mode,
            allowlist=allowlist,
            n_atoms=args.n_atoms,
            atom_count_pool=tuple(int(c) for c in meta.get("atom_count_pool", (8,))) or (8,),
            steps=steps,
            tau=args.tau if args.tau is not None else float(meta.get("tau", 0.5)),
            seed=seed,
            bond_source=generator.BondSource.HEURISTIC if args.heuristic_bonds else generator.BondSource.CLASSIFIER,
        )
    except BAD_VALUE as exc:
        raise _fail(f"bad generation settings: {exc}")
    _check_fits(params, vocab, args.checkpoint)
    known = [d for d in (t.strip().lower() for t in descriptors) if vocab.index(d) is not None]
    dropped = sorted(set(t.strip().lower() for t in descriptors) - set(known))
    if dropped:
        logger.warning("dropping descriptors outside the trained vocabulary: %s", dropped)
    y = dataio.multi_hot(known, vocab)
    corpus = _load("corpus", dataio.load_corpus, args.corpus or dataio.bundled_dataset_path())

    reports = []
    with open(args.out, "w", encoding="utf-8") as fh:
        for k in range(n):
            report = generator.sample(y, config, params, corpus=corpus, seed=seed + k)
            reports.append(report)
            fh.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    summary = generator.summarize(reports, mode, seed)
    summary["dropped_descriptors"] = dropped
    summary["descriptors_used"] = sorted(known)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_validate(args) -> int:
    lines = _load("SMILES file", lambda path: Path(path).read_text(encoding="utf-8"), args.smiles_file).splitlines()
    any_failed = False
    checked = 0
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        checked += 1
        record: dict = {"line": line_no, "smiles": text}
        try:
            graph = smiles.parse(text)
        except (smiles.SmilesSyntaxError, UnknownElement) as exc:
            record["verdict"] = False
            record["error"] = str(exc)
            any_failed = True
            print(json.dumps(record, sort_keys=True))
            continue
        result = chemrules.sanitize(graph)
        record["verdict"] = result.report.final_verdict
        record["validation"] = result.report.to_dict()
        if not result.report.final_verdict:
            any_failed = True
        print(json.dumps(record, sort_keys=True))
    print(f"checked {checked} molecule(s)", file=sys.stderr)
    return EXIT_INVALID if any_failed else EXIT_OK


def cmd_select_sensors(args) -> int:
    problem, current = _load("scenario", sensorselect.load_scenario, args.scenario, *BAD_VALUE)
    if args.mode == "add":
        if args.exact:
            try:
                result = sensorselect.exact_cover(problem)
            except sensorselect.TooManySensors as exc:
                raise _fail(str(exc))
        else:
            result = sensorselect.greedy_cover(problem)
    else:
        if not current:
            raise _fail("subtract mode needs a 'current' sensor list in the scenario")
        try:
            result = sensorselect.subtractive_prune(current, problem)
        except sensorselect.UnknownSensorId as exc:
            raise _fail(f"unknown sensor id {exc}")
    print(json.dumps(result.to_dict(), sort_keys=True))
    return EXIT_OK


SERIES_STYLE = (
    ("mse_loss", "#4682b4"),
    ("ce_loss", "#e07b39"),
    ("total_loss", "#c23b4b"),
)


def render_metrics_svg(metrics, path: str) -> None:
    """Line chart of the three loss series against epoch."""
    width, height, margin = 840, 480, 60
    epochs = [m.epoch for m in metrics]
    series = {
        "mse_loss": [m.mse for m in metrics],
        "ce_loss": [m.ce for m in metrics],
        "total_loss": [m.total for m in metrics],
    }
    x_min, x_max = min(epochs), max(epochs)
    y_max = max(v for vals in series.values() for v in vals) or 1.0
    x_span = max(x_max - x_min, 1)

    def sx(x):
        return margin + (x - x_min) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y / y_max) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" font-size="14">epoch</text>',
        f'<text x="18" y="{height // 2}" font-size="14" transform="rotate(-90 18 {height // 2})" text-anchor="middle">loss</text>',
    ]
    for k, (name, color) in enumerate(SERIES_STYLE):
        points = " ".join(f"{sx(e):.2f},{sy(v):.2f}" for e, v in zip(epochs, series[name]))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        ly = margin + 18 * k
        parts.append(f'<line x1="{width - margin - 130}" y1="{ly}" x2="{width - margin - 105}" y2="{ly}" stroke="{color}" stroke-width="3"/>')
        parts.append(f'<text x="{width - margin - 98}" y="{ly + 4}" font-size="12">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")


def cmd_metrics_plot(args) -> int:
    _check_out(args.out)
    metrics = _load("metrics CSV", diffusion.read_metrics_csv, args.metrics_csv, csv.Error, *BAD_VALUE)
    if not metrics:
        raise _fail("metrics CSV has no data rows")
    render_metrics_svg(metrics, args.out)
    print(json.dumps({"svg": args.out, "rows": len(metrics)}, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scentgen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a dataset CSV and print a summary")
    p.add_argument("data")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train the denoiser and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="JSON training config")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--metrics", default=None, help="metrics CSV path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--constrained", action="store_true")
    p.add_argument("--allowlist", default=None, help="comma-separated element symbols or numbers")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample molecules for a descriptor query")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--query", required=True, help='JSON: {"descriptors": [...], "count": N}')
    p.add_argument("--out", required=True, help="JSONL output path")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-atoms", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--constrained", action="store_true")
    p.add_argument("--unconstrained", action="store_true")
    p.add_argument("--allowlist", default=None)
    p.add_argument("--heuristic-bonds", action="store_true", help="type bonds by the numeric heuristic")
    p.add_argument("--corpus", default=None, help="corpus CSV for the membership check")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="run the validity cascade on a SMILES file")
    p.add_argument("smiles_file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("select-sensors", help="solve sensor coverage for a scenario")
    p.add_argument("scenario")
    p.add_argument("--mode", choices=("add", "subtract"), default="add")
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_select_sensors)

    p = sub.add_parser("metrics-plot", help="render a loss-curve SVG from a metrics CSV")
    p.add_argument("metrics_csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metrics_plot)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=os.environ.get("SCENTGEN_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # total exit-code mapping: nothing escapes unhandled
        import traceback

        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
