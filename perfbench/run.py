"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload {generate,train,curate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (BENCHMARK.json gives the full command,
which pins BLAS to one thread).  The run starts fresh processes of worker.py:
for generate one that trains the checkpoint; untraced, three that time set-up
alone; the one that sets up, runs the closed loop for S seconds and checks the
outputs; and, untraced, three more set-up probes.  It prints one line per
metric and, last, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics BENCHMARK.json lists with --trace 0, its
per-layer metrics with --trace 1, each with the unit given there.  Results and traces are kept under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402

WORKLOADS = ("generate", "train", "curate")
# Fresh processes that time set-up alone, before and again after the measuring
# one; setup_s is the median of the seven timings (README.md: why seven).
SETUP_PROBES = 3
# Percentile of op_ms_tail per workload: the highest ladder percentile with
# ten or more operations beyond it at the operation counts a 30 s run holds
# (see README.md).
TAIL_PERCENTILE = {"generate": 75.0, "train": 95.0, "curate": 99.0}
# Time a run may take beyond --seconds: the generate checkpoint, the set-up
# probes and the output checks (about 7-13 s together), with room to spare.
RUN_MARGIN_S = 145.0


def _worker(action: str, args, workdir: Path, name: str, deadline: float) -> dict:
    out = workdir / f"{name}.json"
    command = [
        sys.executable, str(HERE / "worker.py"), action,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir), "--out", str(out),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("run deadline passed")
    subprocess.run(command, check=True, stdout=sys.stderr, timeout=remaining)
    return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(workload: str, setup_samples: list[float], run: dict) -> dict[str, float]:
    ops_ms = [s * 1e3 for s in run["op_seconds"]]
    pct = TAIL_PERCENTILE[workload]
    usable = benchstats.tail_percentile(len(ops_ms))
    if usable is None or usable < pct:
        print(f"warning: {len(ops_ms)} operations leave fewer than {benchstats.MIN_BEYOND} beyond p{pct:g}",
              file=sys.stderr)
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": run["peak_rss_mb"],
        "mol_per_s": run["units"] / run["busy_seconds"],
        "op_ms_p50": statistics.median(ops_ms),
        "op_ms_tail": benchstats.percentile(ops_ms, pct),
        "cover_ms_p50": statistics.median(run["cover_seconds"]) * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds + RUN_MARGIN_S

    if not (ROOT / "src" / "scentgen" / "__init__.py").is_file():
        print(f"error: no scentgen sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    workdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    if args.workload == "generate":
        _worker("prepare", args, workdir, "prepare", deadline)
    probes = 0 if args.trace else SETUP_PROBES

    def probe(k: int) -> float:
        return _worker("setup", args, workdir, f"setup{k}", deadline)["setup_s"]

    setup_samples = [probe(k) for k in range(probes)]
    run = _worker("run", args, workdir, "run", deadline)
    setup_samples += [run["setup_s"]] + [probe(probes + k) for k in range(probes)]

    correct = not run["check_failures"]
    for failure in run["check_failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        listed = spec["per_layer"]
        values = run["per_layer"]
        print("self-time share of the loop: " + ", ".join(f"{k} {v:.1%}" for k, v in run["self_share"].items()))
    else:
        listed = spec["end_to_end"]
        values = end_to_end(args.workload, setup_samples, run)
    assert set(values) == {m["name"] for m in listed}, "computed metrics differ from BENCHMARK.json"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(f"{args.workload}: seed {args.seed}, {run['rounds']} rounds, {run['checks_made']} checks, "
          f"attempted {run['attempted']}, failed {run['failed']}, "
          f"{run['units'] / run['busy_seconds']:.4g} mol/s over {run['busy_seconds']:.2f} s in timed operations")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}
    summary = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                   setup_samples=setup_samples, self_share=run.get("self_share"), extra=run["extra"])
    (workdir / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
