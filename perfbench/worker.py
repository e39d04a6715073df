"""One benchmark process: prepare, time set-up, or set up and run a workload.

Started by run.py, never by hand.  It writes one JSON object to --out:

  prepare  train and save the checkpoint the generate workload samples from
  setup    import the package and make the workload's set-up calls, timed
  run      the same set-up, then the timed loop and the output checks
"""

import time

START = time.perf_counter()  # set-up starts here, before the package is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("action", choices=("prepare", "setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workdir = Path(args.workdir)

    import workloads

    modules = workloads.load_modules()
    if args.action == "prepare":
        workloads.prepare_checkpoint(modules, workdir / "checkpoint.json")
        Path(args.out).write_text(json.dumps({"prepared": True}), encoding="utf-8")
        return 0

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer(modules).install()
    workload = workloads.WORKLOADS[args.workload](modules, args.seed, workdir)
    workload.setup()
    setup_s = time.perf_counter() - START
    payload: dict = {"setup_s": setup_s}
    if args.action == "run":
        checks = workloads.Checks()
        if tracer is not None:
            tracer.phase = "loop"
        result = workload.run(args.seconds, tracer, checks)
        payload.update(
            op_seconds=result.op_seconds,
            cover_seconds=result.cover_seconds,
            attempted=result.attempted,
            failed=result.failed,
            units=result.units,
            busy_seconds=result.busy_seconds,
            rounds=result.rounds,
            checks_made=checks.made,
            check_failures=checks.failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            extra=result.extra,
        )
        if tracer is not None:
            tracer.uninstall()
            payload["per_layer"] = layertrace.per_layer_metrics(tracer, result.extra)
            loop = layertrace.SpanStats(tracer.spans, ("loop",))
            payload["self_share"] = loop.self_share_by_layer(result.busy_seconds)
            tracer.write_jsonl(str(workdir / "trace.jsonl"))
    Path(args.out).write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
