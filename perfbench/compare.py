"""Run two independent sets of benchmark runs of one commit and compare them.

    python3 perfbench/compare.py

Run from the root of a source checkout.  Each set runs the BENCHMARK.json
command ten times per workload, each run with its own seed (set 1 takes seeds
1000-1009, set 2 seeds 1010-1019).  For every workload and end-to-end metric
it prints each set's median and quartile spread, (Q3 - Q1) / median, and
whether

  - the two medians differ by no more than the metric's bound, as a share of
    set 1's median, in either direction;
  - each spread stays within the bound, except that of setup_s: set-up is
    compared by its median only, since a fresh interpreter's sub-second
    set-up spreads up to about a quarter between runs on a shared host even
    as a median of seven (README.md gives the figures);
  - the share of failed operations is exactly the same in every run.

Exit status 0 when every check holds.  Raw results go to perfbench/out/.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402

RUNS = 10
FIRST_SEED = 1000


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]

    raw: dict[str, tuple[list[dict], list[dict]]] = {w: ([], []) for w in names}
    for set_index in (0, 1):
        for k in range(RUNS):  # workloads take turns, so slow spells on the host hit all of them
            seed = FIRST_SEED + set_index * RUNS + k
            for workload in names:
                started = time.monotonic()
                raw[workload][set_index].append(run_once(spec, workload, seed))
                print(f"set {set_index + 1} {workload} seed {seed}: {time.monotonic() - started:.1f} s", file=sys.stderr)

    ok = True
    print(f"{'workload':9} {'metric':13} {'unit':5} {'bound':>6} {'median1':>12} {'spread1':>8} "
          f"{'median2':>12} {'spread2':>8} {'change':>8}  verdict")
    for workload in names:
        runs = raw[workload][0] + raw[workload][1]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = ([r["metrics"][name]["value"] for r in part] for part in raw[workload])
            m1, m2 = statistics.median(first), statistics.median(second)
            s1, s2 = benchstats.quartile_spread(first), benchstats.quartile_spread(second)
            change = (m2 - m1) / m1
            problems = []
            if name != "setup_s" and max(s1, s2) > bound:
                problems.append("spread > bound")
            if abs(change) > bound:
                problems.append("medians differ by > bound")
            ok &= not problems
            print(f"{workload:9} {name:13} {metric['unit']:5} {bound:6.2f} {m1:12.5g} {s1:8.2%} "
                  f"{m2:12.5g} {s2:8.2%} {change:+8.2%}  {'; '.join(problems) or 'ok'}")
        same_share = len(shares) == 1
        ok &= same_share and correct
        print(f"{workload:9} failed share {sorted(str(s) for s in shares)} "
              f"{'same in every run' if same_share else 'DIFFERS'}; outputs {'correct' if correct else 'INCORRECT'}")

    out = HERE / "out" / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    print(f"raw results: {out.relative_to(ROOT)}; {'all checks hold' if ok else 'SOME CHECKS FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
