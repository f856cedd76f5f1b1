"""scotkit benchmark.

    python3 bench/run.py --workload plan_hard --seed 1 --seconds 20 --trace 0

Drives the `scot` CLI of this checkout (`python -m scotkit.cli` against
`src/`) as one closed-loop client and checks every output. With
`--trace 0` the last stdout line is the end-to-end result, measured for
`--seconds`; with `--trace 1` a fixed in-process replay of the same
generated inputs times the calls into each module and reports per-layer
metrics instead. The line before it is a detailed report with every
figure, its unit and the environment. Exits 2 without a result when the
source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class SetupSampler:
    """`scot --help` calls, the set-up a call pays before it does work,
    spread evenly through the run: one is due every seconds/count, checked
    after each workload call, so setup_s samples the same stretch of host
    speed as the workload. Any still owed run when the workload ends."""

    def __init__(self, sp, seconds: float, count: int):
        self.sp, self.count, self.gap = sp, count, seconds / count
        self.calls = []
        self.next_at = time.perf_counter() + self.gap / 2

    def one(self):
        from checks import CheckFailed

        call = self.sp.run([sys.executable, "-m", "scotkit.cli", "--help"], "--help")
        if call.code != 0 or "usage: scot" not in call.stdout:
            raise CheckFailed(f"scot --help failed with exit {call.code}")
        return call

    def __call__(self):
        if len(self.calls) < self.count and time.perf_counter() >= self.next_at:
            self.calls.append(self.one())
            self.next_at += self.gap

    def finish(self) -> list:
        while len(self.calls) < self.count:
            self.calls.append(self.one())
        return self.calls


def end_to_end(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    from proc import Spawner, median, tail_percentile
    from workloads import API_KEY_VAR, WORKLOADS, Tally

    sp = Spawner(SRC, work, {API_KEY_VAR: "scotbench-key"})
    sampler = SetupSampler(sp, seconds, SETUP_REPEATS)
    sampler.one()  # warms the file and bytecode caches; not a sample
    sp.after_scot = sampler
    tally = Tally()
    outcome = WORKLOADS[workload](sp, tally, work, seed, seconds)
    sp.after_scot = None
    setup_s = median(c.wall_s for c in sampler.finish())
    walls = [c.wall_s for c in tally.calls]
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "call_p50_s": _metric(median(walls), "s"),
        "items_per_s": _metric(outcome.items / outcome.items_wall_s, "items/s"),
        "peak_rss_mb": _metric(max(c.maxrss_kb for c in tally.calls) / 1024, "MB"),
    }
    detail = {name: {**m, "better": "higher" if name == "items_per_s" else "lower"}
              for name, m in metrics.items()}
    detail[f"{outcome.item_name}_per_s"] = {**metrics["items_per_s"], "unit": f"{outcome.item_name}/s",
                                           "better": "higher"}
    tail = tail_percentile(walls)
    if tail is not None:
        detail["call_tail_s"] = {"value": tail[1], "unit": "s", "better": "lower",
                                 "percentile": tail[0], "samples": len(walls)}
    detail["failed_frac"] = {"value": tally.failed / tally.attempted, "unit": "ratio", "better": "lower"}
    for name, (value, unit, better) in outcome.extra.items():
        detail[name] = {"value": value, "unit": unit, "better": better}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    report = {"calls": len(walls), "items": outcome.items, "item": outcome.item_name,
              "metrics": detail, "errors": tally.errors[:5],
              "call_walls_s": [[c.name, round(c.wall_s, 4)] for c in tally.calls]}
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["plan_hard", "corpus", "cli_small", "toy"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scotkit" / "cli.py").is_file():
        print(f"error: no scotkit source tree under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from proc import environment, finish_environment

    env = environment(ROOT)
    work = HERE / "out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        if args.trace:
            from trace_run import traced
            result, report = traced(args.workload, args.seed, work, HERE / "out")
        else:
            result, report = end_to_end(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "elapsed_s": time.perf_counter() - started,
              **report, "env": finish_environment(env)}
    if report["env"]["load_exceeded_nproc"]:
        print("warning: load average exceeded nproc during this run", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
