#!/usr/bin/env python3
"""Pair two sets of benchmark runs and write their comparison as BENCH_<N>.json.

Reads the `result-*.json` files that `perfbench/run.py --trace 0` leaves in
a `.perfbench_out` directory, one directory from the parent commit and one
from the change, and pairs the runs by workload and seed.  For each
workload and end-to-end metric of BENCHMARK.json it records the median and
quartiles of both sides and the number of pairs in which the change is
better; per seed, every `loc_rate_*` on both sides and whether the output
digests (`answers_sha256`, or the `cli` workload's `digests`) are equal.
Both sides' git SHAs and `src_lines` are recorded, every run with a
failed operation is listed with its problems, and each workload's failed
and attempted operations are summed per side over all its runs, complete
or not.  A pair takes each side's one complete run of its workload and
seed; a seed whose run failed on either side enters no statistic.
Nothing is run and no input is changed.

Usage: python scripts/bench_pairs.py PARENT_OUT CHANGE_OUT --pr N [--out DIR]
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end(benchmark: Path = ROOT / "BENCHMARK.json") -> dict[str, str]:
    """Each end-to-end metric's better direction, "lower" or "higher"."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def load_runs(directory: Path) -> list[dict]:
    """The untraced runs of one side, each with the file it came from."""
    files = sorted(Path(directory).glob("result-*.json"))
    if not files:
        raise SystemExit(f"bench_pairs: no result-*.json in {directory}")
    runs = []
    for path in files:
        run = json.loads(path.read_text())
        if run["trace"] == 0:
            runs.append({**run, "file": path.name})
    return runs


def complete_runs(runs: list[dict], side: str) -> dict[tuple[str, int], dict]:
    """{(workload, seed): its one run with no failed operation}."""
    chosen = {}
    for run in runs:
        if run["result"]["correct"]:
            key = (run["workload"], run["seed"])
            if key in chosen:
                raise SystemExit(f"bench_pairs: {side} has two complete runs of {key[0]} "
                                 f"seed {key[1]}: {chosen[key]['file']}, {run['file']}")
            chosen[key] = run
    return chosen


def failed_runs(runs: list[dict], side: str, complete: dict) -> list[dict]:
    return [{"side": side, "file": run["file"], "workload": run["workload"],
             "seed": run["seed"], "failed": run["result"]["failed"],
             "rerun": (run["workload"], run["seed"]) in complete,
             "problems": run["problems"]}
            for run in runs if not run["result"]["correct"]]


def operations(runs: list[dict], workload: str) -> dict[str, int]:
    """Failed and attempted operations of one workload, summed over all its runs."""
    results = [run["result"] for run in runs if run["workload"] == workload]
    return {"failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results)}


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def answers(run: dict):
    return run.get("answers_sha256", run.get("digests"))


def side_identity(runs: list[dict]) -> dict:
    """The side's git SHA and src_lines; a list where its runs disagree."""
    out = {}
    for name in ("git_sha", "src_lines"):
        values = sorted({run["environment"][name] for run in runs}, key=str)
        out[name] = values[0] if len(values) == 1 else values
    return out


def compare(parent_runs: list[dict], change_runs: list[dict], pr: int,
            better: dict[str, str]) -> dict:
    parent = complete_runs(parent_runs, "parent")
    change = complete_runs(change_runs, "change")
    workloads = {}
    runs = parent_runs + change_runs
    for workload in sorted({run["workload"] for run in runs}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        pairs = [(parent[(workload, s)], change[(workload, s)]) for s in seeds]
        metrics = {}
        for name, direction in better.items():
            values = [(p["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
                      for p, c in pairs]
            if not values:
                continue
            sign = 1.0 if direction == "lower" else -1.0
            before = quartiles([p for p, _ in values])
            after = quartiles([c for _, c in values])
            metrics[name] = {
                "better": direction, "parent": before, "change": after,
                "change_better_pairs": sum(sign * (p - c) > 0.0 for p, c in values),
                "pairs": len(values),
                "median_change": after["median"] / before["median"] - 1.0
                if before["median"] else None,
            }
        workloads[workload] = {
            "operations": {"parent": operations(parent_runs, workload),
                           "change": operations(change_runs, workload)},
            "seeds": seeds,
            "unpaired": sorted(s for w, s in (parent.keys() ^ change.keys()) if w == workload),
            "metrics": metrics,
            "loc_rates": {name: {str(s): [p["result"]["metrics"][name]["value"],
                                          c["result"]["metrics"][name]["value"]]
                                 for s, (p, c) in zip(seeds, pairs)}
                          for name in better if name.startswith("loc_rate_")},
            "answers_equal": {str(s): answers(p) == answers(c)
                              for s, (p, c) in zip(seeds, pairs)},
        }
    return {
        "pr": pr,
        "parent": side_identity(parent_runs),
        "change": side_identity(change_runs),
        "workloads": workloads,
        "failed_runs": failed_runs(parent_runs, "parent", parent)
        + failed_runs(change_runs, "change", change),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_out", type=Path, help="the parent's .perfbench_out directory")
    ap.add_argument("change_out", type=Path, help="the change's .perfbench_out directory")
    ap.add_argument("--pr", type=int, required=True, help="N of the BENCH_<N>.json written")
    ap.add_argument("--out", type=Path, default=Path("."),
                    help="directory to write it in, made with its parents if missing")
    args = ap.parse_args(argv)
    report = compare(load_runs(args.parent_out), load_runs(args.change_out), args.pr,
                     end_to_end())
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    for workload, entry in report["workloads"].items():
        print(f"{workload}: {len(entry['seeds'])} pairs")
        ops = entry["operations"]
        print("  failed/attempted operations: " + ", ".join(
            f"{side} {ops[side]['failed']}/{ops[side]['attempted']}" for side in ops))
        for name, m in entry["metrics"].items():
            if m["median_change"] is not None:
                print(f"  {name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
                      f"({100 * m['median_change']:+.1f}%), change better in "
                      f"{m['change_better_pairs']}/{m['pairs']}")
    print(f"{len(report['failed_runs'])} failed runs; wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
