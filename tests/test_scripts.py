"""Smoke runs of the scripts under scripts/, so they keep up with the solver's API."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_inversion_sweep(capsys):
    scores_m, scores_a = load("run_inversion_sweep").run(2, 0, True)
    assert len(scores_m) == len(scores_a) == 2
    assert all(0.0 <= s <= 1.0 for s in scores_m + scores_a)
    out = capsys.readouterr().out
    assert out.startswith("seed 0: msprt ") and "argmin mean fraction" in out


def test_inversion_table(capsys):
    sets = [("seeds 1000-1001", 1.0, False, range(1000, 1002)),
            ("m = 2.5, seeds 1000-1001", 2.5, False, range(1000, 1002)),
            ("scaled scene 0", 1.0, True, [0])]
    rows = load("run_inversion_sweep").table(sets, passes=1)
    assert [(r["set"], r["mode"]) for r in rows] == [
        (name, mode) for name, *_ in sets for mode in ("msprt", "argmin")]
    for r in rows:
        assert 0.0 <= r["rate"] <= 1.0 and r["mean_error_m"] >= 0.0 and r["us_per_relay"] > 0.0
        assert r["early_stops"] == 0 or r["mode"] == "msprt"
        # every relay is a hit or one kind of miss
        missed = r["no_cell"] + r["wrong_pick"] + r["unlocalized"]
        assert round(r["rate"] * r["relays"]) + missed == r["relays"]
    assert sum(r["wrong_pick"] for r in rows) > 0 and sum(r["unlocalized"] for r in rows) > 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["set", "mode", "rate", "mean", "err", "m", "us/relay", "early",
                              "stops", "miss:", "no", "cell", "wrong", "pick", "unlocalized"]
    assert len(out) == 7 and out[-1].startswith("scaled scene 0")
    assert out[2].split()[-3:] == [str(rows[1][k]) for k in ("no_cell", "wrong_pick",
                                                              "unlocalized")]


def test_sequential_scaling(capsys):
    rates = load("run_sequential_scaling").run(3, [1, 10])
    assert len(rates) == 2 and all(0.0 <= r <= 1.0 for r in rates)
    assert "observations   10: correct-cell rate" in capsys.readouterr().out


def test_direct_demo(tmp_path, capsys):
    out = tmp_path / "demo"
    load("run_direct_demo").run(str(out), None)
    assert (out / "atoms.csv").exists() and (out / "discrete.csv").exists()
    lines = capsys.readouterr().out.splitlines()
    start = lines.index(
        "discrete spectrum, bits/s/Hz (rows: departure angle, cols: arrival angle)")
    header, rows = lines[start + 1], lines[start + 2:start + 9]
    assert header.split() == [f"{d}d" for d in range(0, 61, 10)]
    assert [r.split()[0] for r in rows] == [f"{d}d" for d in range(0, 61, 10)]
    assert rows[3].split()[4] == "3.59e-06"  # the (30, 30) degree cell
    assert lines[-1] == "total angular probability mass: 1.000000"


def write_run(directory: Path, name: str, seed: int, values: dict, correct: bool = True,
              answers: str = "a", sha: str = "p", trace: int = 0, workload: str = "sweep"):
    """One perfbench result file: every end-to-end metric at 1.0 unless given."""
    names = load("bench_pairs").end_to_end()
    directory.mkdir(exist_ok=True)
    run = {"workload": workload, "seed": seed, "trace": trace,
           "environment": {"git_sha": sha, "src_lines": 100},
           "problems": [] if correct else ["scene 1 simulate: no speed probe"],
           "answers_sha256": answers,
           "result": {"correct": correct, "attempted": 10, "failed": 0 if correct else 2,
                      "metrics": {n: {"value": values.get(n, 1.0)} for n in names}}}
    (directory / f"result-{name}.json").write_text(json.dumps(run))


def test_bench_pairs(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, p, c in [(1, 1.0, 0.9), (2, 1.2, 1.0), (3, 1.1, 1.2)]:
        write_run(parent, f"s{seed}", seed, {"selftest_s": p, "msprt_relays_per_s": 10 * p})
        write_run(change, f"s{seed}", seed, {"selftest_s": c, "msprt_relays_per_s": 10 * c},
                  answers="b" if seed == 3 else "a", sha="c")
    write_run(change, "s2-failed", 2, {"selftest_s": 0.1}, correct=False, sha="c")
    write_run(parent, "s4", 4, {}, correct=False)
    write_run(change, "s4", 4, {}, sha="c")
    write_run(parent, "s1-traced", 1, {"selftest_s": 50.0}, trace=1)
    assert load("bench_pairs").main([str(parent), str(change), "--pr", "7",
                                     "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "selftest_s: 1.1 -> 1 (-9.1%), change better in 2/3" in out
    # every run counts, the failed and the rerun ones too
    assert "failed/attempted operations: parent 2/40, change 2/50" in out
    report = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert report["parent"] == {"git_sha": "p", "src_lines": 100}
    assert report["change"] == {"git_sha": "c", "src_lines": 100}
    sweep = report["workloads"]["sweep"]
    assert sweep["seeds"] == [1, 2, 3] and sweep["unpaired"] == [4]
    selftest = sweep["metrics"]["selftest_s"]
    assert selftest["parent"] == {"median": 1.1, "q1": 1.05, "q3": 1.15}
    assert selftest["change"]["median"] == 1.0 and selftest["change_better_pairs"] == 2
    assert sweep["metrics"]["msprt_relays_per_s"]["change_better_pairs"] == 1
    assert sweep["answers_equal"] == {"1": True, "2": True, "3": False}
    assert sweep["loc_rates"]["loc_rate_msprt"]["2"] == [1.0, 1.0]
    failed = {(r["side"], r["seed"]): r for r in report["failed_runs"]}
    assert failed.keys() == {("change", 2), ("parent", 4)}
    assert failed[("change", 2)]["rerun"] and not failed[("parent", 4)]["rerun"]
    assert failed[("parent", 4)]["problems"] == ["scene 1 simulate: no speed probe"]
    assert sweep["operations"] == {"parent": {"failed": 2, "attempted": 40},
                                   "change": {"failed": 2, "attempted": 50}}
    # a workload whose every run failed still reports its operations; a
    # missing output directory is made, with its parents
    write_run(parent, "cli1", 1, {}, correct=False, workload="cli")
    out = tmp_path / "new" / "nested"
    assert load("bench_pairs").main([str(parent), str(change), "--pr", "7",
                                     "--out", str(out)]) == 0
    report = json.loads((out / "BENCH_7.json").read_text())
    assert report["workloads"]["cli"]["seeds"] == []
    assert report["workloads"]["cli"]["operations"] == {"parent": {"failed": 2, "attempted": 10},
                                                        "change": {"failed": 0, "attempted": 0}}
