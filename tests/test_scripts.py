"""Smoke runs of the scripts under scripts/, so they keep up with the solver's API."""

import importlib.util
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
