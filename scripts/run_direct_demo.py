#!/usr/bin/env python3
"""Direct problem demo: continuous atoms and the discrete angular spectrum.

Runs the reference scenario, prints the spectrum matrix to stdout, and
leaves plot-ready CSVs in the output directory.  The matrix is read back
from the `discrete.csv` that `direct` wrote, so the spectrum is solved once.

Usage: python scripts/run_direct_demo.py [--out OUT] [--seed N]
"""

import argparse
import csv
from pathlib import Path

from relaytomo.cli import main as cli_main


def run(out: str, seed: int | None) -> None:
    argv = ["direct", "--out", out]
    if seed is not None:
        argv += ["--seed", str(seed)]
    rc = cli_main(argv)
    if rc != 0:
        raise SystemExit(rc)

    with open(Path(out) / "discrete.csv", newline="", encoding="utf-8") as fh:
        cells = list(csv.DictReader(fh))
    aod = list(dict.fromkeys(float(c["aod_deg"]) for c in cells))
    aoa = list(dict.fromkeys(float(c["aoa_deg"]) for c in cells))
    values = [float(c["value"]) for c in cells]  # row-major: departure, then arrival
    print("\ndiscrete spectrum, bits/s/Hz (rows: departure angle, cols: arrival angle)")
    print("        " + " ".join(f"{p:7.0f}d" for p in aoa))
    for a, w in enumerate(aod):
        row = values[a * len(aoa):(a + 1) * len(aoa)]
        print(f"{w:6.0f}d " + " ".join(f"{v:8.2e}" if v > 0 else "       ." for v in row))
    total = sum(float(c["mass"]) for c in cells)
    print(f"\ntotal angular probability mass: {total:.6f}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/direct-demo")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()
    run(args.out, args.seed)
