#!/usr/bin/env python3
"""Seeded sweep of the end-to-end simulate -> invert pipeline.

For each seed: sample relays, run the probing protocol, localize with the
sequential-test objective, and score the fraction of relays landing within
one cell side of their true position.  Prints per-seed scores and the mean,
optionally comparing against the capacity-residual argmin objective.

Usage: python scripts/run_inversion_sweep.py [--seeds N] [--base B] [--compare-argmin]
"""

import argparse
import math

import numpy as np

from relaytomo.config import default_config_dict, scenario_from_dict
from relaytomo.geometry import sample_relays
from relaytomo.measurement import simulate_measurements
from relaytomo.numerics import RngStream
from relaytomo.tomography import TomographyConfig, localize_all, score_results


def run(n_seeds: int, base: int, compare_argmin: bool) -> tuple[list[float], list[float]]:
    """Per-seed fractions within one cell: msprt, and argmin (empty unless compared)."""
    cfg = scenario_from_dict(default_config_dict())
    net, grid, params = cfg.network(), cfg.cell_grid(), cfg.channel_params()
    region = cfg.region()
    mcfg = cfg.msprt()

    scores_m, scores_a = [], []
    for k in range(n_seeds):
        rng = RngStream(base + k)
        relays = sample_relays(region, cfg.relays, rng.child(0))
        ms = simulate_measurements(net, relays, params, cfg.observations, rng.child(1))
        res = localize_all(ms, net, grid, params,
                           TomographyConfig(cell_side=cfg.cell_side_m, mode="msprt"),
                           mcfg)
        s = score_results(res, relays, cfg.cell_side_m)
        scores_m.append(s["fraction_within_one_cell"])
        line = f"seed {base + k}: msprt {scores_m[-1]:.2f}"
        if compare_argmin:
            res_a = localize_all(ms, net, grid, params,
                                 TomographyConfig(cell_side=cfg.cell_side_m, mode="argmin"))
            s_a = score_results(res_a, relays, cfg.cell_side_m)
            scores_a.append(s_a["fraction_within_one_cell"])
            line += f"  argmin {scores_a[-1]:.2f}"
        print(line)

    mean = float(np.mean(scores_m))
    se = float(np.std(scores_m) / math.sqrt(len(scores_m)))
    print(f"\nmsprt mean fraction within one cell: {mean:.3f} +- {se:.3f}")
    if compare_argmin:
        print(f"argmin mean fraction within one cell: {np.mean(scores_a):.3f}")
    return scores_m, scores_a


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--base", type=int, default=0)
    ap.add_argument("--compare-argmin", action="store_true")
    args = ap.parse_args()
    run(args.seeds, args.base, args.compare_argmin)
