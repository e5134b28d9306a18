#!/usr/bin/env python3
"""Seeded sweep of the end-to-end simulate -> invert pipeline.

For each seed: sample relays, run the probing protocol, localize with the
sequential-test objective, and score the fraction of relays landing within
one cell side of their true position.  Prints per-seed scores and the mean,
optionally comparing against the capacity-residual argmin objective.

--table prints one row per solver mode and set instead: the rate within one
cell, the mean error of the localized relays, the warm cost per relay (the
median of 3 passes of `localize_all` over the set, by `process_time`), the
early stops, relays of several candidates the sequential test decided on
its margin (kind threshold, stopped_at > 0), and the misses split three
ways: the holding cell (the cell whose square holds the relay) is not among
the mode's candidates, the pick is wrong among them, or the relay is
unlocalized.  The sets are seeds 0-19 (criterion 5), seeds 1000-1199, seeds
1000-1099 at Nakagami m = 2.5, the scaled scenes 0-4 (50 relays, 100
observations, 1 m cells) and the scaled scene 0 at m = 2.5; scene k samples
its relays and draws from RngStream(k).

Usage: python scripts/run_inversion_sweep.py [--seeds N] [--base B] [--compare-argmin]
       python scripts/run_inversion_sweep.py --table
"""

import argparse
import math
import statistics
import time

import numpy as np

from relaytomo import tomography
from relaytomo.config import default_config_dict, scenario_from_dict
from relaytomo.geometry import dist, sample_relays
from relaytomo.measurement import simulate_measurements
from relaytomo.numerics import RngStream
from relaytomo.tomography import KIND_THRESHOLD, TomographyConfig, localize_all, score_results

# (name, Nakagami m, scaled, scenes) of each set --table prints
SETS = (("seeds 0-19", 1.0, False, range(20)),
        ("seeds 1000-1199", 1.0, False, range(1000, 1200)),
        ("m = 2.5, seeds 1000-1099", 2.5, False, range(1000, 1100)),
        ("scaled scenes 0-4", 1.0, True, range(5)),
        ("scaled scene 0 at m = 2.5", 2.5, True, [0]))


def run(n_seeds: int, base: int, compare_argmin: bool) -> tuple[list[float], list[float]]:
    """Per-seed fractions within one cell: msprt, and argmin (empty unless compared)."""
    cfg = scenario()
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


def scenario(nakagami_m: float = 1.0, scaled: bool = False):
    """The default scenario at Nakagami m; scaled: 50 relays, 100 observations, 1 m cells."""
    raw = default_config_dict()
    raw["channel"]["nakagami_m"] = nakagami_m
    if scaled:
        raw["experiment"].update(relays=50, observations=100)
        raw["grid"]["cell_side_m"] = 1.0
    return scenario_from_dict(raw)


def table(sets=SETS, passes: int = 3) -> list[dict]:
    """Print and return one row per set and solver mode: rate, mean error,
    warm µs per relay, early stops and the misses split three ways."""
    rows = []
    print(f"{'set':28s} {'mode':6s} {'rate':>6s} {'mean err m':>10s} {'us/relay':>9s} "
          f"{'early stops':>11s} {'miss: no cell':>13s} {'wrong pick':>10s} {'unlocalized':>11s}")
    for name, nakagami_m, scaled, scenes in sets:
        cfg = scenario(nakagami_m, scaled)
        net, grid, params = cfg.network(), cfg.cell_grid(), cfg.channel_params()
        drawn = []
        for k in scenes:
            rng = RngStream(k)
            relays = sample_relays(cfg.region(), cfg.relays, rng.child(0))
            drawn.append((simulate_measurements(net, relays, params, cfg.observations,
                                                rng.child(1)), relays))
        n_relays = sum(len(relays) for _, relays in drawn)
        for mode in ("msprt", "argmin"):
            tomo = TomographyConfig(cell_side=cfg.cell_side_m, mode=mode)
            results = [localize_all(ms, net, grid, params, tomo, cfg.msprt()) for ms, _ in drawn]
            times = []
            for _ in range(passes):
                start = time.process_time()
                for ms, _ in drawn:
                    localize_all(ms, net, grid, params, tomo, cfg.msprt())
                times.append(time.process_time() - start)
            errors = [dist(r.position, relays[r.relay]) for res, (_, relays) in zip(results, drawn)
                      for r in res if r.position is not None]
            row = {"set": name, "mode": mode, "relays": n_relays,
                   "rate": sum(err <= cfg.cell_side_m for err in errors) / n_relays,
                   "mean_error_m": statistics.fmean(errors) if errors else math.nan,
                   "us_per_relay": 1e6 * statistics.median(times) / n_relays,
                   "early_stops": sum(r.kind == KIND_THRESHOLD and r.stopped_at > 0
                                      for res in results for r in res),
                   **misses(drawn, results, net, grid, mode)}
            rows.append(row)
            print(f"{name:28s} {mode:6s} {row['rate']:6.3f} {row['mean_error_m']:10.3f} "
                  f"{row['us_per_relay']:9.1f} {row['early_stops']:11d} {row['no_cell']:13d} "
                  f"{row['wrong_pick']:10d} {row['unlocalized']:11d}")
    return rows


def misses(drawn, results, net, grid, mode: str) -> dict[str, int]:
    """The relays not localized within one cell side, by kind: the holding
    cell is not among the mode's candidates, the pick is wrong among them,
    or the relay is unlocalized."""
    fp = tomography._footprint(net, grid)
    counts = {"no_cell": 0, "wrong_pick": 0, "unlocalized": 0}
    for (ms, relays), res in zip(drawn, results):
        ms = ms.in_pair_order(net.row_pairs)
        spans, cells = tomography._candidates(ms, np.arange(ms.n_relays), net, fp, mode)
        for r, p, (start, count) in zip(res, relays, spans.tolist()):
            if r.position is None:
                counts["unlocalized"] += 1
            elif dist(r.position, p) > grid.cell_side:
                holding = (abs(grid.xy - (p.x, p.y)) <= grid.cell_side / 2).all(axis=1)
                kept = holding[cells[start:start + count]].any()
                counts["wrong_pick" if kept else "no_cell"] += 1
    return counts


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--base", type=int, default=0)
    ap.add_argument("--compare-argmin", action="store_true")
    ap.add_argument("--table", action="store_true",
                    help="the accuracy and cost table of both modes on the fixed sets")
    args = ap.parse_args()
    if args.table:
        table()
    else:
        run(args.seeds, args.base, args.compare_argmin)
