#!/usr/bin/env python3
"""Correct-cell rate of the sequential test as the observation window grows.

Draws one relay per scene, simulates a long observation window once, and
localizes it with `localize_all` in msprt mode on nested prefixes of the
window, one `MsprtConfig(error=1e-12, max_observations=o)` per window o,
so candidates and their prior weights come from the footprint angle
likelihood.  A relay left without candidates counts as a miss.  More
observations should never hurt on average; the printed rates show the
consistency of the sequential objective.

Usage: python scripts/run_sequential_scaling.py [--scenes N] [--windows 1,10,100]
"""

import argparse

from relaytomo.config import default_config_dict, scenario_from_dict
from relaytomo.geometry import dist, sample_relays
from relaytomo.measurement import simulate_measurements
from relaytomo.numerics import RngStream
from relaytomo.tomography import MsprtConfig, TomographyConfig, localize_all


def run(n_scenes: int, windows: list[int], base: int = 6000) -> list[float]:
    cfg = scenario_from_dict(default_config_dict())
    net, grid, params = cfg.network(), cfg.cell_grid(), cfg.channel_params()
    region = cfg.region()
    tomo = TomographyConfig(cell_side=grid.cell_side, mode="msprt")

    correct = {o: 0 for o in windows}
    for k in range(n_scenes):
        rng = RngStream(base + k)
        relays = sample_relays(region, 1, rng.child(0))
        ms = simulate_measurements(net, relays, params, max(windows), rng.child(1))
        true_cell = min(range(len(grid.cells)),
                        key=lambda w: dist(grid.cells[w], relays[0]))
        for o in windows:
            res, = localize_all(ms, net, grid, params, tomo,
                                MsprtConfig(error=1e-12, max_observations=o))
            correct[o] += res.cell_index == true_cell

    rates = []
    for o in windows:
        rate = correct[o] / n_scenes
        rates.append(rate)
        print(f"observations {o:4d}: correct-cell rate {rate:.3f}")
    return rates


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--scenes", type=int, default=200)
    ap.add_argument("--windows", default="1,10,100")
    args = ap.parse_args()
    run(args.scenes, [int(w) for w in args.windows.split(",")])
