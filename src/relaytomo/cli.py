"""Command-line front-end.

Subcommands
-----------
direct     sample a relay set and emit the continuous atom list plus the
           discrete angular spectrum (plot-ready CSV)
simulate   run the exterior probing protocol and emit measurements + truth
invert     localize relays from a measurement file, optionally scored
selftest   Monte Carlo oracle checks of the angle pdf and the outage solver

Exit codes: 0 success, 2 configuration error or unusable output path,
3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .channel import outage_solver_check
from .config import (
    ScenarioConfig,
    default_config_dict,
    load_scenario,
    scenario_from_dict,
    write_config,
)
from .errors import ConfigError, MeasurementError, RelayTomoError
from .geometry import sample_relays
from .ias import angle_pdf_check, continuous_ias, discrete_ias
from .measurement import (
    read_measurements,
    read_relays,
    simulate_measurements,
    write_measurements,
    write_relays,
)
from .numerics import RngStream
from .tomography import localize_all, score_results, write_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load(args) -> ScenarioConfig:
    if args.config is None:
        cfg = scenario_from_dict(default_config_dict())
    else:
        cfg = load_scenario(args.config)
    overrides = {name: getattr(args, name) for name in ("seed", "observations", "mode")
                 if getattr(args, name, None) is not None}
    return replace(cfg, **overrides) if overrides else cfg


def _write_manifest(out: Path, cfg: ScenarioConfig, outputs: list[str]) -> None:
    manifest = {
        "tool": "relaytomo",
        "version": __version__,
        "config": cfg.as_dict(),
        "outputs": outputs,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_direct(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    baseline = cfg.baseline()
    region = cfg.region()
    params = cfg.channel_params()

    relays = sample_relays(region, cfg.relays, cfg.rng().child(0))
    atoms = continuous_ias(relays, baseline, params)
    with open(out / "atoms.csv", "w", encoding="utf-8") as fh:
        fh.write("relay,aod_deg,aoa_deg,capacity\n")
        for a in atoms:
            fh.write(f"{a.relay},{math.degrees(a.aod):.9f},"
                     f"{math.degrees(a.aoa):.9f},{a.capacity!r}\n")

    grid = cfg.angular_grid()
    spectrum = discrete_ias(grid, region, baseline, params, cfg.quadrature())
    with open(out / "discrete.csv", "w", encoding="utf-8") as fh:
        fh.write("i,j,aod_deg,aoa_deg,value,mass\n")
        for a, i in enumerate(range(grid.i_lo, grid.i_hi + 1)):
            for b, j in enumerate(range(grid.j_lo, grid.j_hi + 1)):
                fh.write(f"{i},{j},{math.degrees(i * grid.d_aod):.9f},"
                         f"{math.degrees(j * grid.d_aoa):.9f},"
                         f"{float(spectrum.values[a, b])!r},"
                         f"{float(spectrum.masses[a, b])!r}\n")

    _write_manifest(out, cfg, ["atoms.csv", "discrete.csv"])
    print(f"direct: wrote {out / 'atoms.csv'} ({len(atoms)} atoms) and "
          f"{out / 'discrete.csv'} ({grid.n_aod}x{grid.n_aoa} cells)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    region = cfg.region()
    params = cfg.channel_params()
    net = cfg.network()

    relays = sample_relays(region, cfg.relays, cfg.rng().child(0))
    ms = simulate_measurements(net, relays, params, cfg.observations,
                               cfg.rng().child(1))
    write_measurements(ms, out / "measurements.txt")
    write_relays(relays, out / "relays_true.txt")
    _write_manifest(out, cfg, ["measurements.txt", "relays_true.txt"])
    print(f"simulate: {len(relays)} relays, {len(ms.pairs)} ordered pairs, "
          f"{cfg.observations} observations -> {out / 'measurements.txt'}")
    return EXIT_OK


def cmd_invert(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ms = read_measurements(args.measurements)
    if args.observations is not None and args.observations > ms.n_observations:
        raise MeasurementError(
            f"--observations {args.observations} exceeds the {ms.n_observations} "
            f"observations per record of {args.measurements}")
    truth = None if args.truth is None else read_relays(args.truth)
    if truth is not None and len(truth) != ms.n_relays:
        raise MeasurementError(
            f"{args.truth} holds {len(truth)} relays, {args.measurements} "
            f"measures {ms.n_relays}")
    results = localize_all(ms, cfg.network(), cfg.cell_grid(), cfg.channel_params(),
                           cfg.tomography(), cfg.msprt())
    write_report(results, out / "report.txt")
    outputs = ["report.txt"]
    summary = f"invert: localized {sum(r.position is not None for r in results)}" \
              f"/{ms.n_relays} relays ({cfg.mode}) -> {out / 'report.txt'}"
    if truth is not None:
        score = score_results(results, truth, cfg.cell_side_m)
        with open(out / "scoring.json", "w", encoding="utf-8") as fh:
            json.dump(score, fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs.append("scoring.json")
        summary += f"; fraction within one cell: {score['fraction_within_one_cell']:.3f}"
    _write_manifest(out, cfg, outputs)
    print(summary)
    return EXIT_OK


def cmd_selftest(args) -> int:
    cfg = _load(args)
    ok = True
    ok &= _selftest_outage_solver(cfg)
    ok &= _selftest_angle_pdf(cfg)
    print("selftest:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NUMERICAL


def _selftest_outage_solver(cfg: ScenarioConfig, n: int = 1_000_000) -> bool:
    """Outage solver vs the m=1 closed form and a Monte Carlo count."""
    params = cfg.channel_params()
    solved, closed, draws = outage_solver_check(params, RngStream(cfg.seed).child(101), n)
    below = int(np.count_nonzero(draws < solved))
    p = params.outage_prob
    band = 6.0 * math.sqrt(n * p * (1.0 - p))
    checks = []
    if closed is not None:
        checks.append(("closed-form inversion", abs(solved - closed) <= 1e-12 * closed,
                       f"solver {solved:.12e} vs closed form {closed:.12e}"))
    checks.append(("Monte Carlo count", abs(below - n * p) <= band,
                   f"{below} of {n} draws below the solved {solved:.6e}, "
                   f"expected {n * p:.0f} +- {band:.0f}"))
    passed = True
    for name, good, detail in checks:
        print(f"  outage-solver {name}: {'PASS' if good else 'FAIL'} ({detail})")
        passed &= good
    return passed


def _selftest_angle_pdf(cfg: ScenarioConfig, n: int = 1_000_000) -> bool:
    """Angle pdf normalization and a histogram match against relay sampling."""
    total, frac = angle_pdf_check(cfg.region(), cfg.baseline(), cfg.angular_grid(),
                                  RngStream(cfg.seed).child(102), n)
    norm_ok = abs(total - 1.0) <= 1e-4
    print(f"  angle-pdf normalization: {'PASS' if norm_ok else 'FAIL'} "
          f"(integral {total:.8f})")
    hist_ok = frac >= 0.95
    print(f"  angle-pdf histogram: {'PASS' if hist_ok else 'FAIL'} "
          f"({frac:.3f} of nonempty cells within 3 sigma)")
    return norm_ok and hist_ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaytomo",
        description="Angular capacity spectra and relay localization for "
                    "two-hop decentralized relay networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, observations=False, mode=False):
        p.add_argument("--config", type=str, default=None,
                       help="scenario JSON (built-in reference scenario if omitted)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the experiment seed")
        p.add_argument("--out", type=str, default="out",
                       help="output directory (created if missing)")
        if observations:
            p.add_argument("--observations", type=int, default=None,
                           help="override the per-pair observation count")
        if mode:
            p.add_argument("--mode", choices=["argmin", "msprt"], default=None,
                           help="override the localization objective")

    p_direct = sub.add_parser("direct", help="emit continuous + discrete spectra")
    add_common(p_direct)
    p_direct.set_defaults(func=cmd_direct)

    p_sim = sub.add_parser("simulate", help="run the probing protocol")
    add_common(p_sim, observations=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_inv = sub.add_parser("invert", help="localize relays from measurements")
    p_inv.add_argument("measurements", type=str, help="measurement file from 'simulate'")
    p_inv.add_argument("--truth", type=str, default=None,
                       help="true relay positions for scoring")
    add_common(p_inv, observations=True, mode=True)
    p_inv.set_defaults(func=cmd_invert)

    p_self = sub.add_parser("selftest", help="run the Monte Carlo oracle suites")
    p_self.add_argument("--config", type=str, default=None)
    p_self.add_argument("--seed", type=int, default=None)
    p_self.set_defaults(func=cmd_selftest)

    p_cfg = sub.add_parser("write-config", help="write the reference scenario JSON")
    p_cfg.add_argument("path", type=str)
    p_cfg.set_defaults(func=cmd_write_config)
    return parser


def cmd_write_config(args) -> int:
    write_config(default_config_dict(), args.path)
    print(f"wrote {args.path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RelayTomoError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # every input read turns its OSError into a config or data error, so
        # this is an output path that cannot be made or written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
