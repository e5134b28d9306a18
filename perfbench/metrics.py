"""Metric catalog: every name the benchmark prints, with its unit.

BENCHMARK.json lists the same names; the smoke test checks that the two
agree.  Every workload reports every end-to-end metric (the result format
requires it), measured on that workload's own inputs; see README.md.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "invert_msprt_s": "s",
    "invert_argmin_s": "s",
    "direct_s": "s",
    "direct_m25_s": "s",
    "selftest_s": "s",
    "msprt_relays_per_s": "1/s",
    "argmin_relays_per_s": "1/s",
    "loc_rate_msprt": "frac",
    "loc_rate_argmin": "frac",
}

PER_LAYER = {
    "numerics.lower_gamma.calls": "count",
    "channel.outage_capacity.calls": "count",
    "channel.outage_capacity.s": "s",
    "channel.cdf_evals_per_solve": "evals/solve",
    "channel.capacity_log_pdf.calls": "count",
    "channel.sample.draws": "count",
    "channel.sample.s": "s",
    "geometry.angles_from_point.calls": "count",
    "geometry.angles_from_point.s": "s",
    "geometry.sample.points": "count",
    "geometry.sample.s": "s",
    "geometry.discretize.s": "s",
    "ias.discrete_ias.s": "s",
    "ias.discrete_ias.self_s": "s",
    "ias.cells": "count",
    "ias.cells_nonempty": "count",
    "ias.value_evals": "count",
    "ias.angle_cell_mass.calls": "count",
    "ias.angle_cell_mass.s": "s",
    "measurement.simulate.s": "s",
    "measurement.simulate.self_s": "s",
    "measurement.paths": "count",
    "measurement.write.s": "s",
    "measurement.read.s": "s",
    "measurement.file_bytes": "bytes",
    "tomography.feasible_cells.s": "s",
    "tomography.cells_tested": "count",
    "tomography.candidates.mean": "cells",
    "tomography.candidates.max": "cells",
    "tomography.msprt.s": "s",
    "tomography.msprt.self_s": "s",
    "tomography.msprt.pdf_evals": "count",
    "tomography.msprt.obs_used": "obs",
    "tomography.argmin.s": "s",
    "tomography.argmin.self_s": "s",
    "tomography.argmin.solves": "count",
    "tomography.relay_ms.p50": "ms",
    "tomography.relay_ms.p99": "ms",
    "tomography.relays": "count",
    "tomography.true_cell_kept_frac": "frac",
    "tomography.decisions.threshold": "count",
    "tomography.decisions.single": "count",
    "tomography.decisions.forced_map": "count",
    "tomography.decisions.argmin": "count",
    "tomography.decisions.unlocalized": "count",
    "tomography.miss.no_true_cell": "count",
    "tomography.miss.wrong_pick": "count",
    "tomography.miss.unlocalized": "count",
    "tomography.criterion5_rate": "frac",
    "config.load.s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_frac": "frac",
}


@dataclass
class Outcome:
    """What one workload run measured and which of its operations failed.

    An operation is one attempted command, spectrum, scene stage or relay
    decision; it fails when it raises or when any check on its output
    fails.  Unlocalized relays are an accuracy outcome, not a failure.
    """

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def operation(self, label: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.problems.extend(f"{label}: {e}" for e in errors)
        return not errors


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-len(ordered) * q // 100)))
    return float(ordered[int(rank) - 1])


def summary(values) -> dict:
    """Median, quartiles, the highest percentile with ten samples beyond it, n."""
    values = list(values)
    out = {"n": len(values), "median": median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    for q in (99.0, 90.0):
        if len(values) * (1.0 - q / 100.0) >= 10.0:
            out[f"p{q:g}"] = percentile(values, q)
            break
    return out
