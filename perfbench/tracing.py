"""Spans and counters around relaytomo's layers, installed from outside.

`install` rebinds the module attributes that relaytomo's callers look up
at call time (for example ``relaytomo.ias.outage_capacity`` or
``relaytomo.channel.regularized_lower_gamma``) to wrappers, and `Tracer.
uninstall` puts the originals back, so no file of the library changes.

Three wrapper kinds keep the overhead proportionate to the call rate:

* spans (coarse layers) record name, start, end and parent; a layer's
  self time is its duration minus the time its children cover;
* timed leaves (``angles_from_point``, a million calls in ``selftest``)
  add up calls and seconds and charge them to the enclosing span;
* counters (incomplete gamma, ``outage_cdf``, ``capacity_log_pdf``) only
  count: timing every call of these raised ``direct`` by half.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

from metrics import percentile

NAME, START, END, PARENT, COVERED = range(5)


class RelayRecord:
    """One relay localization seen by the tracer: its candidates and result."""

    __slots__ = ("relay", "candidates", "result")

    def __init__(self, relay: int, candidates: list[int]):
        self.relay = relay
        self.candidates = candidates
        self.result = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.amounts: dict[str, float] = defaultdict(float)
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.attributed: dict[str, int] = defaultdict(int)
        self.relays: list[RelayRecord] = []
        self.relay_ms: list[float] = []
        self.msprt_obs: list[int] = []
        self._pending_ms = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        end = time.perf_counter()
        record = self.spans[idx]
        record[END] = end
        self.stack.pop()
        duration = end - record[START]
        if record[PARENT] >= 0:
            self.spans[record[PARENT]][COVERED] += duration
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        """Span opened by the benchmark's own code around a call into a layer."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def take_relays(self) -> list[RelayRecord]:
        taken, self.relays = self.relays, []
        return taken

    # -- wrappers ----------------------------------------------------------

    def spanned(self, name, fn, after=None, attribute=None):
        """Wrap fn in a span; `after(args, result, seconds)` sees bound arguments.

        `attribute` names a counter whose increments during the span are
        also credited to this layer.
        """
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.counts[attribute] if attribute else 0
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._close(idx)
                if attribute:
                    self.attributed[name] += self.counts[attribute] - before
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result, seconds)
            return result

        return wrapper

    def leaf(self, name, fn):
        totals = self.leaves[name]
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                totals[0] += 1
                totals[1] += seconds
                if stack:
                    spans[stack[-1]][COVERED] += seconds

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that record work done ----------------------------------------

    def _after_sample(self, args, result, seconds):
        self.amounts["channel.sample.draws"] += 1 if args["size"] is None else args["size"]

    def _after_region_sample(self, args, result, seconds):
        self.amounts["geometry.sample.points"] += args["n"]

    def _after_discrete_ias(self, args, result, seconds):
        self.amounts["ias.cells"] += result.masses.size
        self.amounts["ias.cells_nonempty"] += int((result.masses > 0.0).sum())

    def _after_simulate(self, args, result, seconds):
        self.amounts["measurement.paths"] += result.aoa.size

    def _after_write(self, args, result, seconds):
        self.amounts["measurement.file_bytes"] += os.path.getsize(args["path"])

    def _after_feasible(self, args, result, seconds):
        self.amounts["tomography.cells_tested"] += len(args["grid"].cells)
        self.relays.append(RelayRecord(args["relay"], list(result)))
        if result:
            self._pending_ms = 1e3 * seconds
        else:
            self.relay_ms.append(1e3 * seconds)

    def _after_decision(self, args, result, seconds):
        if self.relays and self.relays[-1].relay == result.relay:
            self.relays[-1].result = result
        self.relay_ms.append(self._pending_ms + 1e3 * seconds)
        self._pending_ms = 0.0

    def _after_msprt(self, args, result, seconds):
        self.msprt_obs.append(result.stopped_at)
        self._after_decision(args, result, seconds)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every relaytomo module attribute that refers to a traced function."""
        from relaytomo import channel, config, geometry, ias, measurement, numerics, tomography

        targets = [
            (numerics.regularized_lower_gamma, self.counted("numerics.lower_gamma", numerics.regularized_lower_gamma)),
            (channel.outage_cdf, self.counted("channel.outage_cdf", channel.outage_cdf)),
            (channel.capacity_log_pdf, self.counted("channel.capacity_log_pdf", channel.capacity_log_pdf)),
            (channel.outage_capacity, self.spanned("channel.outage_capacity", channel.outage_capacity)),
            (channel.sample_instant_capacity, self.spanned(
                "channel.sample", channel.sample_instant_capacity, self._after_sample)),
            (geometry.angles_from_point, self.leaf("geometry.angles_from_point", geometry.angles_from_point)),
            (geometry.discretize_region, self.spanned("geometry.discretize", geometry.discretize_region)),
            (ias.discrete_ias, self.spanned("ias.discrete_ias", ias.discrete_ias, self._after_discrete_ias)),
            (ias.angle_cell_mass, self.spanned("ias.angle_cell_mass", ias.angle_cell_mass)),
            (measurement.simulate_measurements, self.spanned(
                "measurement.simulate", measurement.simulate_measurements, self._after_simulate)),
            (measurement.write_measurements, self.spanned(
                "measurement.write", measurement.write_measurements, self._after_write)),
            (measurement.read_measurements, self.spanned("measurement.read", measurement.read_measurements)),
            (tomography.feasible_cells, self.spanned(
                "tomography.feasible_cells", tomography.feasible_cells, self._after_feasible)),
            (tomography.msprt_localize, self.spanned(
                "tomography.msprt", tomography.msprt_localize, self._after_msprt,
                attribute="channel.capacity_log_pdf")),
            (tomography.localize_argmin, self.spanned(
                "tomography.argmin", tomography.localize_argmin, self._after_decision)),
            (config.scenario_from_dict, self.spanned("config.load", config.scenario_from_dict)),
            (config.load_scenario, self.spanned("config.load", config.load_scenario)),
        ]
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "relaytomo" or n.startswith("relaytomo."))]
        for original, wrapper in targets:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)
        region_sample = geometry.RelayRegion.sample
        self._rebind(geometry.RelayRegion, "sample",
                     self.spanned("geometry.sample", region_sample, self._after_region_sample))

    def _rebind(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-layer figures -------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures derived from spans, leaves and counters."""
        total = defaultdict(float)     # outermost spans of each name
        self_s = defaultdict(float)
        calls = defaultdict(int)
        under = defaultdict(int)       # outage solves by enclosing layer
        for record in self.spans:
            name = record[NAME]
            duration = record[END] - record[START]
            calls[name] += 1
            self_s[name] += duration - record[COVERED]
            parent, outermost = record[PARENT], True
            while parent >= 0:
                ancestor = self.spans[parent][NAME]
                if ancestor == name:
                    outermost = False
                elif name == "channel.outage_capacity":
                    under[ancestor] += 1
                parent = self.spans[parent][PARENT]
            if outermost:
                total[name] += duration
        solves = calls["channel.outage_capacity"]
        out = {
            "numerics.lower_gamma.calls": self.counts["numerics.lower_gamma"],
            "channel.outage_capacity.calls": solves,
            "channel.outage_capacity.s": total["channel.outage_capacity"],
            "channel.cdf_evals_per_solve": self.counts["channel.outage_cdf"] / solves if solves else 0.0,
            "channel.capacity_log_pdf.calls": self.counts["channel.capacity_log_pdf"],
            "channel.sample.draws": self.amounts["channel.sample.draws"],
            "channel.sample.s": total["channel.sample"],
            "geometry.angles_from_point.calls": self.leaves["geometry.angles_from_point"][0],
            "geometry.angles_from_point.s": self.leaves["geometry.angles_from_point"][1],
            "geometry.sample.points": self.amounts["geometry.sample.points"],
            "geometry.sample.s": total["geometry.sample"],
            "geometry.discretize.s": total["geometry.discretize"],
            "ias.discrete_ias.s": total["ias.discrete_ias"],
            "ias.discrete_ias.self_s": self_s["ias.discrete_ias"],
            "ias.cells": self.amounts["ias.cells"],
            "ias.cells_nonempty": self.amounts["ias.cells_nonempty"],
            "ias.value_evals": under["ias.discrete_ias"],
            "ias.angle_cell_mass.calls": calls["ias.angle_cell_mass"],
            "ias.angle_cell_mass.s": total["ias.angle_cell_mass"],
            "measurement.simulate.s": total["measurement.simulate"],
            "measurement.simulate.self_s": self_s["measurement.simulate"],
            "measurement.paths": self.amounts["measurement.paths"],
            "measurement.write.s": total["measurement.write"],
            "measurement.read.s": total["measurement.read"],
            "measurement.file_bytes": self.amounts["measurement.file_bytes"],
            "tomography.feasible_cells.s": total["tomography.feasible_cells"],
            "tomography.cells_tested": self.amounts["tomography.cells_tested"],
            "tomography.msprt.s": total["tomography.msprt"],
            "tomography.msprt.self_s": self_s["tomography.msprt"],
            "tomography.msprt.pdf_evals": self.attributed["tomography.msprt"],
            "tomography.msprt.obs_used": (sum(self.msprt_obs) / len(self.msprt_obs)
                                          if self.msprt_obs else 0.0),
            "tomography.argmin.s": total["tomography.argmin"],
            "tomography.argmin.self_s": self_s["tomography.argmin"],
            "tomography.argmin.solves": under["tomography.argmin"],
            "config.load.s": total["config.load"],
        }
        if self.relay_ms:
            out["tomography.relay_ms.p50"] = percentile(self.relay_ms, 50)
            out["tomography.relay_ms.p99"] = percentile(self.relay_ms, 99)
        else:
            out["tomography.relay_ms.p50"] = out["tomography.relay_ms.p99"] = 0.0
        return out

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent] (parent -1 for roots)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": [r[:4] for r in self.spans]}, fh)
