"""In-process workloads `sweep` and `scaled`: simulate -> localize -> score.

A scene samples relays, simulates the probing protocol, localizes every
relay with MSPRT and then with argmin on the same measurements, and scores
both.  Scene k uses ``RngStream(base + k)``.  `sweep` takes base = seed *
10000, so seed 0 starts with acceptance criterion 5's twenty scenes.
`scaled` always runs the same scene, ``RngStream(0)``: its 50 relays are
all a run has time for, and a loc rate over 50 relays that changed with
the seed would swing by a fifth, so its rate is kept exact instead.

A run has two parts.  The accuracy pass localizes every accuracy scene
once and gives the loc rates.  Timing rounds re-run a fixed set of small
timing scenes (``RngStream(k)``, whatever the seed, so runs time the same
work), interleaved with the accuracy pass and continued until the run's
seconds are up.  Every stage time is CPU time scaled to the reference
speed by the speed meter (see speed.py), and a stage's time is the mean
over timing scenes of each scene's median round.  A timing scene also
times the atom half of the direct problem
(`continuous_ias` at m = 1 and m = 2.5) and the selftest's oracles on its
own relays, because every workload reports every end-to-end metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

import speed
from metrics import Outcome, median, summary
from relaytomo import channel, config, geometry, ias, measurement, tomography
from relaytomo.numerics import RngStream
from tracing import Tracer

SEED_STRIDE = 10_000
SETUP_REPEATS = 3  # scenario builds per round, for setup_s
ORACLE_DRAWS = 10_000
ORACLE_SIGMAS = 6.0
CLOSED_FORM_TOL = 1e-9
ROUND_TRIP_TOL_M = 1e-9
KINDS = {"msprt": (tomography.KIND_THRESHOLD, tomography.KIND_FORCED_MAP),
         "argmin": (tomography.KIND_ARGMIN,)}


@dataclass(frozen=True)
class Spec:
    relays: int             # per accuracy scene
    observations: int
    cell_side_m: float
    scenes: int             # accuracy scenes
    relay_chunk: int | None  # relays localized per accuracy step (None: whole scene)
    chunk: int              # accuracy steps between two timing rounds
    timing_scenes: int
    timing_relays: int      # per timing scene
    min_rounds: int
    fixed_base: int | None = None


SPECS = {
    "sweep": Spec(relays=5, observations=10, cell_side_m=5.0, scenes=1000, relay_chunk=None,
                  chunk=100, timing_scenes=20, timing_relays=5, min_rounds=10),
    "scaled": Spec(relays=50, observations=100, cell_side_m=1.0, scenes=1, relay_chunk=10,
                   chunk=1, timing_scenes=4, timing_relays=1, min_rounds=8, fixed_base=0),
}
TINY_SPECS = {
    "sweep": Spec(relays=5, observations=10, cell_side_m=5.0, scenes=3, relay_chunk=None,
                  chunk=1, timing_scenes=2, timing_relays=5, min_rounds=2),
    "scaled": Spec(relays=3, observations=100, cell_side_m=1.0, scenes=1, relay_chunk=2,
                   chunk=1, timing_scenes=1, timing_relays=2, min_rounds=2, fixed_base=0),
}
CRITERION5 = Spec(relays=5, observations=10, cell_side_m=5.0, scenes=20, relay_chunk=None,
                  chunk=20, timing_scenes=0, timing_relays=5, min_rounds=0, fixed_base=0)


@dataclass(frozen=True)
class Scenario:
    cfg: config.ScenarioConfig
    net: measurement.MeasurementNetwork
    grid: object
    angular_grid: object
    params: channel.ChannelParams
    params_m25: channel.ChannelParams


def scenario_dict(spec: Spec, nakagami_m: float = 1.0) -> dict:
    raw = config.default_config_dict()
    raw["experiment"]["relays"] = spec.relays
    raw["experiment"]["observations"] = spec.observations
    raw["grid"]["cell_side_m"] = spec.cell_side_m
    raw["channel"]["nakagami_m"] = nakagami_m
    return raw


def build_scenario(spec: Spec) -> Scenario:
    """The set-up setup_s times: scenario, network, cell grid and angular grid.

    Scenes use all of it but the angular grid, which only the spectrum needs."""
    cfg = config.scenario_from_dict(scenario_dict(spec))
    cfg_m25 = config.scenario_from_dict(scenario_dict(spec, nakagami_m=2.5))
    return Scenario(cfg, cfg.network(), cfg.cell_grid(), cfg.angular_grid(),
                    cfg.channel_params(), cfg_m25.channel_params())


def _closed_form_m1(hops: channel.HopPair, params: channel.ChannelParams) -> float:
    s1 = 1.0 / (params.snr * hops.d_sr ** params.path_loss_exp)
    s2 = 1.0 / (params.snr * hops.d_rd ** params.path_loss_exp)
    return 0.5 * math.log2(1.0 - math.log1p(-params.outage_prob) / (s1 + s2))


def oracle(sc: Scenario, relays, atoms, rng: RngStream) -> list[list[str]]:
    """The selftest's oracles on each relay: angle map round trip, closed form
    (m = 1) and a Monte Carlo count of draws below the solved capacity."""
    baseline, params = sc.cfg.baseline(), sc.params
    p = params.outage_prob
    band = ORACLE_SIGMAS * math.sqrt(ORACLE_DRAWS * p * (1.0 - p))
    errors = []
    for l, (relay, atom) in enumerate(zip(relays, atoms)):
        errs = []
        angles = geometry.angles_from_point(baseline, relay)
        back = geometry.point_from_angles(baseline, angles)
        if math.hypot(back.x - relay.x, back.y - relay.y) > ROUND_TRIP_TOL_M:
            errs.append("angle map round trip")
        hops = channel.HopPair(geometry.dist_source_relay(baseline, angles),
                               geometry.dist_relay_destination(baseline, angles))
        if params.nakagami_m == 1.0 and abs(atom.capacity - _closed_form_m1(hops, params)) > CLOSED_FORM_TOL:
            errs.append(f"outage solve {atom.capacity!r} misses the closed form")
        draws = channel.sample_instant_capacity(hops, params, rng.child(l), size=ORACLE_DRAWS)
        below = int(np.count_nonzero(draws < atom.capacity))
        if abs(below - ORACLE_DRAWS * p) > band:
            errs.append(f"{below} of {ORACLE_DRAWS} draws below the outage capacity")
        errors.append(errs)
    return errors


def check_results(results, sc: Scenario, mode: str, n_relays: int) -> list[list[str]]:
    errors = []
    for l in range(n_relays):
        errs = []
        r = results[l] if l < len(results) else None
        if r is None or r.relay != l:
            errors.append(["missing or misordered result"])
            continue
        if r.kind == tomography.KIND_UNLOCALIZED:
            if r.position is not None or r.n_candidates != 0:
                errs.append("unlocalized result carries a position")
        elif r.kind not in KINDS[mode]:
            errs.append(f"decision kind {r.kind} in {mode} mode")
        elif not (0 <= r.cell_index < len(sc.grid.cells)) or r.position != sc.grid.cells[r.cell_index]:
            errs.append("position is not the chosen cell center")
        elif r.n_candidates < 1 or not (r.e_capacity >= 0.0):
            errs.append("bad candidate count or capacity residual")
        errors.append(errs)
    return errors


class Accuracy:
    """Filter outcomes, decision kinds and the three-way miss breakdown.

    The true cell is the cell center nearest the relay; a miss is a relay
    placed farther than one cell side from its true position (the scoring
    rule of `score_results`).
    """

    FIELDS = ("relays", "kept", "threshold", "single", "forced_map", "argmin",
              "unlocalized", "miss_no_true_cell", "miss_wrong_pick", "miss_unlocalized")

    def __init__(self) -> None:
        self.n = dict.fromkeys(self.FIELDS, 0)
        self.candidate_sizes: list[int] = []

    def add(self, records, truth, grid, cell_side: float) -> None:
        centers = np.array([(c.x, c.y) for c in grid.cells])
        for rec in records:
            relay = truth[rec.relay]
            true_cell = int(np.argmin(np.hypot(centers[:, 0] - relay.x, centers[:, 1] - relay.y)))
            kept = true_cell in rec.candidates
            self.n["relays"] += 1
            self.n["kept"] += kept
            self.candidate_sizes.append(len(rec.candidates))
            r = rec.result
            if r is None:
                self.n["unlocalized"] += 1
                self.n["miss_unlocalized"] += 1
                continue
            if r.kind == tomography.KIND_THRESHOLD:
                self.n["single" if r.n_candidates == 1 else "threshold"] += 1
            elif r.kind == tomography.KIND_FORCED_MAP:
                self.n["forced_map"] += 1
            else:
                self.n["argmin"] += 1
            if math.hypot(r.position.x - relay.x, r.position.y - relay.y) > cell_side:
                self.n["miss_wrong_pick" if kept else "miss_no_true_cell"] += 1

    def metrics(self) -> dict[str, float]:
        n = self.n
        sizes = self.candidate_sizes
        return {
            "tomography.relays": n["relays"],
            "tomography.true_cell_kept_frac": n["kept"] / n["relays"] if n["relays"] else 0.0,
            "tomography.candidates.mean": sum(sizes) / len(sizes) if sizes else 0.0,
            "tomography.candidates.max": max(sizes, default=0),
            "tomography.decisions.threshold": n["threshold"],
            "tomography.decisions.single": n["single"],
            "tomography.decisions.forced_map": n["forced_map"],
            "tomography.decisions.argmin": n["argmin"],
            "tomography.decisions.unlocalized": n["unlocalized"],
            "tomography.miss.no_true_cell": n["miss_no_true_cell"],
            "tomography.miss.wrong_pick": n["miss_wrong_pick"],
            "tomography.miss.unlocalized": n["miss_unlocalized"],
        }


STAGES = ("simulate", "invert_msprt", "invert_argmin", "direct", "direct_m25", "selftest")
MODES = ("msprt", "argmin")


class Tally:
    """Per-scene stage seconds, hits and answers over some scenes.

    With a meter, stage seconds are scaled to the reference speed."""

    def __init__(self, meter: speed.Meter | None = None) -> None:
        self.meter = meter
        self.stage_s = {s: [] for s in STAGES}
        self.relays = 0
        self.hits = dict.fromkeys(MODES, 0)
        self.answers = hashlib.sha256()

    def mark(self):
        return self.meter.mark() if self.meter is not None else time.perf_counter()

    def since(self, mark) -> float:
        """Stage seconds since `mark`: at the reference speed with a meter, else wall."""
        return self.meter.since(mark) if self.meter is not None else time.perf_counter() - mark


def run_scene(sc: Scenario, seed: int, n_relays: int, spec: Spec, tally: Tally, out: Outcome,
              modes=MODES, timing: bool = False, tracer: Tracer | None = None,
              accuracy: Accuracy | None = None, relay_chunk: int | None = None):
    """Generator over one scene: simulate it, then localize its relays with
    each mode, `relay_chunk` relays at a time (all at once if None),
    yielding after each chunk.  A timing scene also runs the direct and
    selftest stages.  With a tracer every stage is a span and each
    localization's candidates feed `accuracy`."""
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    rng = RngStream(seed)
    label = f"scene {seed}"
    region, net = sc.cfg.region(), sc.net
    step = relay_chunk or n_relays
    try:
        t0 = tally.mark()
        with span("bench.simulate"):
            relays = geometry.sample_relays(region, n_relays, rng.child(0))
            ms = measurement.simulate_measurements(net, relays, sc.params,
                                                   spec.observations, rng.child(1))
        tally.stage_s["simulate"].append(tally.since(t0))
        out.operation(f"{label} simulate",
                      [] if ms.aoa.shape == (len(net.ordered_pairs()), n_relays)
                      else ["measurement set has the wrong shape"])
        invert_s = dict.fromkeys(modes, 0.0)
        for lo in range(0, n_relays, step):
            part = slice(lo, min(lo + step, n_relays))
            sub = ms if step >= n_relays else measurement.MeasurementSet(
                ms.pairs, ms.aoa[:, part], ms.cap_est[:, part], ms.raw[:, part, :])
            truth = relays[part]
            for mode in modes:
                tomo = tomography.TomographyConfig(cell_side=spec.cell_side_m, mode=mode)
                t0 = tally.mark()
                with span(f"bench.invert_{mode}"):
                    results = tomography.localize_all(sub, net, sc.grid, sc.params, tomo,
                                                      sc.cfg.msprt())
                invert_s[mode] += tally.since(t0)
                for l, errs in enumerate(check_results(results, sc, mode, len(truth))):
                    out.operation(f"{label} relay {lo + l} {mode}", errs)
                if tracer is not None and accuracy is not None:
                    accuracy.add(tracer.take_relays(), truth, sc.grid, spec.cell_side_m)
                tally.hits[mode] += tomography.score_results(
                    results, truth, spec.cell_side_m)["within_one_cell"]
                for r in results:
                    tally.answers.update(f"{seed} {mode} {lo + r.relay} {r.cell_index} {r.kind} "
                                         f"{r.n_candidates} {r.stopped_at}\n".encode())
            tally.relays += len(truth)
            yield
        for mode in modes:
            tally.stage_s[f"invert_{mode}"].append(invert_s[mode])
        if timing:
            _direct_and_selftest(sc, relays, rng, tally, out, label, span)
    except Exception as exc:  # a scene that raises is a failed operation
        out.operation(label, [f"{type(exc).__name__}: {exc}"])


def _direct_and_selftest(sc, relays, rng, tally, out, label, span) -> None:
    baseline = sc.cfg.baseline()
    t0 = tally.mark()
    with span("bench.direct"):
        atoms = ias.continuous_ias(relays, baseline, sc.params)
    tally.stage_s["direct"].append(tally.since(t0))
    t0 = tally.mark()
    with span("bench.direct_m25"):
        atoms_m25 = ias.continuous_ias(relays, baseline, sc.params_m25)
    tally.stage_s["direct_m25"].append(tally.since(t0))
    for m, found in (("m1", atoms), ("m25", atoms_m25)):
        out.operation(f"{label} direct {m}",
                      [] if len(found) == len(relays) and all(a.capacity > 0.0 for a in found)
                      else ["atom list does not match the relays"])
    t0 = tally.mark()
    with span("bench.selftest"):
        errors = oracle(sc, relays, atoms, rng.child(2))
    tally.stage_s["selftest"].append(tally.since(t0))
    for l, errs in enumerate(errors):
        out.operation(f"{label} relay {l} oracle", errs)


def accuracy_steps(sc, spec, base, out, tally, **kw):
    """The accuracy pass as a generator of small steps, so that timing
    rounds can run between them."""
    for k in range(spec.scenes):
        yield from run_scene(sc, base + k, spec.relays, spec, tally, out,
                             relay_chunk=spec.relay_chunk, **kw)


def timing_round(sc, spec, out, meter=None, **kw) -> Tally:
    tally = Tally(meter)
    for k in range(spec.timing_scenes):
        for _ in run_scene(sc, k, spec.timing_relays, spec, tally, out, timing=True, **kw):
            pass
    return tally


def _base(spec: Spec, seed: int) -> int:
    return spec.fixed_base if spec.fixed_base is not None else seed * SEED_STRIDE


def measure(workload: str, seed: int, seconds: float, tiny: bool) -> Outcome:
    """Timed run: the accuracy pass in chunks with a timing round after each,
    then more rounds until `seconds` are up (at least `min_rounds`).  Each
    round also builds the scenario SETUP_REPEATS times, for setup_s.  The
    speed meter runs throughout and scales every timed stage to the
    reference speed."""
    spec = (TINY_SPECS if tiny else SPECS)[workload]
    base = _base(spec, seed)
    out = Outcome()
    setup: list[float] = []
    rounds: list[Tally] = []
    acc = Tally()
    steps = None
    pending = True
    meter = speed.Meter().start()
    try:
        start = time.perf_counter()
        while True:
            for _ in range(SETUP_REPEATS):
                t0 = meter.mark()
                sc = build_scenario(spec)
                setup.append(meter.since(t0))
            rounds.append(timing_round(sc, spec, out, meter))
            if steps is None:
                steps = accuracy_steps(sc, spec, base, out, acc)
            if pending:
                for _ in range(spec.chunk):
                    if next(steps, StopIteration) is StopIteration:
                        pending = False
                        break
            elif len(rounds) >= spec.min_rounds and time.perf_counter() - start >= seconds:
                break
    finally:
        meter.stop()
    first = rounds[0].answers.digest()
    out.operation("timing rounds", [] if all(r.answers.digest() == first for r in rounds)
                  else ["a timing round gave different answers"])
    typical = {s: [median(times) for times in zip(*(r.stage_s[s] for r in rounds))] for s in STAGES}
    timing_relays = spec.timing_scenes * spec.timing_relays
    out.metrics = {
        "setup_s": median(setup),
        **{f"{s}_s": sum(typical[s]) / spec.timing_scenes for s in STAGES},
        **{f"{m}_relays_per_s": timing_relays / sum(typical[f"invert_{m}"]) for m in MODES},
        **{f"loc_rate_{m}": acc.hits[m] / acc.relays for m in MODES},
    }
    round_s = {s: [sum(r.stage_s[s]) for r in rounds] for s in STAGES}
    out.details = {
        "scene_base": base, "accuracy_scenes": spec.scenes, "relays_per_scene": spec.relays,
        "timing_scenes": spec.timing_scenes, "timing_relays": spec.timing_relays,
        "observations": spec.observations, "cells": len(sc.grid.cells), "rounds": len(rounds),
        "answers_sha256": acc.answers.hexdigest(),
        "statistic": "times scaled to the reference speed; setup_s: median over rounds; "
                     "stage times: mean over timing scenes of each scene's median round; "
                     "loc rates: accuracy pass",
        "round_s": {"setup_s": summary(setup), **{f"{s}_s": summary(round_s[s]) for s in STAGES}},
    }
    return out


def criterion5_rate() -> float:
    """MSPRT loc rate on acceptance criterion 5's scenes (RngStream(0..19))."""
    tally = Tally()
    for _ in accuracy_steps(build_scenario(CRITERION5), CRITERION5, 0, Outcome(), tally,
                            modes=("msprt",)):
        pass
    return tally.hits["msprt"] / tally.relays


def _traced_work(sc, spec, base, out, **kw) -> tuple[float, bytes]:
    t0 = time.perf_counter()
    acc = Tally()
    for _ in accuracy_steps(sc, spec, base, out, acc, **kw):
        pass
    rnd = timing_round(sc, spec, out, **kw)
    return time.perf_counter() - t0, acc.answers.digest() + rnd.answers.digest()


def trace(workload: str, seed: int, tiny: bool, dump_path) -> Outcome:
    """Traced run: the accuracy pass and one timing round untraced, then the
    same with every layer wrapped.  Both must give identical answers."""
    spec = (TINY_SPECS if tiny else SPECS)[workload]
    base = _base(spec, seed)
    out = Outcome()
    plain_s, plain = _traced_work(build_scenario(spec), spec, base, out)
    tracer = Tracer()
    accuracy = Accuracy()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            sc = build_scenario(spec)
        traced_s, traced = _traced_work(sc, spec, base, out, tracer=tracer, accuracy=accuracy)
    finally:
        tracer.uninstall()
    tracer.dump(dump_path)
    out.operation("traced pass", [] if traced == plain else ["traced answers differ from the untraced pass"])
    out.metrics = {
        **tracer.layer_metrics(),
        **accuracy.metrics(),
        "tomography.criterion5_rate": criterion5_rate(),
        "trace.untraced_s": plain_s,
        "trace.traced_s": traced_s,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    }
    out.details = {"scene_base": base, "accuracy_scenes": spec.scenes,
                   "answers_sha256": hashlib.sha256(plain).hexdigest(),
                   "traced_answers_sha256": hashlib.sha256(traced).hexdigest(),
                   "spans": len(tracer.spans)}
    return out
