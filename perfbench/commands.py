"""Workload `cli`: the user-facing commands as subprocesses.

Each round runs ``python -m relaytomo`` (with PYTHONPATH=src) on the
built-in reference scenario: `direct`, `direct` on a copy of the reference
config with nakagami_m 2.5, and `selftest`, each preceded by `--version`
(set-up), `simulate`, `invert --mode msprt` and `invert --mode argmin`.
Subprocesses run one at a time.  Every time is a median over the run's
samples of a command's CPU time (user + system) scaled to the reference
speed by the probes the subprocess took (see speed.py); setup_s is the `--version`
time.  The reference scenario is fixed, so the output digests are comparable from
commit to commit; the seed does not enter this workload.

The traced run calls ``relaytomo.cli.main(argv)`` in process, once
without and once with the layer wrappers, and requires identical files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import speed
from metrics import Outcome, median, summary

MIN_ROUNDS = 2  # direct runs once a round; two rounds check that it repeats
SHORT_BLOCKS = 3  # the short commands vary most, so they get more samples
HOOK = Path(__file__).resolve().parent / "hook"
COMMAND_TIMEOUT_S = 170
MASS_TOL = 1e-6
CLOSED_FORM_TOL = 1e-9
DIGESTED = {
    "simulate": ("measurements.txt",),
    "invert_msprt": ("report.txt", "scoring.json"),
    "invert_argmin": ("report.txt", "scoring.json"),
    "direct": ("atoms.csv", "discrete.csv"),
    "direct_m25": ("atoms.csv", "discrete.csv"),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Session:
    """Output directories, configs and digests shared by the rounds of one run."""

    def __init__(self, src: Path, work: Path, tiny: bool):
        self.work = work
        self.tiny = tiny
        self.speed_log = work / "speed.log"
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(HOOK), str(src))),
                    speed.LOG_ENV: str(self.speed_log)}
        self.digests: dict[str, str] = {}
        self.samples: dict[str, list[float]] = {}
        self.wall: dict[str, list[float]] = {}
        self.scores: dict[str, dict] = {}
        self.base_args: list[str] = []

    def run(self, args: list[str], out: Outcome, label: str):
        """One CLI subprocess; returns (wall seconds, its CPU seconds at the
        reference speed, completed process or None)."""
        self.speed_log.unlink(missing_ok=True)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "relaytomo", *args], cwd=self.work,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out.operation(label, [f"timed out after {COMMAND_TIMEOUT_S} s"])
            return time.perf_counter() - t0, None, None
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            out.operation(label, [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"])
            return seconds, None, None
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        try:
            probes = speed.read_log(self.speed_log)
            return seconds, speed.scaled(cpu_s, probes, len(probes)), proc
        except (OSError, ValueError, RuntimeError) as exc:
            out.operation(label, [f"speed log: {exc}"])
            return seconds, None, None

    def configs(self, out: Outcome) -> None:
        """Write the m = 2.5 config (and, for --tiny, a coarse spectrum config)."""
        base = self.work / "reference.json"
        _, _, proc = self.run(["write-config", str(base)], out, "write-config")
        if proc is None:
            raise RuntimeError("write-config failed")
        raw = json.loads(base.read_text())
        if self.tiny:
            raw["grid"]["aod_resolution_deg"] = raw["grid"]["aoa_resolution_deg"] = 30.0
            raw["experiment"]["quad_order"] = 8
            (self.work / "tiny.json").write_text(json.dumps(raw, indent=2))
            self.base_args = ["--config", str(self.work / "tiny.json")]
        raw["channel"]["nakagami_m"] = 2.5
        (self.work / "m25.json").write_text(json.dumps(raw, indent=2))

    def record(self, stage: str, outdir: Path) -> list[str]:
        """Digest a command's outputs; a digest differing from an earlier run of
        the same command with the same inputs is an error."""
        errors = []
        for name in DIGESTED.get(stage, ()):
            path = outdir / name
            if not path.is_file():
                errors.append(f"{name} missing")
                continue
            key = f"{stage}/{name}"
            digest = sha256(path)
            if self.digests.setdefault(key, digest) != digest:
                errors.append(f"{name} differs from an earlier identical run")
        return errors


def check_spectrum(outdir: Path) -> list[str]:
    with open(outdir / "discrete.csv", encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    total = math.fsum(float(r.split(",")[5]) for r in rows)
    return [] if abs(total - 1.0) <= MASS_TOL else [f"spectrum masses sum to {total!r}"]


def check_closed_form(direct_dir: Path, relays_file: Path) -> list[list[str]]:
    """m = 1 atoms of `direct` against the Rayleigh closed form, one list per atom.

    `direct` and `simulate` draw the relays from the same stream, so
    simulate's relays_true.txt holds the exact positions behind atoms.csv.
    """
    raw = json.loads((direct_dir / "manifest.json").read_text())["config"]
    (sx, sy), (dx, dy) = raw["geometry"]["source"], raw["geometry"]["destination"]
    chan = raw["channel"]
    if chan["nakagami_m"] != 1.0:
        return []
    snr = 10.0 ** (chan["snr_db"] / 10.0)
    nu, p = chan["path_loss_exp"], chan["outage_prob"]
    relays = [tuple(map(float, line.split()[1:])) for line in relays_file.read_text().splitlines()
              if line and not line.startswith("#")]
    atoms = [line.split(",") for line in (direct_dir / "atoms.csv").read_text().splitlines()[1:]]
    if len(atoms) != len(relays):
        return [[f"{len(atoms)} atoms for {len(relays)} relays"]]
    errors = []
    for (x, y), atom in zip(relays, atoms):
        s1 = 1.0 / (snr * math.hypot(x - sx, y - sy) ** nu)
        s2 = 1.0 / (snr * math.hypot(x - dx, y - dy) ** nu)
        closed = 0.5 * math.log2(1.0 - math.log1p(-p) / (s1 + s2))
        solved = float(atom[3])
        errors.append([] if abs(solved - closed) <= CLOSED_FORM_TOL
                      else [f"atom {atom[0]}: solved {solved!r} vs closed form {closed!r}"])
    return errors


def _round(session: Session, r: int, out: Outcome) -> None:
    """One round: SHORT_BLOCKS blocks of the short commands before each long
    one, so the short commands' samples spread over the whole round."""
    work, base = session.work, session.base_args
    sim0 = work / f"r{r}" / "sim0"
    longer = [
        ("direct", ["direct", *base, "--out", str(work / f"r{r}" / "direct")]),
        ("direct_m25", ["direct", "--config", str(work / "m25.json"),
                        "--out", str(work / f"r{r}" / "direct_m25")]),
        ("selftest", ["selftest", *base]),
    ]
    plan = []
    for c, command in enumerate(longer):
        for b in range(SHORT_BLOCKS):
            i = c * SHORT_BLOCKS + b
            plan.append(("setup", ["--version"]))
            plan.append(("simulate", ["simulate", *base, "--out", str(work / f"r{r}" / f"sim{i}")]))
            for mode in ("msprt", "argmin"):
                plan.append((f"invert_{mode}", [
                    "invert", str(sim0 / "measurements.txt"), *base, "--truth",
                    str(sim0 / "relays_true.txt"), "--mode", mode,
                    "--out", str(work / f"r{r}" / f"{mode}{i}")]))
        plan.append(command)
    for stage, args in plan:
        label = f"round {r} {stage}"
        wall, seconds, proc = session.run(args, out, label)
        if proc is None:
            continue
        session.samples.setdefault(f"{stage}_s", []).append(seconds)
        session.wall.setdefault(f"{stage}_s", []).append(wall)
        outdir = Path(args[args.index("--out") + 1]) if "--out" in args else None
        errors = session.record(stage, outdir) if outdir else []
        if stage == "selftest" and "selftest: PASS" not in proc.stdout:
            errors.append("selftest did not print PASS")
        if stage.startswith("invert") and not errors:
            session.scores[stage] = json.loads((outdir / "scoring.json").read_text())
        out.operation(label, errors)
        if stage.startswith("direct") and not errors:
            out.operation(f"{label} spectrum", check_spectrum(outdir))
        if stage == "direct" and not errors:
            for a, errs in enumerate(check_closed_form(outdir, sim0 / "relays_true.txt")):
                out.operation(f"{label} atom {a} closed form", errs)


def measure(src: Path, work: Path, seconds: float, tiny: bool) -> Outcome:
    """Timed run: rounds until the next would overrun `seconds` (at least two)."""
    out = Outcome()
    session = Session(src, work, tiny)
    session.configs(out)
    start = time.perf_counter()
    rounds = 0
    while True:
        _round(session, rounds, out)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
            break
    samples = session.samples
    if any(f"{s}_s" not in samples for s in (*DIGESTED, "setup", "selftest")) \
            or set(session.scores) != {"invert_msprt", "invert_argmin"}:
        out.operation("cli", ["a command never succeeded; no metrics"])
        return out
    out.metrics = {k: median(v) for k, v in samples.items()}
    for mode in ("msprt", "argmin"):
        score = session.scores[f"invert_{mode}"]
        out.metrics[f"{mode}_relays_per_s"] = score["localized"] / out.metrics[f"invert_{mode}_s"]
        out.metrics[f"loc_rate_{mode}"] = score["fraction_within_one_cell"]
    out.details = {"rounds": rounds, "digests": session.digests,
                   "statistic": "median over the run of CPU times scaled to the reference speed",
                   "samples": {k: summary(v) for k, v in samples.items()},
                   "wall_samples": {k: summary(v) for k, v in session.wall.items()}}
    return out


# ---------------------------------------------------------------------------
# traced run: relaytomo.cli.main in process


def _in_process_round(work: Path, tiny_args: list[str], out: Outcome, label: str,
                      tracer=None) -> tuple[float, dict[str, str], dict[str, list]]:
    """Each command once through relaytomo.cli.main; returns wall seconds, output
    digests and, when traced, the relay localizations each command made."""
    from relaytomo import cli

    sim = work / "sim"
    plan = [
        ("simulate", ["simulate", *tiny_args, "--out", str(sim)]),
        *((f"invert_{mode}", ["invert", str(sim / "measurements.txt"), *tiny_args, "--truth",
                              str(sim / "relays_true.txt"), "--mode", mode,
                              "--out", str(work / mode)]) for mode in ("msprt", "argmin")),
        ("direct", ["direct", *tiny_args, "--out", str(work / "direct")]),
        ("direct_m25", ["direct", "--config", str(work.parent / "m25.json"),
                        "--out", str(work / "direct_m25")]),
        ("selftest", ["selftest", *tiny_args]),
    ]
    digests = {}
    records = {}
    start = time.perf_counter()
    for stage, argv in plan:
        buffer = io.StringIO()
        span = tracer.span(f"bench.{stage}") if tracer is not None else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        errors = [] if code == 0 else [f"exit code {code}"]
        if stage == "selftest" and "selftest: PASS" not in buffer.getvalue():
            errors.append("selftest did not print PASS")
        if "--out" in argv and not errors:
            outdir = Path(argv[argv.index("--out") + 1])
            for name in DIGESTED[stage]:
                digests[f"{stage}/{name}"] = sha256(outdir / name)
        if tracer is not None:
            records[stage] = tracer.take_relays()
        out.operation(f"{label} {stage}", errors)
    return time.perf_counter() - start, digests, records


def trace(src: Path, work: Path, tiny: bool, dump_path) -> Outcome:
    from inverse import Accuracy, criterion5_rate
    from relaytomo import config, measurement
    from tracing import Tracer

    out = Outcome()
    session = Session(src, work, tiny)
    session.configs(out)
    plain_s, plain, _ = _in_process_round(work / "plain", session.base_args, out, "untraced")
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced, records = _in_process_round(work / "traced", session.base_args, out,
                                                      "traced", tracer)
    finally:
        tracer.uninstall()
    tracer.dump(dump_path)
    out.operation("traced outputs", [] if traced == plain and plain
                  else ["traced outputs differ from the untraced round"])
    cfg = config.scenario_from_dict(config.default_config_dict())
    truth = measurement.read_relays(work / "traced" / "sim" / "relays_true.txt")
    accuracy = Accuracy()
    for stage in ("invert_msprt", "invert_argmin"):
        accuracy.add(records.get(stage, []), truth, cfg.cell_grid(), cfg.cell_side_m)
    out.metrics = {
        **tracer.layer_metrics(),
        **accuracy.metrics(),
        "tomography.criterion5_rate": criterion5_rate(),
        "trace.untraced_s": plain_s,
        "trace.traced_s": traced_s,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    }
    out.details = {"digests": plain, "traced_digests": traced, "spans": len(tracer.spans)}
    return out
