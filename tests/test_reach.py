"""Reach guard: the library functions that no product run reaches.

A fresh interpreter sets a profile hook before it imports relaytomo, then
does what users and the scripts do: every `cli` command on the reference
scenario and on its m = 2.5 copy (`simulate` and `invert` also on 1 m
cells), `invert` in both modes, whole and cut to 3 observations, and each
script's `run` at its smallest size.  Every function of `src/relaytomo`
that none of these starts is reached by tests alone, so it must be named
below with the reason it stays: a new one, or one that comes back into
use, fails this test.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "relaytomo"

NEVER_RUN = {
    # bound by the benchmark's tracer until it is ported to the solver's stages
    "channel.outage_cdf",
    "numerics.regularized_lower_gamma",
    "ias.angle_cell_mass",
    "tomography.feasible_cells",
    "tomography.localize_argmin",
    "tomography.msprt_localize",
    # called by the benchmark's oracle
    "geometry.point_from_angles",
    "geometry.plane_xy",
    # the ordered pairs as a list, for the benchmark's shape check and the
    # tests; the library reads the tuple `row_pairs`
    "measurement.MeasurementNetwork.ordered_pairs",
    # the tests' reference integrand of the spectrum
    "ias.joint_angle_pdf",
    # an error path: the incomplete gamma not converging
    "numerics._no_convergence",
    # the package's export hooks: library imports reach them; no command does
    "__init__.__getattr__",
    "__init__.__dir__",
}

CHILD = r"""
import contextlib, importlib.util, io, json, sys
from pathlib import Path

src, scripts, tmp = (Path(a) for a in sys.argv[1:4])
package = str(src / "relaytomo")
started = set()


def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        started.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(hook)
sys.path.insert(0, str(src))
from relaytomo.cli import main


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0, argv


def load(name):
    spec = importlib.util.spec_from_file_location(name, scripts / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


configs = {"reference": tmp / "reference.json"}
run("write-config", configs["reference"])
for name, section, key, value in (("m25", "channel", "nakagami_m", 2.5),
                                  ("cells_1m", "grid", "cell_side_m", 1.0)):
    raw = json.loads(configs["reference"].read_text())
    raw[section][key] = value
    configs[name] = tmp / f"{name}.json"
    configs[name].write_text(json.dumps(raw))
for name, config in configs.items():
    out = tmp / name
    if name != "cells_1m":
        run("direct", "--config", config, "--out", out / "direct")
        run("selftest", "--config", config)
    run("simulate", "--config", config, "--out", out / "sim")
    for mode in ("msprt", "argmin"):
        for window in ((), ("--observations", "3")):
            run("invert", out / "sim" / "measurements.txt", "--truth",
                out / "sim" / "relays_true.txt", "--config", config, "--mode", mode,
                "--out", out / mode, *window)
with contextlib.redirect_stdout(io.StringIO()):
    load("run_direct_demo").run(str(tmp / "demo"), None)
    load("run_inversion_sweep").run(1, 0, True)
    load("run_sequential_scaling").run(1, [1])
sys.setprofile(None)
print(json.dumps(sorted(started)))
"""


def defined_functions() -> dict:
    """(file, first line) -> module-qualified name of every def in the package."""
    def walk(code, prefix, path):
        for const in code.co_consts:
            if inspect.iscode(const) and not const.co_name.startswith("<"):
                name = f"{prefix}.{const.co_name}"
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    yield (path, const.co_firstlineno), name
                yield from walk(const, name, path)

    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(walk(compile(path.read_text(), str(path), "exec"), path.stem, str(path)))
    return found


def test_only_the_named_functions_are_never_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", CHILD, str(ROOT / "src"),
         str(ROOT / "scripts"), str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    started = {tuple(key) for key in json.loads(proc.stdout)}
    never = {name for key, name in defined_functions().items() if key not in started}
    assert sorted(never) == sorted(NEVER_RUN)
