"""Start-up guard: each command loads only the modules it runs.

`import relaytomo` loads none of its modules (its exports resolve on first
access), and each command imports the spectrum (`ias`) or the solver
(`tomography`) only if it runs it.  Each case runs in a fresh interpreter,
whose `sys.modules` no other test has touched.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from relaytomo.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
{body}
print(json.dumps(sorted(n for n in sys.modules if n == "numpy" or n.startswith("relaytomo"))))
"""

RUN = """
from relaytomo.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[2:]) == 0
"""


def loaded(body: str, *argv) -> set[str]:
    """The relaytomo modules (and numpy) a fresh interpreter holds after body."""
    proc = subprocess.run([sys.executable, "-c", CHILD.format(body=body), str(SRC),
                           *map(str, argv)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_module():
    assert loaded("import relaytomo") == {"relaytomo"}


@pytest.fixture(scope="module")
def measurements(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--out", str(out)]) == 0
    return out / "measurements.txt"


@pytest.mark.parametrize("command, skipped", [
    ("simulate", {"ias", "tomography"}),
    ("invert", {"ias"}),
    ("direct", {"tomography"}),
    ("selftest", {"tomography"}),
])
def test_command_skips_the_modules_it_does_not_run(measurements, tmp_path, command, skipped):
    argv = {"simulate": ["--out", tmp_path], "invert": [measurements, "--out", tmp_path],
            "direct": ["--out", tmp_path], "selftest": []}[command]
    modules = loaded(RUN, command, *argv)
    assert "numpy" in modules and "relaytomo.cli" in modules
    assert not modules & {f"relaytomo.{name}" for name in skipped}
    # each command loads the rest of the package
    others = {"channel", "config", "errors", "geometry", "ias", "measurement", "numerics",
              "tomography"} - skipped
    assert {f"relaytomo.{name}" for name in others} <= modules


def test_exports_resolve_to_their_modules_objects():
    body = """
import importlib
import relaytomo
assert set(relaytomo.__all__) <= set(dir(relaytomo)), "dir misses an export"
for name in relaytomo.__all__:
    if name != "__version__":
        module = importlib.import_module(f"relaytomo.{relaytomo._EXPORTS[name]}")
        assert getattr(relaytomo, name) is getattr(module, name), name
        assert getattr(module, name).__module__ == module.__name__, name
try:
    relaytomo.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
from relaytomo import cli
assert cli is sys.modules["relaytomo.cli"] and callable(cli.main)
from relaytomo import localize_all, discrete_ias
"""
    assert {"relaytomo.cli", "relaytomo.ias", "relaytomo.tomography"} <= loaded(body)


def test_moved_names_keep_their_old_import_paths():
    from relaytomo import config, geometry, ias, tomography
    for name in ("AngularGrid", "build_grid", "MAX_GRID_CELLS"):
        assert getattr(ias, name) is getattr(geometry, name)
    for name in ("MsprtConfig", "TomographyConfig"):
        assert getattr(tomography, name) is getattr(config, name)
