"""Seeded mutations of the three input files: every run exits 0, 2 or 3.

Each case mutates one file of a reference run (the measurement file, the
relay file or the scenario config) one to three times, with a byte 0xff
inserted, a token replaced by `nan`, `-1`, `1e400`, 0xff or another token
of the file, a line duplicated or a span deleted, and runs `invert` (and,
for the config, `simulate`) in process on it.  No exception may escape
`cli.main`.
"""

import random
import re

import pytest

from relaytomo.cli import main
from relaytomo.config import default_config_dict, write_config

CASES = 300  # per file; about 1 s each on a 2-core VM
TOKENS = [b"\xff", b"nan", b"-1", b"1e400"]


def mutate(data: bytes, rng: random.Random) -> bytes:
    for _ in range(rng.choice([1, 1, 2, 3])):
        tokens = [m.span() for m in re.finditer(rb"[-+.\w]+", data)]
        if not tokens:
            break
        kind = rng.randrange(5)
        if kind == 0:
            at = rng.randrange(len(data) + 1)
            data = data[:at] + b"\xff" + data[at:]
        elif kind <= 2:  # a bad token, or another token of the file
            start, end = rng.choice(tokens)
            other = rng.choice(tokens)
            new = rng.choice(TOKENS) if kind == 1 else data[other[0]:other[1]]
            data = data[:start] + new + data[end:]
        elif kind == 3:
            lines = data.splitlines(keepends=True)
            k = rng.randrange(len(lines))
            data = b"".join(lines[:k + 1] + lines[k:])
        else:
            start = rng.randrange(len(data))
            data = data[:start] + data[start + rng.randint(1, 80):]
    return data


@pytest.fixture(scope="module")
def reference_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_config(default_config_dict(), root / "scenario.json")
    assert main(["simulate", "--out", str(root / "sim")]) == 0
    return {"measurements": root / "sim" / "measurements.txt",
            "truth": root / "sim" / "relays_true.txt",
            "config": root / "scenario.json"}


@pytest.mark.parametrize("target", ["measurements", "truth", "config"])
def test_mutated_input_exits_0_2_or_3(reference_files, tmp_path, capsys, target):
    rng = random.Random(f"fuzz-{target}")
    original = reference_files[target].read_bytes()
    for case in range(CASES):
        files = dict(reference_files)
        files[target] = tmp_path / f"{case}-{reference_files[target].name}"
        files[target].write_bytes(mutate(original, rng))
        runs = [["invert", str(files["measurements"]), "--truth", str(files["truth"])]]
        if target == "config":
            runs.append(["simulate"])
        for args in runs:
            code = main([*args, "--config", str(files["config"]),
                         "--out", str(tmp_path / "out")])
            assert code in (0, 2, 3), (case, args, capsys.readouterr().err)
