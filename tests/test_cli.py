import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaytomo
from relaytomo import config, ias
from relaytomo.cli import main
from relaytomo.config import (
    default_config_dict,
    load_scenario,
    scenario_from_dict,
    write_config,
)
from relaytomo.errors import ConfigError, EmptyGridError
from relaytomo.geometry import CellGrid
from relaytomo.ias import MAX_GRID_CELLS
from relaytomo.measurement import estimate_outage_capacity


GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    write_config(default_config_dict(), path)
    return path


@pytest.fixture()
def mirror_config_path(tmp_path):
    """The reference scenario mirrored across the baseline (the x axis)."""
    raw = default_config_dict()
    geometry = raw["geometry"]
    for point in [geometry["region_center"], *geometry["nodes"]]:
        point[1] = -point[1]
    path = tmp_path / "mirror.json"
    write_config(raw, path)
    return path


def grid_has_cells(region, side) -> bool:
    try:
        CellGrid(region, side)
    except EmptyGridError:
        return False
    return True


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfig:
    def test_default_round_trip(self, config_path):
        cfg = load_scenario(config_path)
        assert cfg.snr_db == 30.0
        assert cfg.outage_prob == 0.01
        assert cfg.region_radius == 40.0
        assert cfg.baseline().length == pytest.approx(100.0 * math.sqrt(3.0))
        assert len(cfg.nodes) == 3

    @pytest.mark.parametrize("m", [1.0, 2.5])
    def test_as_dict_round_trips(self, m):
        raw = default_config_dict()
        raw["channel"]["nakagami_m"] = m
        cfg = scenario_from_dict(raw)
        assert scenario_from_dict(cfg.as_dict()) == cfg
        assert cfg.as_dict() == raw

    def test_optional_keys_take_their_defaults(self):
        raw = default_config_dict()
        for key in ("mode", "msprt_error", "quad_order"):
            del raw["experiment"][key]
        cfg = scenario_from_dict(raw)
        assert (cfg.mode, cfg.msprt_error, cfg.quad_order) == ("msprt", 0.01, 16)
        assert cfg == scenario_from_dict(default_config_dict())

    def test_unknown_section_without_keys_is_named(self):
        raw = default_config_dict()
        raw["notes"] = "free text"
        with pytest.raises(ConfigError, match="unknown config section 'notes'"):
            scenario_from_dict(raw)

    def test_draws_bounded_by_pairs_relays_and_observations(self, monkeypatch):
        # the reference scenario makes 6 ordered pairs x 5 relays x 10 draws
        monkeypatch.setattr(config, "MAX_DRAWS", 300)
        scenario_from_dict(default_config_dict())
        monkeypatch.setattr(config, "MAX_DRAWS", 299)
        with pytest.raises(ConfigError, match="^experiment.relays and experiment.observations: "
                                              "6 ordered pairs x 5 relays x 10 observations"):
            scenario_from_dict(default_config_dict())

    def test_missing_key_reported_with_path(self, tmp_path):
        raw = default_config_dict()
        del raw["channel"]["snr_db"]
        path = tmp_path / "bad.json"
        write_config(raw, path)
        with pytest.raises(ConfigError, match="channel.snr_db"):
            load_scenario(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "geometry": [,]\n}\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_scenario(path)

    def test_semantic_validation(self):
        raw = default_config_dict()
        raw["channel"]["outage_prob"] = 1.5
        with pytest.raises(ConfigError):
            scenario_from_dict(raw)
        raw = default_config_dict()
        raw["geometry"]["region_center"] = [50.0, 10.0]  # touches the baseline
        with pytest.raises(ConfigError):
            scenario_from_dict(raw)

    def test_empty_cell_grid_is_refused_where_the_grid_is_empty(self):
        # the reference region (r = 40 m) has a cell center inside it exactly
        # for sides up to (2 + sqrt 2) r, about 136.57 m; the config decides
        # that without building the grid, and must agree with the grid
        cfg = scenario_from_dict(default_config_dict())
        lo, hi = 100.0, 200.0  # CellGrid has cells at lo, none at hi
        while (mid := (lo + hi) / 2) not in (lo, hi):
            lo, hi = (mid, hi) if grid_has_cells(cfg.region(), mid) else (lo, mid)
        assert hi == pytest.approx((2.0 + math.sqrt(2.0)) * 40.0, rel=1e-12)
        near = [lo, hi]
        for _ in range(5):
            near += [math.nextafter(near[-2], 0.0), math.nextafter(near[-1], math.inf)]
        for side in near + np.linspace(130.0, 145.0, 61).tolist():
            raw = default_config_dict()
            raw["grid"]["cell_side_m"] = side
            if grid_has_cells(cfg.region(), side):
                assert scenario_from_dict(raw).cell_side_m == side
            else:
                with pytest.raises(ConfigError, match="^grid.cell_side_m: .* leaves no cell "
                                                      "center inside the region"):
                    scenario_from_dict(raw)

    @pytest.mark.parametrize("key", ["aod_resolution_deg", "aoa_resolution_deg"])
    def test_angular_grid_bounded_by_its_index_ranges(self, monkeypatch, key):
        # the reference grid has 7 x 7 cells; the bound reads the index
        # ranges alone, so a 1e-6 deg grid (about 330M cells) is never built
        grid = scenario_from_dict(default_config_dict()).angular_grid()
        assert grid.n_aod * grid.n_aoa == 49
        monkeypatch.setattr(ias, "MAX_GRID_CELLS", 49)
        scenario_from_dict(default_config_dict())
        monkeypatch.setattr(ias, "MAX_GRID_CELLS", 48)
        with pytest.raises(ConfigError, match="grid.aod_resolution_deg and grid.aoa_resolution_deg"):
            scenario_from_dict(default_config_dict())
        monkeypatch.undo()
        raw = default_config_dict()
        raw["grid"][key] = 1e-6
        with pytest.raises(ConfigError, match=f"more than the {MAX_GRID_CELLS:,} allowed"):
            scenario_from_dict(raw)

    def test_node_bound_is_labelled_with_the_network_keys(self):
        raw = default_config_dict()
        (x, y), r = raw["geometry"]["region_center"], 1.6 * raw["geometry"]["region_radius"]
        raw["geometry"]["nodes"] = [[x + r * math.cos(2 * math.pi * k / 17),
                                     y + r * math.sin(2 * math.pi * k / 17)] for k in range(17)]
        with pytest.raises(ConfigError, match="^geometry.nodes and grid.node_resolution_deg: "
                                              "17 measuring nodes, more than the 16 allowed$"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("change, match", [
        ({"relays": -1}, "^experiment.relays: must be non-negative, got -1$"),
        ({"cell_side_m": 137.0}, "^grid.cell_side_m: cell side 137.0 m leaves no cell center "
                                 "inside the region$"),
    ])
    def test_replace_validates_the_new_config(self, change, match):
        cfg = scenario_from_dict(default_config_dict())
        with pytest.raises(ConfigError, match=match):
            replace(cfg, **change)


class TestDirect:
    def test_reference_grid_shape(self, tmp_path, config_path):
        out = tmp_path / "direct"
        assert main(["direct", "--config", str(config_path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "discrete.csv")
        assert header == ["i", "j", "aod_deg", "aoa_deg", "value", "mass"]
        ids = {(int(r[0]), int(r[1])) for r in rows}
        assert ids == {(i, j) for i in range(7) for j in range(7)}
        masses = sum(float(r[5]) for r in rows)
        assert masses == pytest.approx(1.0, abs=1e-4)

    def test_zero_relays_valid(self, tmp_path):
        raw = default_config_dict()
        raw["experiment"]["relays"] = 0
        path = tmp_path / "zero.json"
        write_config(raw, path)
        out = tmp_path / "direct"
        assert main(["direct", "--config", str(path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "atoms.csv")
        assert header == ["relay", "aod_deg", "aoa_deg", "capacity"]
        assert rows == []
        _, drows = read_csv(out / "discrete.csv")
        assert len(drows) == 49

    def test_rerun_byte_identical(self, tmp_path, config_path):
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            assert main(["direct", "--config", str(config_path),
                         "--out", str(out), "--seed", "5"]) == 0
            outs.append(out)
        for name in ("atoms.csv", "discrete.csv", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_manifest_resolves_config(self, tmp_path, config_path):
        out = tmp_path / "direct"
        main(["direct", "--config", str(config_path), "--out", str(out), "--seed", "9"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["experiment"]["seed"] == 9
        assert "atoms.csv" in manifest["outputs"]

    def test_mirrored_region_gives_the_same_spectrum(self, tmp_path, mirror_config_path):
        # mirroring the scene across the baseline keeps every angle pair
        assert main(["direct", "--out", str(tmp_path / "ref")]) == 0
        assert main(["direct", "--config", str(mirror_config_path),
                     "--out", str(tmp_path / "mirror")]) == 0
        assert ((tmp_path / "mirror" / "discrete.csv").read_bytes()
                == (tmp_path / "ref" / "discrete.csv").read_bytes())


class TestPipeline:
    def test_simulate_then_invert_with_scoring(self, tmp_path, config_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(sim), "--seed", "7"]) == 0
        inv = tmp_path / "inv"
        assert main(["invert", str(sim / "measurements.txt"),
                     "--config", str(config_path), "--truth",
                     str(sim / "relays_true.txt"), "--out", str(inv)]) == 0
        assert (inv / "report.txt").exists()
        score = json.loads((inv / "scoring.json").read_text())
        assert score["relays"] == 5
        assert 0.0 <= score["fraction_within_one_cell"] <= 1.0

    def test_invert_without_truth(self, tmp_path, config_path):
        sim = tmp_path / "sim"
        main(["simulate", "--config", str(config_path), "--out", str(sim)])
        inv = tmp_path / "inv"
        assert main(["invert", str(sim / "measurements.txt"),
                     "--config", str(config_path), "--out", str(inv)]) == 0
        assert (inv / "report.txt").exists()
        assert not (inv / "scoring.json").exists()

    def test_both_modes_produce_reports(self, tmp_path, config_path):
        sim = tmp_path / "sim"
        main(["simulate", "--config", str(config_path), "--out", str(sim), "--seed", "3"])
        reports = {}
        for mode in ("argmin", "msprt"):
            inv = tmp_path / f"inv-{mode}"
            assert main(["invert", str(sim / "measurements.txt"),
                         "--config", str(config_path), "--mode", mode,
                         "--truth", str(sim / "relays_true.txt"),
                         "--out", str(inv)]) == 0
            reports[mode] = (inv / "report.txt").read_text()
        assert "argmin" in reports["argmin"]
        assert reports["argmin"] != reports["msprt"]

    def test_sequential_beats_quantile_argmin_on_average(self, config_path, tmp_path):
        # with only ten observations the empirical quantile is the sample
        # minimum, which handicaps the residual objective
        scores = {"argmin": [], "msprt": []}
        for seed in range(20):
            sim = tmp_path / f"sim{seed}"
            main(["simulate", "--config", str(config_path), "--out", str(sim),
                  "--seed", str(seed)])
            for mode in scores:
                inv = tmp_path / f"inv{seed}-{mode}"
                main(["invert", str(sim / "measurements.txt"),
                      "--config", str(config_path), "--mode", mode,
                      "--truth", str(sim / "relays_true.txt"), "--out", str(inv)])
                score = json.loads((inv / "scoring.json").read_text())
                scores[mode].append(score["fraction_within_one_cell"])
        assert np.mean(scores["msprt"]) >= np.mean(scores["argmin"])

    def test_csv_schemas_rebuild_bit_exact(self, tmp_path, config_path):
        # parsing the CSVs and re-rendering each field with the documented
        # formats (9-decimal degrees, shortest repr floats) reproduces the
        # files byte for byte
        out = tmp_path / "direct"
        main(["direct", "--config", str(config_path), "--out", str(out)])
        header, rows = read_csv(out / "atoms.csv")
        rebuilt = [",".join(header)]
        for r in rows:
            rebuilt.append(f"{int(r[0])},{float(r[1]):.9f},{float(r[2]):.9f},"
                           f"{float(r[3])!r}")
        assert "\n".join(rebuilt) + "\n" == (out / "atoms.csv").read_text()
        header, rows = read_csv(out / "discrete.csv")
        rebuilt = [",".join(header)]
        for r in rows:
            rebuilt.append(f"{int(r[0])},{int(r[1])},{float(r[2]):.9f},"
                           f"{float(r[3]):.9f},{float(r[4])!r},{float(r[5])!r}")
        assert "\n".join(rebuilt) + "\n" == (out / "discrete.csv").read_text()

    def test_measurement_round_trip_via_parsers(self, tmp_path, config_path):
        from relaytomo.measurement import read_measurements, write_measurements
        sim = tmp_path / "sim"
        main(["simulate", "--config", str(config_path), "--out", str(sim)])
        src = sim / "measurements.txt"
        dup = tmp_path / "dup.txt"
        write_measurements(read_measurements(src), dup)
        assert src.read_bytes() == dup.read_bytes()


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """A simulated reference scenario and its invert outputs in both modes."""
    root = tmp_path_factory.mktemp("reference")
    sim = root / "sim"
    assert main(["simulate", "--out", str(sim)]) == 0
    return sim, {mode: invert_outputs(sim / "measurements.txt", sim, mode, root / mode)
                 for mode in ("msprt", "argmin")}


def invert_outputs(measurements: Path, sim: Path, mode: str, out: Path,
                   *options: str) -> tuple[bytes, bytes]:
    assert main(["invert", str(measurements), "--mode", mode, "--out", str(out),
                 "--truth", str(sim / "relays_true.txt"), *options]) == 0
    return (out / "report.txt").read_bytes(), (out / "scoring.json").read_bytes()


class TestRecordOrder:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_invert_ignores_record_order(self, reference_run, data):
        sim, expected = reference_run
        lines = (sim / "measurements.txt").read_text().splitlines()
        header = [line for line in lines if line.startswith("#")]
        records = data.draw(st.permutations([line for line in lines
                                             if not line.startswith("#")]))
        with tempfile.TemporaryDirectory() as tmp:
            shuffled = Path(tmp) / "shuffled.txt"
            shuffled.write_text("\n".join(header + records) + "\n")
            for mode in ("msprt", "argmin"):
                assert invert_outputs(shuffled, sim, mode, Path(tmp) / mode) == expected[mode]

    def test_missing_pair_is_3(self, reference_run, tmp_path, capsys):
        sim, _ = reference_run
        lines = (sim / "measurements.txt").read_text().splitlines()
        kept = [line for line in lines if not line.startswith("2 1 ")]
        assert len(kept) < len(lines)
        bad = tmp_path / "missing_pair.txt"
        bad.write_text("\n".join(kept) + "\n")
        capsys.readouterr()
        assert main(["invert", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert "do not match" in capsys.readouterr().err


def test_selftest_passes(capsys):
    # every count and digit of the report, not only its verdict
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "selftest" / "reference.txt").read_text()


def test_selftest_passes_on_mirrored_region(mirror_config_path, capsys):
    assert main(["selftest", "--config", str(mirror_config_path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "selftest" / "mirrored.txt").read_text()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["direct", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("content, message", [
        (b"\xff" + json.dumps(default_config_dict()).encode(),
         "cannot read config {path}: 'utf-8' codec can't decode byte 0xff"),
        (b"[" * 200_000 + b"]" * 200_000, "config {path} nests too deeply"),
    ], ids=["not_utf8", "nested_too_deep"])
    def test_unreadable_config_is_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        for command in ("simulate", "direct"):
            capsys.readouterr()
            assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
            assert message.format(path=path) in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["aod_resolution_deg", "aoa_resolution_deg",
                                     "node_resolution_deg"])
    def test_underflowing_resolution_says_so(self, key):
        raw = default_config_dict()
        raw["grid"][key] = 5e-324
        with pytest.raises(ConfigError,
                           match=f"^grid.{key}: 5e-324 degrees underflows to 0 radians$"):
            scenario_from_dict(raw)

    def test_semantic_config_error_is_2(self, tmp_path):
        raw = default_config_dict()
        raw["experiment"]["observations"] = 0
        path = tmp_path / "zeroobs.json"
        write_config(raw, path)
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert main(["simulate", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", ["simulate", "direct", "invert"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
    def test_unusable_out_directory_is_2(self, reference_run, tmp_path, capsys, command, below):
        # a file where a directory belongs fails for every user, root too
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub" if below else blocker
        args = [command, "--out", str(out)]
        if command == "invert":
            args.insert(1, str(reference_run[0] / "measurements.txt"))
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and str(out) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("target", ["directory", "below_a_file"])
    def test_unusable_config_path_is_2(self, tmp_path, capsys, target):
        (tmp_path / "blocker").write_text("")
        path = tmp_path if target == "directory" else tmp_path / "blocker" / "x.json"
        capsys.readouterr()
        assert main(["write-config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and str(path) in err
        assert err.count("\n") == 1

    def test_numerical_error_is_3(self, tmp_path):
        missing = tmp_path / "absent.txt"
        assert main(["invert", str(missing), "--out", str(tmp_path / "o")]) == 3

    def test_non_numeric_field_is_3(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "--out", str(sim)]) == 0
        lines = (sim / "measurements.txt").read_text().splitlines()
        k = next(n for n, line in enumerate(lines) if not line.startswith("#"))
        tok = lines[k].split()
        tok[3] = "abc"  # the angle field
        lines[k] = " ".join(tok)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["invert", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert f"line {k + 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value, fault", [
        (3, "nan", "non-finite aoa_deg"), (4, "nan", "non-finite cap_est"),
        (4, "inf", "non-finite cap_est"), (7, "nan", "non-finite obs_2"),
        (5, "-inf", "non-finite obs_0"), (4, "-1", "negative cap_est"),
        (6, "-0.5", "negative obs_1"),
    ], ids=["aoa_nan", "cap_nan", "cap_inf", "obs_nan", "obs_neg_inf", "cap_negative",
            "obs_negative"])
    def test_non_finite_field_is_3(self, reference_run, tmp_path, capsys, column, value, fault):
        sim, _ = reference_run
        lines = (sim / "measurements.txt").read_text().splitlines()
        k = next(n for n, line in enumerate(lines) if not line.startswith("#")) + 4
        tok = lines[k].split()
        tok[column] = value
        lines[k] = " ".join(tok)
        bad = tmp_path / "non_finite.txt"
        bad.write_text("\n".join(lines) + "\n")
        for mode in ("msprt", "argmin"):
            capsys.readouterr()
            assert main(["invert", str(bad), "--mode", mode, "--out", str(tmp_path / "o")]) == 3
            err = capsys.readouterr().err
            assert f"{bad}, line {k + 1}: {fault} {value!r}" in err

    @pytest.mark.parametrize("section, key, value", [
        ("channel", "snr_db", math.nan), ("channel", "snr_db", math.inf),
        ("channel", "nakagami_m", math.nan), ("grid", "node_resolution_deg", math.nan),
        ("grid", "cell_side_m", math.nan), ("experiment", "msprt_error", math.nan),
        ("experiment", "seed", -5), ("experiment", "observations", 2.5),
        ("experiment", "relays", True), ("experiment", "quad_order", 2.9),
        ("channel", "snr_db", True), ("channel", "snr_db", "30"),
        ("experiment", "relays", "5"), ("experiment", "seed", "7"),
        ("experiment", "msprt_error", "0.05"), ("geometry", "source", "12"),
        ("geometry", "nodes", [["1", "2"]] + default_config_dict()["geometry"]["nodes"][1:]),
        ("grid", "node_resolution_deg", 1e-8), ("grid", "cell_side_m", 0.0),
        ("grid", "cell_side_m", -5.0), ("grid", "aod_resolution_deg", 1e-6),
        ("grid", "aoa_resolution_deg", 1e-6),
        ("geometry", "nodes", default_config_dict()["geometry"]["nodes"][:2]),
        ("geometry", "nodes", [[50.0 * math.sqrt(3.0), 50.0]]
         + default_config_dict()["geometry"]["nodes"][1:]),
        ("geometry", "region_radius", 0.0), ("geometry", "region_radius", -3.0),
        ("geometry", "region_center", [50.0, 10.0]), ("geometry", "source", [0.0, 0.0]),
        ("channel", "outage_prob", 1.5), ("channel", "nakagami_m", -1.0),
        ("experiment", "mode", "foo"), ("experiment", "observations", 0),
        ("experiment", "msprt_error", 1.0), ("grid", "aod_resolution_deg", 5e-324),
        ("grid", "aoa_resolution_deg", 5e-324), ("grid", "node_resolution_deg", 5e-324),
        ("grid", "aod_resolution_deg", 1e-310), ("grid", "cell_side_m", 5e-324),
        ("experiment", "msprt_eror", 0.05), ("telemetry", "verbose", True),
        ("grid", "cell_side_m", 173.2),
    ], ids=["snr_nan", "snr_inf", "nakagami_nan", "node_resolution_nan", "cell_side_nan",
            "msprt_error_nan", "seed_negative", "observations_fraction", "relays_bool",
            "quad_order_fraction", "snr_bool", "snr_string", "relays_string", "seed_string",
            "msprt_error_string", "source_string", "node_strings", "node_resolution_int32",
            "cell_side_zero", "cell_side_negative", "aod_grid_too_fine", "aoa_grid_too_fine",
            "two_nodes", "node_inside_region", "region_radius_zero", "region_radius_negative",
            "region_touches_baseline", "source_is_destination", "outage_prob_above_1",
            "nakagami_negative", "mode_unknown", "observations_zero", "msprt_error_1",
            "aod_resolution_underflow", "aoa_resolution_underflow", "node_resolution_underflow",
            "aod_resolution_overflow", "cell_side_subnormal",
            "unknown_key", "unknown_section", "cell_side_beyond_region"])
    def test_non_finite_config_number_is_2(self, tmp_path, capsys, section, key, value):
        raw = default_config_dict()
        raw.setdefault(section, {})[key] = value
        path = tmp_path / "non_finite.json"
        write_config(raw, path)
        # invert loads its config before it opens the measurement file
        for command in (["simulate"], ["direct"], ["invert", str(tmp_path / "m.txt")]):
            capsys.readouterr()
            assert main([*command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
            assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("grid", "cell_side_m", 0.001), ("experiment", "quad_order", 100000),
        ("experiment", "relays", 10**30), ("experiment", "observations", 10**30),
        ("geometry", "nodes", [[1000.0 + q, -1000.0] for q in range(20_000)]),
    ], ids=["cell_grid_too_fine", "quad_order_too_high", "relays_too_many",
            "observations_too_many", "nodes_too_many"])
    def test_unbounded_work_is_2_under_a_memory_cap(self, tmp_path, section, key, value):
        # 80,000 x 80,000 cell centers (51 GB per float array), a 100000 x
        # 100000 companion matrix (80 GB), 6e31 capacity draws or the
        # 399,980,000 ordered pairs of 20,000 nodes: the CLI
        # runs in a child whose own address space is capped at 4 GiB, so
        # code that starts to build any of them fails there with a
        # MemoryError, not by exhausting the memory of the test runner
        raw = default_config_dict()
        raw[section][key] = value
        path = tmp_path / "unbounded.json"
        write_config(raw, path)
        src = Path(relaytomo.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        cap = 4 * 2**30

        def limit_address_space():  # runs in the child, before it starts python
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        for command in ("simulate", "direct"):
            proc = subprocess.run(
                [sys.executable, "-m", "relaytomo", command, "--config", str(path),
                 "--out", str(tmp_path / "o")],
                capture_output=True, text=True, env=env, timeout=120,
                preexec_fn=limit_address_space)
            assert proc.returncode == 2, proc.stderr
            # the keys named ahead of the message: one, or two joined by "and"
            assert proc.stderr.startswith("config error: "), proc.stderr
            named = proc.stderr[len("config error: "):].split(": ")[0]
            assert f"{section}.{key}" in named.split(" and ")

    @pytest.mark.parametrize("value", ["1e12", "-1e300"])
    def test_out_of_range_angle_is_3(self, reference_run, tmp_path, capsys, value):
        # no node angle quantizes beyond 180 deg plus half a bin
        sim, _ = reference_run
        lines = (sim / "measurements.txt").read_text().splitlines()
        k = next(n for n, line in enumerate(lines) if not line.startswith("#")) + 4
        tok = lines[k].split()
        tok[3] = value
        lines[k] = " ".join(tok)
        bad = tmp_path / "far_angle.txt"
        bad.write_text("\n".join(lines) + "\n")
        for mode in ("msprt", "argmin"):
            capsys.readouterr()
            assert main(["invert", str(bad), "--mode", mode, "--out", str(tmp_path / "o")]) == 3
            assert f"pair ({tok[0]}, {tok[1]}), relay {tok[2]}: measured angle" in \
                capsys.readouterr().err

    def test_duplicate_record_is_3(self, reference_run, tmp_path, capsys):
        sim, _ = reference_run
        lines = (sim / "measurements.txt").read_text().splitlines()
        k = next(n for n, line in enumerate(lines) if not line.startswith("#"))
        bad = tmp_path / "duplicate.txt"
        bad.write_text("\n".join(lines + [lines[k]]) + "\n")
        capsys.readouterr()
        assert main(["invert", str(bad), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and f"line {len(lines) + 1}" in err

    def test_missing_relay_is_3(self, reference_run, tmp_path, capsys):
        sim, _ = reference_run
        lines = (sim / "measurements.txt").read_text().splitlines()
        kept = [line for line in lines if line.startswith("#") or line.split()[2] != "2"]
        assert len(kept) < len(lines)
        bad = tmp_path / "missing_relay.txt"
        bad.write_text("\n".join(kept) + "\n")
        capsys.readouterr()
        assert main(["invert", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert "pair (0, 1) has no record of relay 2" in capsys.readouterr().err

    def test_huge_relay_index_is_3(self, reference_run, tmp_path, capsys):
        # the gap is found before any matrix is sized by the largest index
        sim, _ = reference_run
        lines = (sim / "measurements.txt").read_text().splitlines()
        k = next(n for n, line in enumerate(lines) if line.startswith("0 1 4 "))
        lines[k] = f"0 1 {10**18} " + lines[k].split(" ", 3)[3]
        bad = tmp_path / "huge_relay.txt"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["invert", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert f"{bad}: pair (0, 1) has no record of relay 4" in capsys.readouterr().err

    def test_observations_beyond_window_is_3(self, reference_run, tmp_path, capsys):
        sim, _ = reference_run
        measurements = str(sim / "measurements.txt")
        capsys.readouterr()
        assert main(["invert", measurements, "--observations", "11",
                     "--out", str(tmp_path / "o")]) == 3
        assert "--observations 11" in capsys.readouterr().err
        assert main(["invert", measurements, "--observations", "10",
                     "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("edit, message", [
        (lambda tok: tok[:5], "{bad}, line {k}: malformed measurement record"),
        (lambda tok: tok[:-1],
         "{bad}, line {k}: 9 observations, but the first record (line {first}) has 10"),
        (lambda tok: tok + ["\udcff"],  # written as the byte 0xff
         "cannot read measurement file {bad}: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["short_record", "observation_count", "not_utf8"])
    def test_bad_record_names_its_line(self, reference_run, tmp_path, capsys, edit, message):
        sim, _ = reference_run
        lines = (sim / "measurements.txt").read_text().splitlines()
        first = next(n for n, line in enumerate(lines) if not line.startswith("#"))
        k = first + 4
        lines[k] = " ".join(edit(lines[k].split()))
        bad = tmp_path / "bad_record.txt"
        bad.write_text("\n".join(lines) + "\n", errors="surrogateescape")
        capsys.readouterr()
        assert main(["invert", str(bad), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert message.format(bad=bad, k=k + 1, first=first + 1) in err

    def test_unconverged_outage_model_is_3(self, tmp_path, capsys):
        # at m = 1e6 the incomplete gamma reaches its iteration cap short of
        # convergence; the truncated sum gave a wrong outage capacity
        raw = default_config_dict()
        raw["channel"]["nakagami_m"] = 1e6
        path = tmp_path / "huge_m.json"
        write_config(raw, path)
        capsys.readouterr()
        assert main(["direct", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda recs: ["0 abc" + recs[0][recs[0].rindex(" "):]] + recs[1:],
         "line 3: non-numeric field"),
        (lambda recs: recs + [recs[2]], "line 8: duplicate record of relay 2 (first at line 5)"),
        (lambda recs: ["-1" + recs[0][1:]] + recs[1:], "line 3: negative relay index"),
        (lambda recs: recs[:1] + recs[2:], "no record of relay 1"),
        (lambda recs: recs[:-1], "holds 4 relays"),
        (lambda recs: [], "holds 0 relays"),
        (lambda recs: recs[:1] + ["\udcff"] + recs[1:],  # written as the byte 0xff
         "cannot read relay file"),
        (lambda recs: ["0 nan" + recs[0][recs[0].rindex(" "):]] + recs[1:],
         "line 3: non-finite x 'nan'"),
        (lambda recs: [recs[0][:recs[0].rindex(" ")] + " nan"] + recs[1:],
         "line 3: non-finite y 'nan'"),
    ], ids=["non_numeric", "duplicate", "negative", "gap", "short", "empty", "not_utf8",
            "x_nan", "y_nan"])
    def test_bad_truth_file_is_3(self, reference_run, tmp_path, capsys, edit, message):
        sim, _ = reference_run
        lines = (sim / "relays_true.txt").read_text().splitlines()
        header = [line for line in lines if line.startswith("#")]
        bad = tmp_path / "truth.txt"
        bad.write_text("\n".join(header + edit(lines[len(header):])) + "\n",
                       errors="surrogateescape")
        capsys.readouterr()
        assert main(["invert", str(sim / "measurements.txt"), "--truth", str(bad),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and message in err


@pytest.mark.parametrize("mode", ["msprt", "argmin"])
def test_observation_window_cuts_both_modes(reference_run, tmp_path, mode):
    # invert --observations 3 reads what a file of the first 3 draws holds,
    # its outage estimates re-made from those draws
    sim, _ = reference_run
    full = sim / "measurements.txt"
    p_out = default_config_dict()["channel"]["outage_prob"]
    cut = []
    for line in full.read_text().splitlines():
        if not line.startswith("#"):
            tok = line.split()
            estimate = estimate_outage_capacity([float(v) for v in tok[5:8]], p_out)
            line = " ".join(tok[:4] + [repr(estimate)] + tok[5:8])
        cut.append(line)
    short = tmp_path / "short.txt"
    short.write_text("\n".join(cut) + "\n")
    windowed = invert_outputs(full, sim, mode, tmp_path / "windowed", "--observations", "3")
    assert windowed == invert_outputs(short, sim, mode, tmp_path / "short")
    assert windowed != invert_outputs(full, sim, mode, tmp_path / "full")


@pytest.mark.parametrize("mode", ["msprt", "argmin"])
def test_huge_capacity_estimate_has_a_finite_residual(reference_run, tmp_path, mode):
    # estimates of 1e200 are finite, so `MeasurementSet` takes them, but their
    # squares overflow: relay 0's residual norm must still be finite, with no
    # numpy warning, and every other relay's report line unchanged
    sim, expected = reference_run
    lines = (sim / "measurements.txt").read_text().splitlines()
    for k, line in enumerate(lines):
        tok = line.split()
        if not line.startswith("#") and tok[2] == "0":
            lines[k] = " ".join(tok[:4] + ["1e200"] + tok[5:])
    huge = tmp_path / "huge.txt"
    huge.write_text("\n".join(lines) + "\n")
    report, _ = invert_outputs(huge, sim, mode, tmp_path / "o")
    got, want = report.decode().splitlines(), expected[mode][0].decode().splitlines()
    edited = [k for k, line in enumerate(want) if line.startswith("0 ")]
    assert len(got) == len(want) and len(edited) == 1
    assert float(got[edited[0]].split()[5]) == pytest.approx(1e200 * math.sqrt(6.0), rel=1e-12)
    assert [line for k, line in enumerate(got) if k not in edited] == \
        [line for k, line in enumerate(want) if k not in edited]


@pytest.mark.parametrize("m, name", [(1.0, "direct_m1"), (2.5, "direct_m25")])
def test_direct_matches_golden_outputs(tmp_path, m, name):
    # the continuous atoms and the discrete spectrum, byte for byte
    raw = default_config_dict()
    raw["channel"]["nakagami_m"] = m
    path = tmp_path / "scenario.json"
    write_config(raw, path)
    assert main(["direct", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    for csv in ("atoms.csv", "discrete.csv"):
        assert (tmp_path / "o" / csv).read_bytes() == (GOLDEN / name / csv).read_bytes()


@pytest.mark.parametrize("mode", ["msprt", "argmin"])
def test_invert_matches_golden_outputs(reference_run, mode):
    # `simulate` then `invert` on the reference scenario reproduce the
    # committed report and scoring byte for byte
    _, outputs = reference_run
    assert outputs[mode] == ((GOLDEN / f"invert_{mode}" / "report.txt").read_bytes(),
                             (GOLDEN / f"invert_{mode}" / "scoring.json").read_bytes())


def test_write_config_command(tmp_path):
    path = tmp_path / "ref.json"
    assert main(["write-config", str(path)]) == 0
    cfg = load_scenario(path)
    assert cfg.relays == 5


def test_shipped_config_is_the_reference_scenario():
    # configs/default.json passes every key check and holds what
    # write-config writes
    path = Path(__file__).parent.parent / "configs" / "default.json"
    assert load_scenario(path) == scenario_from_dict(default_config_dict())
    assert json.loads(path.read_text()) == default_config_dict()
