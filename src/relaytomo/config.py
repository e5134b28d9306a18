"""Scenario configuration: one JSON file drives every CLI command.

Angles are degrees and SNR is dB in the file; both are converted exactly
once at load.  Validation reuses the domain types' own invariants and
reports the offending JSON key path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .channel import ChannelParams
from .errors import ConfigError, DomainError, RelayTomoError
from .geometry import (
    Baseline,
    CellGrid,
    Point,
    RelayRegion,
    box_shape,
    check_region_clear_of_baseline,
    discretize_region,
)
from .ias import MAX_GRID_CELLS, AngularGrid, build_grid
from .measurement import MeasurementNetwork
from .numerics import QuadratureSpec, RngStream
from .tomography import MsprtConfig, TomographyConfig


@dataclass(frozen=True)
class ScenarioConfig:
    source: Point
    destination: Point
    nodes: tuple[Point, ...]
    region_center: Point
    region_radius: float
    snr_db: float
    nakagami_m: float
    path_loss_exp: float
    outage_prob: float
    aod_resolution_deg: float
    aoa_resolution_deg: float
    node_resolution_deg: float
    cell_side_m: float
    relays: int
    observations: int
    seed: int
    mode: str
    msprt_error: float
    quad_order: int

    def baseline(self) -> Baseline:
        return Baseline(self.source, self.destination)

    def region(self) -> RelayRegion:
        return RelayRegion(self.region_center, self.region_radius)

    def channel_params(self) -> ChannelParams:
        return ChannelParams.from_db(
            self.snr_db, self.nakagami_m, self.path_loss_exp, self.outage_prob
        )

    def network(self) -> MeasurementNetwork:
        return MeasurementNetwork(
            self.nodes, math.radians(self.node_resolution_deg), self.region()
        )

    def angular_grid(self) -> AngularGrid:
        return build_grid(
            self.region(),
            self.baseline(),
            math.radians(self.aod_resolution_deg),
            math.radians(self.aoa_resolution_deg),
        )

    def cell_grid(self) -> CellGrid:
        return discretize_region(self.region(), self.cell_side_m)

    def quadrature(self) -> QuadratureSpec:
        return QuadratureSpec(self.quad_order)

    def tomography(self) -> TomographyConfig:
        return TomographyConfig(cell_side=self.cell_side_m, mode=self.mode)

    def msprt(self) -> MsprtConfig:
        return MsprtConfig(error=self.msprt_error, max_observations=self.observations)

    def rng(self) -> RngStream:
        return RngStream(self.seed)

    def as_dict(self) -> dict:
        return {
            "geometry": {
                "source": [self.source.x, self.source.y],
                "destination": [self.destination.x, self.destination.y],
                "nodes": [[p.x, p.y] for p in self.nodes],
                "region_center": [self.region_center.x, self.region_center.y],
                "region_radius": self.region_radius,
            },
            "channel": {
                "snr_db": self.snr_db,
                "nakagami_m": self.nakagami_m,
                "path_loss_exp": self.path_loss_exp,
                "outage_prob": self.outage_prob,
            },
            "grid": {
                "aod_resolution_deg": self.aod_resolution_deg,
                "aoa_resolution_deg": self.aoa_resolution_deg,
                "node_resolution_deg": self.node_resolution_deg,
                "cell_side_m": self.cell_side_m,
            },
            "experiment": {
                "relays": self.relays,
                "observations": self.observations,
                "seed": self.seed,
                "mode": self.mode,
                "msprt_error": self.msprt_error,
                "quad_order": self.quad_order,
            },
        }


def default_config_dict() -> dict:
    """Reference scenario: 100*sqrt(3) m baseline, 40 m disc, 30 dB, 10 deg.

    The three measuring nodes ring the region center at 48 m, 120 degrees
    apart.  Placement trades angular-bin containment (favours distant
    nodes, whose cells look point-like) against capacity discrimination
    between neighbouring cells (favours close nodes); 1.2x the region
    radius is near the empirical optimum for 10 degree bins and 5 m cells.
    """
    sx = 100.0 * math.sqrt(3.0)
    cx = 50.0 * math.sqrt(3.0)
    ring = 48.0
    nodes = [
        [cx + ring * math.cos(phase), 50.0 + ring * math.sin(phase)]
        for phase in (math.pi / 4, math.pi / 4 + 2 * math.pi / 3,
                      math.pi / 4 + 4 * math.pi / 3)
    ]
    return {
        "geometry": {
            "source": [sx, 0.0],
            "destination": [0.0, 0.0],
            "nodes": nodes,
            "region_center": [cx, 50.0],
            "region_radius": 40.0,
        },
        "channel": {
            "snr_db": 30.0,
            "nakagami_m": 1.0,
            "path_loss_exp": -3.0,
            "outage_prob": 0.01,
        },
        "grid": {
            "aod_resolution_deg": 10.0,
            "aoa_resolution_deg": 10.0,
            "node_resolution_deg": 10.0,
            "cell_side_m": 5.0,
        },
        "experiment": {
            "relays": 5,
            "observations": 10,
            "seed": 20240901,
            "mode": "msprt",
            "msprt_error": 0.01,
            "quad_order": 16,
        },
    }


def _get(section: dict, section_name: str, key: str, kind, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"missing config key {section_name}.{key}")
    raw = section[key]
    if kind in (int, float):
        return _number(raw, f"{section_name}.{key}", kind)
    if not isinstance(raw, kind):
        raise ConfigError(f"config key {section_name}.{key} must be a {kind.__name__}, "
                          f"got {raw!r}")
    return raw


def _number(raw, label: str, kind=float):
    # a JSON int or float: bools and strings are not numbers
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"config key {label} must be a number, got {raw!r}")
    if kind is int and isinstance(raw, float) and not raw.is_integer():
        raise ConfigError(f"config key {label} must be an integer, got {raw}")
    try:
        value = kind(raw)
    except OverflowError as exc:
        raise ConfigError(f"config key {label}: {exc}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"config key {label} must be finite, got {value}")
    return value


def _point(section: dict, section_name: str, key: str) -> Point:
    return _xy(_get(section, section_name, key, list), f"{section_name}.{key}")


def _xy(value, label: str) -> Point:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"config key {label} must be [x, y]")
    return Point(*(_number(v, label) for v in value))


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    for name in ("geometry", "channel", "grid", "experiment"):
        if name not in raw or not isinstance(raw[name], dict):
            raise ConfigError(f"missing config section {name!r}")
    geo, chan, grid, exp = raw["geometry"], raw["channel"], raw["grid"], raw["experiment"]

    nodes = [_xy(entry, f"geometry.nodes[{idx}]")
             for idx, entry in enumerate(_get(geo, "geometry", "nodes", list))]

    cfg = ScenarioConfig(
        source=_point(geo, "geometry", "source"),
        destination=_point(geo, "geometry", "destination"),
        nodes=tuple(nodes),
        region_center=_point(geo, "geometry", "region_center"),
        region_radius=_get(geo, "geometry", "region_radius", float),
        snr_db=_get(chan, "channel", "snr_db", float),
        nakagami_m=_get(chan, "channel", "nakagami_m", float),
        path_loss_exp=_get(chan, "channel", "path_loss_exp", float),
        outage_prob=_get(chan, "channel", "outage_prob", float),
        aod_resolution_deg=_get(grid, "grid", "aod_resolution_deg", float),
        aoa_resolution_deg=_get(grid, "grid", "aoa_resolution_deg", float),
        node_resolution_deg=_get(grid, "grid", "node_resolution_deg", float),
        cell_side_m=_get(grid, "grid", "cell_side_m", float),
        relays=_get(exp, "experiment", "relays", int),
        observations=_get(exp, "experiment", "observations", int),
        seed=_get(exp, "experiment", "seed", int),
        mode=_get(exp, "experiment", "mode", str, default="msprt"),
        msprt_error=_get(exp, "experiment", "msprt_error", float, default=0.01),
        quad_order=_get(exp, "experiment", "quad_order", int, default=16),
    )
    validate_scenario(cfg)
    return cfg


def validate_scenario(cfg: ScenarioConfig) -> None:
    """Construct every domain object once so invariants fire at load time.

    The angular grid is built as its index ranges alone, and one of more
    than MAX_GRID_CELLS cells is rejected before anything allocates it.
    The cell grid is only counted (`box_shape`), never built: a side that
    tiles the bounding box with more than MAX_BOX_CELLS cells is rejected.
    """
    try:
        for key, value in (
            ("grid.aod_resolution_deg", cfg.aod_resolution_deg),
            ("grid.aoa_resolution_deg", cfg.aoa_resolution_deg),
        ):
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{key} must be positive and finite, got {value}")
        baseline = cfg.baseline()
        region = cfg.region()
        check_region_clear_of_baseline(region, baseline)
        cfg.channel_params()
        for key, build in (("grid.node_resolution_deg", cfg.network),
                           ("grid.cell_side_m", lambda: box_shape(region, cfg.cell_side_m)),
                           ("experiment.quad_order", cfg.quadrature)):
            try:
                build()
            except DomainError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        cfg.tomography()
        cfg.msprt()
        if cfg.relays < 0:
            raise ConfigError("experiment.relays must be non-negative")
        if cfg.observations < 1:
            raise ConfigError("experiment.observations must be at least 1")
        if cfg.seed < 0:
            raise ConfigError("experiment.seed must be non-negative")
        angular = cfg.angular_grid()
        if angular.n_aod * angular.n_aoa > MAX_GRID_CELLS:
            raise ConfigError(
                f"grid.aod_resolution_deg and grid.aoa_resolution_deg make an angular grid of "
                f"{angular.n_aod} x {angular.n_aoa} cells, more than the {MAX_GRID_CELLS:,} "
                f"allowed")
    except ConfigError:
        raise
    except RelayTomoError as exc:
        raise ConfigError(str(exc)) from exc


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; JSON syntax errors carry line numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return scenario_from_dict(raw)


def write_config(raw: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2, sort_keys=False)
        fh.write("\n")
