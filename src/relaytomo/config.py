"""Scenario configuration: one JSON file drives every CLI command.

Angles are degrees and SNR is dB in the file; both are converted exactly
once at load.  `ScenarioConfig`'s fields are the file's keys: parsing,
serialization and the key path every ConfigError names all read them.
A `ScenarioConfig` is validated when it is built, `dataclasses.replace`
included: validation builds each domain object once, and the config keeps
the geometry, channel and grids it built.  Each bound is checked by the
object it bounds, so the config only labels the keys.
Of the bounds, only MAX_DRAWS is checked here: it bounds relays x
observations, which no one domain object holds.
The solver's settings, `TomographyConfig` and `MsprtConfig`, live here
too (and `relaytomo.tomography` names them), so loading a scenario loads
neither the spectrum nor the solver.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from functools import partial

import numpy as np

from .channel import ChannelParams
from .errors import ConfigError, DomainError, RelayTomoError
from .geometry import (
    AngularGrid,
    Baseline,
    CellGrid,
    Point,
    RelayRegion,
    build_grid,
    check_region_clear_of_baseline,
    discretize_region,
)
from .measurement import MAX_DRAWS, MeasurementNetwork
from .numerics import QuadratureSpec, RngStream


def _key(section: str, **default):
    """A config key: a `ScenarioConfig` field read from `section` of the file."""
    return field(metadata={"section": section}, **default)


def _built():
    """A domain object a `ScenarioConfig` keeps: no key, and out of its init,
    repr, equality and hash."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class TomographyConfig:
    """Solver settings: discretization and the localization objective."""

    cell_side: float = 5.0
    mode: str = "msprt"

    def __post_init__(self) -> None:
        if not 0.0 < self.cell_side < math.inf:
            raise DomainError(f"cell side must be positive and finite, got {self.cell_side}")
        if self.mode not in ("argmin", "msprt"):
            raise DomainError(f"mode must be 'argmin' or 'msprt', got {self.mode!r}")


@dataclass(frozen=True)
class MsprtConfig:
    """Sequential-test settings.

    error is the tolerated probability of picking a wrong hypothesis, a
    number in (0, 1); the test stops once the leading hypothesis beats its
    runner-up by `threshold`.
    """

    error: float = 0.01
    max_observations: int = 10

    def __post_init__(self) -> None:
        if not isinstance(self.error, (int, float)) or not 0.0 < self.error < 1.0:
            raise DomainError(f"error probability must be a number in (0, 1), got {self.error!r}")
        count = self.max_observations
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
            raise DomainError(f"max_observations must be an integer >= 1, got {count!r}")

    @property
    def threshold(self) -> float:
        """log((1 - error) / error): the margin a decision needs."""
        # numpy's log: math.log rounds some of these one ulp apart
        return float(np.log((1.0 - self.error) / self.error))


@dataclass(frozen=True)
class ScenarioConfig:
    """The scenario file's keys, one field each, in the file's order.

    Each field names its JSON section; `mode`, `msprt_error` and
    `quad_order` may be left out of the file and take their defaults.
    Built, it is valid (`_validate`), or a ConfigError names its keys, and
    its accessors return the domain objects validation built.
    """

    source: Point = _key("geometry")
    destination: Point = _key("geometry")
    nodes: tuple[Point, ...] = _key("geometry")
    region_center: Point = _key("geometry")
    region_radius: float = _key("geometry")
    snr_db: float = _key("channel")
    nakagami_m: float = _key("channel")
    path_loss_exp: float = _key("channel")
    outage_prob: float = _key("channel")
    aod_resolution_deg: float = _key("grid")
    aoa_resolution_deg: float = _key("grid")
    node_resolution_deg: float = _key("grid")
    cell_side_m: float = _key("grid")
    relays: int = _key("experiment")
    observations: int = _key("experiment")
    seed: int = _key("experiment")
    mode: str = _key("experiment", default="msprt")
    msprt_error: float = _key("experiment", default=0.01)
    quad_order: int = _key("experiment", default=16)
    # the domain objects `_validate` builds, set once by __post_init__
    _baseline: Baseline = _built()
    _region: RelayRegion = _built()
    _params: ChannelParams = _built()
    _network: MeasurementNetwork = _built()
    _angular_grid: AngularGrid = _built()
    _cell_grid: CellGrid = _built()

    def __post_init__(self) -> None:
        for name, value in _validate(self).items():
            object.__setattr__(self, name, value)

    def baseline(self) -> Baseline:
        return self._baseline

    def region(self) -> RelayRegion:
        return self._region

    def channel_params(self) -> ChannelParams:
        return self._params

    def network(self) -> MeasurementNetwork:
        return self._network

    def angular_grid(self) -> AngularGrid:
        return self._angular_grid

    def cell_grid(self) -> CellGrid:
        return self._cell_grid

    def quadrature(self) -> QuadratureSpec:
        return QuadratureSpec(self.quad_order)

    def tomography(self) -> TomographyConfig:
        return TomographyConfig(cell_side=self.cell_side_m, mode=self.mode)

    def msprt(self) -> MsprtConfig:
        return MsprtConfig(error=self.msprt_error, max_observations=self.observations)

    def rng(self) -> RngStream:
        return RngStream(self.seed)

    def as_dict(self) -> dict:
        """The scenario-file dict: the sections and their keys in file order."""
        raw = {section: {} for section in _SECTIONS}
        for name, section, _, _, write, _ in _KEYS:
            value = getattr(self, name)
            raw[section][name] = value if write is None else write(value)
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


def _text(raw, label: str) -> str:
    if not isinstance(raw, str):
        raise ConfigError(f"config key {label} must be a string, got {raw!r}")
    return raw


def _xy(value, label: str) -> Point:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"config key {label} must be [x, y]")
    return Point(_number(value[0], label), _number(value[1], label))


def _points(value, label: str) -> tuple[Point, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"config key {label} must be a list of [x, y], got {value!r}")
    return tuple(_xy(entry, f"{label}[{idx}]") for idx, entry in enumerate(value))


# per field type, as annotated: read from JSON (value, "section.key") and
# write to JSON (None: as it is)
_CODECS = {
    "float": (_number, None),
    "int": (partial(_number, kind=int), None),
    "str": (_text, None),
    "Point": (_xy, lambda p: [p.x, p.y]),
    "tuple[Point, ...]": (_points, lambda points: [[p.x, p.y] for p in points]),
}
# per field, in file order: name, section, "section.name", read, write, default (or MISSING)
_KEYS = tuple((f.name, f.metadata["section"], f"{f.metadata['section']}.{f.name}",
               *_CODECS[f.type], f.default) for f in fields(ScenarioConfig) if f.init)
_SECTIONS = {sec: {name for name, section, *_ in _KEYS if section == sec} for _, sec, *_ in _KEYS}
_LABELS = {name: label for name, _, label, *_ in _KEYS}


def _reference() -> ScenarioConfig:
    """Reference scenario: 100*sqrt(3) m baseline, 40 m disc, 30 dB, 10 deg.

    The three measuring nodes ring the region center at 48 m, 120 degrees
    apart.  Placement trades angular-bin containment (favours distant
    nodes, whose cells look point-like) against capacity discrimination
    between neighbouring cells (favours close nodes); 1.2x the region
    radius is near the empirical optimum for 10 degree bins and 5 m cells.
    """
    cx, ring = 50.0 * math.sqrt(3.0), 48.0
    nodes = tuple(Point(cx + ring * math.cos(phase), 50.0 + ring * math.sin(phase))
                  for phase in (math.pi / 4, math.pi / 4 + 2 * math.pi / 3,
                                math.pi / 4 + 4 * math.pi / 3))
    return ScenarioConfig(
        source=Point(100.0 * math.sqrt(3.0), 0.0), destination=Point(0.0, 0.0), nodes=nodes,
        region_center=Point(cx, 50.0), region_radius=40.0,
        snr_db=30.0, nakagami_m=1.0, path_loss_exp=-3.0, outage_prob=0.01,
        aod_resolution_deg=10.0, aoa_resolution_deg=10.0, node_resolution_deg=10.0,
        cell_side_m=5.0, relays=5, observations=10, seed=20240901)


def default_config_dict() -> dict:
    """The reference scenario (`_reference`) as a new scenario-file dict."""
    return _REFERENCE.as_dict()


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Parse and validate a scenario; an unknown, missing or invalid key is a
    ConfigError naming it."""
    for section, body in raw.items():
        known = _SECTIONS.get(section, ())
        if isinstance(body, dict) and body.keys() - known:
            key = next(key for key in body if key not in known)
            raise ConfigError(f"unknown config key {section}.{key}")
        if not known:
            raise ConfigError(f"unknown config section {section!r}")
    values = {}
    for name, section, label, read, _, default in _KEYS:
        body = raw.get(section)
        if not isinstance(body, dict):
            raise ConfigError(f"missing config section {section!r}")
        if name in body:
            values[name] = read(body[name], label)
        elif default is MISSING:
            raise ConfigError(f"missing config key {label}")
    return ScenarioConfig(**values)


def _step(names: str, build, *args):
    """build(*args), its RelayTomoError re-raised as a ConfigError led by the
    keys of the fields `names` (space-separated) it is built from."""
    try:
        return build(*args)
    except RelayTomoError as exc:
        *rest, last = [_LABELS[name] for name in names.split()]
        keys = f"{', '.join(rest)} and {last}" if rest else last
        raise ConfigError(f"{keys}: {exc}") from exc


def _clear_region(center: Point, radius: float, baseline: Baseline) -> RelayRegion:
    region = RelayRegion(center, radius)
    check_region_clear_of_baseline(region, baseline)
    return region


def _radians(degrees: float) -> float:
    # a positive angle too small for math.radians is refused as such, not as 0
    radians = math.radians(degrees)
    if degrees > 0.0 and radians == 0.0:
        raise DomainError(f"{degrees} degrees underflows to 0 radians")
    return radians


def _non_negative(value: int) -> None:
    if value < 0:
        raise DomainError(f"must be non-negative, got {value}")


def _bounded_draws(nodes: int, relays: int, observations: int) -> None:
    pairs = nodes * (nodes - 1)
    if pairs * relays * observations > MAX_DRAWS:
        raise DomainError(f"{pairs} ordered pairs x {relays} relays x {observations} "
                          f"observations make more than the {MAX_DRAWS:,} capacity draws "
                          f"allowed")


def _validate(cfg: ScenarioConfig) -> dict:
    """Build every domain object once, so its invariants fire when cfg is
    built; each ConfigError names the keys the failing object is built from.
    Returns the objects cfg keeps, by field name.

    Each object checks its own bounds: the network its node count
    (MAX_NODES), the angular grid its cells, counted from its index ranges
    (MAX_GRID_CELLS), and the cell grid its bounding box (MAX_BOX_CELLS)
    and emptiness, none of them laying out a cell.  Ordered pairs x relays
    x observations, the capacity draws a simulation makes, are bounded
    here, by MAX_DRAWS.
    """
    baseline = _step("source destination", Baseline, cfg.source, cfg.destination)
    region = _step("region_center region_radius", _clear_region,
                   cfg.region_center, cfg.region_radius, baseline)
    params = _step("snr_db nakagami_m path_loss_exp outage_prob", ChannelParams.from_db,
                   cfg.snr_db, cfg.nakagami_m, cfg.path_loss_exp, cfg.outage_prob)
    d_node, d_aod, d_aoa = (_step(name, _radians, getattr(cfg, name)) for name in
                            ("node_resolution_deg", "aod_resolution_deg", "aoa_resolution_deg"))
    network = _step("nodes node_resolution_deg", MeasurementNetwork, cfg.nodes, d_node, region)
    angular_grid = _step("aod_resolution_deg aoa_resolution_deg", build_grid,
                         region, baseline, d_aod, d_aoa)
    cell_grid = _step("cell_side_m", discretize_region, region, cfg.cell_side_m)
    _step("cell_side_m mode", cfg.tomography)
    _step("quad_order", cfg.quadrature)
    _step("msprt_error observations", cfg.msprt)
    _step("relays", _non_negative, cfg.relays)
    _step("seed", _non_negative, cfg.seed)
    _step("relays observations", _bounded_draws, len(cfg.nodes), cfg.relays, cfg.observations)
    return {"_baseline": baseline, "_region": region, "_params": params, "_network": network,
            "_angular_grid": angular_grid, "_cell_grid": cell_grid}


_REFERENCE = _reference()


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; JSON syntax errors carry line numbers.

    A file that cannot be read, is not UTF-8 or nests past Python's
    recursion limit is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests too deeply: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return scenario_from_dict(raw)


def write_config(raw: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2, sort_keys=False)
        fh.write("\n")
