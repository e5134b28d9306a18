"""Exterior probing network: simulated angle/capacity measurements.

Every ordered node pair (q1, q2) probes each relay path
N_q1 -> relay -> N_q2.  The receiving node measures the arrival angle,
quantized to its azimuthal resolution, and monitors the instantaneous
path capacity over an observation window.  Fading draws are shared
between the two orderings of a node pair, so the capacity estimates obey
channel reciprocity exactly.

Angles at a measuring node are signed offsets from that node's reference
ray, which points at the region center.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .channel import ChannelParams, HopPair, _capacities, _unit_gains
from .errors import DomainError, GeometryError, MeasurementError
from .geometry import Point, RelayRegion, dist
from .numerics import RngStream

FORMAT_HEADER = "# relaytomo measurement-set v1"
RELAY_HEADER = "# relaytomo relay-positions v1"
# capacity draws (ordered pairs x relays x observations) a scenario may ask
# `simulate_measurements` for: 17 B each at its memory peak (`tracemalloc`,
# 200 relays x 1,000 observations: both hops' gains of each unordered pair,
# then their capacities copied per ordered pair and the quantile estimate's
# sort), 170 MB at the bound, and about 26 B each as text in the file
MAX_DRAWS = 10_000_000
# measuring nodes a `MeasurementNetwork` may hold, checked by the network
# before any pair table exists: the solver's joint-bin table is built
# from 81 float64 footprint angles per cell and node (65 MB per node at
# MAX_BOX_CELLS cells, during the build only), its cached channel table holds
# two float64 per cell and each of up to 120 unordered pairs (the outage
# capacity and, at m = 1, the exponential rate) and one per cell (193 MB at
# 16 nodes and MAX_BOX_CELLS cells; 96 MB at m != 1), and each of up to 240
# ordered pairs labels a row of every draw and capacity table
MAX_NODES = 16


@dataclass(frozen=True)
class MeasurementNetwork:
    """Q measuring nodes placed outside the relay region, and the forward
    model the simulator and the inverse solver share: the node pairs and
    the rows they label, and each point's distance, angle and bin at a node.
    A value: its fields alone hash and compare it, and its hash is computed
    once, on first use.  Built, it holds 3 to MAX_NODES nodes, each outside
    the region, and a resolution whose bins fit 32 bits."""

    nodes: tuple[Point, ...]
    resolution: float
    region: RelayRegion

    def __post_init__(self) -> None:
        if len(self.nodes) > MAX_NODES:
            raise DomainError(
                f"{len(self.nodes)} measuring nodes, more than the {MAX_NODES} allowed")
        if len(self.nodes) < 3:
            raise GeometryError(
                f"need at least 3 measuring nodes for unambiguous triangulation, got {len(self.nodes)}"
            )
        if not 0.0 < self.resolution < math.inf:
            raise DomainError(
                f"angular resolution must be positive and finite, got {self.resolution}")
        if math.pi / self.resolution + 1.0 >= 2**31:
            raise DomainError(f"angular resolution {self.resolution} overflows 32-bit bins")
        for q, node in enumerate(self.nodes):
            if dist(node, self.region.center) <= self.region.radius:
                raise GeometryError(f"measuring node {q} lies inside the relay region")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.nodes, self.resolution, self.region))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def ordered_pairs(self) -> list[tuple[int, int]]:
        """`row_pairs` as a new list."""
        return list(self.row_pairs)

    @cached_property
    def row_pairs(self) -> tuple[tuple[int, int], ...]:
        """The ordered pair (q1, q2) of each row, q1 leading: `ordered_pairs()` as a tuple."""
        q = self.n_nodes
        return tuple((q1, q2) for q1 in range(q) for q2 in range(q) if q2 != q1)

    @cached_property
    def row_of(self) -> dict[tuple[int, int], int]:
        """The row of each ordered pair (q1, q2), in `ordered_pairs()` order."""
        return {pair: k for k, pair in enumerate(self.row_pairs)}

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The unordered node pairs (lo, hi), lo < hi; both orderings share one path."""
        return tuple(combinations(range(self.n_nodes), 2))

    @cached_property
    def pair_rows(self) -> np.ndarray:
        """The row (lo, hi) of each unordered pair."""
        return np.array([self.row_of[pair] for pair in self.pairs])

    @cached_property
    def pair_of_row(self) -> np.ndarray:
        """The unordered pair of each row."""
        return np.array([self.pairs.index((min(pair), max(pair))) for pair in self.row_of])

    @cached_property
    def receivers(self) -> np.ndarray:
        """The receiving node q2 of each row."""
        return np.array([q2 for _, q2 in self.row_of])

    @cached_property
    def _rays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # each node's x, y and unit reference ray toward the region center, (nodes, 1) each
        x, y = np.array([(node.x, node.y) for node in self.nodes]).T[..., None]
        dx, dy = self.region.center.x - x, self.region.center.y - y
        norm = np.hypot(dx, dy)
        return x, y, dx / norm, dy / norm

    def distances(self, x, y) -> np.ndarray:
        """Distance of each point (x, y) to each node: x's shape, nodes last."""
        dx, dy, shape = self._offsets(x, y)
        return np.hypot(dx, dy).T.reshape(shape)

    def hop_lengths(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Hop lengths lo -> point and point -> hi of each point (x, y) per
        unordered pair (lo, hi) of `pairs`: x's shape, pairs last, each, in C
        order, so numpy sums a point's pairs as it sums a gathered table's."""
        d = self.distances(x, y)
        lo, hi = np.array(self.pairs).T
        return np.take(d, lo, axis=-1), np.take(d, hi, axis=-1)

    def angles(self, x, y) -> np.ndarray:
        """Signed angle of each point (x, y) from each node's reference ray, in
        (-pi, pi]: x's shape, nodes last."""
        dx, dy, shape = self._offsets(x, y)
        _, _, rx, ry = self._rays
        return np.arctan2(rx * dy - ry * dx, rx * dx + ry * dy).T.reshape(shape)

    def _offsets(self, x, y) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        # one row of all points per node: numpy's loops run over long rows
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        nx, ny, _, _ = self._rays
        return x.ravel() - nx, y.ravel() - ny, x.shape + (self.n_nodes,)


@dataclass(frozen=True)
class MeasurementSet:
    """Per (ordered pair, relay) measured angles, capacity estimates, raw draws.

    aoa[p, l]      quantized arrival angle at the receiving node of pair p
    cap_est[p, l]  empirical outage-capacity estimate from the raw draws
    raw[p, l, o]   instantaneous capacities over the observation window
    """

    pairs: tuple[tuple[int, int], ...]
    aoa: np.ndarray
    cap_est: np.ndarray
    raw: np.ndarray

    def __post_init__(self) -> None:
        p, l = self.aoa.shape
        if self.cap_est.shape != (p, l) or self.raw.shape[:2] != (p, l):
            raise MeasurementError("measurement matrices have inconsistent shapes")
        if len(self.pairs) != p:
            raise MeasurementError("pair list does not match matrix rows")
        if not all(np.isfinite(a).all() for a in (self.aoa, self.cap_est, self.raw)):
            raise MeasurementError("angles and capacities must be finite")
        if np.any(self.cap_est < 0.0) or np.any(self.raw < 0.0):
            raise MeasurementError("capacities must be non-negative")

    @property
    def n_relays(self) -> int:
        return self.aoa.shape[1]

    @property
    def n_observations(self) -> int:
        return self.raw.shape[2]

    def in_pair_order(self, pairs: Sequence[tuple[int, int]]) -> MeasurementSet:
        """This set with its rows in the given pair order.

        Raises MeasurementError unless the set holds exactly these pairs,
        once each.
        """
        pairs = tuple(pairs)
        if self.pairs == pairs:
            return self
        if sorted(self.pairs) != sorted(pairs):
            raise MeasurementError(
                f"measured node pairs {list(self.pairs)} do not match the "
                f"network's ordered pairs {list(pairs)}")
        rows = [self.pairs.index(pair) for pair in pairs]
        return MeasurementSet(pairs, self.aoa[rows], self.cap_est[rows], self.raw[rows])

    def first_observations(self, n: int, p_out: float) -> MeasurementSet:
        """This set cut to its first n observations, cap_est re-estimated from them."""
        if n >= self.n_observations:
            return self
        raw = self.raw[:, :, :n]
        return MeasurementSet(self.pairs, self.aoa, estimate_outage_capacity(raw, p_out), raw)


def angle_bins(theta: np.ndarray, d_theta: float) -> np.ndarray:
    """int32 index of the nearest multiple of d_theta; ties round half away from zero."""
    if not d_theta > 0.0:
        raise DomainError(f"resolution must be positive, got {d_theta}")
    ratio = np.asarray(theta) / d_theta
    return np.trunc(ratio + np.copysign(0.5, ratio)).astype(np.int32)


def estimate_outage_capacity(samples, p_out: float) -> float | np.ndarray:
    """Empirical p_out-quantile: order statistic at ceil(p_out * n), clamped.

    Taken along the last axis, the window; a float for one window.  A
    window too short to resolve the target quantile degrades to the
    sample minimum, which is exactly why the sequential test exists.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[-1]
    if n == 0:
        raise MeasurementError("cannot estimate a quantile from zero samples")
    if not (0.0 < p_out < 1.0):
        raise DomainError(f"outage probability must be in (0,1), got {p_out}")
    index = min(max(math.ceil(p_out * n) - 1, 0), n - 1)
    estimate = np.sort(samples, axis=-1)[..., index]
    return float(estimate) if estimate.ndim == 0 else estimate


def simulate_measurements(
    net: MeasurementNetwork,
    relays: list[Point],
    params: ChannelParams,
    observations: int,
    rng: RngStream,
) -> MeasurementSet:
    """Run the probing protocol over every ordered node pair and relay.

    Arrival angles are exact geometry quantized to the network resolution.
    For each unordered node pair one stream of per-link fading draws is
    shared by both orderings (channel reciprocity), and the capacity
    estimate is the empirical outage quantile of the window.  The draws
    use `channel`'s draw kernel, as `sample_instant_capacity` does, on one
    (hop, unordered pair, relay, observation) table: each (pair, relay)
    stream fills its unit gains with one draw call, then one pass scales
    and turns the whole table into capacities, the same bits as one
    `sample_instant_capacity` call per stream.
    """
    if observations < 1:
        raise DomainError(f"need at least one observation, got {observations}")
    x, y = [p.x for p in relays], [p.y for p in relays]
    d = np.array(net.hop_lengths(x, y)).swapaxes(1, 2)  # (hop, unordered pair, relay)
    if d.size and d.min() <= 0.0:
        HopPair(d[0], d[1])  # raises its DomainError
    gains = np.empty(d.shape + (observations,))
    for k, (lo, hi) in enumerate(net.pairs):
        pair_rng = rng.child(lo * net.n_nodes + hi)
        for l in range(len(relays)):
            gains[:, k, l] = _unit_gains(pair_rng.child(l).generator(), params.nakagami_m,
                                         observations)
    raw = _capacities(gains, d, params)[net.pair_of_row]
    del gains  # before the estimate's sort: the ordered rows are a copy
    aoa = (angle_bins(net.angles(x, y), net.resolution) * net.resolution).T[net.receivers]
    return MeasurementSet(net.row_pairs, aoa,
                          estimate_outage_capacity(raw, params.outage_prob), raw)


# ---------------------------------------------------------------------------
# line-oriented serialization (documented in README.md)


def write_records(path, header: str, columns: str, records) -> None:
    """A line file: its header, a `# columns:` line, then one line per record."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header, f"# columns: {columns}", *records]) + "\n")


def _read_records(path, what: str, n_keys: int, fields: tuple[str, ...], signed: int,
                  repeated: str = "") -> dict[tuple[int, ...], tuple[int, list[float]]]:
    """A line file's records, {key: (line, values)} in file order.

    A record is n_keys integers (the last a relay index), one float per name
    in `fields` and, with a `repeated` name, one or more floats `repeated`0,
    `repeated`1, ...; the floats past the first `signed` are capacities.
    MeasurementError names the file, and the line and field at fault: an
    unreadable or non-UTF-8 file, a wrong width, a non-numeric, non-finite
    or negative capacity field, a negative relay index or a duplicate key.
    It quotes at most the one bad token, never the line, whose records of
    many observations run to kilobytes.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeasurementError(f"cannot read {what} file {path}: {exc}") from exc
    width = n_keys + len(fields)
    records = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if len(tok) <= width if repeated else len(tok) != width:
            need = f"at least {width + 1}" if repeated else width
            raise MeasurementError(f"{path}, line {lineno}: malformed {what} record of "
                                   f"{len(tok)} fields, {need} needed")
        try:
            key = tuple(int(t) for t in tok[:n_keys])
            values = [float(t) for t in tok[n_keys:]]
        except ValueError as exc:
            for k, t in enumerate(tok):  # find the field that failed
                try:
                    int(t) if k < n_keys else float(t)
                except ValueError:
                    raise MeasurementError(f"{path}, line {lineno}: non-numeric field {t!r} "
                                           f"(field {k + 1} of {len(tok)})") from exc
        bad = next((k for k, v in enumerate(values)
                    if not (math.isfinite(v) and (v >= 0.0 or k < signed))), None)
        if bad is not None:
            name = fields[bad] if bad < len(fields) else f"{repeated}{bad - len(fields)}"
            fault = "negative" if math.isfinite(values[bad]) else "non-finite"
            raise MeasurementError(
                f"{path}, line {lineno}: {fault} {name} {tok[n_keys + bad]!r}")
        if key[-1] < 0:
            raise MeasurementError(f"{path}, line {lineno}: negative relay index")
        if key in records:
            pair = f"pair {key[:-1]}, " if key[:-1] else ""
            raise MeasurementError(
                f"{path}, line {lineno}: duplicate record of {pair}relay {key[-1]} "
                f"(first at line {records[key][0]})")
        records[key] = (lineno, values)
    return records


def _check_relays(path, held: set[int], n_relays: int, owner: str = "") -> None:
    """MeasurementError naming the least relay index below n_relays missing from held."""
    if len(held) < n_relays:  # the least index missing is at most len(held)
        missing = min(set(range(len(held) + 1)) - held)
        raise MeasurementError(f"{path}: {owner}no record of relay {missing}")


def write_measurements(ms: MeasurementSet, path) -> None:
    """One record per (pair, relay): q1 q2 relay aoa_deg cap_est raw...

    Angles are written in degrees with 10 decimals (coarse enough to absorb
    the radians/degrees conversion wobble, so serialization is idempotent);
    capacities use shortest round-trip float repr.
    """
    records = (" ".join([f"{q1} {q2} {l} {math.degrees(ms.aoa[p_idx, l]):.10f}",
                         repr(float(ms.cap_est[p_idx, l])),
                         *(repr(float(v)) for v in ms.raw[p_idx, l])])
               for p_idx, (q1, q2) in enumerate(ms.pairs) for l in range(ms.n_relays))
    write_records(path, FORMAT_HEADER, "q1 q2 relay aoa_deg cap_est obs_0..obs_{O-1}", records)


def read_measurements(path) -> MeasurementSet:
    """Parse a measurement file; rows keep the order of first appearance.

    Raises MeasurementError as `_read_records` does, and for a record whose
    observation count differs from the first record's (file and line) or a
    pair lacking a record of some relay (pair and relay).
    """
    records = _read_records(path, "measurement", 3, ("aoa_deg", "cap_est"), 1, "obs_")
    if not records:
        raise MeasurementError(f"no measurement records found in {path}")
    held = {}
    for q1, q2, l in records:
        held.setdefault((q1, q2), set()).add(l)
    n_relays = max(l for _, _, l in records) + 1
    for pair, relays in held.items():
        _check_relays(path, relays, n_relays, f"pair {pair} has ")
    first_line, first = next(iter(records.values()))
    n_obs = len(first) - 2
    shape = (len(held), n_relays)
    aoa, cap_est, raw = np.zeros(shape), np.zeros(shape), np.zeros(shape + (n_obs,))
    for p_idx, (q1, q2) in enumerate(held):
        for l in range(n_relays):
            lineno, (aoa_deg, cap_est[p_idx, l], *obs) = records[(q1, q2, l)]
            if len(obs) != n_obs:
                raise MeasurementError(f"{path}, line {lineno}: {len(obs)} observations, "
                                       f"but the first record (line {first_line}) has {n_obs}")
            aoa[p_idx, l], raw[p_idx, l] = math.radians(aoa_deg), obs
    return MeasurementSet(tuple(held), aoa, cap_est, raw)


def write_relays(relays: list[Point], path) -> None:
    write_records(path, RELAY_HEADER, "relay x y",
                  (f"{l} {float(p.x)!r} {float(p.y)!r}" for l, p in enumerate(relays)))


def read_relays(path) -> list[Point]:
    """Parse a relay file; relay l is the record of index l.

    Raises MeasurementError as `_read_records` does, and for a gap in
    0..n-1 (file named).
    """
    records = _read_records(path, "relay", 1, ("x", "y"), 2)
    held = {l for l, in records}
    _check_relays(path, held, max(held, default=-1) + 1)
    return [Point(*records[(l,)][1]) for l in range(len(held))]
