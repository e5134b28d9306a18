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
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .channel import ChannelParams, HopPair, sample_instant_capacity
from .errors import DomainError, GeometryError, MeasurementError
from .geometry import Point, RelayRegion, dist
from .numerics import RngStream

FORMAT_HEADER = "# relaytomo measurement-set v1"
RELAY_HEADER = "# relaytomo relay-positions v1"
# capacity draws (ordered pairs x relays x observations) a scenario may ask
# `simulate_measurements` for: about 20 B each in memory (the draws of each
# unordered pair, their copy per ordered pair and the sort of the quantile
# estimate), 200 MB at the bound, and about as many again as text in the file
MAX_DRAWS = 10_000_000


@dataclass(frozen=True)
class MeasurementNetwork:
    """Q measuring nodes placed outside the relay region, and the forward
    model the simulator and the inverse solver share: the node pairs and
    the rows they label, and each point's distance, angle and bin at a node."""

    nodes: tuple[Point, ...]
    resolution: float
    region: RelayRegion

    def __post_init__(self) -> None:
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

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def ordered_pairs(self) -> list[tuple[int, int]]:
        q = self.n_nodes
        return [(q1, q2) for q1 in range(q) for q2 in range(q) if q2 != q1]

    @cached_property
    def row_of(self) -> dict[tuple[int, int], int]:
        """The row of each ordered pair (q1, q2), in `ordered_pairs()` order."""
        return {pair: k for k, pair in enumerate(self.ordered_pairs())}

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The unordered node pairs (lo, hi), lo < hi; both orderings share one path."""
        return tuple(combinations(range(self.n_nodes), 2))

    @cached_property
    def pair_rows(self) -> list[int]:
        """The row (lo, hi) of each unordered pair."""
        return [self.row_of[pair] for pair in self.pairs]

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

    def table(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Distance of each point (x, y) to each node and its signed angle from
        that node's reference ray, in (-pi, pi]: arrays of x's shape with the
        nodes on a last axis."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        nx, ny, rx, ry = self._rays
        # one row of all points per node: numpy's loops run over long rows
        dx, dy = x.ravel() - nx, y.ravel() - ny
        shape = x.shape + (self.n_nodes,)
        return (np.hypot(dx, dy).T.reshape(shape),
                np.arctan2(rx * dy - ry * dx, rx * dx + ry * dy).T.reshape(shape))


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

    def in_pair_order(self, pairs: list[tuple[int, int]]) -> MeasurementSet:
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
    return np.where(ratio >= 0.0, np.floor(ratio + 0.5), np.ceil(ratio - 0.5)).astype(np.int32)


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
    estimate is the empirical outage quantile of the window.
    """
    if observations < 1:
        raise DomainError(f"need at least one observation, got {observations}")
    d, angle = net.table([p.x for p in relays], [p.y for p in relays])
    raw = np.zeros((len(net.pairs), len(relays), observations))
    for k, (lo, hi) in enumerate(net.pairs):
        for l in range(len(relays)):
            stream = rng.child(lo * net.n_nodes + hi).child(l)
            raw[k, l] = sample_instant_capacity(
                HopPair(float(d[l, lo]), float(d[l, hi])), params, stream, size=observations)
    raw = raw[net.pair_of_row]
    aoa = (angle_bins(angle, net.resolution) * net.resolution).T[net.receivers]
    return MeasurementSet(tuple(net.ordered_pairs()), aoa,
                          estimate_outage_capacity(raw, params.outage_prob), raw)


# ---------------------------------------------------------------------------
# line-oriented serialization (documented in README.md)


def write_measurements(ms: MeasurementSet, path) -> None:
    """One record per (pair, relay): q1 q2 relay aoa_deg cap_est raw...

    Angles are written in degrees with 10 decimals (coarse enough to absorb
    the radians/degrees conversion wobble, so serialization is idempotent);
    capacities use shortest round-trip float repr.
    """
    lines = [FORMAT_HEADER,
             "# columns: q1 q2 relay aoa_deg cap_est obs_0..obs_{O-1}"]
    for p_idx, (q1, q2) in enumerate(ms.pairs):
        for l in range(ms.n_relays):
            fields = [str(q1), str(q2), str(l),
                      f"{math.degrees(ms.aoa[p_idx, l]):.10f}",
                      repr(float(ms.cap_est[p_idx, l]))]
            fields.extend(repr(float(v)) for v in ms.raw[p_idx, l])
            lines.append(" ".join(fields))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_measurements(path) -> MeasurementSet:
    """Parse a measurement file; rows keep the order of first appearance.

    Raises MeasurementError naming the file and line for a malformed,
    non-finite or duplicated (q1, q2, relay) record or one whose
    observation count differs from the first record's, and naming the pair
    and relay when a pair lacks a record of some relay.
    """
    records = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise MeasurementError(f"cannot read measurement file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tok = line.split()
            if len(tok) < 6:
                raise MeasurementError(
                    f"{path}, line {lineno}: malformed measurement record {line!r}")
            try:
                key = (int(tok[0]), int(tok[1]), int(tok[2]))
                values = [float(v) for v in tok[3:]]
            except ValueError as exc:
                raise MeasurementError(
                    f"{path}, line {lineno}: non-numeric field in {line!r}") from exc
            if not all(map(math.isfinite, values)):
                k = next(k for k, v in enumerate(values) if not math.isfinite(v))
                field = ("aoa_deg", "cap_est")[k] if k < 2 else f"obs_{k - 2}"
                raise MeasurementError(
                    f"{path}, line {lineno}: non-finite {field} {tok[3 + k]!r}")
            record = (lineno, math.radians(values[0]), values[1], values[2:])
            if key[2] < 0:
                raise MeasurementError(f"{path}, line {lineno}: negative relay index")
            if key in records:
                raise MeasurementError(
                    f"{path}, line {lineno}: duplicate record of pair {key[:2]}, "
                    f"relay {key[2]} (first at line {records[key][0]})")
            records[key] = record
    if not records:
        raise MeasurementError(f"no measurement records found in {path}")
    held = {}
    for q1, q2, l in records:
        held.setdefault((q1, q2), set()).add(l)
    pairs = list(held)
    n_relays = max(l for _, _, l in records) + 1
    for (q1, q2), relays in held.items():
        if len(relays) < n_relays:  # the least index missing is at most len(relays)
            missing = min(set(range(len(relays) + 1)) - relays)
            raise MeasurementError(f"{path}: pair ({q1}, {q2}) has no record of relay {missing}")
    first_line, _, _, first_obs = next(iter(records.values()))
    n_obs = len(first_obs)
    aoa = np.zeros((len(pairs), n_relays))
    cap_est = np.zeros((len(pairs), n_relays))
    raw = np.zeros((len(pairs), n_relays, n_obs))
    for p_idx, (q1, q2) in enumerate(pairs):
        for l in range(n_relays):
            lineno, aoa[p_idx, l], cap_est[p_idx, l], obs = records[(q1, q2, l)]
            if len(obs) != n_obs:
                raise MeasurementError(f"{path}, line {lineno}: {len(obs)} observations, "
                                       f"but the first record (line {first_line}) has {n_obs}")
            raw[p_idx, l, :] = obs
    return MeasurementSet(tuple(pairs), aoa, cap_est, raw)


def write_relays(relays: list[Point], path) -> None:
    lines = [RELAY_HEADER, "# columns: relay x y"]
    for l, p in enumerate(relays):
        lines.append(f"{l} {float(p.x)!r} {float(p.y)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_relays(path) -> list[Point]:
    """Parse a relay file; relay l is the record of index l.

    Raises MeasurementError naming the file (and line) for a malformed
    record, a negative or duplicate index, or a gap in 0..n-1.
    """
    relays = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise MeasurementError(f"cannot read relay file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tok = line.split()
            if len(tok) != 3:
                raise MeasurementError(f"{path}, line {lineno}: malformed relay record {line!r}")
            try:
                l, point = int(tok[0]), Point(float(tok[1]), float(tok[2]))
            except ValueError as exc:
                raise MeasurementError(
                    f"{path}, line {lineno}: non-numeric field in {line!r}") from exc
            if l < 0:
                raise MeasurementError(f"{path}, line {lineno}: negative relay index")
            if l in relays:
                raise MeasurementError(
                    f"{path}, line {lineno}: duplicate record of relay {l} "
                    f"(first at line {relays[l][0]})")
            relays[l] = (lineno, point)
    gaps = set(range(len(relays))) - relays.keys()
    if gaps:
        raise MeasurementError(f"{path}: no record of relay {min(gaps)}")
    return [relays[l][1] for l in range(len(relays))]
