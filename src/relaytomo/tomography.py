"""Inverse solver: locate relays from exterior angle/capacity measurements.

Relay network tomography is an inverse problem.  Each cell of the grid is
a hypothesis, and its forward model is the relay paths it predicts between
the measuring nodes: one two-hop path per node pair, with its arrival
angles and outage capacity.  `MeasurementNetwork` owns that forward model
for the simulator and this solver alike: the node pairs and the rows they
label, each point's hop lengths per pair and angle at every node, and the
angle bins.  `_Footprint`, one per (network, grid), holds the cell
centers' hop lengths and angles and the joint-bin table: every footprint
lattice point grouped by its joint bin, one bin per node, as sorted arrays
under one int64 key per joint bin (`_joint_keys`).  The channel
table, one per (network, grid, channel), holds each cell center's outage
capacity per unordered pair and, at m = 1, its exponential rate and summed
log rate, solved for every cell in one call on first use.  A solve finds
both in one cache lookup keyed by the three values (`_tables`), whose
hashes each object computes once.

Pipeline per measurement set, each stage run once for all its relays:
(1) the angle step puts the set's rows in the network's pair order and
keeps the cells the measured arrival angles allow, every relay's joint
bin keyed and found in that table by one `searchsorted`; (2) one array
pass over the set's padded
(relay x candidate) table, gathered from the relays' spans in one index
step, picks each relay's cell, by the least l2 capacity residual against
the empirical outage estimates among the cells whose *center* quantizes
into every measured bin (`feasible_cells`), or by a multi-hypothesis
sequential probability ratio test over the raw capacity observations
among the cells some of whose footprint lies in the relay's joint bin,
each weighted by that share of its footprint (so a cell cut by the region
edge weighs less); padded lanes repeat the relay's last candidate and are
+inf in every residual and -inf in every log likelihood; (3) one result
step computes every pick's residuals and builds its result.  The
one-relay functions run the same stages on a set of one, so they accept
exactly the sets `localize_all` accepts.

The test's evidence is the capacity log-density of each observation,
summed over the unordered pairs.  Under Rayleigh fading (Nakagami m = 1)
X = 4^I - 1 is exponential with a rate per (cell, pair), so the evidence
reduces to per-relay sums of I, a per-cell constant read from the channel
table and a stacked (cells x pairs) @ (pairs x observations) product of
the table's rates and X, with no incomplete gamma; every other m
evaluates `capacity_log_pdf` per (cell, pair, observation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel import (
    LN4,
    ChannelParams,
    HopPair,
    capacity_log_pdf,
    outage_capacity_array,
    rho_scales,
)
from .errors import DomainError, LocalizationError, MeasurementError
from .geometry import CellGrid, Point, dist
from .measurement import MeasurementNetwork, MeasurementSet, angle_bins, write_records

KIND_THRESHOLD = "threshold"
KIND_FORCED_MAP = "forced-map"
KIND_ARGMIN = "argmin"
KIND_UNLOCALIZED = "unlocalized"

FOOTPRINT_SAMPLES = 9  # lattice points per cell axis of the footprint: joint-bin groups, priors
# padded elements one decision pass holds, (relay, candidate, pair, observation)
# or, for argmin, (relay, candidate, row): a float temporary takes at most 2 MiB
# however many relays a set holds, unless one relay's own table is larger
LANE_BUDGET = 1 << 18
_SQUARE_SAFE = 1e150  # estimates below it keep residuals' squares and row sums finite


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
class LocalizationResult:
    """Outcome for one relay."""

    relay: int
    cell_index: int | None
    position: Point | None
    n_candidates: int
    kind: str
    e_angle: float
    e_capacity: float
    stopped_at: int
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (KIND_THRESHOLD, KIND_FORCED_MAP, KIND_ARGMIN, KIND_UNLOCALIZED):
            raise DomainError(f"unknown decision kind {self.kind!r}")


def feasible_cells(
    ms: MeasurementSet,
    relay: int,
    net: MeasurementNetwork,
    grid: CellGrid,
) -> list[int]:
    """Cells whose predicted arrival angles share every measured bin.

    A cell is kept when its *center* quantizes into the measured bin at
    every receiving node: the cells of the relay's joint bin whose center
    lies in it.  Returns sorted cell indices; an empty list signals a grid
    too coarse or inconsistent data (the caller decides how to proceed).
    """
    ms, fp = ms.in_pair_order(net.row_pairs), _footprint(net, grid)
    ((start, count),), cells = _candidates(ms, [relay], net, fp, "argmin")
    return cells[start:start + count].tolist()


def _candidates(ms: MeasurementSet, relays, net: MeasurementNetwork, fp, mode: str):
    """Each relay's (first, count) span of its candidates in a solver mode, and
    the cells the spans index: fp's center cells for argmin (the center rule
    of `feasible_cells`), its joint-bin groups for msprt (as do group_shares
    and group_priors), from one `_angle_step`."""
    spans = _angle_step(ms, relays, net, fp)
    return (spans[:, 2:], fp.center_cells) if mode == "argmin" else (spans[:, :2], fp.group_cells)


def _angle_step(ms: MeasurementSet, relays, net: MeasurementNetwork, fp) -> np.ndarray:
    """Each relay's joint bin, one measured bin per node, as its span of fp's
    groups and of fp's center cells: (relays, 4) ints, each row the first
    group, the group count, the first center cell and the center count.

    The rows of ms are in `net.ordered_pairs()` order (the callers'
    `MeasurementSet.in_pair_order`, which raises MeasurementError for any
    other pair set); relays are column indices of ms, binned in one
    `angle_bins` call, keyed in one `_joint_keys` call and found in fp's
    sorted keys by one `searchsorted`.  The counts are 0 where a node's rows
    disagree on its bin or no lattice point lies in its joint bin.  An angle
    beyond pi + resolution / 2, where no node angle quantizes, raises
    MeasurementError naming the pair and relay.
    """
    aoa = ms.aoa[:, relays]
    edge = math.pi + net.resolution / 2
    if np.maximum.reduce(np.abs(aoa), axis=None, initial=0.0) > edge:
        p, l = np.argwhere(np.abs(aoa) > edge)[0]
        raise MeasurementError(
            f"pair {ms.pairs[p]}, relay {relays[l]}: measured angle {math.degrees(aoa[p, l]):g} "
            f"deg lies beyond 180 deg plus half the node resolution, where no node "
            f"angle quantizes")
    bins = angle_bins(aoa, net.resolution)  # (rows, relays)
    agree = np.logical_and.reduce(bins == bins.take(fp.lead_rows, axis=0), axis=0)
    key = _joint_keys(bins.take(fp.first_rows, axis=0), fp.radix, fp.key_steps)
    at = fp.joint_keys.searchsorted(key)
    found = agree & (fp.joint_keys.take(at, mode="clip") == key)
    return fp.joint_spans.take(at, axis=0, mode="clip") * found[:, None]


def _joint_keys(bins: np.ndarray, radix: int, steps: list) -> np.ndarray:
    """The int64 key of each column of bins (nodes, columns), a joint bin.

    Each node's bin is one balanced digit of the odd radix, node 0 leading;
    every admitted bin lies within +-(radix - 1) / 2, so no digit carries,
    distinct columns get distinct keys, and keys sort as columns do.  Each
    step packs, in one product, as many nodes as int64 holds; between steps
    the key so far becomes its rank among the lattice's sorted distinct keys
    so far, or -1, below every lattice key, where it is none of them.

    steps is the format: each step's places and, but for the last, those
    sorted keys.  The build passes the lattice's bins and an empty list,
    which this fills; the angle step passes the filled list.
    """
    key, q = 0, 0
    for i in range(len(bins)):
        if i == len(steps):  # the build: as many nodes as int64 holds
            span = len(steps[-1][1]) + 1 if steps else 1  # |key| < span * radix**k
            k = 1
            while q + k < len(bins) and span * radix ** (k + 1) < 2**63:
                k += 1
            steps.append([radix ** np.arange(k - 1, -1, -1, dtype=np.int64), None])
        place, known = steps[i]
        part = place @ bins[q:q + len(place)]
        key = part if i == 0 else key * (int(place[0]) * radix) + part
        q += len(place)
        if q == len(bins):
            break
        if known is None:
            known = steps[i][1] = np.unique(key)
        at = known.searchsorted(key)
        key = np.where(known.take(at, mode="clip") == key, at, -1)
    return key


class _Footprint:
    """Per (network, grid): the geometry of every cell's hypothesis.

    xy is the grid's cell centers, which the solver reads positions from, so a
    fresh but equal grid never builds its own;
    angle[w, r] is cell w's center's angle at the receiving node of row r of
    `net.ordered_pairs()`, first_rows[q] the first row received at node q,
    lead_rows[r] the first row received at row r's receiving node,
    and `hop_lengths` its center's path per unordered pair
    (`MeasurementNetwork.hop_lengths`).  A cell's footprint is the in-disc
    points of a FOOTPRINT_SAMPLES squared lattice of its square, its center
    (offset exactly 0) in the middle.
    Those points are grouped by (joint bin, cell), a joint bin being one
    bin per node: group_cells are the cells whose footprint reaches it (sorted),
    group_shares each one's share of its lattice (group_priors: its log over the
    bin's total), and center_cells, in the same order, the cells of the groups
    whose center lies in their joint bin (the center rule).  joint_keys holds
    each joint bin's key (`_joint_keys` under radix and key_steps), sorted, and
    joint_spans, row by row, its span of both: (first group, group count, first
    center cell, center count).  The lattice's angles exist only during the build.
    """

    def __init__(self, net: MeasurementNetwork, grid: CellGrid) -> None:
        self.xy = grid.xy
        x, y = self.xy.T
        self.hops, self.angle = net.hop_lengths(x, y), net.angles(x, y).take(net.receivers, axis=1)
        self.first_rows = np.array([net.receivers.tolist().index(q) for q in range(net.n_nodes)])
        self.lead_rows = self.first_rows[net.receivers]
        (self.radix, self.key_steps, self.joint_keys, self.joint_spans, self.group_cells,
         self.group_shares, self.group_priors, self.center_cells) = _joint_bin_groups(net, grid)

    def hop_lengths(self, cells=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Hop lengths of each cell center's path per unordered pair, (cells, pairs)."""
        d_lo, d_hi = self.hops
        return d_lo[cells], d_hi[cells]


def _joint_bin_groups(net: MeasurementNetwork, grid: CellGrid):
    """`_Footprint`'s radix, key_steps, joint_keys, joint_spans, group_cells,
    group_shares, group_priors and center_cells.

    One stable argsort of the in-disc lattice points' keys orders them by
    joint bin, cell order holding within a bin, so each run of one key and
    one cell is a group: its count is a run length, its center flag one
    reduceat.  A bin's total sums its own shares alone, as `np.sum` of a
    relay's would."""
    n = FOOTPRINT_SAMPLES
    offsets = ((np.arange(n) + 0.5) / n - 0.5) * grid.cell_side
    ox, oy = np.meshgrid(offsets, offsets)
    px = grid.xy[:, :1] + ox.ravel()
    py = grid.xy[:, 1:] + oy.ravel()
    region = net.region
    inside = np.hypot(px - region.center.x, py - region.center.y) <= region.radius
    cell, point = np.nonzero(inside)
    angle = net.angles(px, py)
    bins = angle_bins(np.moveaxis(angle, -1, 0), net.resolution)[:, inside]  # (nodes, points)

    # every admitted angle bins within +-top, the bin of pi + resolution / 2
    radix, steps = 2 * int(angle_bins(math.pi + net.resolution / 2, net.resolution)) + 1, []
    key = _joint_keys(bins, radix, steps)
    order = np.argsort(key, kind="stable")  # a joint bin's points stay in cell order
    key, cell, point = key[order], cell[order], point[order]
    new_key = np.concatenate(([True], key[1:] != key[:-1]))
    groups = np.flatnonzero(new_key | np.concatenate(([True], cell[1:] != cell[:-1])))
    counts = np.diff(groups, append=len(cell))
    # the middle point of a cell's lattice is its center
    center = np.logical_or.reduceat(point == n * n // 2, groups)
    first = np.flatnonzero(new_key[groups])  # each joint bin's first group
    bounds = np.append(first, len(groups))
    # the center cells before each joint bin's first group, and their total
    centers = np.concatenate(([0], np.cumsum(center)))[bounds]
    spans = np.stack((first, np.diff(bounds), centers[:-1], np.diff(centers)), axis=1)
    shares = counts / n**2
    totals = np.repeat([shares[a:b].sum() for a, b in zip(first.tolist(), bounds[1:].tolist())],
                       np.diff(bounds))
    cells = cell[groups]
    return (radix, steps, key[groups[first]], spans, cells, shares, np.log(shares / totals),
            cells[center])


_footprint = lru_cache(maxsize=8)(_Footprint)  # one per (network, grid)


def _l2_norms(diff: np.ndarray) -> np.ndarray:
    # l2 norm along the last axis, in place: a running sum adds the squares in
    # order, as a scalar loop would (numpy's pairwise sum does not past 7 terms)
    diff *= diff
    return np.sqrt(np.add.accumulate(diff, axis=-1, out=diff)[..., -1])


class _ChannelTable(NamedTuple):
    """Per (network, grid, channel): each cell center's channel per unordered pair.

    capacity[w, p] is the outage capacity of cell w's center path for
    unordered pair p.  At m = 1, where X = 4^I - 1 is exponential, rate[w, p]
    is its rate s1 + s2 (`rho_scales`) and log_rate_sum[w] the sum over the
    pairs of log(ln4 rate[w, p]); both are None at other m.  Read-only.
    """

    capacity: np.ndarray
    rate: np.ndarray | None
    log_rate_sum: np.ndarray | None


def _solve_table(hops: HopPair, params) -> _ChannelTable:
    """The channel table of the (cells, pairs) paths of hops, every capacity
    solved in one `outage_capacity_array` call."""
    columns = [outage_capacity_array(hops, params), None, None]
    if params.nakagami_m == 1.0:
        rate = np.add(*rho_scales(hops, params))
        columns[1:] = rate, np.add.reduce(np.log(LN4 * rate), axis=-1)
    for column in columns:
        if column is not None:
            column.flags.writeable = False
    return _ChannelTable(*columns)


@lru_cache(maxsize=8)
def _tables(net, grid, params) -> tuple[_Footprint, _ChannelTable]:
    """(net, grid)'s footprint and the channel table of every cell center's
    paths under params, solved on first use: a solve's one lookup, keyed by
    the three values, whose hashes are computed once per object."""
    fp = _footprint(net, grid)
    return fp, _solve_table(HopPair(*fp.hop_lengths()), params)


def _capacity_residuals(net, caps, cells, cap_rows: np.ndarray) -> np.ndarray:
    """l2 norm of each cell's outage-capacity residuals against cap_rows.

    cap_rows has one estimate per ordered pair of `net.ordered_pairs()` on its
    last axis; both orderings of a pair share one solve of caps, the channel
    table's capacities.
    """
    diff = cap_rows - caps.take(cells, axis=0).take(net.pair_of_row, axis=-1)
    # estimates and capacities are non-negative, and capacities small
    if not np.maximum.reduce(cap_rows, axis=None, initial=0.0) > _SQUARE_SAFE:
        return _l2_norms(diff)
    # a row whose squares overflow is scaled by its largest |residual| first,
    # as hypot does, so its norm is finite; the other rows keep their bits
    with np.errstate(over="ignore"):
        norms = _l2_norms(diff.copy())
    over = np.isinf(norms)
    scale = np.maximum.reduce(np.abs(diff[over]), axis=-1, keepdims=True)
    norms[over] = scale[:, 0] * _l2_norms(diff[over] / scale)
    return norms


def _capacity_evidence(fp: _Footprint, table: _ChannelTable, cells: np.ndarray,
                       raw: np.ndarray, params) -> np.ndarray:
    """Sequential-test evidence of a set of relays, summed over unordered pairs.

    cells[j] are relay j's candidate cells, padded to one length, and raw[j]
    its observations, (unordered pairs, observations), none negative
    (`MeasurementSet` checks its draws).  Returns the
    log-density of each observation under each candidate's center paths,
    summed over the pairs: (relays, candidates, observations).

    At m = 1, X = 4^I - 1 is exponential with rate s1 + s2, so the sum is
    sum_p log(ln4 rate[c, p]) + ln4 sum_p I[p, o] - (rate @ X)[c, o]:  a
    constant per candidate and its rates, both gathered from the channel
    table, a term per observation formed once per relay, and one stacked
    product.  Every other shape sums `capacity_log_pdf` of each (candidate,
    pair, observation) on fp's hop lengths.
    """
    if params.nakagami_m != 1.0:
        d_sr, d_rd = fp.hop_lengths(cells)
        hops = HopPair(d_sr[..., None], d_rd[..., None])
        return capacity_log_pdf(raw[:, None], hops, params).sum(axis=2)
    log_4i = raw * LN4
    with np.errstate(over="ignore"):  # 4^I - 1 is inf past I ~ 512, where the density is 0
        x = np.expm1(log_4i)
    per_cell = table.log_rate_sum[cells]
    return per_cell[..., None] + np.add.reduce(log_4i, axis=1)[:, None] - table.rate[cells] @ x


def localize_argmin(
    candidates: list[int],
    cap_row: np.ndarray,
    net: MeasurementNetwork,
    grid: CellGrid,
    params: ChannelParams,
    relay: int = -1,
) -> LocalizationResult:
    """Candidate minimizing the l2 norm of outage-capacity residuals.

    Ties break to the first candidate.  The result carries that minimum as
    its capacity residual, and 0 as its angle residual.
    """
    if not candidates:
        raise LocalizationError("argmin localization needs a non-empty candidate set")
    cells = np.asarray(candidates)[None]
    fp, table = _tables(net, grid, params)
    (decision,), (e_capacity,) = _argmin_decisions(
        net, table.capacity, cells, np.ones(cells.shape, bool), cap_row[:, None])
    return _result(relay, len(candidates), decision, fp.xy[decision[0]].tolist(), 0.0,
                   e_capacity)


def _argmin_decisions(net, caps, cells, valid, cap_est) -> tuple[list[tuple], list[float]]:
    """Each relay's candidate of least capacity residual, the first on ties.

    cells and valid are the set's padded (relays, candidates) table and
    cap_est[:, j] relay j's estimates, one row per ordered pair of
    `net.ordered_pairs()`.  Returns per relay its decision (cell, kind,
    stopped_at, degenerate) and that cell's residual.
    """
    errs = _capacity_residuals(net, caps, cells, cap_est.T[:, None])
    np.copyto(errs, np.inf, where=~valid)
    rows, best = np.arange(len(cells)), errs.argmin(axis=1)
    return ([(w, KIND_ARGMIN, 0, False) for w in cells[rows, best].tolist()],
            errs[rows, best].tolist())


def msprt_localize(
    candidates: list[int],
    raw: np.ndarray,
    net: MeasurementNetwork,
    grid: CellGrid,
    params: ChannelParams,
    cfg: MsprtConfig,
    relay: int = -1,
    angle_weights: np.ndarray | None = None,
) -> LocalizationResult:
    """Multi-hypothesis sequential test over the raw capacity observations.

    raw holds one row per ordered pair of `net.ordered_pairs()`.  Reciprocal
    orderings carry the same fading draws, so only the rows (q1, q2) with
    q1 < q2 enter the evidence (`_capacity_evidence`).  From the prior of
    `angle_weights`, or a uniform one, the test stops once the leading
    hypothesis beats the runner-up by `cfg.threshold`, or else returns the
    MAP hypothesis after the last observation (`_sequential_tests`).  The
    result's residuals are 0.
    """
    if not candidates:
        raise LocalizationError("sequential test needs a non-empty candidate set")
    if raw.ndim != 2 or raw.shape[0] != len(net.row_of):
        raise LocalizationError(
            f"raw observations must have shape (n_pairs, n_obs), got {raw.shape}")
    k, w = len(candidates), angle_weights
    cells, own = np.asarray(candidates)[None], np.ones((1, k), bool)
    log_prior = np.full(k, -math.log(k)) if w is None else np.log(w / w.sum())
    raw = raw[None, net.pair_rows, :cfg.max_observations]
    if np.any(raw < 0.0):
        raise DomainError("spectral efficiency must be non-negative")
    fp, table = _tables(net, grid, params)
    evidence = _capacity_evidence(fp, table, cells, raw, params)
    decision, = _sequential_tests(cells, own, log_prior[None], evidence, cfg.threshold)
    return _result(relay, k, decision, fp.xy[decision[0]].tolist(), 0.0, 0.0)


def _sequential_tests(cells, valid, log_prior, evidence, threshold: float) -> list[tuple]:
    """Each relay's sequential-test decision: (cell, kind, stopped_at, degenerate).

    cells and valid are the set's padded (relays, candidates) table,
    log_prior its log prior and evidence its log_pdf, (relays, candidates,
    observations), from `_capacity_evidence`.  A single candidate wins at
    once.  Else log likelihoods start at the log prior and add each
    observation's evidence until the leader (the first maximum) beats the
    runner-up by more than `threshold`, or the MAP hypothesis after the last
    observation wins; an observation impossible under every hypothesis picks
    the first, flagged degenerate.  Subtraction is monotone, so beating the
    runner-up is beating every rival; a NaN leader never passes.
    """
    n, k, n_obs = evidence.shape
    # column o: log likelihoods after o observations, summed in arrival order;
    # padded lanes are -inf throughout, never added to a relay's +inf
    lik = np.concatenate((log_prior[..., None], evidence), axis=2)
    np.copyto(lik, -np.inf, where=~valid[..., None])
    np.add.accumulate(lik, axis=2, out=lik)
    leader, rows = lik.argmax(axis=1), np.arange(n)
    at_leader = rows[:, None], leader, np.arange(n_obs + 1)
    lead = lik[at_leader]
    # a column some hypothesis explains: a finite leader, or else any finite lane
    possible = np.isfinite(lead)
    if not possible.all():
        possible = np.logical_or.reduce(np.isfinite(lik), axis=1)
    lik[at_leader] = -np.inf  # so each column's max is its runner-up
    with np.errstate(invalid="ignore"):  # inf - inf, where no hypothesis is finite
        undecided = possible & ~(lead - np.maximum.reduce(lik, axis=1) > threshold)
    undecided[:, 0] = np.logical_or.reduce(valid[:, 1:], axis=1)  # one candidate wins at once
    # the first observation that passes or that no hypothesis explains decides
    # (a non-finite sum stays so, so every later one is impossible too), else the last
    column = np.add.reduce(np.logical_and.accumulate(undecided[:, :-1], axis=1), axis=1)
    stopped, explained = ~undecided[rows, column], possible[rows, column]
    best = cells[rows, leader[rows, column] * explained].tolist()
    return [(w, (KIND_FORCED_MAP, KIND_THRESHOLD)[t], c, not e) for w, t, c, e in
            zip(best, (stopped & explained).tolist(), column.tolist(), explained.tolist())]


def _result(relay, n_candidates, decision, xy, e_angle, e_capacity) -> LocalizationResult:
    """The result of a decision (cell, kind, stopped_at, degenerate) at xy, its
    cell's center, with its residuals."""
    w, kind, stopped, degenerate = decision
    return LocalizationResult(relay, w, Point(*xy), n_candidates, kind, e_angle, e_capacity,
                              stopped, degenerate)


def localize_all(
    ms: MeasurementSet,
    net: MeasurementNetwork,
    grid: CellGrid,
    params: ChannelParams,
    cfg: TomographyConfig,
    msprt_cfg: MsprtConfig | None = None,
) -> list[LocalizationResult]:
    """Run the full pipeline for every relay, in relay order.

    The rows of ms are first put in `net.ordered_pairs()` order, so results
    do not depend on the order of the records; a pair set that differs
    from the network's raises MeasurementError, and both modes read the
    set cut to the test's window (`first_observations`).  Each stage then
    runs once for the whole set: one `_candidates` call gives argmin mode
    each relay's span of the center cells, those of `feasible_cells`, and
    msprt mode its span of the joint-bin groups (relays left with none are
    unlocalized).  Decided in blocks of at most LANE_BUDGET elements, each
    block's padded (relay x candidate) table of cells, and msprt's priors,
    is one index gather from those spans, padded lanes repeating the relay's
    last candidate; it goes to one `_argmin_decisions` pass, or to one
    `_capacity_evidence` call, one `_sequential_tests` pass and one call for
    the picks' capacity residuals.  A `cfg.cell_side` other than the grid's
    raises LocalizationError.
    """
    if cfg.cell_side != grid.cell_side:
        raise LocalizationError(f"the solver's cell side {cfg.cell_side} m differs from the "
                                f"grid's {grid.cell_side} m")
    mcfg = msprt_cfg or MsprtConfig(max_observations=ms.n_observations)
    ms = ms.in_pair_order(net.row_pairs).first_observations(
        mcfg.max_observations, params.outage_prob)
    fp, table = _tables(net, grid, params)
    spans, candidates = _candidates(ms, np.arange(ms.n_relays), net, fp, cfg.mode)
    argmin = cfg.mode == "argmin"
    relays = spans[:, 1].nonzero()[0]
    (start, count), cap_est = spans.take(relays, axis=0).T, ms.cap_est[:, relays]
    sizes = count.tolist()
    decisions, e_capacity = [], []
    width = len(net.row_of) if argmin else len(net.pair_rows) * ms.n_observations
    step = max(1, LANE_BUDGET // max(1, max(sizes, default=0) * width))
    for lo in range(0, len(sizes), step):
        block, part = relays[lo:lo + step], slice(lo, lo + step)
        lanes, last = np.arange(max(sizes[part])), count[part, None] - 1
        index = start[part, None] + np.minimum(lanes, last)
        cells, valid = candidates[index], lanes <= last
        if argmin:
            picks, errs = _argmin_decisions(net, table.capacity, cells, valid, cap_est[:, part])
        else:
            raw = np.ascontiguousarray(ms.raw[net.pair_rows[:, None], block].transpose(1, 0, 2))
            evidence = _capacity_evidence(fp, table, cells, raw, params)
            picks = _sequential_tests(cells, valid, fp.group_priors[index], evidence,
                                      mcfg.threshold)
            errs = _capacity_residuals(net, table.capacity, [d[0] for d in picks],
                                       cap_est[:, part].T).tolist()
        decisions += picks
        e_capacity += errs
    cells = [d[0] for d in decisions]
    e_angle = _l2_norms(ms.aoa[:, relays].T - fp.angle.take(cells, axis=0)).tolist()
    xy = fp.xy.take(cells, axis=0).tolist()
    located = dict(zip(relays.tolist(), zip(sizes, decisions, xy, e_angle, e_capacity)))
    return [_result(l, *located[l]) if l in located else
            LocalizationResult(l, None, None, 0, KIND_UNLOCALIZED, math.nan, math.nan, 0)
            for l in range(ms.n_relays)]


# ---------------------------------------------------------------------------
# report serialization and scoring

REPORT_HEADER = "# relaytomo localization-report v1"


def write_report(results: list[LocalizationResult], path) -> None:
    """Line format: relay x y kind n_candidates e_capacity stopped_at."""
    lines = []
    for r in results:
        x = repr(r.position.x) if r.position is not None else "nan"
        y = repr(r.position.y) if r.position is not None else "nan"
        e_cap = repr(float(r.e_capacity)) if math.isfinite(r.e_capacity) else "nan"
        lines.append(f"{r.relay} {x} {y} {r.kind} {r.n_candidates} {e_cap} {r.stopped_at}")
    write_records(path, REPORT_HEADER, "relay x y kind n_candidates e_capacity stopped_at", lines)


def score_results(results: list[LocalizationResult], truth: list[Point], cell_side: float) -> dict:
    """Fraction of relays localized within one cell side of their true spot."""
    errors = [dist(r.position, truth[r.relay]) for r in results if r.position is not None]
    hits = sum(err <= cell_side for err in errors)
    n = len(truth)
    return {
        "relays": n,
        "localized": len(errors),
        "within_one_cell": hits,
        "fraction_within_one_cell": hits / n if n else 0.0,
        "mean_error_m": float(np.mean(errors)) if errors else math.nan,
    }
