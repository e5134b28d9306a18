"""Angular capacity spectra and relay localization for two-hop
decentralized wireless relay networks.

The library models how information flow capacity distributes over
departure/arrival angle pairs for randomly placed decode-and-forward
relays, and solves the inverse problem: recovering relay positions from
angle/capacity measurements taken by nodes outside the relay region.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelParams,
    HopPair,
    outage_capacity,
    outage_cdf,
    sample_instant_capacity,
)
from .geometry import (
    AnglePair,
    Baseline,
    CellGrid,
    Point,
    RelayRegion,
    angles_from_point,
    angles_from_points,
    angular_span,
    discretize_region,
    dist_relay_destination,
    dist_source_relay,
    point_from_angles,
    sample_relays,
)
from .ias import (
    AngularGrid,
    DiscreteIas,
    FlowAtom,
    build_grid,
    continuous_ias,
    discrete_ias,
    joint_angle_pdf,
)
from .measurement import (
    MeasurementNetwork,
    MeasurementSet,
    estimate_outage_capacity,
    quantize_angle,
    simulate_measurements,
)
from .numerics import (
    QuadratureSpec,
    RngStream,
    regularized_lower_gamma,
)
from .tomography import (
    LocalizationResult,
    MsprtConfig,
    TomographyConfig,
    feasible_cells,
    localize_all,
    localize_argmin,
    msprt_localize,
)

__all__ = [
    "__version__",
    "AnglePair", "AngularGrid", "Baseline", "CellGrid", "ChannelParams",
    "DiscreteIas", "FlowAtom", "HopPair", "LocalizationResult",
    "MeasurementNetwork", "MeasurementSet", "MsprtConfig", "Point",
    "QuadratureSpec", "RelayRegion", "RngStream", "TomographyConfig",
    "angles_from_point", "angles_from_points", "angular_span", "build_grid",
    "continuous_ias", "discrete_ias", "discretize_region",
    "dist_relay_destination", "dist_source_relay", "estimate_outage_capacity",
    "feasible_cells", "joint_angle_pdf", "localize_all",
    "localize_argmin", "msprt_localize", "outage_capacity", "outage_cdf",
    "point_from_angles", "quantize_angle", "regularized_lower_gamma",
    "sample_instant_capacity", "sample_relays",
    "simulate_measurements",
]
