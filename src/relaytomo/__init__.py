"""Angular capacity spectra and relay localization for two-hop
decentralized wireless relay networks.

The library models how information flow capacity distributes over
departure/arrival angle pairs for randomly placed decode-and-forward
relays, and solves the inverse problem: recovering relay positions from
angle/capacity measurements taken by nodes outside the relay region.

Importing the package loads none of its modules: each export below is
looked up in its module on first access (PEP 562), so a command loads only
the modules it runs.
"""

__version__ = "0.1.0"

from importlib import import_module

# each export's module
_EXPORTS = {name: module for module, names in (
    ("channel", "ChannelParams HopPair outage_capacity sample_instant_capacity"),
    ("config", "MsprtConfig TomographyConfig"),
    ("geometry", "AnglePair AngularGrid Baseline CellGrid Point RelayRegion angles_from_point "
                 "angles_from_points angular_span build_grid discretize_region "
                 "dist_relay_destination dist_source_relay point_from_angles sample_relays"),
    ("ias", "DiscreteIas FlowAtom continuous_ias discrete_ias joint_angle_pdf"),
    ("measurement", "MeasurementNetwork MeasurementSet estimate_outage_capacity "
                    "simulate_measurements"),
    ("numerics", "QuadratureSpec RngStream"),
    ("tomography", "LocalizationResult localize_all"),
) for name in names.split()}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name):
    # read from the module on every access, not cached here, so a wrapper
    # bound over a module attribute is seen through the package too
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
