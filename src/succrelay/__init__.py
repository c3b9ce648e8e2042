"""Rate and outage simulator for two-relay half-duplex successive relaying."""

from .channel import (
    CASE_III_RELAY_SPACING,
    LINK_NAMES,
    ChannelBatch,
    NetworkGeometry,
    preset_geometry,
    sample_realizations,
    trial_rng,
)
from .experiments import (
    PROTOCOLS,
    ConfigError,
    ExperimentConfig,
    run_dmt,
    run_experiment,
    run_gain_curve,
    run_geometry_sweep,
    run_single_realization,
)
from .mimolinalg import (
    DetectionOrder,
    InvariantError,
    logdet_capacity_batch,
    mmse_sic_sinrs_batch,
)
from .outage import DmtPoint, dmt_formula, estimate_dmt, outage_prob_conditioned
from .protocols import (
    ADAPTIVE_RULES,
    adaptive_keep_batch,
    capacity_gain_G,
    interference_free_batch,
    rate_classic_batch,
    rate_direct_batch,
    successive_genie_batch,
    successive_vblast_batch,
    theorem1_rate_batch,
)

__all__ = [
    "ADAPTIVE_RULES",
    "CASE_III_RELAY_SPACING",
    "LINK_NAMES",
    "PROTOCOLS",
    "ChannelBatch",
    "ConfigError",
    "DetectionOrder",
    "DmtPoint",
    "ExperimentConfig",
    "InvariantError",
    "NetworkGeometry",
    "adaptive_keep_batch",
    "capacity_gain_G",
    "dmt_formula",
    "estimate_dmt",
    "interference_free_batch",
    "logdet_capacity_batch",
    "mmse_sic_sinrs_batch",
    "outage_prob_conditioned",
    "preset_geometry",
    "rate_classic_batch",
    "rate_direct_batch",
    "run_dmt",
    "run_experiment",
    "run_gain_curve",
    "run_geometry_sweep",
    "run_single_realization",
    "sample_realizations",
    "successive_genie_batch",
    "successive_vblast_batch",
    "theorem1_rate_batch",
    "trial_rng",
]

__version__ = "0.1.0"
