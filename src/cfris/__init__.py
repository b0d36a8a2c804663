"""Monte-Carlo downlink simulator for RIS-assisted cell-free MIMO.

A network of distributed single-antenna APs jointly serves several ground
users and one UAV with conjugate beamforming; an optional reconfigurable
intelligent surface is phased toward the UAV.  The package reproduces the
power-split trade-off, rate-CDF and RIS-gain studies of that setting.
"""

__version__ = "0.1.0"

from .beamforming import (PowerAllocation, RisConfig, gamma_analytic,
                          ppa_allocate, ris_align_uav)
from .channel import (ChannelSet, LargeScaleParams, aggregate_channel,
                      antenna_gain_db, array_response, draw_channels,
                      large_scale, pathloss_gue_db, pathloss_simple_linear,
                      rician_k_linear)
from .experiments import (ExperimentSpec, likely_rate_95, rate_cdf,
                          rate_region, ris_gain_sweep, run_sweep)
from .geometry import (ConfigError, NetworkLayout, SimConfig,
                       SimulationError, place_nodes)
from .link import rate_bps, ris_gain_db, sinr_all

__all__ = [
    "ChannelSet", "ConfigError", "ExperimentSpec", "LargeScaleParams",
    "NetworkLayout", "PowerAllocation", "RisConfig",
    "SimConfig", "SimulationError", "aggregate_channel", "antenna_gain_db",
    "array_response", "draw_channels", "gamma_analytic",
    "large_scale", "likely_rate_95", "pathloss_gue_db",
    "pathloss_simple_linear", "place_nodes", "ppa_allocate", "rate_bps",
    "rate_cdf", "rate_region", "rician_k_linear", "ris_align_uav",
    "ris_gain_db", "ris_gain_sweep", "run_sweep", "sinr_all",
]
