"""Property test over the SimConfig domain.

Every configuration is either rejected (ConfigError for a value out of
range, SimulationError for a drawn geometry too degenerate to allocate
power) or runs to finite, non-negative rates and SINRs.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cfris import ConfigError, SimConfig, SimulationError
from cfris.experiments import run_sweep

# The accepted domain, with the boundaries SimConfig rejects (h_ap = 0,
# p_d_w = 0) and positions outside the area (ris_x) mixed in.
CONFIGS = st.fixed_dictionaries({
    "m_ap": st.integers(1, 6),
    "n_gue": st.integers(1, 4),
    "n_ris": st.integers(0, 8),
    "area_side": st.floats(0.0, 1e4, exclude_min=True),
    "h_ap": st.floats(0.0, 100.0),
    "h_ris": st.floats(0.0, 100.0),
    "h_gue": st.floats(0.0, 100.0),
    "h_uav": st.floats(0.0, 1000.0),
    "ris_x": st.none() | st.floats(-100.0, 1e4),
    "carrier_freq_hz": st.floats(1e6, 1e11),
    "bandwidth_hz": st.floats(1.0, 1e9),
    "noise_power_dbm": st.floats(-200.0, 50.0),
    "p_d_w": st.floats(0.0, 100.0),
    "kappa": st.floats(0.0, 1.0),
    "tilt_deg": st.floats(-90.0, 90.0),
    "rho_db": st.floats(-100.0, 0.0),
    "alpha": st.floats(0.1, 6.0),
    "master_seed": st.integers(0, 2**64 - 1),
})


@settings(max_examples=200, derandomize=True, deadline=None)
@given(CONFIGS)
def test_config_is_rejected_or_runs_to_finite_rates(kw):
    try:
        cfg = SimConfig(trials=3, **kw)
    except ConfigError:
        return
    try:
        (res,) = run_sweep([cfg])
    except SimulationError:
        return
    assert np.all(np.isfinite(res.rates_bps)) and np.all(res.rates_bps >= 0)
    assert np.all(np.isfinite(res.sinr)) and np.all(res.sinr >= 0)
