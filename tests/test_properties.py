"""Property tests over the SimConfig domain and over random sweeps.

Every configuration is either rejected (ConfigError for a value out of
range, SimulationError for a drawn geometry too degenerate to allocate
power) or runs to finite, non-negative rates and SINRs.  Every point of a
random sweep, in batches of any size and RIS blocks of any width, matches
the loop-level reference and gives exactly its results alone.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfris import (ConfigError, SimConfig, SimulationError, experiments,
                   rate_bps)
from cfris.experiments import _trial_bytes, run_sweep
from reference_pipeline import reference_trial

# A value SimConfig rejects for each of six fields: the boundaries
# h_ap = 0 and p_d_w = 0, a RIS outside the area, a noise power beyond
# the float range, a bandwidth that makes a rate overflow and a tilt that
# is no elevation.
REJECTED = {"h_ap": 0.0, "p_d_w": 0.0, "ris_x": -100.0,
            "noise_power_dbm": 3113.0, "bandwidth_hz": 1e308,
            "tilt_deg": 1e200}


@st.composite
def configs(draw):
    """SimConfig keywords over the accepted domain; some draws set one
    field to its value in REJECTED.

    Heights and the carrier stay where the COST-231 Hata AP->GUE gain is
    below 0 dB, which SimConfig requires, so most draws run the pipeline.
    """
    kw = draw(st.fixed_dictionaries({
        "m_ap": st.integers(1, 6),
        "n_gue": st.integers(1, 4),
        "n_ris": st.integers(0, 8),
        "area_side": st.floats(0.0, 1e4, exclude_min=True),
        "h_ap": st.floats(0.0, 100.0, exclude_min=True),
        "h_ris": st.floats(0.0, 100.0),
        "h_gue": st.floats(0.0, 20.0),
        "h_uav": st.floats(0.0, 1000.0),
        "carrier_freq_hz": st.floats(1.5e8, 6e9),
        "bandwidth_hz": st.floats(0.0, np.finfo(float).max / 1024,
                                  exclude_min=True),
        "noise_power_dbm": st.floats(-3046.0, 3112.0),
        "p_d_w": st.floats(0.0, 100.0, exclude_min=True),
        "kappa": st.floats(0.0, 1.0),
        "tilt_deg": st.floats(-90.0, 90.0),
        "rho_db": st.floats(-100.0, 0.0),
        "alpha": st.floats(0.1, 6.0),
        "master_seed": st.integers(0, 2**64 - 1),
    }))
    # the RIS at its default, the middle of its edge, or anywhere on it
    kw["ris_x"] = draw(st.none() | st.floats(0.0, kw["area_side"]))
    field = draw(st.sampled_from(list(REJECTED)))
    if draw(st.integers(0, 6)) == 0:
        kw[field] = REJECTED[field]
    return kw


@settings(max_examples=200, derandomize=True, deadline=None)
@given(configs())
def test_config_is_rejected_or_runs_to_finite_rates(kw):
    try:
        cfg = SimConfig(trials=3, **kw)
    except ConfigError:
        return
    try:
        (res,) = run_sweep([cfg])
    except SimulationError:
        return
    rates = rate_bps(res, cfg.bandwidth_hz)
    assert np.all(np.isfinite(rates)) and np.all(rates >= 0)
    assert np.all(np.isfinite(res)) and np.all(res >= 0)


@st.composite
def sweeps(draw):
    """A small configuration, a sweep over it, a batch budget and a RIS
    block width (None: the default, wider than every drawn RIS).

    The points are every (RIS size, kappa) pair at 1-2 UAV heights per
    tilt, from a pool of heights that holds 0 and h_ris, so tilts share
    heights; they come in any order, the first one twice.  A block of 1-3
    elements makes the RIS sizes span whole blocks as well as partial
    ones.
    """
    cfg = SimConfig(
        m_ap=draw(st.integers(1, 6)), n_gue=draw(st.integers(1, 4)),
        n_ris=draw(st.integers(0, 8)),
        # one draw in a few is degenerate: a 1e100 m area leaves every GUE
        # channel at 0
        area_side=(draw(st.sampled_from([1e100, None, None, None]))
                   or draw(st.floats(1.0, 1e4))),
        h_ris=draw(st.floats(0.0, 100.0)), trials=draw(st.integers(3, 5)),
        master_seed=draw(st.integers(0, 2**64 - 1)))
    heights = st.sampled_from([0.0, cfg.h_ris, draw(st.floats(0.0, 500.0))])
    evals = draw(st.lists(st.tuples(st.sampled_from(range(cfg.n_ris + 1)),
                                    st.floats(0.0, 1.0)),
                          min_size=1, max_size=2))
    points = draw(st.permutations([
        cfg.with_overrides(n_ris=n, kappa=k, h_uav=h, tilt_deg=tilt)
        for tilt in draw(st.lists(st.floats(-90.0, 90.0), min_size=1,
                                  max_size=3))
        for h in draw(st.lists(heights, min_size=1, max_size=2))
        for n, k in evals]))
    return (points + points[:1], draw(st.integers(1, 3)),
            draw(st.none() | st.integers(1, 3)))


def _sweep_or_none(points):
    try:
        return run_sweep(points)
    except SimulationError:
        return None


@settings(max_examples=100, derandomize=True, deadline=None)
@given(sweeps())
def test_sweep_matches_oracle_and_each_point_alone(sweep):
    points, budget, block = sweep
    # a batch budget of 1-3 trials of the sweep
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "BATCH_BYTES", budget * _trial_bytes(points))
        if block is not None:
            mp.setattr(experiments, "RIS_BLOCK", block)
        got = _sweep_or_none(points)
        alone = [_sweep_or_none([p]) for p in points]
    # a degenerate draw fails the sweep and the point alone alike
    assert (got is None) == any(a is None for a in alone)
    if got is None:
        return
    assert got.shape == (len(points), points[0].trials, points[0].n_users)
    for p, res, (single,) in zip(points, got, alone, strict=True):
        assert np.array_equal(res, single)
        oracle = [reference_trial(p, t)[1] for t in range(p.trials)]
        np.testing.assert_allclose(res, oracle, rtol=1e-12, atol=0)
