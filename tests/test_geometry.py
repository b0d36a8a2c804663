import pickle

import numpy as np
import pytest

from cfris import ConfigError, SimConfig, place_nodes


def rng_for(seed):
    return np.random.default_rng(seed)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.m_ap == 20 and cfg.n_gue == 4
        assert cfg.area_side == 40.0
        assert (cfg.h_ap, cfg.h_ris, cfg.h_gue, cfg.h_uav) == (15.0, 12.0,
                                                               1.65, 100.0)
        assert cfg.carrier_freq_hz == 1.9e9
        assert cfg.bandwidth_hz == 20e6
        assert cfg.noise_power_dbm == -62.0
        assert cfg.p_d_w == 1.0
        assert cfg.rho_db == -30.0 and cfg.alpha == 2.4
        assert cfg.tilt_deg == 15.0
        assert cfg.ris_x == 20.0  # defaults to D/2

    def test_noise_power_watts(self):
        assert SimConfig().noise_power_w == pytest.approx(10 ** (-9.2))

    @pytest.mark.parametrize("kw", [
        {"kappa": 1.5}, {"kappa": -0.1}, {"m_ap": 0}, {"n_gue": 0},
        {"n_ris": -1}, {"p_d_w": 0.0}, {"area_side": -5.0},
        {"trials": 0}, {"h_ap": 0.0}, {"rho_db": float("nan")},
        {"tilt_deg": float("inf")}, {"area_side": float("inf")},
        {"ris_x": 40.5},
        # an int field takes an integral non-bool number, a float field a
        # real non-bool, non-string number; these used to be accepted or
        # end in a TypeError
        {"n_ris": 8.5}, {"m_ap": 2.5}, {"n_gue": True}, {"trials": 20.5},
        {"kappa": "0.1"}, {"kappa": True}, {"m_ap": np.bool_(True)},
        {"h_uav": np.float32("inf")},
        # an int beyond the float range in a float field used to end in
        # an OverflowError, and one of 2**63 or more in an int field was
        # accepted (trials then failed in the chunk plan)
        {"area_side": 10**400}, {"trials": 10**400}, {"m_ap": 10**400},
        {"n_ris": 2**63},
        # a length above 1e150 used to overflow d_h**2 + dz**2 to inf and
        # print a numpy warning before the run failed
        {"area_side": 1.01e150}, {"h_ap": 1e200}, {"h_ris": 1e151},
        {"h_gue": 1e151}, {"h_uav": 1e200}, {"area_side": 10**300},
    ])
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(ConfigError):
            SimConfig(**kw)

    def test_accepts_the_64_bit_bounds(self):
        # master_seed keeps its own range, up to 2**64 - 1
        assert SimConfig(master_seed=2**64 - 1).master_seed == 2**64 - 1
        assert SimConfig(n_ris=2**63 - 1).n_ris == 2**63 - 1
        assert SimConfig(bandwidth_hz=10**300).bandwidth_hz == 10**300
        # every length may reach 1e150 (h_ap and h_gue as far as the
        # Hata gain stays <= 0 dB)
        lengths = dict.fromkeys(("area_side", "h_ris", "h_uav", "ris_x"),
                                1e150)
        assert SimConfig(**lengths).ris_x == 1e150

    def test_accepts_numpy_numbers(self):
        cfg = SimConfig(m_ap=np.int64(4), n_ris=np.int32(3),
                        kappa=np.float32(0.25), area_side=40)
        assert (cfg.m_ap, cfg.n_ris, cfg.kappa) == (4, 3, 0.25)
        assert cfg.ris_x == 20.0


    def test_derived_ris_x_follows_area_side(self):
        cfg = SimConfig()
        assert cfg.with_overrides(area_side=10.0).ris_x == 5.0
        assert cfg.with_overrides(area_side=100.0).ris_x == 50.0
        # so does a pickled one, as pool workers receive it
        assert pickle.loads(pickle.dumps(cfg)).with_overrides(
            area_side=100.0).ris_x == 50.0

    def test_given_ris_x_is_kept(self):
        cfg = SimConfig(ris_x=5.0)
        assert cfg.with_overrides(area_side=100.0).ris_x == 5.0
        assert cfg.with_overrides(ris_x=None).ris_x == 20.0
        with pytest.raises(ConfigError, match="ris_x"):
            SimConfig(ris_x=30.0).with_overrides(area_side=10.0)


class TestPlaceNodes:
    def test_support_of_uniform_law(self):
        cfg = SimConfig()
        layout = place_nodes(cfg, rng_for(0))
        for xy in (layout.ap_pos[:, :2], layout.gue_pos[:, :2],
                   layout.uav_pos[None, :2]):
            assert np.all(xy >= 0.0) and np.all(xy <= cfg.area_side)

    def test_heights_fixed_and_ris_position(self):
        cfg = SimConfig()
        layout = place_nodes(cfg, rng_for(1))
        assert np.all(layout.ap_pos[:, 2] == cfg.h_ap)
        assert np.all(layout.gue_pos[:, 2] == cfg.h_gue)
        assert layout.uav_pos[2] == cfg.h_uav
        assert np.array_equal(layout.ris_pos,
                              [cfg.area_side / 2, 0.0, cfg.h_ris])

    def test_deterministic_given_seed(self):
        cfg = SimConfig()
        a = place_nodes(cfg, rng_for(42))
        b = place_nodes(cfg, rng_for(42))
        assert np.array_equal(a.ap_pos, b.ap_pos)
        assert np.array_equal(a.gue_pos, b.gue_pos)
        assert np.array_equal(a.uav_pos, b.uav_pos)

    def test_ap_x_sample_mean(self):
        # mean of U(0, 40) is 20; 1e4 draws must sit well inside +-1.2
        cfg = SimConfig(m_ap=1)
        rng = rng_for(123)
        xs = [place_nodes(cfg, rng).ap_pos[0, 0] for _ in range(10_000)]
        assert abs(np.mean(xs) - 20.0) < 1.2
