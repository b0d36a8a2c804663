import math

import numpy as np
import pytest

from cfris import rate_bps, ris_gain_db, sinr_all


def _random_system(rng, m, k):
    g = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
    eta = rng.uniform(0.1, 2.0, size=(m, k))
    return g, eta


class TestSinrAll:
    def test_single_user_no_interference(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        eta = rng.uniform(0.5, 1.5, size=(4, 1))
        noise = 0.3
        got = sinr_all(g, np.conj(g), eta, noise)
        expected = np.abs(np.sum(np.sqrt(eta[:, 0]) * np.abs(g[:, 0]) ** 2)
                          ) ** 2 / noise
        assert got[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_power_zero_sinr(self):
        rng = np.random.default_rng(1)
        g, _ = _random_system(rng, 3, 4)
        got = sinr_all(g, np.conj(g), np.zeros((3, 4)), 1e-9)
        assert np.all(got == 0.0)

    def test_cb_numerator_is_real_power_sum(self):
        rng = np.random.default_rng(2)
        g, eta = _random_system(rng, 6, 3)
        w = np.conj(g)
        # numerator imaginary part vanishes under CB
        for k in range(3):
            num = np.sum(np.sqrt(eta[:, k]) * g[:, k] * w[:, k])
            assert abs(num.imag) <= 1e-10 * abs(num.real)
        got = sinr_all(g, w, eta, 1.0)
        for k in range(3):
            num = np.sum(np.sqrt(eta[:, k]) * np.abs(g[:, k]) ** 2) ** 2
            interf = sum(
                np.abs(np.sum(np.sqrt(eta[:, j]) * g[:, k] * w[:, j])) ** 2
                for j in range(3) if j != k)
            assert got[k] == pytest.approx(num / (interf + 1.0), rel=1e-12)

    def test_joint_phase_invariance(self):
        rng = np.random.default_rng(3)
        g, eta = _random_system(rng, 5, 3)
        w = np.conj(g)
        base = sinr_all(g, w, eta, 0.5)
        phase = np.exp(1j * 0.9)
        g2, w2 = g.copy(), w.copy()
        g2[:, 1] *= phase
        w2[:, 1] *= np.conj(phase)  # CB of the rotated channel
        rotated = sinr_all(g2, w2, eta, 0.5)
        assert np.allclose(base, rotated, rtol=1e-12)

    def test_own_power_monotonicity(self):
        rng = np.random.default_rng(4)
        g, eta = _random_system(rng, 5, 3)
        w = np.conj(g)
        lo = sinr_all(g, w, eta, 0.7)
        eta_hi = eta.copy()
        eta_hi[:, 0] *= 3.0
        hi = sinr_all(g, w, eta_hi, 0.7)
        assert hi[0] > lo[0]


class TestRateBps:
    def test_unit_sinr(self):
        assert rate_bps(1.0, 20e6) == pytest.approx(20e6)

    def test_zero_sinr(self):
        assert rate_bps(0.0, 20e6) == 0.0

    def test_log2_of_four(self):
        assert rate_bps(3.0, 20e6) == pytest.approx(40e6)

    def test_vectorized(self):
        got = rate_bps([0.0, 1.0, 3.0], 10.0)
        assert np.allclose(got, [0.0, 10.0, 20.0])


class TestRisGainDb:
    def test_equal_inputs(self):
        assert ris_gain_db(2.5, 2.5) == pytest.approx(0.0)

    def test_factor_ten(self):
        assert ris_gain_db(1.0, 0.1) == pytest.approx(10.0)

    def test_zero_reference_is_missing(self):
        assert math.isnan(ris_gain_db(1.0, 0.0))
