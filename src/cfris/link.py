"""Per-realization SINR, achievable rate and the RIS gain metric."""
from __future__ import annotations

import numpy as np

from . import _kernels


def sinr_all(G: np.ndarray, W: np.ndarray, eta: np.ndarray,
             noise_power_w: float) -> np.ndarray:
    """Per-user SINR of the linearly precoded downlink.

    User k's numerator is |sum_m sqrt(eta[m,k]) G[m,k] W[m,k]|^2; every
    other user's beam contributes |sum_m sqrt(eta[m,k']) G[m,k] W[m,k']|^2
    of interference on top of the noise power.
    """
    return _kernels.sinr_users(G, W, eta, noise_power_w)


def rate_bps(sinr, bandwidth_hz: float):
    """Shannon rate B * log2(1 + sinr) in bits/second."""
    return bandwidth_hz * np.log2(1.0 + np.asarray(sinr, dtype=float))


def ris_gain_db(sinr_with: float, sinr_without: float) -> float:
    """UAV SINR ratio with/without the RIS in dB; NaN if undefined."""
    if sinr_without <= 0.0:
        return float("nan")
    return 10.0 * np.log10(sinr_with / sinr_without)
