"""Per-realization SINR, achievable rate and the RIS gain metric.

Leading axes (...) of the arrays are batch axes, one per realization.
"""
from __future__ import annotations

import numpy as np


def sinr_all(G: np.ndarray, W: np.ndarray, eta: np.ndarray,
             noise_power_w: float) -> np.ndarray:
    """Per-user SINR of the linearly precoded downlink, (..., K).

    User k's numerator is |sum_m sqrt(eta[m,k]) G[m,k] W[m,k]|^2; every
    other user's beam contributes |sum_m sqrt(eta[m,k']) G[m,k] W[m,k']|^2
    of interference on top of the noise power.  G, W and eta are
    (..., M, K).
    """
    # A[k,k'] = sum_m sqrt(eta[m,k']) G[m,k] W[m,k']
    a = np.swapaxes(G, -1, -2) @ (np.sqrt(eta) * W)
    diag = np.abs(np.diagonal(a, axis1=-2, axis2=-1)) ** 2
    den = np.sum(np.abs(a) ** 2, axis=-1) - diag + noise_power_w
    return diag / den


def rate_bps(sinr, bandwidth_hz: float):
    """Shannon rate B * log2(1 + sinr) in bits/second."""
    return bandwidth_hz * np.log2(1.0 + np.asarray(sinr, dtype=float))


def ris_gain_db(sinr_with, sinr_without):
    """UAV SINR ratio with/without the RIS in dB; NaN where undefined.

    Element-wise over arrays; scalars give a scalar.
    """
    sinr_with = np.asarray(sinr_with, dtype=float)
    sinr_without = np.asarray(sinr_without, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 10.0 * np.log10(sinr_with / sinr_without)
    return np.where(sinr_without > 0.0, gain, np.nan)[()]
