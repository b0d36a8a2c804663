"""Conjugate beamforming, RIS phase alignment and power allocation.

Every AP precodes with the conjugate of its aggregate channel.  The RIS
phases are chosen to make the reflected UAV paths add constructively with
the direct ones.  Transmit power obeys a per-AP budget p_d, split with a
fraction kappa to the UAV and the rest shared among GUEs proportionally to
the analytic precoder second moments gamma.

Every function takes one realization or a stack of them: leading axes
(...) of its arrays are batch axes, and each entry of a stacked result is
bit-identical to the result of its own realization.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import LargeScaleParams, combine_paths
from .geometry import ConfigError, SimulationError


@dataclass(frozen=True)
class RisConfig:
    """Unit-modulus reflection coefficients v_n = exp(j theta_n), (..., N)."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        object.__setattr__(self, "v", v)
        # the set np.allclose(|v|, 1, atol=1e-9) accepts, without its
        # overhead; NaN and inf fail the comparison
        if not np.all(np.abs(np.abs(v) - 1.0) <= 1e-9 + 1e-5):
            raise ConfigError("v: RIS coefficients must be unit modulus")

    @classmethod
    def none(cls) -> "RisConfig":
        return cls(v=np.zeros(0, dtype=complex))


class PowerAllocation(NamedTuple):
    """Per-AP, per-user transmit powers and power-control coefficients."""

    p_dl: np.ndarray   # (..., M, K) watts
    eta: np.ndarray    # (..., M, K) p_dl / gamma


def ris_align_uav(H_ris: np.ndarray, h_ris_uav: np.ndarray,
                  h_uav: np.ndarray) -> RisConfig:
    """Phase the RIS toward the UAV.

    With R = H_ris diag(h_ris_uav), element n gets
    v_n = exp(-j angle([R^T conj(h_uav)]_n)) so reflected paths add
    constructively with the direct AP-UAV paths.  A zero coefficient leaves
    the phase at 0 (it cannot affect the product).  Shapes: H_ris
    (..., M, N), h_ris_uav (..., N), h_uav (..., M).
    """
    if H_ris.shape[-1] == 0:
        return RisConfig.none()
    r = H_ris * h_ris_uav[..., None, :]
    t = (np.swapaxes(r, -1, -2) @ np.conj(h_uav)[..., None])[..., 0]
    mag = np.abs(t)
    v = np.ones_like(t)
    nz = mag > 0.0
    v[nz] = np.conj(t[nz]) / mag[nz]
    return RisConfig(v=v)


def gamma_analytic(ls: LargeScaleParams, ris: RisConfig) -> np.ndarray:
    """Closed-form second moment gamma[m,k] = E|g_{m,k}|^2 of the precoder.

    gamma = |mu|^2 + sigma^2: mu is the aggregate channel of the link means
    beta * los, and sigma^2 adds the direct scatter power (beta * nlos)^2
    and the RIS->user scatter power (beta_ru * nlos_ru)^2 collected over
    the AP->RIS row, which unit-modulus coefficients reduce to
    sum_n |H_ris[m,n]|^2.  The RIS->UAV leg has no scatter power.
    """
    v = np.asarray(ris.v, dtype=complex)
    mu = combine_paths(ls.beta_direct * ls.los_direct, ls.H_ris, v,
                       ls.beta_ris_user[..., None, :] * ls.los_ris_user)
    ris_var = (ls.beta_ris_user * ls.nlos_ris_user) ** 2
    h_sq = np.sum(np.abs(ls.H_ris) ** 2, axis=-1)
    return np.abs(mu) ** 2 + (ls.beta_direct * ls.nlos_direct) ** 2 \
        + ris_var[..., None, :] * h_sq[..., :, None]


def ppa_allocate(gamma: np.ndarray, kappa: float, p_d: float
                 ) -> PowerAllocation:
    """Proportional power allocation under the per-AP budget.

    The UAV column receives kappa * p_d from every AP; each GUE receives a
    share of (1 - kappa) * p_d proportional to its gamma.  Per-AP totals
    equal p_d exactly.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ConfigError("kappa: must be in [0, 1]")
    gamma = np.asarray(gamma, dtype=float)
    gue_sum = gamma[..., 1:].sum(axis=-1)
    if np.any(gue_sum <= 0.0):
        raise SimulationError("degenerate geometry: zero GUE channel "
                              "strength at some AP")
    p_dl = np.empty_like(gamma)
    p_dl[..., 0] = kappa * p_d
    p_dl[..., 1:] = (1.0 - kappa) * p_d * gamma[..., 1:] \
        / gue_sum[..., None]
    with np.errstate(invalid="ignore"):
        eta = np.where(p_dl > 0.0, p_dl / gamma, 0.0)
    return PowerAllocation(p_dl=p_dl, eta=eta)
