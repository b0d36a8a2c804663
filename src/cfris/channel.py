"""Large-scale and small-scale channel models.

Three link families are modeled:

* AP -> GUE: three-slope COST-231 Hata attenuation combined with the
  elevation antenna pattern, Rician fading with a distance-dependent factor.
* AP -> UAV and all RIS legs: reference pathloss rho at 1 m with exponent
  alpha (gain rho * d^-alpha), the AP legs additionally weighted by the
  antenna pattern.
* AP -> RIS and RIS -> UAV: pure line-of-sight (no scatter part);
  RIS -> GUE is Rician.

The RIS is an N-element uniform linear array along the x axis with
half-wavelength spacing; line-of-sight phases use exp(-j 2 pi d / lambda)
with d the center-to-center distance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .geometry import ConfigError, NetworkLayout, SimConfig

THETA_3DB_DEG = 10.0   # half-power beamwidth of the elevation pattern
SIDELOBE_FLOOR_DB = 20.0
HATA_D0_M = 10.0       # inner breakpoint of the three-slope model
HATA_D1_M = 50.0       # outer breakpoint


def antenna_gain_db(theta_deg, tilt_deg):
    """Elevation gain pattern A(theta) = -min(12 ((theta - tilt)/10)^2, 20).

    Single-lobe quadratic pattern with a 20 dB side-lobe floor; theta and the
    tilt follow the positive-down convention, so boresight (0 dB) sits at
    theta = tilt_deg.  Accepts scalars or arrays.
    """
    theta_deg = np.asarray(theta_deg, dtype=float)
    off = (theta_deg - tilt_deg) / THETA_3DB_DEG
    return -np.minimum(12.0 * off * off, SIDELOBE_FLOOR_DB)


def _hata_constant_db(cfg: SimConfig) -> float:
    # COST-231 Hata urban constant; frequency in MHz, heights in meters,
    # distances in km in the slope terms.
    f_mhz = cfg.carrier_freq_hz / 1e6
    a_h = (1.1 * math.log10(f_mhz) - 0.7) * cfg.h_gue \
        - (1.56 * math.log10(f_mhz) - 0.8)
    return 46.3 + 33.9 * math.log10(f_mhz) \
        - 13.82 * math.log10(cfg.h_ap) - a_h


def pathloss_gue_db(d_m, cfg: SimConfig):
    """Three-slope COST-231 Hata channel gain in dB (non-positive).

    Slope 35 dB/decade beyond 50 m, 20 dB/decade between 10 and 50 m,
    flat below 10 m; continuous at both breakpoints.  Distances below
    1 m are clamped to 1 m.
    """
    d_km = np.maximum(np.asarray(d_m, dtype=float), 1.0) / 1e3
    big_l = _hata_constant_db(cfg)
    d1_km = HATA_D1_M / 1e3
    d0_km = HATA_D0_M / 1e3
    mid_const = -big_l - 15.0 * math.log10(d1_km)
    return np.where(
        d_km > d1_km,
        -big_l - 35.0 * np.log10(d_km),
        np.where(d_km > d0_km,
                 mid_const - 20.0 * np.log10(d_km),
                 mid_const - 20.0 * math.log10(d0_km)))


def pathloss_simple_linear(d_m, cfg: SimConfig):
    """Linear power gain rho * d^-alpha with d clamped to >= 1 m."""
    d = np.maximum(np.asarray(d_m, dtype=float), 1.0)
    return 10.0 ** (cfg.rho_db / 10.0) * d ** (-cfg.alpha)


def rician_k_linear(d_m):
    """Distance-dependent Rician factor 10^((13 - 0.03 d)/10) (linear)."""
    d = np.asarray(d_m, dtype=float)
    return 10.0 ** ((13.0 - 0.03 * d) / 10.0)


def array_response(n_elems: int, node_dir, d_ref, wavelength: float):
    """Unit-modulus ULA response for a half-wavelength x-axis array.

    Element n carries exp(-j 2 pi d_ref / lambda) * exp(-j pi n cos(phi))
    where cos(phi) is the x component of the unit direction toward the node.
    Nodes may be stacked: ``node_dir`` (..., 3) and ``d_ref`` (...) give
    responses (..., n_elems).
    """
    cos_phi = np.asarray(node_dir, dtype=float)[..., 0, None]
    d_ref = np.asarray(d_ref, dtype=float)[..., None]
    n = np.arange(n_elems)
    # Phases are formed as real numbers, then made imaginary: a complex
    # array divided by lambda rounds differently from a complex scalar, and
    # at ~1e4 rad one ulp of phase shows in the SINR.
    return np.exp(1j * (-2.0 * np.pi * d_ref / wavelength)) \
        * np.exp(1j * (-np.pi * cos_phi * n))


@dataclass(frozen=True)
class LargeScaleParams:
    """Deterministic per-link quantities for one layout.

    Shapes: M APs, K = U + 1 users (column 0 = UAV), N RIS elements.
    Each Rician link h = beta * (los + nlos * z), z unit complex normal,
    is stored as its amplitude beta, its complex LoS part los (the weight
    sqrt(K/(K+1)) times the LoS phasor or array response) and its real
    scatter weight nlos = sqrt(1/(K+1)).  The RIS->UAV leg is pure LoS:
    its los weight is 1 and its nlos 0.  ``H_ris`` is the full
    deterministic AP->RIS channel matrix (amplitude included).
    """

    beta_direct: np.ndarray     # (M, K) amplitude sqrt(zeta)
    los_direct: np.ndarray      # (M, K) weighted unit LoS phasors
    nlos_direct: np.ndarray     # (M, K) scatter weights
    H_ris: np.ndarray           # (M, N) deterministic AP->RIS channels
    beta_ris_user: np.ndarray   # (K,) RIS->user amplitudes
    los_ris_user: np.ndarray    # (N, K) weighted unit array responses
    nlos_ris_user: np.ndarray   # (K,) scatter weights, 0 at index 0


def _rician_weights(k_linear):
    """LoS / scatter amplitude weights sqrt(K/(K+1)), sqrt(1/(K+1))."""
    return np.sqrt(k_linear / (k_linear + 1.0)), \
        np.sqrt(1.0 / (k_linear + 1.0))


def _nonzero(d):
    # A node on top of the RIS has no direction; dividing its zero offset
    # by 1 instead of 0 lets it see the RIS broadside.
    return np.where(d > 0.0, d, 1.0)


def large_scale(layout: NetworkLayout, cfg: SimConfig) -> LargeScaleParams:
    """Evaluate every pathloss, antenna weight, Rician weight and LoS phase."""
    users = layout.user_pos                      # (K, 3), UAV first
    ap = layout.ap_pos
    lam = cfg.wavelength_m

    delta = users[None, :, :] - ap[:, None, :]
    d_h = np.hypot(delta[:, :, 0], delta[:, :, 1])
    d_3d = np.sqrt(d_h ** 2 + delta[:, :, 2] ** 2)
    theta = np.degrees(np.arctan2(ap[:, 2][:, None] - users[:, 2][None, :],
                                  d_h))
    gain_db = antenna_gain_db(theta, cfg.tilt_deg)

    zeta = np.empty_like(d_3d)
    zeta[:, 0] = 10.0 ** (gain_db[:, 0] / 10.0) \
        * pathloss_simple_linear(d_3d[:, 0], cfg)
    zeta[:, 1:] = 10.0 ** ((gain_db[:, 1:]
                            + pathloss_gue_db(d_3d[:, 1:], cfg)) / 10.0)
    los_w, nlos_direct = _rician_weights(rician_k_linear(d_3d))
    los_direct = los_w * np.exp(-1j * 2.0 * np.pi * d_3d / lam)

    # AP -> RIS (deterministic LoS, antenna-weighted d^-alpha law)
    to_ris = layout.ris_pos[None, :] - ap
    d_h_ris = np.hypot(to_ris[:, 0], to_ris[:, 1])
    d_ap_ris = np.sqrt(d_h_ris ** 2 + to_ris[:, 2] ** 2)
    theta_ris = np.degrees(np.arctan2(ap[:, 2] - layout.ris_pos[2], d_h_ris))
    beta_ap_ris = np.sqrt(10.0 ** (antenna_gain_db(theta_ris,
                                                   cfg.tilt_deg) / 10.0)
                          * pathloss_simple_linear(d_ap_ris, cfg))
    H_ris = beta_ap_ris[:, None] * array_response(
        cfg.n_ris, (ap - layout.ris_pos) / _nonzero(d_ap_ris)[:, None],
        d_ap_ris, lam)

    # RIS -> user legs; the UAV leg is pure LoS
    from_ris = users - layout.ris_pos[None, :]
    d_ris_user = np.sqrt(np.sum(from_ris ** 2, axis=1))
    los_ru, nlos_ris_user = _rician_weights(rician_k_linear(d_ris_user))
    los_ru[0], nlos_ris_user[0] = 1.0, 0.0
    a_ris_user = array_response(
        cfg.n_ris, from_ris / _nonzero(d_ris_user)[:, None], d_ris_user,
        lam).T

    return LargeScaleParams(
        beta_direct=np.sqrt(zeta), los_direct=los_direct,
        nlos_direct=nlos_direct, H_ris=H_ris,
        beta_ris_user=np.sqrt(pathloss_simple_linear(d_ris_user, cfg)),
        los_ris_user=los_ru[None, :] * a_ris_user,
        nlos_ris_user=nlos_ris_user)


@dataclass(frozen=True)
class ChannelSet:
    """One small-scale realization of the fading channels.

    The AP->RIS matrix is deterministic and lives in LargeScaleParams.
    """

    h_direct: np.ndarray    # (M, K)
    h_ris_user: np.ndarray  # (N, K), column 0 deterministic


def complex_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circularly symmetric Gaussians, re/im interleaved.

    Interleaving makes the draws for a leading-dimension prefix independent
    of the full size, so RIS systems of different element counts share
    common random numbers for their common elements.
    """
    z = rng.standard_normal(tuple(shape) + (2,))
    return (z[..., 0] + 1j * z[..., 1]) * math.sqrt(0.5)


def draw_channels(ls: LargeScaleParams,
                  rng: np.random.Generator) -> ChannelSet:
    """Draw one Rician realization h = beta * (los + nlos * z) of every link.

    The direct scatter is drawn first, then the RIS->user scatter (none
    when the RIS has no elements), so results are reproducible from the
    generator state alone.  The RIS->UAV column has no scatter weight and
    is the same for every generator state.
    """
    scatter = complex_normals(rng, ls.beta_direct.shape)
    h_direct = ls.beta_direct * (ls.los_direct + ls.nlos_direct * scatter)
    scatter_ru = complex_normals(rng, ls.los_ris_user.shape)
    h_ris_user = ls.beta_ris_user[None, :] * (
        ls.los_ris_user + ls.nlos_ris_user[None, :] * scatter_ru)
    return ChannelSet(h_direct=h_direct, h_ris_user=h_ris_user)


def aggregate_channel(ls: LargeScaleParams, cs: ChannelSet,
                      ris) -> np.ndarray:
    """Combine direct and RIS-reflected paths into the served channel matrix.

    G[m, k] = h_direct[m, k] + sum_n H_ris[m, n] v[n] h_ris_user[n, k];
    with no RIS elements the sum is empty and G equals the direct matrix.
    """
    v = np.asarray(ris.v, dtype=complex)
    n_ris = ls.H_ris.shape[1]
    if v.shape[0] != n_ris or cs.h_ris_user.shape[0] != n_ris:
        raise ConfigError(
            f"RIS size mismatch: v has {v.shape[0]} entries, "
            f"channels have {n_ris}")
    return _kernels.aggregate(cs.h_direct, ls.H_ris, v, cs.h_ris_user)
