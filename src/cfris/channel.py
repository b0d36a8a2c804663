"""Large-scale and small-scale channel models.

Three link families are modeled:

* AP -> GUE: three-slope COST-231 Hata attenuation combined with the
  elevation antenna pattern, Rician fading with a distance-dependent factor.
* AP -> UAV and all RIS legs: reference pathloss rho at 1 m with exponent
  alpha (gain rho * d^-alpha), the AP legs additionally weighted by the
  antenna pattern.
* AP -> RIS and RIS -> UAV: pure line-of-sight (the RIS-UAV Rician factor
  is taken to infinity); RIS -> GUE is Rician.

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


def array_response(n_elems: int, node_dir, d_ref: float, wavelength: float):
    """Unit-modulus ULA response for a half-wavelength x-axis array.

    Element n carries exp(-j 2 pi d_ref / lambda) * exp(-j pi n cos(phi))
    where cos(phi) is the x component of the unit direction toward the node.
    """
    node_dir = np.asarray(node_dir, dtype=float)
    cos_phi = node_dir[0]
    n = np.arange(n_elems)
    return np.exp(-1j * 2.0 * np.pi * d_ref / wavelength) \
        * np.exp(-1j * np.pi * cos_phi * n)


@dataclass(frozen=True)
class LargeScaleParams:
    """Deterministic per-link quantities for one layout.

    Shapes: M APs, K = U + 1 users (column 0 = UAV), N RIS elements.
    ``H_ris`` is the full deterministic AP->RIS channel matrix (amplitude
    included); ``a_ris_user`` holds the unit-modulus RIS->user responses.
    The RIS->UAV Rician factor is +inf (pure LoS limit).
    """

    beta_direct: np.ndarray      # (M, K) amplitude sqrt(zeta)
    beta_ris_user: np.ndarray    # (K,) RIS->user amplitudes
    rician_direct: np.ndarray    # (M, K) linear K factors
    rician_ris_user: np.ndarray  # (K,) linear, inf at index 0
    h_bar_direct: np.ndarray     # (M, K) unit LoS phasors
    H_ris: np.ndarray            # (M, N) deterministic AP->RIS channels
    a_ris_user: np.ndarray       # (N, K) unit array responses


def large_scale(layout: NetworkLayout, cfg: SimConfig) -> LargeScaleParams:
    """Evaluate every pathloss, antenna weight, Rician factor and LoS phase."""
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
    beta_direct = np.sqrt(zeta)
    rician_direct = rician_k_linear(d_3d)
    h_bar_direct = np.exp(-1j * 2.0 * np.pi * d_3d / lam)

    # AP -> RIS (deterministic LoS, antenna-weighted d^-alpha law)
    to_ris = layout.ris_pos[None, :] - ap
    d_h_ris = np.hypot(to_ris[:, 0], to_ris[:, 1])
    d_ap_ris = np.sqrt(d_h_ris ** 2 + to_ris[:, 2] ** 2)
    theta_ris = np.degrees(np.arctan2(ap[:, 2] - layout.ris_pos[2], d_h_ris))
    beta_ap_ris = np.sqrt(10.0 ** (antenna_gain_db(theta_ris,
                                                   cfg.tilt_deg) / 10.0)
                          * pathloss_simple_linear(d_ap_ris, cfg))
    h_ris_rows = [
        beta_ap_ris[m] * array_response(
            cfg.n_ris, (ap[m] - layout.ris_pos) / d_ap_ris[m],
            d_ap_ris[m], lam)
        for m in range(cfg.m_ap) if cfg.n_ris > 0
    ]
    H_ris = (np.array(h_ris_rows) if cfg.n_ris > 0
             else np.zeros((cfg.m_ap, 0), dtype=complex))

    # RIS -> user legs
    from_ris = users - layout.ris_pos[None, :]
    d_ris_user = np.sqrt(np.sum(from_ris ** 2, axis=1))
    beta_ris_user = np.sqrt(pathloss_simple_linear(d_ris_user, cfg))
    rician_ris_user = rician_k_linear(d_ris_user)
    rician_ris_user = np.asarray(rician_ris_user, dtype=float)
    rician_ris_user[0] = np.inf
    if cfg.n_ris > 0:
        a_cols = [array_response(cfg.n_ris,
                                 from_ris[k] / d_ris_user[k],
                                 d_ris_user[k], lam)
                  for k in range(cfg.n_users)]
        a_ris_user = np.array(a_cols).T
    else:
        a_ris_user = np.zeros((0, cfg.n_users), dtype=complex)

    return LargeScaleParams(
        beta_direct=beta_direct, beta_ris_user=beta_ris_user,
        rician_direct=rician_direct, rician_ris_user=rician_ris_user,
        h_bar_direct=h_bar_direct, H_ris=H_ris, a_ris_user=a_ris_user)


@dataclass(frozen=True)
class ChannelSet:
    """One small-scale realization of every channel in the network."""

    h_direct: np.ndarray    # (M, K)
    H_ris: np.ndarray       # (M, N), deterministic
    h_ris_user: np.ndarray  # (N, K), column 0 deterministic


def _rician_weights(k_linear):
    """LoS / scatter amplitude weights, with the K -> inf limit explicit."""
    k = np.asarray(k_linear, dtype=float)
    pure_los = np.isinf(k)
    k_safe = np.where(pure_los, 1.0, k)
    los = np.where(pure_los, 1.0, np.sqrt(k_safe / (k_safe + 1.0)))
    nlos = np.where(pure_los, 0.0, np.sqrt(1.0 / (k_safe + 1.0)))
    return los, nlos


def complex_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circularly symmetric Gaussians, re/im interleaved.

    Interleaving makes the draws for a leading-dimension prefix independent
    of the full size, so RIS systems of different element counts share
    common random numbers for their common elements.
    """
    z = rng.standard_normal(tuple(shape) + (2,))
    return (z[..., 0] + 1j * z[..., 1]) * math.sqrt(0.5)


def draw_channels(ls: LargeScaleParams, layout: NetworkLayout,
                  cfg: SimConfig, rng: np.random.Generator) -> ChannelSet:
    """Draw one Rician realization of the direct and RIS->user channels.

    The AP->RIS matrix and the RIS->UAV column are deterministic; a fresh
    generator state changes neither.  Draw order is fixed (direct scatter
    first, then RIS->user scatter) so results are reproducible from the
    generator state alone.
    """
    m_ap, n_users = ls.beta_direct.shape
    n_ris = ls.H_ris.shape[1]

    scatter = complex_normals(rng, (m_ap, n_users))
    los_w, nlos_w = _rician_weights(ls.rician_direct)
    h_direct = ls.beta_direct * (los_w * ls.h_bar_direct + nlos_w * scatter)

    if n_ris > 0:
        scatter_ru = complex_normals(rng, (n_ris, n_users))
        los_ru, nlos_ru = _rician_weights(ls.rician_ris_user)
        h_ris_user = ls.beta_ris_user[None, :] * (
            los_ru[None, :] * ls.a_ris_user
            + nlos_ru[None, :] * scatter_ru)
    else:
        h_ris_user = np.zeros((0, n_users), dtype=complex)

    return ChannelSet(h_direct=h_direct, H_ris=ls.H_ris.copy(),
                      h_ris_user=h_ris_user)


def aggregate_channel(cs: ChannelSet, ris) -> np.ndarray:
    """Combine direct and RIS-reflected paths into the served channel matrix.

    G[m, k] = h_direct[m, k] + sum_n H_ris[m, n] v[n] h_ris_user[n, k];
    with no RIS elements G equals the direct matrix.
    """
    v = np.asarray(ris.v, dtype=complex)
    n_ris = cs.H_ris.shape[1]
    if v.shape[0] != n_ris or cs.h_ris_user.shape[0] != n_ris:
        raise ConfigError(
            f"RIS size mismatch: v has {v.shape[0]} entries, "
            f"channels have {n_ris}")
    if n_ris == 0:
        return cs.h_direct.copy()
    return _kernels.aggregate(cs.h_direct, cs.H_ris, v, cs.h_ris_user)
