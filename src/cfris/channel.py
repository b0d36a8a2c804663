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
from typing import NamedTuple

import numpy as np

from .geometry import ConfigError, NetworkLayout, SimConfig

THETA_3DB_DEG = 10.0   # half-power beamwidth of the elevation pattern
SIDELOBE_FLOOR_DB = 20.0


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

    -L - 15 log10(max(d, 0.05)) - 20 log10(max(d, 0.01)), d in km: flat
    below 10 m (so down to 0 m), 20 dB/decade between 10 and 50 m and
    35 dB/decade beyond, continuous at both breakpoints.
    """
    d_km = np.asarray(d_m, dtype=float) / 1e3
    return -_hata_constant_db(cfg) - 15.0 * np.log10(np.maximum(d_km, 0.05)) \
        - 20.0 * np.log10(np.maximum(d_km, 0.01))


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

    Element n is formed by doubling, as element 0 times the element step
    exp(-j pi cos(phi)) raised to n: the elements [k, 2k) are the elements
    [0, k) times step^k, and step^k is squared for the next round.  Only
    two complex exponentials run per node, and each element is the same
    product at every n_elems, so a smaller array is exactly a prefix of a
    larger one.
    """
    cos_phi = np.asarray(node_dir, dtype=float)[..., 0]
    d_ref = np.asarray(d_ref, dtype=float)
    a = np.empty(np.broadcast_shapes(cos_phi.shape, d_ref.shape)
                 + (n_elems,), dtype=complex)
    if n_elems:
        # Phases are formed as real numbers, then made imaginary: a complex
        # array divided by lambda rounds differently from a complex
        # scalar, and at ~1e4 rad one ulp of phase shows in the SINR.
        a[..., 0] = np.exp(1j * (-2.0 * np.pi * d_ref / wavelength))
    step = np.exp(1j * (-np.pi * cos_phi))[..., None]
    k = 1
    while k < n_elems:
        # an assignment, not multiply(out=...): the latter rounds some
        # products differently, which breaks the prefix and stacking rules
        m = min(k, n_elems - k)
        a[..., k:k + m] = a[..., :m] * step
        step = step * step
        k += m
    return a


class LargeScaleParams(NamedTuple):
    """Deterministic per-link quantities for one layout, or a stack of them.

    Shapes: M APs, K = U + 1 users (column 0 = UAV), N RIS elements, after
    the layout's leading batch axes (...); ``H_ris`` has only the axes
    of the APs, which the UAV position may extend.
    Each Rician link h = mean + std * z, z unit complex normal, is stored
    as its complex mean (the amplitude times the weight sqrt(K/(K+1))
    times the LoS phasor or array response) and its real scatter
    amplitude std (the amplitude times sqrt(1/(K+1))), so E|h|^2 =
    |mean|^2 + std^2.  The RIS->UAV leg is pure LoS: its std is 0.
    ``H_ris`` is the full deterministic AP->RIS channel matrix.
    """

    mean_direct: np.ndarray     # (..., M, K) AP->user means
    std_direct: np.ndarray      # (..., M, K) AP->user scatter amplitudes
    H_ris: np.ndarray           # (..., M, N) deterministic AP->RIS channels
    mean_ris_user: np.ndarray   # (..., N, K) RIS->user means
    std_ris_user: np.ndarray    # (..., K) scatter amplitudes, 0 at index 0


def _rician_weights(k_linear):
    """LoS / scatter amplitude weights sqrt(K/(K+1)), sqrt(1/(K+1))."""
    return np.sqrt(k_linear / (k_linear + 1.0)), \
        np.sqrt(1.0 / (k_linear + 1.0))


def _nonzero(d):
    # A node on top of the RIS has no direction; dividing its zero offset
    # by 1 instead of 0 lets it see the RIS broadside.
    return np.where(d > 0.0, d, 1.0)


class LinkGeometry(NamedTuple):
    """The AP->GUE terms of large_scale that depend on neither the UAV
    nor the tilt.  The tilt scales the amplitudes, so the Rician weights
    are kept apart.  Shapes follow the layout's batch axes (...).
    """

    theta_gue: np.ndarray       # (..., M, U) AP->GUE elevations, degrees
    hata_db_gue: np.ndarray     # (..., M, U) AP->GUE Hata gains
    los_direct_gue: np.ndarray  # (..., M, U) weighted unit LoS phasors
    nlos_direct_gue: np.ndarray  # (..., M, U) scatter weights


def _direct_links(ap, users):
    """Distances and elevations of AP -> user links, (..., M, K')."""
    delta = users[..., None, :, :] - ap[..., :, None, :]
    d_h = np.hypot(delta[..., 0], delta[..., 1])
    theta = np.degrees(np.arctan2(ap[..., :, None, 2]
                                  - users[..., None, :, 2], d_h))
    return np.sqrt(d_h ** 2 + delta[..., 2] ** 2), theta


def _rician_los(d, lam):
    """Weighted unit LoS phasors and scatter weights of Rician links."""
    los_w, nlos = _rician_weights(rician_k_linear(d))
    return los_w * np.exp(-1j * 2.0 * np.pi * d / lam), nlos


def _ris_user_links(ris, users, cfg: SimConfig, n_elems):
    """Amplitudes, Rician weights and (..., N, K') array responses of RIS ->
    user links."""
    from_ris = users - ris
    d = np.sqrt(np.sum(from_ris ** 2, axis=-1))
    los_w, nlos = _rician_weights(rician_k_linear(d))
    if n_elems:
        a = np.swapaxes(array_response(
            n_elems, from_ris / _nonzero(d)[..., None], d, cfg.wavelength_m),
            -1, -2)
    else:
        a = np.empty(d.shape[:-1] + (0, d.shape[-1]), dtype=complex)
    return np.sqrt(pathloss_simple_linear(d, cfg)), los_w, nlos, a


def link_geometry(layout: NetworkLayout, cfg: SimConfig) -> LinkGeometry:
    """The AP->GUE terms of a layout, which depend on neither the UAV
    position nor the antenna tilt."""
    d_gue, theta_gue = _direct_links(layout.ap_pos, layout.gue_pos)
    los_direct_gue, nlos_direct_gue = _rician_los(d_gue, cfg.wavelength_m)
    return LinkGeometry(
        theta_gue=theta_gue, hata_db_gue=pathloss_gue_db(d_gue, cfg),
        los_direct_gue=los_direct_gue, nlos_direct_gue=nlos_direct_gue)


def _uav_first(uav, gue):
    """(..., K) columns: the UAV's (..., 1), then the GUEs' (..., U).

    The UAV's leading axes (...) may extend the GUEs' (say, by one UAV
    height per row); the GUE columns are then broadcast over them.
    """
    out = np.empty(uav.shape[:-1] + (1 + gue.shape[-1],),
                   dtype=np.promote_types(uav.dtype, gue.dtype))
    out[..., :1] = uav
    out[..., 1:] = gue
    return out


def large_scale(layout: NetworkLayout, cfg: SimConfig,
                geometry: LinkGeometry | None = None) -> LargeScaleParams:
    """Evaluate every pathloss, antenna weight, Rician weight and LoS phase.

    ``geometry`` is ``link_geometry`` of a layout with the same APs and
    GUEs; None computes it here.  The UAV's links, the RIS legs at
    cfg.n_ris elements and the tilt's antenna gains are evaluated here.
    A stacked layout gives stacked parameters, each entry bit-identical
    to the parameters of its own layout.  The UAV position may carry more
    leading axes than the APs and GUEs (say, one UAV height per row):
    only the fields that depend on the UAV carry them.
    """
    n_ris, tilt, lam = cfg.n_ris, cfg.tilt_deg, cfg.wavelength_m
    ap, ris = layout.ap_pos, layout.ris_pos
    geo = link_geometry(layout, cfg) if geometry is None else geometry
    uav = layout.uav_pos[..., None, :]           # (..., 1, 3)

    d_uav, theta_uav = _direct_links(ap, uav)
    los_direct_uav, nlos_direct_uav = _rician_los(d_uav, lam)
    beta_uav = np.sqrt(10.0 ** (antenna_gain_db(theta_uav, tilt) / 10.0)
                       * pathloss_simple_linear(d_uav, cfg))
    beta_gue = np.sqrt(10.0 ** ((antenna_gain_db(geo.theta_gue, tilt)
                                 + geo.hata_db_gue) / 10.0))

    # AP -> RIS (deterministic LoS, antenna-weighted d^-alpha law), with
    # the RIS as the one user: (..., M, 1) terms; none without elements
    if n_ris:
        d_ap_ris, theta_ris = _direct_links(ap, ris[None, :])
        beta_ap_ris = np.sqrt(
            10.0 ** (antenna_gain_db(theta_ris, tilt) / 10.0)
            * pathloss_simple_linear(d_ap_ris, cfg))
        H_ris = beta_ap_ris * array_response(
            n_ris, (ap - ris) / _nonzero(d_ap_ris), d_ap_ris[..., 0], lam)
    else:
        H_ris = np.empty(ap.shape[:-1] + (0,), dtype=complex)

    # the RIS -> UAV leg is pure LoS: its mean is the whole channel
    beta_ris_uav, _, _, a_ris_uav = _ris_user_links(ris, uav, cfg, n_ris)
    beta_ris_gue, los_w, nlos_ris_gue, a_ris_gue = _ris_user_links(
        ris, layout.gue_pos, cfg, n_ris)
    return LargeScaleParams(
        mean_direct=_uav_first(beta_uav * los_direct_uav,
                               beta_gue * geo.los_direct_gue),
        std_direct=_uav_first(beta_uav * nlos_direct_uav,
                              beta_gue * geo.nlos_direct_gue),
        H_ris=H_ris,
        mean_ris_user=_uav_first(
            beta_ris_uav[..., None, :] * a_ris_uav,
            beta_ris_gue[..., None, :] * (los_w[..., None, :] * a_ris_gue)),
        std_ris_user=_uav_first(np.zeros_like(beta_ris_uav),
                                beta_ris_gue * nlos_ris_gue))


class ChannelSet(NamedTuple):
    """One small-scale realization of the fading channels, or a stack.

    The AP->RIS matrix is deterministic and lives in LargeScaleParams.
    """

    h_direct: np.ndarray    # (..., M, K)
    h_ris_user: np.ndarray  # (..., N, K), column 0 deterministic


def complex_normals(rng, shape) -> np.ndarray:
    """Unit-variance circularly symmetric Gaussians, re/im interleaved.

    Interleaving makes the draws for a leading-dimension prefix independent
    of the full size, so RIS systems of different element counts share
    common random numbers for their common elements.  ``rng`` is a
    Generator, or the standard normals drawn beforehand: one row of
    2 prod(shape) per draw, after any leading batch axes.
    """
    if isinstance(rng, np.random.Generator):
        z = rng.standard_normal(tuple(shape) + (2,))
    else:
        z = rng.reshape(rng.shape[:-1] + tuple(shape) + (2,))
    return (z[..., 0] + 1j * z[..., 1]) * math.sqrt(0.5)


def draw_channels(ls: LargeScaleParams, scatter) -> ChannelSet:
    """One Rician realization h = mean + std * z of every link.

    ``scatter`` is a Generator or the unit scatter (z_direct, z_ris_user)
    drawn beforehand with the shapes of ``ls`` (for stacked parameters,
    one draw per realization, stacked).  From a Generator the direct
    scatter is drawn first, then the RIS->user scatter (none when the RIS
    has no elements), so results are reproducible from the generator
    state alone.  The RIS->UAV column has no scatter and is the same for
    every draw.
    """
    if isinstance(scatter, np.random.Generator):
        scatter = (complex_normals(scatter, ls.mean_direct.shape),
                   complex_normals(scatter, ls.mean_ris_user.shape))
    z_direct, z_ris_user = scatter
    return ChannelSet(
        h_direct=ls.mean_direct + ls.std_direct * z_direct,
        h_ris_user=ls.mean_ris_user
        + ls.std_ris_user[..., None, :] * z_ris_user)


def combine_paths(h_direct, H_ris, v, h_ris_user):
    """G[..., m, k] = h_direct[m, k] + sum_n H_ris[m, n] v[n] h_ris_user[n, k].

    One matrix product per realization; leading axes are batch axes.
    """
    return h_direct + H_ris @ (v[..., :, None] * h_ris_user)


def aggregate_channel(ls: LargeScaleParams, cs: ChannelSet,
                      ris) -> np.ndarray:
    """Combine direct and RIS-reflected paths into the served channel matrix.

    G[m, k] = h_direct[m, k] + sum_n H_ris[m, n] v[n] h_ris_user[n, k];
    with no RIS elements the sum is empty and G equals the direct matrix.
    Leading batch axes of the channels and of v are carried through.
    """
    v = ris.v
    n_ris = ls.H_ris.shape[-1]
    if v.shape[-1] != n_ris or cs.h_ris_user.shape[-2] != n_ris:
        raise ConfigError(
            f"RIS size mismatch: v has {v.shape[-1]} entries, "
            f"channels have {n_ris}")
    return combine_paths(cs.h_direct, ls.H_ris, v, cs.h_ris_user)
