"""Loop-level reference evaluator of one Monte-Carlo trial.

A frozen, deliberately plain copy of the trial semantics: every sum over
APs m, RIS elements n and users k is an explicit loop, and the only parts
of cfris it reuses are the substream (``trial_rng``), the node placement
(``place_nodes``) and the element-wise model terms (pathloss, antenna
pattern, Rician factor, array response).  A rewrite of the vectorised
pipeline is checked against it to 1e-12 relative.

One trial at a point's own RIS size N:

* draw the layout, then the direct scatter (M, K) and the RIS->user
  scatter (N, K), each as interleaved (re, im) standard normals;
* phase the RIS toward the UAV, form the aggregate channel G, the analytic
  second moment gamma, the proportional power split and the SINR;
* the paired no-RIS reference is the same realization evaluated at N = 0.
"""
from __future__ import annotations

import math

import numpy as np

from cfris.channel import (antenna_gain_db, array_response, pathloss_gue_db,
                           pathloss_simple_linear, rician_k_linear)
from cfris.experiments import trial_rng
from cfris.geometry import place_nodes


def _rician(k_factor: float):
    """(LoS, scatter) amplitude weights of a Rician link."""
    return math.sqrt(k_factor / (k_factor + 1.0)), \
        math.sqrt(1.0 / (k_factor + 1.0))


def _normals(rng, shape):
    z = rng.standard_normal(tuple(shape) + (2,))
    out = np.empty(shape, dtype=complex)
    for idx in np.ndindex(*shape):
        out[idx] = complex(z[idx + (0,)], z[idx + (1,)]) * math.sqrt(0.5)
    return out


def _links(cfg, trial_index):
    """Every large-scale term and one small-scale realization."""
    rng = trial_rng(cfg.master_seed, trial_index)
    lay = place_nodes(cfg, rng)
    m_ap, n_users, n_ris = cfg.m_ap, cfg.n_users, cfg.n_ris
    lam = cfg.wavelength_m
    # (K, 3) user positions, the UAV first
    users = np.concatenate([lay.uav_pos[None, :], lay.gue_pos])
    ap, ris = lay.ap_pos, lay.ris_pos

    # AP -> user: elevation pattern times d^-alpha (UAV) or Hata (GUEs)
    delta = users[None, :, :] - ap[:, None, :]
    d_h = np.hypot(delta[:, :, 0], delta[:, :, 1])
    d_3d = np.sqrt(d_h * d_h + delta[:, :, 2] * delta[:, :, 2])
    theta = np.degrees(np.arctan2(ap[:, 2][:, None] - users[:, 2][None, :],
                                  d_h))
    gain_lin = 10.0 ** (antenna_gain_db(theta, cfg.tilt_deg) / 10.0)
    phasor = np.exp(-1j * 2.0 * np.pi * d_3d / lam)
    k_direct = rician_k_linear(d_3d)
    beta = np.empty((m_ap, n_users))
    for m in range(m_ap):
        beta[m, 0] = math.sqrt(gain_lin[m, 0]
                               * pathloss_simple_linear(d_3d[m, 0], cfg))
        for k in range(1, n_users):
            beta[m, k] = math.sqrt(gain_lin[m, k] * 10.0 ** (
                pathloss_gue_db(d_3d[m, k], cfg) / 10.0))

    # AP -> RIS: pure LoS, antenna-weighted d^-alpha law, one row per AP
    H_ris = np.empty((m_ap, n_ris), dtype=complex)
    for m in range(m_ap):
        to_ap = ap[m] - ris
        d_h_ris = np.hypot(to_ap[0], to_ap[1])
        d = math.sqrt(d_h_ris * d_h_ris + to_ap[2] * to_ap[2])
        elev = math.degrees(math.atan2(to_ap[2], d_h_ris))
        amp = math.sqrt(10.0 ** (antenna_gain_db(elev, cfg.tilt_deg) / 10.0)
                        * pathloss_simple_linear(d, cfg))
        H_ris[m] = amp * array_response(n_ris, to_ap / d, d, lam)

    # RIS -> user: d^-alpha law; pure LoS to the UAV, Rician to the GUEs
    beta_ru = np.empty(n_users)
    a_ru = np.empty((n_ris, n_users), dtype=complex)
    k_ru = np.empty(n_users)
    for k in range(n_users):
        to_user = users[k] - ris
        d = math.sqrt(to_user[0] * to_user[0] + to_user[1] * to_user[1]
                      + to_user[2] * to_user[2])
        beta_ru[k] = math.sqrt(pathloss_simple_linear(d, cfg))
        a_ru[:, k] = array_response(n_ris, to_user / d, d, lam)
        k_ru[k] = rician_k_linear(d)

    z_direct = _normals(rng, (m_ap, n_users))
    z_ru = _normals(rng, (n_ris, n_users))

    h_direct = np.empty((m_ap, n_users), dtype=complex)
    los_direct = np.empty((m_ap, n_users), dtype=complex)
    var_direct = np.empty((m_ap, n_users))
    for m in range(m_ap):
        for k in range(n_users):
            los_w, nlos_w = _rician(k_direct[m, k])
            los_direct[m, k] = beta[m, k] * los_w * phasor[m, k]
            var_direct[m, k] = (beta[m, k] * nlos_w) ** 2
            h_direct[m, k] = los_direct[m, k] \
                + beta[m, k] * nlos_w * z_direct[m, k]

    h_ru = np.empty((n_ris, n_users), dtype=complex)
    los_ru = np.empty((n_ris, n_users), dtype=complex)
    var_ru = np.empty(n_users)
    for k in range(n_users):
        los_w, nlos_w = (1.0, 0.0) if k == 0 else _rician(k_ru[k])
        var_ru[k] = (beta_ru[k] * nlos_w) ** 2
        for n in range(n_ris):
            los_ru[n, k] = beta_ru[k] * los_w * a_ru[n, k]
            h_ru[n, k] = los_ru[n, k] + beta_ru[k] * nlos_w * z_ru[n, k]

    return dict(h_direct=h_direct, los_direct=los_direct,
                var_direct=var_direct, H_ris=H_ris, h_ru=h_ru,
                los_ru=los_ru, var_ru=var_ru)


def _evaluate(cfg, links, n_ris):
    """Per-user SINR on the first n_ris RIS elements."""
    m_ap, n_users = links["h_direct"].shape
    h_d, H, h_ru = links["h_direct"], links["H_ris"], links["h_ru"]

    # RIS phases: v_n = exp(-j angle(sum_m H[m,n] h_ru[n,0] conj(h_d[m,0])))
    v = np.empty(n_ris, dtype=complex)
    for n in range(n_ris):
        t = 0j
        for m in range(m_ap):
            t += H[m, n] * h_ru[n, 0] * np.conj(h_d[m, 0])
        v[n] = np.conj(t) / abs(t) if abs(t) > 0.0 else 1.0

    G = np.empty((m_ap, n_users), dtype=complex)
    gamma = np.empty((m_ap, n_users))
    for m in range(m_ap):
        h_sq = sum(abs(H[m, n]) ** 2 for n in range(n_ris))
        for k in range(n_users):
            g = h_d[m, k]
            mu = links["los_direct"][m, k]
            for n in range(n_ris):
                g += H[m, n] * v[n] * h_ru[n, k]
                mu += H[m, n] * v[n] * links["los_ru"][n, k]
            G[m, k] = g
            gamma[m, k] = abs(mu) ** 2 + links["var_direct"][m, k] \
                + links["var_ru"][k] * h_sq

    eta = np.zeros((m_ap, n_users))
    for m in range(m_ap):
        gue_sum = sum(gamma[m, k] for k in range(1, n_users))
        for k in range(n_users):
            p = cfg.kappa * cfg.p_d_w if k == 0 else \
                (1.0 - cfg.kappa) * cfg.p_d_w * gamma[m, k] / gue_sum
            if p > 0.0:
                eta[m, k] = p / gamma[m, k]

    # A[k,k'] = sum_m sqrt(eta[m,k']) G[m,k] conj(G[m,k'])
    sinr = np.empty(n_users)
    for k in range(n_users):
        power = []
        for kp in range(n_users):
            a = 0j
            for m in range(m_ap):
                a += math.sqrt(eta[m, kp]) * G[m, k] * np.conj(G[m, kp])
            power.append(abs(a) ** 2)
        interference = sum(power[kp] for kp in range(n_users) if kp != k)
        sinr[k] = power[k] / (interference + cfg.noise_power_w)
    return sinr


def reference_trial(cfg, trial_index: int):
    """(rates_bps, sinr, paired UAV gain in dB or None) of one trial."""
    links = _links(cfg, trial_index)
    sinr = _evaluate(cfg, links, cfg.n_ris)
    rates = np.array([cfg.bandwidth_hz * math.log2(1.0 + s) for s in sinr])
    gain = None
    if cfg.n_ris > 0:
        sinr0 = _evaluate(cfg, links, 0)
        gain = 10.0 * math.log10(sinr[0] / sinr0[0]) if sinr0[0] > 0.0 \
            else math.nan
    return rates, sinr, gain
