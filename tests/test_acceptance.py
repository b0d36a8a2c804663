"""Acceptance suite: one test per release criterion.

Each test evaluates every clause of its criterion, prints a single
``[criterion N] PASS/FAIL`` line with the measured numbers, and then
asserts.  Tolerances are fixed here and nowhere else.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import math
import time

import numpy as np

from cfris import (SimConfig, draw_channels, gamma_analytic, large_scale,
                   place_nodes, ppa_allocate, rate_cdf, rate_region,
                   ris_align_uav, ris_gain_sweep, sinr_all)
from cfris.channel import aggregate_channel
from cfris.cli import run as cli_run
from cfris.experiments import ExperimentSpec, scenario_label

TRIALS = 2000
SEED = 20240913


def _report(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def _check_budget(failures, elapsed, budget_s):
    if elapsed > budget_s:
        failures.append(f"runtime {elapsed:.1f}s exceeds {budget_s}s")


def test_criterion_1_power_conservation():
    """Per-AP allocated power sums equal p_d to 1e-12 relative."""
    started = time.monotonic()
    rng = np.random.default_rng(SEED)
    failures = []
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 40))
        k = int(rng.integers(2, 9))
        gamma = 10.0 ** rng.uniform(-14, 2, size=(m, k))
        kappa = float(rng.uniform(0, 1))
        p_d = float(rng.uniform(0.05, 20.0))
        pa = ppa_allocate(gamma, kappa, p_d)
        rel = float(np.max(np.abs(pa.p_dl.sum(axis=1) - p_d))) / p_d
        worst = max(worst, rel)
    if worst > 1e-12:
        failures.append(f"worst per-AP relative error {worst:.3e} > 1e-12")
    elapsed = time.monotonic() - started
    _check_budget(failures, elapsed, 5.0)
    _report(1, not failures,
            f"1000 random allocations, worst relative error {worst:.2e}, "
            f"{elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_2_single_ap_alignment_optimality():
    """M=1 alignment is exact and unbeaten by random phase vectors."""
    started = time.monotonic()
    rng = np.random.default_rng(SEED + 1)
    failures = []
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        h0 = rng.normal(size=1) + 1j * rng.normal(size=1)
        H = rng.normal(size=(1, n)) + 1j * rng.normal(size=(1, n))
        hru = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = ris_align_uav(H, hru, h0).v
        R = H * hru[None, :]
        achieved = np.abs(h0[0] + (R @ v)[0])
        target = np.abs(h0[0]) + float(np.sum(np.abs(R[0])))
        worst = max(worst, abs(achieved - target) / target)
    if worst > 1e-9:
        failures.append(f"worst |g0| relative error {worst:.3e} > 1e-9")

    n = 24
    h0 = rng.normal(size=1) + 1j * rng.normal(size=1)
    H = rng.normal(size=(1, n)) + 1j * rng.normal(size=(1, n))
    hru = rng.normal(size=n) + 1j * rng.normal(size=n)
    R = (H * hru[None, :])[0]
    v_star = ris_align_uav(H, hru, h0).v
    p_star = np.abs(h0[0] + R @ v_star) ** 4        # CB power = ||g0||^4
    rand_v = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(100_000, n)))
    p_rand = np.abs(h0[0] + rand_v @ R) ** 4
    exceed = float(np.max(p_rand / p_star))
    if exceed > 1.0 + 1e-9:
        failures.append(f"random search beat alignment by {exceed - 1:.3e}")
    elapsed = time.monotonic() - started
    _check_budget(failures, elapsed, 30.0)
    _report(2, not failures,
            f"worst co-phasing error {worst:.2e}, best random/aligned power "
            f"ratio {exceed:.9f}, {elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_3_gamma_analytic_vs_monte_carlo():
    """Analytic second moment within 2% of 1e5-draw empirical mean."""
    started = time.monotonic()
    cfg = SimConfig(m_ap=3, n_gue=2, n_ris=8, master_seed=SEED)
    rng = np.random.default_rng(SEED + 2)
    layout = place_nodes(cfg, rng)
    ls = large_scale(layout, cfg)
    cs0 = draw_channels(ls, rng)
    ris = ris_align_uav(ls.H_ris, cs0.h_ris_user[:, 0], cs0.h_direct[:, 0])
    gamma = gamma_analytic(ls, ris)

    draws = 100_000
    acc = np.zeros_like(gamma)
    for _ in range(draws):
        cs = draw_channels(ls, rng)
        acc += np.abs(aggregate_channel(ls, cs, ris)) ** 2
    rel = np.abs(acc / draws - gamma) / gamma
    worst = float(np.max(rel))
    failures = [] if worst < 0.02 else \
        [f"worst relative gap {worst:.4f} >= 2%"]
    elapsed = time.monotonic() - started
    _check_budget(failures, elapsed, 60.0)
    _report(3, not failures,
            f"M=3 U=2 N=8, worst |gamma - MC|/gamma = {worst:.4f} over "
            f"{draws} draws, {elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_4_sinr_vs_symbol_level_oracle():
    """Closed-form SINR matches a 1e6-symbol transmission within 5%."""
    started = time.monotonic()
    G = np.array([[0.8 - 0.3j, -0.2 + 0.6j],
                  [0.1 + 0.9j, 0.7 + 0.2j]])
    W = np.conj(G)
    eta = np.array([[0.6, 0.4],
                    [0.5, 0.5]])
    noise_w = 0.15
    predicted = sinr_all(G, W, eta, noise_w)

    rng = np.random.default_rng(SEED + 3)
    n_sym = 1_000_000
    s = (rng.standard_normal((2, n_sym))
         + 1j * rng.standard_normal((2, n_sym))) * math.sqrt(0.5)
    x = (np.sqrt(eta) * W) @ s            # (M, T): per-AP transmit signal
    failures = []
    measured = []
    for k in range(2):
        noise = (rng.standard_normal(n_sym)
                 + 1j * rng.standard_normal(n_sym)) \
            * math.sqrt(noise_w / 2.0)
        y = G[:, k] @ x + noise
        # least-squares projection on the intended symbol stream
        a_hat = np.vdot(s[k], y) / np.vdot(s[k], s[k])
        desired = a_hat * s[k]
        resid = y - desired
        sinr_emp = float(np.sum(np.abs(desired) ** 2)
                         / np.sum(np.abs(resid) ** 2))
        measured.append(sinr_emp)
        rel = abs(sinr_emp - predicted[k]) / predicted[k]
        if rel > 0.05:
            failures.append(f"user {k}: empirical {sinr_emp:.4f} vs "
                            f"formula {predicted[k]:.4f} ({rel:.1%})")
    elapsed = time.monotonic() - started
    _check_budget(failures, elapsed, 60.0)
    _report(4, not failures,
            f"formula {np.round(predicted, 4)} vs symbol-level "
            f"{np.round(measured, 4)}, {elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_5_ris_gain_trends_and_anchors():
    """RIS gain monotone in N, ordered in height, anchored to +-3 dB."""
    started = time.monotonic()
    cfg = SimConfig(kappa=0.1, master_seed=SEED, trials=TRIALS)
    n_list = (20, 30, 40, 50, 60)
    heights = (16.0, 100.0, 300.0)
    rows = ris_gain_sweep(cfg, n_list=n_list, heights=heights)
    gain = {(r["n_ris"], r["h_uav_m"]): r["mean_gain_db"] for r in rows}

    failures = []
    for h in heights:
        seq = [gain[(n, h)] for n in n_list]
        if not all(b >= a for a, b in zip(seq, seq[1:])):
            failures.append(f"gain not non-decreasing in N at H0={h}: "
                            f"{np.round(seq, 3)}")
    for n in n_list:
        g16, g100, g300 = (gain[(n, h)] for h in heights)
        if not (g300 > g100 > g16):
            failures.append(f"height ordering broken at N={n}: "
                            f"300m={g300:.3f} 100m={g100:.3f} "
                            f"16m={g16:.3f}")
    anchor_a = gain[(20, 100.0)]
    anchor_b = gain[(60, 300.0)]
    if abs(anchor_a - 5.64) > 3.0:
        failures.append(f"anchor (N=20,H0=100m) {anchor_a:.2f} dB not "
                        f"within 5.64 +- 3 dB")
    if abs(anchor_b - 17.6) > 3.0:
        failures.append(f"anchor (N=60,H0=300m) {anchor_b:.2f} dB not "
                        f"within 17.6 +- 3 dB")
    elapsed = time.monotonic() - started
    _check_budget(failures, elapsed, 300.0)
    _report(5, not failures,
            f"anchors: (20,100m)={anchor_a:.2f} dB, "
            f"(60,300m)={anchor_b:.2f} dB; {len(failures)} failing "
            f"clause(s), {elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_6_rate_region_trends_and_anchors():
    """Power-split trade-off directions, system ordering, GUE anchors."""
    started = time.monotonic()
    cfg = SimConfig(master_seed=SEED, trials=TRIALS)
    kappas = (0.02, 0.05, 0.1, 0.15)
    rows = rate_region(cfg, kappa_list=kappas, n_list=(15, 30))
    by_system = {}
    for r in rows:
        by_system.setdefault(r["system"], {})[r["kappa"]] = r

    failures = []
    for system in ("no-ris", "ris-n15", "ris-n30"):
        uav = [by_system[system][k]["uav_rate_bps"] for k in kappas]
        gue = [by_system[system][k]["gue_rate_bps"] for k in kappas]
        if not all(b > a for a, b in zip(uav, uav[1:])):
            failures.append(f"{system}: UAV rate not strictly increasing "
                            f"in kappa: {np.round(np.array(uav)/1e6, 3)}")
        if not all(b < a for a, b in zip(gue, gue[1:])):
            failures.append(f"{system}: GUE rate not strictly decreasing "
                            f"in kappa: {np.round(np.array(gue)/1e6, 3)}")
    for k in kappas:
        u0 = by_system["no-ris"][k]["uav_rate_bps"]
        u15 = by_system["ris-n15"][k]["uav_rate_bps"]
        u30 = by_system["ris-n30"][k]["uav_rate_bps"]
        if not (u30 > u15 > u0):
            failures.append(
                f"kappa={k}: UAV ordering broken: no-ris={u0/1e6:.3f}, "
                f"n15={u15/1e6:.3f}, n30={u30/1e6:.3f} Mbps")

    ris30_gue = by_system["ris-n30"][0.02]["gue_rate_bps"] / 1e6
    no_uav_gue = by_system["no-uav"][None]["gue_rate_bps"] / 1e6
    if not ris30_gue > no_uav_gue:
        failures.append(f"RIS N=30 GUE rate {ris30_gue:.3f} Mbps does not "
                        f"exceed no-UAV baseline {no_uav_gue:.3f} Mbps")
    if abs(ris30_gue - 7.46) / 7.46 > 0.35:
        failures.append(f"RIS N=30 GUE anchor {ris30_gue:.2f} Mbps not "
                        f"within 7.46 +- 35%")
    if abs(no_uav_gue - 6.28) / 6.28 > 0.35:
        failures.append(f"no-UAV GUE anchor {no_uav_gue:.2f} Mbps not "
                        f"within 6.28 +- 35%")
    elapsed = time.monotonic() - started
    _check_budget(failures, elapsed, 300.0)
    _report(6, not failures,
            f"GUE anchors: ris-n30@0.02={ris30_gue:.2f} Mbps, "
            f"no-uav={no_uav_gue:.2f} Mbps; {len(failures)} failing "
            f"clause(s), {elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_7_cdf_dominance():
    """RIS lifts the UAV median; up-tilt/high-kappa degrades the GUE."""
    started = time.monotonic()
    cfg = SimConfig(n_ris=20, master_seed=SEED, trials=TRIALS)
    scenarios = ((0.1, 15.0, False), (0.33, -5.0, False), (0.1, 15.0, True))
    rows = rate_cdf(cfg, scenarios=scenarios)

    def median(kappa, tilt, with_ris, user):
        label = scenario_label(kappa, tilt, with_ris)
        rates = [r["rate_bps"] for r in rows
                 if r["scenario"] == label and r["user"] == user]
        return float(np.median(rates))

    uav_ris = median(0.1, 15.0, True, "uav")
    uav_base = median(0.1, 15.0, False, "uav")
    gue_uptilt = median(0.33, -5.0, False, "gue1")
    gue_base = median(0.1, 15.0, False, "gue1")

    failures = []
    if not uav_ris > uav_base:
        failures.append(f"UAV median with RIS {uav_ris/1e6:.3f} Mbps does "
                        f"not exceed no-RIS {uav_base/1e6:.3f} Mbps")
    if not gue_uptilt < gue_base:
        failures.append(f"GUE median at (0.33, -5deg) {gue_uptilt/1e6:.3f} "
                        f"not below (0.1, 15deg) {gue_base/1e6:.3f} Mbps")
    elapsed = time.monotonic() - started
    _check_budget(failures, elapsed, 180.0)
    _report(7, not failures,
            f"UAV medians {uav_ris/1e6:.3f} vs {uav_base/1e6:.3f} Mbps; "
            f"GUE medians {gue_uptilt/1e6:.3f} vs {gue_base/1e6:.3f} Mbps, "
            f"{elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_8_determinism_across_workers(tmp_path):
    """Same master seed gives byte-identical CSVs for 1 and 8 workers."""
    started = time.monotonic()
    base = SimConfig(n_ris=8, master_seed=SEED, trials=160)
    spec = ExperimentSpec(kind="ris-gain", base=base, n_list=(8,),
                          heights=(100.0,))
    csv_1 = cli_run(spec, tmp_path / "w1", workers=1)
    csv_8 = cli_run(spec, tmp_path / "w8", workers=8)
    csv_1_again = cli_run(spec, tmp_path / "w1b", workers=1)

    failures = []
    if csv_1.read_bytes() != csv_8.read_bytes():
        failures.append("1-worker vs 8-worker CSVs differ")
    if csv_1.read_bytes() != csv_1_again.read_bytes():
        failures.append("rerun with the same seed changed the CSV")
    elapsed = time.monotonic() - started
    _check_budget(failures, elapsed, 120.0)
    _report(8, not failures,
            f"ris-gain CSV identical across reruns and worker counts, "
            f"{elapsed:.1f}s")
    assert not failures, "; ".join(failures)
