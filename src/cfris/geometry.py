"""Scenario configuration and 3-D node placement.

All nodes live in a D x D m^2 area: single-antenna APs at height h_ap,
ground users (GUEs) at h_gue, one UAV at h_uav, and an optional RIS mounted
on the y = 0 edge at height h_ris.  Horizontal coordinates of APs, GUEs and
the UAV are redrawn uniformly for every Monte-Carlo trial; the RIS is fixed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

SPEED_OF_LIGHT = 299792458.0


class ConfigError(ValueError):
    """Raised when a scenario parameter is out of range or malformed."""


class SimulationError(RuntimeError):
    """Raised when a run cannot proceed (e.g. degenerate geometry)."""


@dataclass(frozen=True)
class SimConfig:
    """Full scenario description for one simulation.

    Defaults reproduce the reference urban micro scenario: 20 APs and
    4 GUEs in a 40 x 40 m^2 area, 1.9 GHz carrier, 20 MHz bandwidth,
    -62 dBm noise, 1 W per-AP power budget, 15 degree antenna down-tilt,
    -30 dB pathloss at 1 m with exponent 2.4 for the elevated links.
    """

    m_ap: int = 20            # number of APs
    n_gue: int = 4            # number of ground users (k = 1..U)
    n_ris: int = 20           # RIS elements, 0 disables the RIS
    area_side: float = 40.0   # D, meters
    h_ap: float = 15.0
    h_ris: float = 12.0
    h_gue: float = 1.65
    h_uav: float = 100.0
    ris_x: float | None = None      # RIS sits at (ris_x, 0); None -> D/2
    carrier_freq_hz: float = 1.9e9
    bandwidth_hz: float = 20e6
    noise_power_dbm: float = -62.0
    p_d_w: float = 1.0        # per-AP downlink power budget
    kappa: float = 0.1        # power fraction given to the UAV
    tilt_deg: float = 15.0    # positive = down-tilt
    rho_db: float = -30.0     # pathloss at 1 m for the d^-alpha links
    alpha: float = 2.4
    master_seed: int = 1
    trials: int = 2000

    def __post_init__(self):
        if self.ris_x is None:
            object.__setattr__(self, "ris_x", self.area_side / 2.0)
        for key in self.field_names():
            value = getattr(self, key)
            _check(not isinstance(value, float) or math.isfinite(value),
                   key, "must be finite")
        _check(self.m_ap >= 1, "m_ap", "must be >= 1")
        _check(self.n_gue >= 1, "n_gue", "must be >= 1")
        _check(self.n_ris >= 0, "n_ris", "must be >= 0")
        _check(self.area_side > 0, "area_side", "must be > 0")
        # the RIS sits on the y = 0 edge of the area
        _check(0.0 <= self.ris_x <= self.area_side, "ris_x",
               "must be in [0, area_side]")
        _check(0.0 <= self.kappa <= 1.0, "kappa", "must be in [0, 1]")
        _check(self.p_d_w > 0, "p_d_w", "must be > 0")
        _check(self.carrier_freq_hz > 0, "carrier_freq_hz", "must be > 0")
        _check(self.bandwidth_hz > 0, "bandwidth_hz", "must be > 0")
        _check(self.alpha > 0, "alpha", "must be > 0")
        _check(self.trials >= 1, "trials", "must be >= 1")
        # h_ap enters the Hata constant through log10(h_ap)
        _check(self.h_ap > 0, "h_ap", "must be > 0")
        for key in ("h_ris", "h_gue", "h_uav"):
            _check(getattr(self, key) >= 0, key, "must be >= 0")
        _check(0 <= self.master_seed < 2**64, "master_seed",
               "must fit in 64 bits")

    @property
    def n_users(self) -> int:
        """Total served users K = U + 1 (index 0 is the UAV)."""
        return self.n_gue + 1

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def noise_power_w(self) -> float:
        return 10.0 ** ((self.noise_power_dbm - 30.0) / 10.0)

    def with_overrides(self, **kw) -> "SimConfig":
        return replace(self, **kw)

    @classmethod
    def field_names(cls):
        return [f.name for f in fields(cls)]


def _check(ok: bool, key: str, msg: str):
    if not ok:
        raise ConfigError(f"{key}: {msg}")


@dataclass(frozen=True)
class NetworkLayout:
    """One realization of all node positions.

    User index convention: k = 0 is the UAV, k = 1..U are GUEs.
    """

    ap_pos: np.ndarray    # (M, 3)
    gue_pos: np.ndarray   # (U, 3)
    uav_pos: np.ndarray   # (3,)
    ris_pos: np.ndarray   # (3,)

    @property
    def user_pos(self) -> np.ndarray:
        """(U+1, 3) stack with the UAV first."""
        return np.vstack([self.uav_pos, self.gue_pos])


def place_nodes(cfg: SimConfig, rng: np.random.Generator) -> NetworkLayout:
    """Draw AP/GUE/UAV horizontal positions uniformly on [0, D]^2.

    Heights are fixed by the configuration; the RIS sits at
    (ris_x, 0, h_ris).  Deterministic given the generator state.
    """
    d = cfg.area_side
    ap_xy = rng.uniform(0.0, d, size=(cfg.m_ap, 2))
    gue_xy = rng.uniform(0.0, d, size=(cfg.n_gue, 2))
    uav_xy = rng.uniform(0.0, d, size=2)
    ap_pos = np.column_stack([ap_xy, np.full(cfg.m_ap, cfg.h_ap)])
    gue_pos = np.column_stack([gue_xy, np.full(cfg.n_gue, cfg.h_gue)])
    uav_pos = np.array([uav_xy[0], uav_xy[1], cfg.h_uav])
    ris_pos = np.array([cfg.ris_x, 0.0, cfg.h_ris])
    return NetworkLayout(ap_pos=ap_pos, gue_pos=gue_pos,
                         uav_pos=uav_pos, ris_pos=ris_pos)
