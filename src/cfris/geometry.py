"""Scenario configuration and 3-D node placement.

All nodes live in a D x D m^2 area: single-antenna APs at height h_ap,
ground users (GUEs) at h_gue, one UAV at h_uav, and an optional RIS mounted
on the y = 0 edge at height h_ris.  Horizontal coordinates of APs, GUEs and
the UAV are redrawn uniformly for every Monte-Carlo trial; the RIS is fixed.
"""
from __future__ import annotations

import math
import numbers
import typing
from dataclasses import dataclass, replace

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
    # not a field: set when ris_x is derived from area_side
    _ris_x_derived = False

    def __post_init__(self):
        for key, kind in FIELD_TYPES.items():
            if key == "ris_x" and self.ris_x is None:
                # D/2; area_side, an earlier field, is checked by now
                object.__setattr__(self, "ris_x", self.area_side / 2.0)
                object.__setattr__(self, "_ris_x_derived", True)
            value = getattr(self, key)
            abc, noun = _NUMBERS[kind]
            # a numpy integer is an Integral, and so is a bool; the exact
            # type skips the slow ABC check
            _check((type(value) is kind or isinstance(value, abc)
                    and not isinstance(value, bool))
                   and (kind is int or _finite(value)), key,
                   f"must be {noun}")
            # every int field has a lower bound below; master_seed has its
            # own 64-bit range
            _check(kind is float or key == "master_seed" or value < 2**63,
                   key, "must be below 2**63")
        for key in ("m_ap", "n_gue", "trials"):
            _check(getattr(self, key) >= 1, key, "must be >= 1")
        # h_ap enters the Hata constant through log10(h_ap)
        for key in ("area_side", "h_ap", "carrier_freq_hz", "bandwidth_hz",
                    "p_d_w", "alpha"):
            _check(getattr(self, key) > 0, key, "must be > 0")
        for key in ("n_ris", "h_ris", "h_gue", "h_uav"):
            _check(getattr(self, key) >= 0, key, "must be >= 0")
        # the RIS sits on the y = 0 edge of the area
        _check(0.0 <= self.ris_x <= self.area_side, "ris_x",
               "must be in [0, area_side]")
        _check(0.0 <= self.kappa <= 1.0, "kappa", "must be in [0, 1]")
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
        # a derived ris_x follows a new area_side; a given one is kept
        if self._ris_x_derived:
            kw.setdefault("ris_x", None)
        return replace(self, **kw)


# The type of every SimConfig field: int, or float (ris_x: float | None).
FIELD_TYPES = {name: int if hint is int else float
               for name, hint in typing.get_type_hints(SimConfig).items()}
_NUMBERS = {int: (numbers.Integral, "an integer"),
            float: (numbers.Real, "a finite real number")}


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


def _check(ok: bool, key: str, msg: str):
    if not ok:
        raise ConfigError(f"{key}: {msg}")


class NetworkLayout(typing.NamedTuple):
    """One realization of all node positions, or a stack of them.

    User index convention: k = 0 is the UAV, k = 1..U are GUEs.  The
    moving nodes may carry the same leading batch axes (...), one entry
    per realization; the RIS is fixed and is shared by all of them.
    """

    ap_pos: np.ndarray    # (..., M, 3)
    gue_pos: np.ndarray   # (..., U, 3)
    uav_pos: np.ndarray   # (..., 3)
    ris_pos: np.ndarray   # (3,)


def place_nodes(cfg: SimConfig, rng) -> NetworkLayout:
    """Draw AP/GUE/UAV horizontal positions uniformly on [0, D]^2.

    ``rng`` is a Generator, or the unit uniforms drawn beforehand: 2 (M +
    U + 1) per layout, the x, y pairs of the APs, then of the GUEs, then
    of the UAV, after any leading batch axes, which give a stack of
    layouts.  From a Generator they are drawn in one call, which consumes
    the stream as per-node-group ``uniform(0, D)`` calls would; D u equals
    ``uniform(0, D)`` bit for bit.  Heights are fixed by the configuration;
    the RIS sits at (ris_x, 0, h_ris).
    """
    m, u = cfg.m_ap, cfg.n_gue
    if isinstance(rng, np.random.Generator):
        rng = rng.random(2 * (m + u + 1))
    xy = cfg.area_side * np.asarray(rng, dtype=float)
    xy = xy.reshape(xy.shape[:-1] + (m + u + 1, 2))

    def nodes(node_xy, height):
        pos = np.empty(node_xy.shape[:-1] + (3,))
        pos[..., :2] = node_xy
        pos[..., 2] = height
        return pos

    return NetworkLayout(ap_pos=nodes(xy[..., :m, :], cfg.h_ap),
                         gue_pos=nodes(xy[..., m:m + u, :], cfg.h_gue),
                         uav_pos=nodes(xy[..., m + u, :], cfg.h_uav),
                         ris_pos=np.array([cfg.ris_x, 0.0, cfg.h_ris]))
