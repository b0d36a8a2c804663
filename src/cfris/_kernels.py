"""The three array kernels of a trial, under their benchmark names.

``aggregate`` combines the direct and RIS-reflected paths,
``align_phases`` phases the RIS toward the UAV and ``sinr_users``
evaluates the per-user SINR.  The math lives in the stage functions
(``channel.combine_paths``, ``beamforming.ris_align_uav``,
``link.sinr_all``), which take stacked realizations; the pipeline calls
those, not these.  The names are kept only because the benchmark tracer
(perfbench/child.py) wraps them, and its work counters read 2-D shapes.
"""
from __future__ import annotations

from .beamforming import ris_align_uav
from .channel import combine_paths
from .link import sinr_all


def aggregate(h_direct, H_ris, v, h_ris_user):
    return combine_paths(h_direct, H_ris, v, h_ris_user)


def align_phases(H_ris, h_ris_uav, h_uav):
    return ris_align_uav(H_ris, h_ris_uav, h_uav).v


def sinr_users(G, W, eta, noise_w):
    return sinr_all(G, W, eta, noise_w)
