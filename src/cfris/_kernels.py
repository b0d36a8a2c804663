"""The three array kernels of a trial.

``aggregate`` combines the direct and RIS-reflected paths,
``align_phases`` phases the RIS toward the UAV and ``sinr_users``
evaluates the per-user SINR.  Each is a few numpy expressions over plain
arrays; ``perfbench`` times and counts them under these names.
"""
from __future__ import annotations

import numpy as np


# aggregate channel: G[m,k] = h_direct[m,k] + sum_n H_ris[m,n] v[n] h_ru[n,k]
def aggregate(h_direct, H_ris, v, h_ris_user):
    return h_direct + H_ris @ (v[:, None] * h_ris_user)


# RIS phase alignment: v[n] = exp(-j angle(sum_m R[m,n] conj(h_uav[m])))
# with R[m,n] = H_ris[m,n] * h_ris_uav[n]; zero coefficient -> phase 0.
def align_phases(H_ris, h_ris_uav, h_uav):
    t = (H_ris * h_ris_uav[None, :]).T @ np.conj(h_uav)
    mag = np.abs(t)
    v = np.ones_like(t)
    nz = mag > 0.0
    v[nz] = np.conj(t[nz]) / mag[nz]
    return v


# per-user SINR of the downlink signal model:
#   A[k,k'] = sum_m sqrt(eta[m,k']) G[m,k] W[m,k']
#   sinr[k] = |A[k,k]|^2 / (sum_{k'!=k} |A[k,k']|^2 + noise)
def sinr_users(G, W, eta, noise_w):
    a = G.T @ (np.sqrt(eta) * W)
    diag = np.abs(np.diagonal(a)) ** 2
    den = np.sum(np.abs(a) ** 2, axis=1) - diag + noise_w
    return diag / den
