"""Lambertian line-of-sight optical channel between the UAV array and users.

The LED array is treated as co-located (one geometry shared by all N LEDs),
so the N x K gain matrix has identical rows within each user column.
Channel estimates carry a bounded error: |h_hat - h| <= delta element-wise,
drawn uniformly and clamped at zero from below.

`channel_matrix` is the one gain kernel (`los_channel_gain` is its one-user
case). It is exact against a per-user `np.linalg.norm` loop because its
distances use the same BLAS `ddot`; see its docstring. The Lambertian order
m and the concentrator gain inside the field of view depend on the optics
alone, so `OpticsParams` works them out once, when it is built, with
`lambertian_order` and `concentrator_gain`; it is frozen, so they cannot
go stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OpticsParams:
    """The LED and photo-diode optics; `lambertian_m` and `fov_gain` (the
    concentrator gain inside the field of view) follow from them."""
    half_power_semiangle: float   # Phi_1/2 [rad]
    fov_semiangle: float          # Psi_c [rad]
    pd_area: float                # A [m^2]
    refractive_index: float       # q, dimensionless >= 0

    def __post_init__(self):
        if not 0.0 < self.half_power_semiangle < 0.5 * math.pi:
            raise ValueError("half-power semi-angle must be in (0, pi/2)")
        if not 0.0 < self.fov_semiangle <= 0.5 * math.pi:
            raise ValueError("FOV semi-angle must be in (0, pi/2]")
        if self.pd_area <= 0:
            raise ValueError("PD area must be positive")
        if self.refractive_index < 0:
            raise ValueError("refractive index must be >= 0")
        # not fields: per-optics constants of `channel_matrix`
        object.__setattr__(self, "lambertian_m",
                           lambertian_order(self.half_power_semiangle))
        object.__setattr__(self, "fov_gain", concentrator_gain(0.0, self))


@dataclass
class ChannelState:
    true_gain: np.ndarray     # H, N x K
    est_gain: np.ndarray      # H_hat, N x K
    noise_var: np.ndarray     # sigma_k^2, length K


def lambertian_order(half_power_semiangle: float) -> float:
    """Lambertian emission order m = -ln 2 / ln(cos Phi_1/2)."""
    if not 0.0 < half_power_semiangle < 0.5 * math.pi:
        raise ValueError("half-power semi-angle must be in (0, pi/2)")
    c = math.cos(half_power_semiangle)
    if c <= 0.0 or c >= 1.0:
        raise ValueError("cos(half-power semi-angle) must be in (0, 1)")
    return -math.log(2.0) / math.log(c)


def concentrator_gain(psi: float, optics: OpticsParams) -> float:
    """Optical concentrator gain: q^2 / sin^2(Psi_c) inside the FOV, else 0."""
    if psi < 0:
        raise ValueError("incidence angle must be non-negative")
    if psi > optics.fov_semiangle:
        return 0.0
    return optics.refractive_index ** 2 / math.sin(optics.fov_semiangle) ** 2


def los_channel_gain(uav: np.ndarray, user: np.ndarray,
                     optics: OpticsParams) -> float:
    """LoS gain h = (m+1)A/(2 pi d^2) G(psi) cos^m(phi) cos(psi).

    The one-user case of `channel_matrix`, which documents the geometry.
    """
    return float(channel_matrix(uav, np.reshape(user, (1, 3)), optics,
                                1)[0, 0])


def channel_matrix(uav: np.ndarray, users, optics: OpticsParams,
                   n_leds: int) -> np.ndarray:
    """N x K true-gain matrix; all rows of a column equal (co-located array).

    Column k is the LoS gain h = (m+1)A/(2 pi d^2) G(psi) cos^m(phi)
    cos(psi) of user k. The UAV array points straight down and the PD
    straight up, so the irradiance and incidence angles coincide:
    cos psi = cos phi = dz / d. A gain is 0 when the incidence angle
    exceeds the FOV semi-angle, which includes any geometry with the UAV
    at or below the user's plane.

    The squared distances come from one stacked matmul of (1, 3) by (3, 1)
    blocks, which numpy computes with BLAS `ddot` per block, exactly as
    `np.linalg.norm` does for one vector (a Python sum of squares differs
    in the last bit on some inputs). The rest is Python float arithmetic in
    the order of the formula above, with m and G from `optics`.
    """
    if n_leds < 1:
        raise ValueError("need at least one LED")
    users = np.asarray(users, dtype=float).reshape(-1, 3)
    if users.shape[0] == 0:
        raise ValueError("need at least one user")
    diff = np.asarray(uav, dtype=float) - users
    sq_dist = np.matmul(diff[:, None, :], diff[:, :, None]).ravel().tolist()
    m, g = optics.lambertian_m, optics.fov_gain
    scale = (m + 1.0) * optics.pd_area
    two_pi = 2.0 * math.pi
    gains = []
    for d2, (_, _, dz) in zip(sq_dist, diff.tolist()):
        d = math.sqrt(d2)
        if d == 0.0:
            raise ValueError("degenerate geometry: UAV and user coincide")
        cos_psi = dz / d
        if dz <= 0.0 or math.acos(min(1.0, cos_psi)) > optics.fov_semiangle:
            gains.append(0.0)
        else:
            gains.append(scale / (two_pi * d * d) * g * cos_psi ** m
                         * cos_psi)
    h = np.empty((n_leds, len(gains)))
    h[:] = gains
    return h


def perturb_csi(h: np.ndarray, delta: float,
                rng: np.random.Generator) -> np.ndarray:
    """Estimated gains: H + eps with eps ~ U[-delta, delta], clamped at 0."""
    if delta < 0:
        raise ValueError("uncertainty radius must be non-negative")
    if delta == 0.0:
        return h.copy()
    # eps + h is h + eps; both steps write into the draw's own array
    eps = rng.uniform(-delta, delta, size=h.shape)
    np.add(eps, h, out=eps)
    return np.maximum(eps, 0.0, out=eps)
