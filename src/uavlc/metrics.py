"""NOMA rate computation, power accounting and feasibility checking.

Users decode in ascending order of effective gain |h_k^H A w_k|^2; each user
is interfered only by users later (stronger) in that order. Energy
efficiency is the sum rate over total consumed power.

`per_user_rate` is the one SINR loop: the feasibility report and the greedy
bisection both call it, many times per slot. It forms the cross-gain matrix
with numpy and sums the interference over Python floats, left to right,
which equals numpy's own sum bit for bit below 8 terms (numpy sums longer
runs in 8-way pairwise blocks). The logarithm stays one vector `np.log2`:
`math.log2` differs from it in the last bit on some inputs.

`order_users` keeps its own `einsum` for the effective gains. The diagonal
of the cross-gain matrix `h.T @ masked` holds the same quantity, but BLAS
rounds it differently: the two differed in the last bit on 13,118 of 20,000
random cases with K = 1..8, and a last-bit change can swap near-equal
users in the decoding order and so change every result after it.

`check_p1_feasibility` forms the masked magnitudes |w| on active LEDs once
and takes both the transmit power (sum over all entries) and the C3 row
sums from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dimming import (LedSelection, beamforming_bound, dimming_level_of,
                      DimmingConfig, is_binary)
from .uav import UavState, check_flight, FlightConfig


@dataclass
class PowerBreakdown:
    transmit: float     # amplifier-side beamforming power [W]
    bias: float         # DC-bias power [W]
    circuit: float      # P_Cir [W]
    propulsion: float   # P_Prop [W]

    @property
    def total(self) -> float:
        return self.transmit + self.bias + self.circuit + self.propulsion


@dataclass
class RateReport:
    rates: np.ndarray       # per-user, original indexing [bits/s/Hz]
    order: np.ndarray       # decoding order (ascending effective gain)

    @property
    def sum_rate(self) -> float:
        return float(self.rates.sum())


@dataclass
class QosConfig:
    r_min: float    # [bits/s/Hz]
    p_max: float    # [W]

    def __post_init__(self):
        if self.r_min <= 0 or self.p_max <= 0:
            raise ValueError("r_min and p_max must be positive")


def effective_gains(h: np.ndarray, w: np.ndarray,
                    selection: LedSelection) -> np.ndarray:
    """|h_k^H A w_k|^2 for every user."""
    masked = w * selection.a[:, None]
    return np.einsum("nk,nk->k", h, masked) ** 2


def order_users(h: np.ndarray, w: np.ndarray,
                selection: LedSelection) -> np.ndarray:
    """Decoding order: ascending effective gain, ties by user index."""
    g = effective_gains(h, w, selection)
    return np.argsort(g, kind="stable")


def per_user_rate(h: np.ndarray, w: np.ndarray, selection: LedSelection,
                  noise_var: np.ndarray, order: np.ndarray) -> RateReport:
    """Per-user NOMA rate with interference from later-ordered users.

    noise_var holds one variance per user.
    """
    order = np.asarray(order)
    k_users = h.shape[1]
    noise = np.asarray(noise_var, dtype=float).tolist()
    masked = w * selection.a[:, None]
    # cross[k][i] = |h_k^H A w_i|^2
    cross = ((h.T @ masked) ** 2).tolist()
    ks = order.tolist()
    signal = [0.0] * k_users
    denom = [1.0] * k_users
    for pos, k in enumerate(ks):
        row = cross[k]
        interference = 0.0
        for i in ks[pos + 1:]:
            interference += row[i]
        signal[k] = row[k]
        denom[k] = interference + noise[k]
    sinr = np.divide(signal, denom)
    return RateReport(rates=np.log2(1.0 + sinr), order=order)


def total_power(w: np.ndarray, selection: LedSelection, i_dc: float,
                p_propulsion: float, amp_efficiency: float,
                conversion_factor: float, circuit_power: float
                ) -> PowerBreakdown:
    """Total power: amplifier + DC bias + circuit + propulsion.

    The amplifier term sums |w_{n,k}| over active LEDs; magnitudes keep the
    term non-negative for signed beamformer entries.
    """
    return _power(active_magnitudes(w, selection), selection.n_active, i_dc,
                  p_propulsion, amp_efficiency, conversion_factor,
                  circuit_power)


def active_magnitudes(w: np.ndarray, selection: LedSelection) -> np.ndarray:
    """|w_{n,k}| on active LEDs, 0 on inactive ones."""
    return np.abs(w) * selection.a[:, None]


def _power(magnitudes: np.ndarray, n_active: int, i_dc: float,
           p_propulsion: float, amp_efficiency: float,
           conversion_factor: float, circuit_power: float) -> PowerBreakdown:
    return PowerBreakdown(transmit=amp_efficiency * float(magnitudes.sum()),
                          bias=conversion_factor * n_active * i_dc,
                          circuit=circuit_power, propulsion=p_propulsion)


def energy_efficiency(rates: RateReport, power: PowerBreakdown) -> float:
    """Sum rate per watt of total consumed power."""
    if power.total <= 0:
        raise ZeroDivisionError("total power must be positive")
    return rates.sum_rate / power.total


def check_p1_feasibility(w: np.ndarray, selection: LedSelection, i_dc: float,
                         v_next: np.ndarray, h_true: np.ndarray,
                         noise_var: np.ndarray, uav_state: UavState,
                         flight_cfg: FlightConfig, dim_cfg: DimmingConfig,
                         qos: QosConfig, p_propulsion: float,
                         amp_efficiency: float, conversion_factor: float,
                         circuit_power: float) -> dict:
    """Per-constraint boolean report for the full problem at one slot.

    C1 is evaluated against true channels. C4 (the kinematic update rule)
    holds by construction of the environment stepper. RTS is the
    return-to-start boundary condition attached to the final slot.
    """
    order = order_users(h_true, w, selection)
    report_rates = per_user_rate(h_true, w, selection, noise_var, order)
    magnitudes = active_magnitudes(w, selection)
    n_a = selection.n_active
    power = _power(magnitudes, n_a, i_dc, p_propulsion, amp_efficiency,
                   conversion_factor, circuit_power)
    flight = check_flight(uav_state, v_next, flight_cfg)
    bound = beamforming_bound(i_dc, dim_cfg.i_low, dim_cfg.i_high)
    row_sums = magnitudes.sum(axis=1)
    eta_back = dimming_level_of(n_a, i_dc, dim_cfg)
    report = {
        "C1": bool((report_rates.rates >= qos.r_min - 1e-12).all()),
        "C2": power.total <= qos.p_max * (1.0 + 1e-12),
        "C3": bool((row_sums <= bound * (1.0 + 1e-9) + 1e-15).all()),
        "C4": True,
        "C5": "C5" not in flight,
        "C6": "C6" not in flight,
        "C7": "C7" not in flight,
        "C8": abs(eta_back - dim_cfg.eta) <= 1e-9,
        "C9": is_binary(selection.a) and n_a >= 1,
        "RTS": "RTS" not in flight,
    }
    report["feasible"] = all(report[k] for k in
                             ("C1", "C2", "C3", "C4", "C5", "C6", "C7",
                              "C8", "C9", "RTS"))
    report["rates"] = report_rates
    report["power"] = power
    return report
