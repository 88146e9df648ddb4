"""NOMA rate computation, power accounting and feasibility checking.

Users decode in ascending order of effective gain |h_k^H A w_k|^2; each user
is interfered only by users later (stronger) in that order. Energy
efficiency is the sum rate over total consumed power.

`per_user_rate` is the one SINR loop: the feasibility report calls it once
per slot, and the exhaustive greedy slot search once per LED subset. It
forms the cross-gain matrix with numpy and sums the interference over
Python floats, left to right, which equals numpy's own sum bit for bit
below 8 terms (numpy sums longer runs in 8-way pairwise blocks). It forms
1 + SINR as Python floats too: one IEEE division and one addition per
user, the operations numpy's elementwise division and addition make, so
the same floats. A zero denominator, which takes a zero noise variance
(`SystemConfig` refuses one), raises ZeroDivisionError. The logarithm
stays one vector `np.log2` of that list: `math.log2` differs from it in
the last bit on some inputs.

`order_users` keeps its own `einsum` for the effective gains. The diagonal
of the cross-gain matrix `h.T @ masked` holds the same quantity, but BLAS
rounds it differently: the two differed in the last bit on 13,118 of 20,000
random cases with K = 1..8, and a last-bit change can swap near-equal
users in the decoding order and so change every result after it.

`check_p1_feasibility(env, action, p_propulsion)` takes the slot's
beamformer, LED selection and velocity from the decoded action, and the
channels, UAV state and per-env constants (rate floor, power budget and
coefficients, flight and dimming sets, DC bias, dynamic-range bound) from
the env, which works each constant out once, and returns the outcome
columns of the slot's trace row. It forms the masked magnitudes |w| on
active LEDs once and takes both the transmit power (sum over all entries)
and the C3 row sums from them, and lists the rates once for both C1 and
the rate columns. It compares the rates (C1) and row sums (C3) as Python
floats, the same IEEE comparisons numpy makes, NaN included. The power
terms are `PowerBreakdown`'s, added in its order, without building one.

Sums call `np.add.reduce` directly (the transmit power over all entries,
the C3 row sums, the sum rate): `ndarray.sum` is that same reduction
behind a Python wrapper, so the floats are the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dimming import LedSelection, dimming_level_of, is_binary
from .uav import check_flight

# the constraints of problem P1 that a slot report checks, in row order
CONSTRAINTS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "RTS")


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


def effective_gains(h: np.ndarray, w: np.ndarray,
                    selection: LedSelection) -> np.ndarray:
    """|h_k^H A w_k|^2 for every user."""
    masked = w * selection.a[:, None]
    return np.einsum("nk,nk->k", h, masked) ** 2


def order_users(h: np.ndarray, w: np.ndarray,
                selection: LedSelection) -> np.ndarray:
    """Decoding order: ascending effective gain, ties by user index."""
    return effective_gains(h, w, selection).argsort(kind="stable")


def per_user_rate(h: np.ndarray, w: np.ndarray, selection: LedSelection,
                  noise_var: np.ndarray, order: np.ndarray) -> RateReport:
    """Per-user NOMA rate with interference from later-ordered users.

    noise_var holds one variance per user.
    """
    order = np.asarray(order)
    noise = np.asarray(noise_var, dtype=float).tolist()
    masked = w * selection.a[:, None]
    # cross[k][i] = |h_k^H A w_i|^2
    cross = ((h.T @ masked) ** 2).tolist()
    ks = order.tolist()
    # 1 + SINR; a user outside `order` keeps 1 + 0 / 1
    one_plus = [1.0] * h.shape[1]
    for pos, k in enumerate(ks):
        row = cross[k]
        interference = 0.0
        for i in ks[pos + 1:]:
            interference += row[i]
        one_plus[k] = 1.0 + row[k] / (interference + noise[k])
    return RateReport(rates=np.log2(one_plus), order=order)


def total_power(w: np.ndarray, selection: LedSelection, i_dc: float,
                p_propulsion: float, amp_efficiency: float,
                conversion_factor: float, circuit_power: float
                ) -> PowerBreakdown:
    """Total power: amplifier + DC bias + circuit + propulsion.

    The amplifier term sums |w_{n,k}| over active LEDs; magnitudes keep the
    term non-negative for signed beamformer entries.
    """
    magnitudes = active_magnitudes(w, selection)
    return PowerBreakdown(
        transmit=amp_efficiency * float(np.add.reduce(magnitudes, axis=None)),
        bias=conversion_factor * selection.n_active * i_dc,
        circuit=circuit_power, propulsion=p_propulsion)


def active_magnitudes(w: np.ndarray, selection: LedSelection) -> np.ndarray:
    """|w_{n,k}| on active LEDs, 0 on inactive ones."""
    return np.abs(w) * selection.a[:, None]


def energy_efficiency(sum_rate: float, p_total: float) -> float:
    """Sum rate per watt of total consumed power."""
    if p_total <= 0:
        raise ZeroDivisionError("total power must be positive")
    return sum_rate / p_total


def check_p1_feasibility(env, action, p_propulsion: float) -> dict:
    """The outcome columns of the slot's trace row, in trace order.

    Reads `action.w`, `action.selection` and `action.velocity` (the next
    slot velocity); `env.channels` (`true_gain`, `noise_var`) and
    `env.uav_state`; `env.cfg.r_min`, `env.cfg.p_max`,
    `env.cfg.amp_efficiency`, `env.cfg.conversion_factor` and
    `env.cfg.circuit_power`; `env.flight_cfg`, `env.dim_cfg`, `env.i_dc`
    and `env.bound`. The columns: `p_transmit`, `p_bias`, `p_circuit`,
    `p_propulsion`, `p_total`, `sum_rate`, `rate_0` ... `rate_{K-1}`, then
    `CONSTRAINTS` and `feasible` as 0/1. C1 is evaluated against true
    channels. C4 (the kinematic update rule) holds by construction of the
    environment stepper. RTS is the return-to-start boundary condition
    attached to the final slot.
    """
    w, selection = action.w, action.selection
    cfg, channels = env.cfg, env.channels
    h_true = channels.true_gain
    order = order_users(h_true, w, selection)
    rates = per_user_rate(h_true, w, selection, channels.noise_var,
                          order).rates
    rate_list = rates.tolist()
    magnitudes = active_magnitudes(w, selection)
    n_a = selection.n_active
    # PowerBreakdown's terms and total, in its order
    transmit = cfg.amp_efficiency * float(np.add.reduce(magnitudes,
                                                        axis=None))
    bias = cfg.conversion_factor * n_a * env.i_dc
    circuit = cfg.circuit_power
    total = transmit + bias + circuit + p_propulsion
    rate_floor = cfg.r_min - 1e-12
    row_limit = env.bound * (1.0 + 1e-9) + 1e-15
    flight = check_flight(env.uav_state, action.velocity, env.flight_cfg)
    eta_back = dimming_level_of(n_a, env.i_dc, env.dim_cfg)
    # in CONSTRAINTS order
    verdicts = (
        all(r >= rate_floor for r in rate_list),
        total <= cfg.p_max * (1.0 + 1e-12),
        all(s <= row_limit
            for s in np.add.reduce(magnitudes, axis=1).tolist()),
        True,
        flight["C5"], flight["C6"], flight["C7"],
        abs(eta_back - env.dim_cfg.eta) <= 1e-9,
        is_binary(selection.a) and n_a >= 1,
        flight["RTS"])
    row = {"p_transmit": transmit, "p_bias": bias, "p_circuit": circuit,
           "p_propulsion": p_propulsion, "p_total": total,
           "sum_rate": float(np.add.reduce(rates))}
    row.update({f"rate_{k}": rate for k, rate in enumerate(rate_list)})
    row.update(zip(CONSTRAINTS, map(int, verdicts)))
    row["feasible"] = int(all(verdicts))
    return row
