"""Non-learned allocation baselines: random and greedy.

Both emit raw box actions, so decoded actions always satisfy the
dynamic-range and binary-selection constraints. The greedy procedure:
activate the LEDs with the largest aggregate estimated gain, shape beam
columns along each user's estimated channel with power-cascade norms, then
bisect a common scale to the smallest value meeting the rate floor on
estimated channels (capped at the dynamic-range bound). Flight: clamped
max velocity toward the user centroid, reserving slots to return home.

The power-cascade fixed point runs on Python floats: its ratio matrix is
formed once with numpy, and its sums run left to right, which equals
numpy's own sum bit for bit below 8 terms (numpy sums longer runs in 8-way
pairwise blocks). The bisection stops once a midpoint rounds onto an end of
its bracket, from where every further step would repeat itself.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .dimming import LedSelection, select_leds
from .metrics import per_user_rate, order_users, total_power


class RandomPolicy:
    """Uniform raw actions; separate RNG streams per action block so the
    velocity sequence is reproducible across array/user-count sweeps."""

    def __init__(self, env, seed: int):
        self.env = env
        ss = np.random.SeedSequence(seed)
        beam_ss, led_ss, vel_ss = ss.spawn(3)
        self._beam_rng = np.random.default_rng(beam_ss)
        self._led_rng = np.random.default_rng(led_ss)
        self._vel_rng = np.random.default_rng(vel_ss)

    def __call__(self, obs) -> np.ndarray:
        n, k = self.env.cfg.n_leds, self.env.cfg.n_users
        return np.concatenate([
            self._beam_rng.uniform(-1.0, 1.0, n * k),
            self._led_rng.uniform(-1.0, 1.0, n),
            self._vel_rng.uniform(-1.0, 1.0, 3),
        ])


def noma_cascade_amplitudes(gains: np.ndarray, r_min: float,
                            noise_var: float,
                            order_margin: float = 0.3,
                            max_iters: int = 200) -> np.ndarray:
    """Near-minimal effective signal amplitudes meeting the rate floor.

    gains: per-user effective channel amplitude per unit beam amplitude.
    Decoding runs in ascending order of effective gain with interference
    from later-decoded users, so a consistent design must keep the
    effective amplitudes ascending along the decoding order while every
    SINR clears the floor. The least such point is found by a monotone
    fixed-point iteration (raise any user below its SINR requirement, then
    restore strict ordering). order_margin keeps consecutive effective
    powers separated by a relative gap, so the realized decoding order
    survives channel-estimate error. When the requirements diverge the
    floor is
    unreachable at any power and the current iterate is returned (it will
    be capped at the dynamic-range bound downstream). Zero-gain users get
    zero: their floor is unreachable regardless of power.
    """
    gamma = float(2.0 ** r_min - 1.0)
    served = np.flatnonzero(gains > 0.0)
    e2 = np.zeros(gains.shape[0])
    if served.size == 0:
        return e2
    order = served[np.argsort(gains[served], kind="stable")]
    g = gains[order]
    # ratio[p][j] = (g_p / g_j)^2 over positions in decoding order
    ratio = ((g[:, None] / g[None, :]) ** 2).tolist()
    noise_var = float(noise_var)
    n = order.size
    e = [gamma * noise_var] * n
    cap = gamma * noise_var * 1e12
    for _ in range(max_iters):
        changed = False
        for pos in range(n - 1, -1, -1):
            row = ratio[pos]
            interference = 0.0
            for j in range(pos + 1, n):
                interference += e[j] * row[j]
            req = gamma * (interference + noise_var)
            if req > e[pos] * (1.0 + 1e-12):
                e[pos] = req
                changed = True
        for pos in range(1, n):
            floor = e[pos - 1] * (1.0 + order_margin)
            if e[pos] < floor:
                e[pos] = floor
                changed = True
        if not changed or e[-1] > cap:
            break
    e2[order] = e
    return np.sqrt(e2)


def cascade_beamformer(h_est: np.ndarray, selection: LedSelection,
                       bound: float, r_min: float, noise_var: float,
                       headroom: float = 0.05,
                       bisect_iters: int = 60) -> np.ndarray:
    """Minimum-common-scale beamformer for one slot.

    Columns are proportional to the (non-negative) estimated channel over
    active LEDs with cascade norms; a bisection on the common scale finds
    the smallest multiple meeting the rate floor for every user on
    estimated channels. The floor is designed with a small relative
    headroom so the point survives bounded channel-estimate error when
    judged on true channels. The scale is capped so no LED row exceeds
    the dynamic-range bound.
    """
    n, k_users = h_est.shape
    active = selection.a.astype(bool)
    n_a = selection.n_active
    r_target = r_min * (1.0 + headroom)
    # co-located array: per-LED gain equals the column mean over active rows
    col_gain = h_est[active].mean(axis=0) if n_a else np.zeros(k_users)
    eff_gain = col_gain * n_a
    e_req = noma_cascade_amplitudes(eff_gain, r_target, noise_var)
    w = np.zeros((n, k_users))
    with np.errstate(divide="ignore", invalid="ignore"):
        per_led = np.where(eff_gain > 0.0, e_req / eff_gain, 0.0)
    w[active] = per_led
    row_sum = per_led.sum()
    if row_sum <= 0.0:
        return w
    t_cap = bound / row_sum
    if t_cap <= 1.0:
        return w * t_cap

    served = eff_gain > 0.0
    floor = r_target * (1.0 - 1e-9)
    noise = np.full(k_users, noise_var)

    def meets_floor(t: float) -> bool:
        wt = w * t
        order = order_users(h_est, wt, selection)
        rr = per_user_rate(h_est, wt, selection, noise, order)
        return bool((rr.rates[served] >= floor).all())

    lo, hi = 0.0, min(1.0 + 1e-9, t_cap)
    if not meets_floor(hi):
        hi = t_cap
        if not meets_floor(hi):
            return w * t_cap
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        # hi has passed and lo (0, or a checked point) has failed, so a
        # midpoint that rounds onto either leaves the bracket unchanged
        if mid == lo or mid == hi:
            break
        if meets_floor(mid):
            hi = mid
        else:
            lo = mid
    return w * min(hi * (1.0 + 1e-9), t_cap)


class GreedyPolicy:
    """Per-slot greedy allocation plus a centroid-and-return flight plan."""

    def __init__(self, env, cruise_altitude: float | None = None):
        self.env = env
        cfg = env.cfg
        centroid = env.task.user_positions.mean(axis=0)
        if cruise_altitude is None:
            # lowest altitude keeping every user inside the receiver
            # field of view from the hover point: low hovering spreads the
            # channel gains apart, which the decoding order needs
            r_max = float(np.max(np.linalg.norm(
                env.task.user_positions[:, :2] - centroid[:2], axis=1)))
            fov = cfg.fov_semiangle
            z_fov = 1.05 * r_max / max(math.tan(fov), 1e-9)
            cruise_altitude = min(max(cfg.q_min[2], z_fov), cfg.q_max[2])
        self.cruise_altitude = cruise_altitude
        self.target = np.array([centroid[0], centroid[1], cruise_altitude])
        q_min, q_max = np.asarray(cfg.q_min), np.asarray(cfg.q_max)
        margin = 0.02 * (q_max - q_min)
        self.target = np.clip(self.target, q_min + margin, q_max - margin)

    def _velocity_command(self) -> np.ndarray:
        env = self.env
        cfg = env.cfg
        state = env.uav_state
        tau = cfg.slot_duration
        slots_left = cfg.n_slots - state.slot
        home = env.task.q_init
        dist_home = np.linalg.norm(home - state.position)
        # extra slots cover reversing the current velocity under the
        # acceleration limit, plus one slot of slack
        turnaround = math.ceil(2.0 * cfg.v_max / (cfg.a_max * tau))
        slots_home = math.ceil(dist_home / (cfg.v_max * tau)) + turnaround + 1
        goal = home if slots_left <= slots_home else self.target
        delta = goal - state.position
        dist = np.linalg.norm(delta)
        if dist < 1e-9:
            return np.zeros(3)
        # braking limit: never command a speed the acceleration bound
        # cannot wind down within the remaining distance, or the clamp
        # would carry the UAV past the goal (and possibly out of the box)
        v_brake = cfg.a_max * (math.sqrt(tau * tau + 2.0 * dist / cfg.a_max)
                               - tau)
        speed = min(cfg.v_max, dist / tau, v_brake)
        return delta / dist * speed

    def __call__(self, obs) -> np.ndarray:
        env = self.env
        cfg = env.cfg
        h_est = env.channels.est_gain
        scores = h_est.sum(axis=1)
        selection = select_leds(scores, env.n_active)
        w = cascade_beamformer(h_est, selection, env.bound, cfg.r_min,
                               cfg.noise_var)
        v = self._velocity_command()
        raw_beam = np.clip(w / env.bound, -1.0, 1.0).ravel()
        raw_scores = selection.a.astype(float)
        raw_v = np.clip(v / cfg.v_max, -1.0, 1.0)
        return np.concatenate([raw_beam, raw_scores, raw_v])


def greedy_exhaustive_slot(h_est: np.ndarray, n_active: int, bound: float,
                           i_dc: float, r_min: float, noise_var: float,
                           p_propulsion: float, amp_efficiency: float,
                           conversion_factor: float, circuit_power: float):
    """Exhaustive LED-subset search with the greedy per-subset beamformer.

    Returns (best_selection, best_w, best_total_power) over all subsets of
    the given size whose beamformer meets the rate floor on estimated
    channels, or (None, None, inf) when no subset is feasible.
    """
    n, k_users = h_est.shape
    best = (None, None, np.inf)
    noise = np.full(k_users, noise_var)
    for subset in itertools.combinations(range(n), n_active):
        a = np.zeros(n, dtype=int)
        a[list(subset)] = 1
        selection = LedSelection(a=a)
        w = cascade_beamformer(h_est, selection, bound, r_min, noise_var)
        order = order_users(h_est, w, selection)
        rr = per_user_rate(h_est, w, selection, noise, order)
        if not np.all(rr.rates >= r_min * (1.0 - 1e-9)):
            continue
        if np.any(np.abs(w).sum(axis=1) > bound * (1.0 + 1e-9)):
            continue
        power = total_power(w, selection, i_dc, p_propulsion,
                            amp_efficiency, conversion_factor, circuit_power)
        if power.total < best[2]:
            best = (selection, w, power.total)
    return best
