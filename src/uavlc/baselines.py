"""Non-learned allocation baselines: random and greedy.

Both emit raw box actions, so decoded actions always satisfy the
dynamic-range and binary-selection constraints. The greedy procedure:
activate the LEDs with the largest aggregate estimated gain, shape beam
columns along each user's estimated channel with power-cascade norms, then
scale them by the smallest common factor meeting the rate floor on
estimated channels (capped at the dynamic-range bound). Flight: clamped
max velocity toward the user centroid, reserving slots to return home.

Power cascade. Along the decoding order (ascending effective gain g_p,
r_pj = (g_p / g_j)^2), position p needs the SINR requirement
e_p >= gamma (sum_{j>p} r_pj e_j + N) and, for p > 0, the ordering margin
e_p >= (1 + ORDER_MARGIN) e_{p-1}: the cheapest design is the least fixed
point of a monotone max-affine map F. A strategy picks one branch per
position. A head (a position on its SINR branch) and the positions after
it on their order branch form a block, member p being
(1 + ORDER_MARGIN)^(p - a) e_a, so one backward pass solves the strategy:
e_a = gamma (tail_a + N) / (1 - gamma sum_p (1 + ORDER_MARGIN)^(p - a)
r_ap), with tail_a = sum r_aj e_j over the later blocks (only gain
ratios enter, so tiny gains cannot underflow into a zero divisor). The
strategy's map lies below F, so its solution lies below F's
least fixed point, and a denominator <= 0 (the strategy's own least fixed
point is infinite) proves the floor unreachable. Strategy iteration starts
with every position on its SINR branch and, after each solve, switches
every position whose other branch is larger by more than 1e-12 relative.
The switches raise the solution, so no strategy repeats and the loop ends;
with no switch left the solution is a fixed point of F no larger than the
least one, hence the least one (2n solves bound the loop; 20,000 random
cascades of 1 to 12 users needed at most n). When the floor is
unreachable, when the design would pass the divergence cap (gamma N 1e12)
or when the loop runs past its bound, the monotone sweep from gamma N runs
instead, up to MAX_SWEEPS sweeps or the cap: its iterate shapes the capped
design downstream.

Common scale. Since h_est >= 0 and w >= 0, the cross gains
C = (h_est.T @ w)^2 and the decoding order at scale 1 give each served
user's SINR at scale t as t^2 S_k / (t^2 I_k + N), with S_k = C[k, k] and
I_k the sum of C[k, i] over the users i decoded after k (a common scale
multiplies every effective gain by t^2, so the order holds, up to the
rounding of near-tied gains). The SINR increases with t toward S_k / I_k.
With gamma_f = 2^floor - 1, user k meets the floor from
t_k = sqrt(gamma_f N / (S_k - gamma_f I_k)) on, and at no scale when
S_k <= gamma_f I_k. The smallest scale is t* = max_k t_k; the design takes
t* (1 + 1e-9), which covers the rounding of the exact rate test, capped at
the dynamic-range bound.

The slot makes few numpy calls, and each shortcut gives numpy's floats.
The LED scores, the active column sums and the beam row sum call
`np.add.reduce`, the reduction `ndarray.sum` and `ndarray.mean` call (the
mean then divides by the row count, as here). The cascade orders the
served users with Python's sort, which is stable as numpy's stable argsort
is, on the same keys (positive gains). `least_floor_scale` sums each
interference left to right, as `per_user_rate` does: the builtin `sum`
compensates from Python 3.12 on, which would make the design depend on
the Python version. The sweeps build each position's row and later
positions once per call. The raw action is filled into one array and
clipped once: the 0/1 LED scores pass the clip unchanged, and a division
or a clip gives the same floats wherever its output is written.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .dimming import LedSelection, select_leds
from .env import start_box
from .metrics import per_user_rate, order_users, total_power
from .uav import norm

ORDER_MARGIN = 0.3   # least relative gap between consecutive cascade powers
HEADROOM = 0.05      # relative rate-floor headroom of the greedy design
MAX_SWEEPS = 200     # most sweeps of the unreachable-floor cascade


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
                            noise_var: float) -> np.ndarray:
    """Minimal effective signal amplitudes meeting the rate floor.

    gains: per-user effective channel amplitude per unit beam amplitude.
    Decoding runs in ascending order of effective gain with interference
    from later-decoded users, so a consistent design must keep the
    effective amplitudes ascending along the decoding order while every
    SINR clears the floor. ORDER_MARGIN keeps consecutive effective powers
    separated by a relative gap, so the realized decoding order survives
    channel-estimate error. The least such point comes from strategy
    iteration (module docstring). When the floor is unreachable at any
    power, sweeps of the monotone iteration (raise any user below its SINR
    requirement, then restore strict ordering) give the returned iterate
    (it will be capped at the dynamic-range bound downstream). Zero-gain
    users get zero: their floor is unreachable regardless of power.
    """
    gamma = float(2.0 ** r_min - 1.0)
    gain_list = gains.tolist()
    # the served users by ascending gain, ties by index (a stable sort)
    order = sorted((i for i, g in enumerate(gain_list) if g > 0.0),
                   key=gain_list.__getitem__)
    e2 = np.zeros(gains.shape[0])
    if not order:
        return e2
    g = gains[order]
    # ratio[p][j] = (g_p / g_j)^2 over positions in decoding order
    ratio = ((g[:, None] / g[None, :]) ** 2).tolist()
    noise_var = float(noise_var)
    cap = gamma * noise_var * 1e12
    e = _least_cascade(ratio, gamma, noise_var)
    if e is None or e[-1] > cap:
        e = _cascade_sweeps(ratio, gamma, noise_var, cap)
    e2[order] = e
    return np.sqrt(e2)


def _least_cascade(ratio: list, gamma: float, noise_var: float):
    """Least fixed point of the cascade requirements, by strategy iteration.

    ratio[p][j] = (g_p / g_j)^2 over positions in decoding order. Returns
    the effective powers in that order, or None when the floor is
    unreachable or the strategies do not settle within their bound.
    """
    n = len(ratio)
    grow = 1.0 + ORDER_MARGIN
    head = [True] * n       # on the SINR branch
    e = [0.0] * n
    for _ in range(2 * n):
        b = n - 1
        while b >= 0:
            a = b
            while not head[a]:
                a -= 1
            row = ratio[a]
            # members a+1..b are e_a grow^(p - a)
            loop, mult = 0.0, 1.0
            for p in range(a + 1, b + 1):
                mult *= grow
                loop += mult * row[p]
            den = 1.0 - gamma * loop
            if den <= 0.0:
                return None
            tail = 0.0
            for j in range(b + 1, n):
                tail += e[j] * row[j]
            e[a] = gamma * (tail + noise_var) / den
            for p in range(a + 1, b + 1):
                e[p] = e[p - 1] * grow
            b = a - 1
        switched = False
        for p in range(1, n):
            if head[p]:
                other = e[p - 1] * grow
            else:
                row = ratio[p]
                other = 0.0
                for j in range(p + 1, n):
                    other += e[j] * row[j]
                other = gamma * (other + noise_var)
            if other > e[p] * (1.0 + 1e-12):
                head[p] = not head[p]
                switched = True
        if not switched:
            return e
    return None


def _cascade_sweeps(ratio: list, gamma: float, noise_var: float,
                    cap: float) -> list:
    """The monotone sweep iteration from gamma N, stopped once it passes
    the cap, settles or has run MAX_SWEEPS sweeps."""
    n = len(ratio)
    e = [gamma * noise_var] * n
    grow = 1.0 + ORDER_MARGIN
    # each position's row and later positions, built once for every sweep
    backward = [(pos, ratio[pos], range(pos + 1, n))
                for pos in range(n - 1, -1, -1)]
    forward = range(1, n)
    for _ in range(MAX_SWEEPS):
        changed = False
        for pos, row, later in backward:
            interference = 0.0
            for j in later:
                interference += e[j] * row[j]
            req = gamma * (interference + noise_var)
            if req > e[pos] * (1.0 + 1e-12):
                e[pos] = req
                changed = True
        for pos in forward:
            floor = e[pos - 1] * grow
            if e[pos] < floor:
                e[pos] = floor
                changed = True
        if not changed or e[-1] > cap:
            break
    return e


def cascade_beamformer(h_est: np.ndarray, selection: LedSelection,
                       bound: float, r_min: float,
                       noise_var: float) -> np.ndarray:
    """Minimum-common-scale beamformer for one slot.

    Columns are proportional to the (non-negative) estimated channel over
    active LEDs with cascade norms; the smallest common multiple meeting
    the rate floor for every user on estimated channels comes in closed
    form from least_floor_scale. The floor is designed with a relative
    HEADROOM so the point survives bounded channel-estimate error when
    judged on true channels. The scale is capped so no LED row exceeds
    the dynamic-range bound.
    """
    n, k_users = h_est.shape
    active = selection.a.astype(bool)
    n_a = selection.n_active
    r_target = r_min * (1.0 + HEADROOM)
    # co-located array: per-LED gain equals the column mean over active
    # rows
    col_gain = (np.add.reduce(h_est[active], axis=0) / n_a if n_a
                else np.zeros(k_users))
    eff_gain = col_gain * n_a
    e_req = noma_cascade_amplitudes(eff_gain, r_target, noise_var)
    served = eff_gain > 0.0
    w = np.zeros((n, k_users))
    per_led = np.divide(e_req, eff_gain, out=np.zeros(k_users),
                        where=served)
    w[active] = per_led
    row_sum = np.add.reduce(per_led)
    if row_sum <= 0.0:
        return w
    t_cap = bound / row_sum
    if t_cap <= 1.0:
        return w * t_cap

    t = least_floor_scale(h_est, w, selection, served,
                          r_target * (1.0 - 1e-9), noise_var)
    return w * min(t * (1.0 + 1e-9), t_cap)


def least_floor_scale(h_est: np.ndarray, w: np.ndarray,
                      selection: LedSelection, served: np.ndarray,
                      floor: float, noise_var: float) -> float:
    """Smallest common scale t at which every served user's rate on h_est
    under w * t reaches floor, in the decoding order at scale 1 (module
    docstring); inf when no scale does. w must vanish off the active rows.
    """
    gamma = 2.0 ** floor - 1.0
    need = gamma * noise_var
    ks = order_users(h_est, w, selection).tolist()
    # w is zero off the active rows, so these are the masked cross gains
    cross = ((h_est.T @ w) ** 2).tolist()
    t2 = 0.0
    for pos, k in enumerate(ks):
        if served[k]:
            # the floor holds from t^2 margin >= need on; the interference
            # is summed left to right (module docstring)
            row = cross[k]
            interference = 0.0
            for i in ks[pos + 1:]:
                interference += row[i]
            margin = row[k] - gamma * interference
            if margin > 0.0:
                t2 = max(t2, need / margin)
            elif margin < 0.0 or need > 0.0:
                return math.inf
    return math.sqrt(t2)


class GreedyPolicy:
    """Per-slot greedy allocation plus a centroid-and-return flight plan."""

    def __init__(self, env):
        self.env = env
        cfg = env.cfg
        centroid = env.task.user_positions.mean(axis=0)
        # lowest altitude keeping every user inside the receiver field of
        # view from the hover point: low hovering spreads the channel gains
        # apart, which the decoding order needs
        r_max = float(np.max(np.linalg.norm(
            env.task.user_positions[:, :2] - centroid[:2], axis=1)))
        z_fov = 1.05 * r_max / max(math.tan(env.optics.fov_semiangle), 1e-9)
        self.cruise_altitude = min(max(cfg.q_min[2], z_fov), cfg.q_max[2])
        self.target = np.clip(
            np.array([centroid[0], centroid[1], self.cruise_altitude]),
            *start_box(cfg))

    def _velocity_command(self) -> np.ndarray:
        env = self.env
        cfg = env.cfg
        state = env.uav_state
        tau = cfg.slot_duration
        slots_left = cfg.n_slots - state.slot
        home = env.task.q_init
        dist_home = norm(home - state.position)
        # extra slots cover reversing the current velocity under the
        # acceleration limit, plus one slot of slack
        turnaround = math.ceil(2.0 * cfg.v_max / (cfg.a_max * tau))
        slots_home = math.ceil(dist_home / (cfg.v_max * tau)) + turnaround + 1
        goal = home if slots_left <= slots_home else self.target
        delta = goal - state.position
        dist = norm(delta)
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
        n, k = h_est.shape
        selection = select_leds(np.add.reduce(h_est, axis=1), env.n_active)
        w = cascade_beamformer(h_est, selection, env.bound, cfg.r_min,
                               cfg.noise_var)
        v = self._velocity_command()
        # beams, LED scores and velocity filled in place, then one clip
        # (the 0/1 scores pass it unchanged)
        raw = np.empty(n * k + n + 3)
        np.divide(w.ravel(), env.bound, out=raw[:n * k])
        raw[n * k:n * k + n] = selection.a
        np.divide(v, cfg.v_max, out=raw[n * k + n:])
        return raw.clip(-1.0, 1.0, out=raw)


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
