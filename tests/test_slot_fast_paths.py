"""The slot kernels' fast paths against the forms they replaced.

`is_binary`, `project_beamformer` and the finiteness check of
`decode_action` were rewritten to cost less per slot. Later the whole slot
path lost numpy round trips and took its per-env constants from
`OpticsParams` and `FlightConfig`: the channel and its estimate, the
observation, the flight checks and clamp, the report with its order and
rates, the greedy slot (`GreedyPolicy.__call__`, `cascade_beamformer`,
`noma_cascade_amplitudes` with its sweeps, `least_floor_scale`) and
deterministic `SacAgent.act`. The earlier forms are kept below verbatim
(renamed `previous_*`; `PreviousEnv` and `PreviousGreedyPolicy` hold the
earlier methods), and their tests assert exact equality with them, on the
edge cases each fast path must keep and on seeded random inputs, up to
whole episodes at the benchmark's shapes. `previous_project_beamformer`
is the form before the fast path, whose row sums are the ones
`project_beamformer` now takes through `np.add.reduce`. The earlier
`least_floor_scale` summed with the builtin `sum`, which compensates from
Python 3.12 on, so it is compared only where that sum is the left-to-right
one, and `previous_cascade_beamformer` calls the library's scale.
`propulsion_power` is checked against a 60-digit decimal evaluation of the
same model instead.
"""

import dataclasses
import math
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest

from uavlc import (LedSelection, RotorcraftParams, SacAgent, SystemConfig,
                   project_beamformer)
from uavlc.baselines import (HEADROOM, MAX_SWEEPS, ORDER_MARGIN,
                             GreedyPolicy, RandomPolicy, _cascade_sweeps,
                             _least_cascade, cascade_beamformer,
                             least_floor_scale, noma_cascade_amplitudes)
from uavlc.channel import (ChannelState, OpticsParams, channel_matrix,
                           concentrator_gain, lambertian_order, perturb_csi)
from uavlc.dimming import (DimmingConfig, beamforming_bound, dc_bias_for,
                           dimming_level_of, is_binary, select_leds)
from uavlc.env import AllocationAction, Transition, VlcUavEnv, sample_task
from uavlc.metrics import (CONSTRAINTS, PowerBreakdown, RateReport,
                           active_magnitudes, check_p1_feasibility,
                           effective_gains, order_users, per_user_rate,
                           total_power)
from uavlc.sac import squashed_gaussian
from uavlc.uav import (FlightConfig, UavState, check_flight, clamp_velocity,
                       hover_power, norm, propulsion_power, step_kinematics)

from conftest import BENCH_K_REGIME, BENCH_POWER_REGIME, small_config

# ---------------------------------------------------------------------------
# the earlier forms, verbatim
# ---------------------------------------------------------------------------


def previous_is_binary(a):
    return np.count_nonzero(a) == np.count_nonzero(a == 1)


def previous_project_beamformer(w_raw, bound, selection):
    if bound < 0:
        raise ValueError("bound must be non-negative")
    w = np.asarray(w_raw, dtype=float) * selection.a[:, None]
    # a zero bound zeroes every nonzero row
    scale = [(bound / s if bound > 0.0 else 0.0) if s > bound else 1.0
             for s in np.abs(w).sum(axis=1).tolist()]
    return w * np.array(scale)[:, None]


def previous_finite(raw):
    return bool(np.isfinite(raw).all())


# ---------------------------------------------------------------------------
# is_binary
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [
    [0, 1, 1, 0], [1], [0], [0, 2], [-1, 1], [3, 3],
    [0.0, 1.0], [0.5, 1.0], [1.0 + 1e-15, 0.0], [1.0 - 1e-16, 0.0],
    [True, False], [True], [False, False],
    [np.nan, 1.0], [np.nan], [0.0, np.nan], [np.inf, 0.0], [-np.inf],
    [-0.0, 1.0], [-0.0], [-1.0, 0.0],
    [0, 1, 2], [1, 2], [0, 5],
], ids=repr)
def test_is_binary_matches_previous_form(a):
    for dtype in (None, float):
        arr = np.asarray(a, dtype=dtype)
        assert is_binary(arr) == previous_is_binary(arr)
        assert is_binary(arr[::-1]) == previous_is_binary(arr[::-1])


def test_is_binary_matches_previous_form_on_random_vectors():
    rng = np.random.default_rng(4)
    answers = set()
    for _ in range(2000):
        a = rng.choice([0, 1, 2, -1, -0.0, 0.5, np.nan, True],
                       size=int(rng.integers(1, 12)),
                       p=[0.4, 0.4, 0.04, 0.04, 0.04, 0.04, 0.02, 0.02])
        for arr in (a, a.astype(float), (a == 1).astype(int)):
            want = previous_is_binary(arr)
            assert is_binary(arr) == want
            answers.add(want)
    assert answers == {True, False}


def test_is_binary_takes_two_dimensional_arrays():
    a = np.array([[0, 1], [1, 0]])
    assert is_binary(a) and previous_is_binary(a)
    a[1, 1] = 2
    assert not is_binary(a) and not previous_is_binary(a)


# ---------------------------------------------------------------------------
# project_beamformer
# ---------------------------------------------------------------------------

def test_project_beamformer_with_every_row_under_the_bound():
    rng = np.random.default_rng(6)
    for _ in range(2000):
        n, k = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        sel = select_leds(rng.normal(size=n), int(rng.integers(1, n + 1)))
        w = rng.normal(size=(n, k))
        if rng.random() < 0.2:
            w[rng.random((n, k)) < 0.3] = -0.0
        # every row at most the bound; some exactly at it
        bound = float(np.abs(w).sum(axis=1).max()
                      * rng.choice([1.0, 1.0 + rng.uniform(0.0, 3.0)]))
        got = project_beamformer(w, bound, sel)
        want = previous_project_beamformer(w, bound, sel)
        assert got.tobytes() == want.tobytes()
        assert got is not w


def test_project_beamformer_fast_path_keeps_nan_and_inactive_rows():
    sel = LedSelection(a=np.array([1, 0, 1]))
    w = np.array([[np.nan, 0.1], [5.0, 5.0], [-0.0, 0.2]])
    got = project_beamformer(w, 1.0, sel)
    want = previous_project_beamformer(w, 1.0, sel)
    assert got.tobytes() == want.tobytes()
    assert np.all(got[1] == 0.0)


def test_project_beamformer_matches_previous_form_with_rows_over():
    rng = np.random.default_rng(7)
    over = 0
    for _ in range(2000):
        n, k = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        sel = select_leds(rng.normal(size=n), int(rng.integers(1, n + 1)))
        w = rng.normal(size=(n, k))
        bound = float(rng.choice([0.0, rng.uniform(0.0, 2.0 * k)]))
        got = project_beamformer(w, bound, sel)
        assert got.tobytes() == previous_project_beamformer(
            w, bound, sel).tobytes()
        over += bool((np.abs(w * sel.a[:, None]).sum(axis=1) > bound).any())
    assert 200 < over < 2000


# ---------------------------------------------------------------------------
# propulsion_power
# ---------------------------------------------------------------------------

ROTORS = [
    RotorcraftParams(
        profile_drag_coeff=0.012, air_density=1.225, rotor_solidity=0.05,
        rotor_disk_area=0.79, blade_angular_velocity=400.0,
        rotor_radius=0.05, correction_factor=1.0, uav_weight=100.0,
        induced_hover_velocity=7.2, fuselage_drag_ratio=0.3),
    RotorcraftParams(
        profile_drag_coeff=0.012, air_density=1.225, rotor_solidity=0.05,
        rotor_disk_area=1e-4, blade_angular_velocity=1.0, rotor_radius=0.01,
        correction_factor=1.0, uav_weight=1e-3, induced_hover_velocity=0.5,
        fuselage_drag_ratio=1e-6),
]


# far past the hover induced velocity sqrt(1 + x^2) - x cancels
SLOW_INDUCED = dataclasses.replace(ROTORS[0], induced_hover_velocity=1e-3)


def decimal_propulsion_power(v, p):
    """The rotor power model in 60-digit decimal arithmetic, from the exact
    values of its float inputs; 60 digits absorb the cancellation."""
    with localcontext() as ctx:
        ctx.prec = 60
        speed2 = sum(Decimal(float(c)) ** 2 for c in v)
        drag, air, solidity, area = (Decimal(p.profile_drag_coeff),
                                     Decimal(p.air_density),
                                     Decimal(p.rotor_solidity),
                                     Decimal(p.rotor_disk_area))
        tip = Decimal(p.blade_angular_velocity) * Decimal(p.rotor_radius)
        weight = Decimal(p.uav_weight)
        blade_hover = drag / 8 * air * solidity * area * tip ** 3
        induced_hover = ((1 + Decimal(p.correction_factor)) * weight
                         * weight.sqrt() / (2 * air * area).sqrt())
        x = speed2 / (2 * Decimal(p.induced_hover_velocity) ** 2)
        return ((1 + 3 * speed2 / tip ** 2) * blade_hover
                + induced_hover * ((1 + x * x).sqrt() - x).sqrt()
                + Decimal("0.5") * Decimal(p.fuselage_drag_ratio) * air
                * solidity * area * speed2 * speed2.sqrt())


@pytest.mark.parametrize("rotor", ROTORS + [SLOW_INDUCED],
                         ids=["default", "featherweight", "slow-induced"])
def test_propulsion_power_within_2e_15_of_decimal(rotor):
    rng = np.random.default_rng(8)
    hov = hover_power(rotor)
    speeds = [np.zeros(3)] + [rng.normal(size=3) * 10.0 ** rng.uniform(-6, 2)
                              for _ in range(3000)]
    for v in speeds:
        got = propulsion_power(v, rotor)
        assert math.isfinite(got) and propulsion_power(v, rotor, hov) == got
        want = decimal_propulsion_power(v, rotor)
        assert abs(Decimal(got) - want) <= Decimal("2e-15") * want


def test_propulsion_power_is_finite_at_every_speed_up_to_1000_m_s():
    rng = np.random.default_rng(9)
    speeds = np.concatenate([np.linspace(0.0, 1000.0, 2001),
                             10.0 ** rng.uniform(-3.0, 3.0, 2000)])
    for speed in speeds:
        power = propulsion_power(np.array([speed, 0.0, 0.0]), SLOW_INDUCED)
        assert math.isfinite(power) and power > 0.0


# ---------------------------------------------------------------------------
# decode_action's finiteness check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf],
                                 [np.inf, -np.inf], [np.nan, np.inf]],
                         ids=repr)
def test_decode_action_refuses_what_the_previous_check_refused(env, bad):
    env.reset(seed=1)
    rng = np.random.default_rng(2)
    for _ in range(20):
        raw = rng.uniform(-1, 1, env.action_dim)
        at = rng.choice(env.action_dim, size=len(bad), replace=False)
        raw[at] = bad
        assert not previous_finite(raw)
        # inf + -inf in the sum raises numpy's invalid-value flag
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite raw action"):
            env.decode_action(raw)


def test_decode_action_takes_finite_entries_whose_sum_overflows(env):
    env.reset(seed=1)
    raw = np.full(env.action_dim, 1e308)
    with np.errstate(over="ignore"):
        assert not math.isfinite(raw.sum()) and previous_finite(raw)
        action = env.decode_action(raw)
    assert np.isfinite(action.w).all()


# ---------------------------------------------------------------------------
# the slot path before its per-env constants and trimmed numpy round trips:
# the earlier bodies, verbatim
# ---------------------------------------------------------------------------


def previous_channel_matrix(uav, users, optics, n_leds):
    if n_leds < 1:
        raise ValueError("need at least one LED")
    users = np.asarray(users, dtype=float).reshape(-1, 3)
    if users.shape[0] == 0:
        raise ValueError("need at least one user")
    diff = np.asarray(uav, dtype=float) - users
    sq_dist = np.matmul(diff[:, None, :], diff[:, :, None]).ravel().tolist()
    m = lambertian_order(optics.half_power_semiangle)
    g = concentrator_gain(0.0, optics)
    scale = (m + 1.0) * optics.pd_area
    two_pi = 2.0 * math.pi
    gains = []
    for d2, dz in zip(sq_dist, diff[:, 2].tolist()):
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


def previous_perturb_csi(h, delta, rng):
    if delta < 0:
        raise ValueError("uncertainty radius must be non-negative")
    if delta == 0.0:
        return h.copy()
    eps = rng.uniform(-delta, delta, size=h.shape)
    return np.maximum(h + eps, 0.0)


def previous_check_flight(state, v_next, cfg):
    v_next = np.asarray(v_next, dtype=float)
    tau = cfg.slot_duration
    next_pos = state.position + v_next * tau
    box = zip(cfg.q_min.tolist(), next_pos.tolist(), cfg.q_max.tolist())
    return {
        "C5": all(lo < x < hi for lo, x, hi in box),
        "C6": not (norm(v_next - state.velocity)
                   > cfg.a_max * tau * (1 + 1e-12)),
        "C7": not norm(v_next) > cfg.v_max * (1 + 1e-12),
        "RTS": (state.slot + 1 != cfg.n_slots
                or not norm(next_pos - cfg.q_init) > cfg.return_tolerance),
    }


def previous_clamp_velocity(state, v_cmd, cfg):
    v_cmd = np.asarray(v_cmd, dtype=float)
    dv = v_cmd - state.velocity
    max_dv = cfg.a_max * cfg.slot_duration
    n = norm(dv)
    if n > max_dv:
        dv = dv * (max_dv / n)
    v = state.velocity + dv
    speed = norm(v)
    if speed > cfg.v_max:
        v = v * (cfg.v_max / speed)
    return v


def previous_n_active(selection):
    return int(selection.a.sum())


def previous_order_users(h, w, selection):
    g = effective_gains(h, w, selection)
    return np.argsort(g, kind="stable")


def previous_per_user_rate(h, w, selection, noise_var, order):
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


def previous_power(magnitudes, n_active, i_dc, p_propulsion, amp_efficiency,
                   conversion_factor, circuit_power):
    return PowerBreakdown(transmit=amp_efficiency * float(magnitudes.sum()),
                          bias=conversion_factor * n_active * i_dc,
                          circuit=circuit_power, propulsion=p_propulsion)


def previous_check_p1_feasibility(env, action, p_propulsion):
    w, selection = action.w, action.selection
    cfg, h_true = env.cfg, env.channels.true_gain
    order = previous_order_users(h_true, w, selection)
    rates = previous_per_user_rate(h_true, w, selection,
                                   env.channels.noise_var, order).rates
    rate_list = rates.tolist()
    magnitudes = active_magnitudes(w, selection)
    n_a = previous_n_active(selection)
    power = previous_power(magnitudes, n_a, env.i_dc, p_propulsion,
                           cfg.amp_efficiency, cfg.conversion_factor,
                           cfg.circuit_power)
    eta_back = dimming_level_of(n_a, env.i_dc, env.dim_cfg)
    rate_floor = cfg.r_min - 1e-12
    row_limit = env.bound * (1.0 + 1e-9) + 1e-15
    verdicts = {
        "C1": all(r >= rate_floor for r in rate_list),
        "C2": power.total <= cfg.p_max * (1.0 + 1e-12),
        "C3": all(s <= row_limit for s in magnitudes.sum(axis=1).tolist()),
        "C4": True,
        **previous_check_flight(env.uav_state, action.velocity,
                                env.flight_cfg),
        "C8": abs(eta_back - env.dim_cfg.eta) <= 1e-9,
        "C9": is_binary(selection.a) and n_a >= 1,
    }
    return {"p_transmit": power.transmit, "p_bias": power.bias,
            "p_circuit": power.circuit, "p_propulsion": power.propulsion,
            "p_total": power.total, "sum_rate": float(rates.sum()),
            **{f"rate_{k}": rate for k, rate in enumerate(rate_list)},
            **{c: int(verdicts[c]) for c in CONSTRAINTS},
            "feasible": int(all(verdicts.values()))}


def previous_noma_cascade_amplitudes(gains, r_min, noise_var):
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
    cap = gamma * noise_var * 1e12
    e = _least_cascade(ratio, gamma, noise_var)
    if e is None or e[-1] > cap:
        e = previous_cascade_sweeps(ratio, gamma, noise_var, cap)
    e2[order] = e
    return np.sqrt(e2)


def previous_cascade_sweeps(ratio, gamma, noise_var, cap):
    n = len(ratio)
    e = [gamma * noise_var] * n
    for _ in range(MAX_SWEEPS):
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
            floor = e[pos - 1] * (1.0 + ORDER_MARGIN)
            if e[pos] < floor:
                e[pos] = floor
                changed = True
        if not changed or e[-1] > cap:
            break
    return e


def previous_cascade_beamformer(h_est, selection, bound, r_min, noise_var):
    n, k_users = h_est.shape
    active = selection.a.astype(bool)
    n_a = previous_n_active(selection)
    r_target = r_min * (1.0 + HEADROOM)
    # co-located array: per-LED gain equals the column mean over active rows
    col_gain = h_est[active].mean(axis=0) if n_a else np.zeros(k_users)
    eff_gain = col_gain * n_a
    e_req = previous_noma_cascade_amplitudes(eff_gain, r_target, noise_var)
    w = np.zeros((n, k_users))
    per_led = np.divide(e_req, eff_gain, out=np.zeros(k_users),
                        where=eff_gain > 0.0)
    w[active] = per_led
    row_sum = per_led.sum()
    if row_sum <= 0.0:
        return w
    t_cap = bound / row_sum
    if t_cap <= 1.0:
        return w * t_cap

    # the library's scale: the earlier one sums with the builtin `sum`,
    # whose result depends on the Python version (checked on its own below)
    t = least_floor_scale(h_est, w, selection, eff_gain > 0.0,
                          r_target * (1.0 - 1e-9), noise_var)
    return w * min(t * (1.0 + 1e-9), t_cap)


def previous_least_floor_scale(h_est, w, selection, served, floor,
                               noise_var):
    gamma = 2.0 ** floor - 1.0
    need = gamma * noise_var
    ks = previous_order_users(h_est, w, selection).tolist()
    # w is zero off the active rows, so these are the masked cross gains
    cross = ((h_est.T @ w) ** 2).tolist()
    t2 = 0.0
    for pos, k in enumerate(ks):
        if served[k]:
            # the floor holds from t^2 margin >= need on
            margin = cross[k][k] - gamma * sum(cross[k][i]
                                               for i in ks[pos + 1:])
            if margin > 0.0:
                t2 = max(t2, need / margin)
            elif margin < 0.0 or need > 0.0:
                return math.inf
    return math.sqrt(t2)


class PreviousGreedyPolicy(GreedyPolicy):
    def __call__(self, obs):
        env = self.env
        cfg = env.cfg
        h_est = env.channels.est_gain
        scores = h_est.sum(axis=1)
        selection = select_leds(scores, env.n_active)
        w = previous_cascade_beamformer(h_est, selection, env.bound,
                                        cfg.r_min, cfg.noise_var)
        v = self._velocity_command()
        raw_beam = np.clip(w / env.bound, -1.0, 1.0).ravel()
        raw_scores = selection.a.astype(float)
        raw_v = np.clip(v / cfg.v_max, -1.0, 1.0)
        return np.concatenate([raw_beam, raw_scores, raw_v])


class PreviousEnv(VlcUavEnv):
    """The stepper with the earlier decode, report, kernels and channel
    refresh; `step` is unchanged but for calling the earlier report."""

    def __init__(self, cfg, task):
        super().__init__(cfg, task)
        self._q_min = self.flight_cfg.q_min
        self._q_span = self.flight_cfg.q_max - self._q_min

    def step(self, raw):
        if self._done:
            raise RuntimeError("cannot step a finished episode")
        obs = self._obs
        action = self.decode_action(raw)
        p_prop = propulsion_power(action.velocity, self.rotor, self.hover)
        report = previous_check_p1_feasibility(self, action, p_prop)
        if report["feasible"]:
            reward = -report["p_total"]
        elif self.cfg.reward_mode == "paper":
            reward = 0.0
        else:
            reward = self.penalty
        x, y, z = self._uav.position.tolist()
        self.trace.rows.append({"slot": self._uav.slot, "reward": reward,
                                **report, "x": x, "y": y, "z": z})
        self._uav = step_kinematics(self._uav, action.velocity,
                                    self.flight_cfg)
        self._refresh_channels()
        self._done = self._uav.slot >= self.cfg.n_slots
        return Transition(obs=obs, raw_action=raw.copy(), reward=reward,
                          next_obs=self._obs, done=self._done)

    def decode_action(self, raw):
        raw = np.asarray(raw, dtype=float)
        # a NaN or infinite entry makes the sum non-finite; a finite sum
        # that overflows falls through to the full check
        if not math.isfinite(raw.sum()) and not np.isfinite(raw).all():
            raise ValueError(
                f"non-finite raw action at slot {self._uav.slot}")
        n, k = self.cfg.n_leds, self.cfg.n_users
        nk = n * k
        clipped = raw.clip(-1.0, 1.0)
        beam = clipped[:nk].reshape(n, k) * self.bound
        selection = select_leds(raw[nk:nk + n], self.n_active)
        w = previous_project_beamformer(beam, self.bound, selection)
        v_raw = clipped[nk + n:] * self.cfg.v_max
        if self.cfg.clamp_velocity:
            velocity = previous_clamp_velocity(self._uav, v_raw,
                                               self.flight_cfg)
        else:
            velocity = v_raw
        return AllocationAction(w=w, selection=selection, velocity=velocity)

    def _refresh_channels(self):
        """New channels for the UAV's position, and their observation."""
        h = previous_channel_matrix(self._uav.position,
                                    self.task.user_positions, self.optics,
                                    self.cfg.n_leds)
        h_hat = previous_perturb_csi(h, self.cfg.csi_radius, self._rng)
        self._channels = ChannelState(true_gain=h, est_gain=h_hat,
                                      noise_var=self._noise)
        chan = np.log1p(h_hat / self._h_ref).ravel()
        if self.cfg.observe_pose:
            uav = self._uav
            chan = np.concatenate([
                chan, (uav.position - self._q_min) / self._q_span,
                uav.velocity / self.cfg.v_max,
                [uav.slot / self.cfg.n_slots]])
        self._obs = chan


def previous_act(agent, obs, deterministic=False):
    out = agent.actor(np.atleast_2d(obs))
    shape = (out.shape[0], agent.act_dim)
    xi = (np.zeros(shape) if deterministic
          else agent.rng.standard_normal(shape))
    return squashed_gaussian(out, xi)[3][0]


# ---------------------------------------------------------------------------
# the slot path against its earlier forms
# ---------------------------------------------------------------------------

def same_floats(got, want):
    """Equal bit for bit: arrays by their bytes, rows by the repr of every
    entry (which tells -0.0 from 0.0)."""
    if isinstance(want, np.ndarray):
        return (got.dtype == want.dtype and got.shape == want.shape
                and got.tobytes() == want.tobytes())
    if isinstance(want, dict):
        return (list(got) == list(want)
                and all(repr(got[k]) == repr(want[k]) for k in want))
    return repr(got) == repr(want)


OPTICS_SETS = [
    OpticsParams(half_power_semiangle=math.radians(60.0),
                 fov_semiangle=math.radians(60.0), pd_area=1e-4,
                 refractive_index=1.5),
    OpticsParams(half_power_semiangle=math.radians(35.0),
                 fov_semiangle=math.radians(25.0), pd_area=2e-4,
                 refractive_index=1.2),
]


@pytest.mark.parametrize("optics", OPTICS_SETS, ids=["wide", "narrow"])
def test_channel_matrix_and_estimate_match_previous_forms(optics):
    assert optics.lambertian_m == lambertian_order(
        optics.half_power_semiangle)
    assert optics.fov_gain == concentrator_gain(0.0, optics)
    rng = np.random.default_rng(31)
    out_of_view = 0
    for trial in range(2000):
        k, n = int(rng.integers(1, 9)), int(rng.integers(1, 12))
        scale = 10.0 ** rng.uniform(-1.0, 2.5)
        users = rng.uniform(-1.0, 1.0, (k, 3)) * scale
        users[:, 2] = 0.0 if trial % 2 else -0.0
        uav = rng.uniform(-1.0, 1.0, 3) * scale
        if trial % 5 == 0:      # level with the users' plane: out of view
            uav[2] = -0.0
        got = channel_matrix(uav, users, optics, n)
        assert same_floats(got, previous_channel_matrix(uav, users, optics,
                                                        n))
        out_of_view += int(np.sum(got[0] == 0.0))
        delta = float(rng.choice([0.0, 10.0 ** rng.uniform(-12, -3)]))
        seed = int(rng.integers(2**31))
        assert same_floats(
            perturb_csi(got, delta, np.random.default_rng(seed)),
            previous_perturb_csi(got, delta, np.random.default_rng(seed)))
    assert out_of_view > 500


def test_optics_and_flight_constants_cannot_go_stale():
    with pytest.raises(dataclasses.FrozenInstanceError):
        OPTICS_SETS[0].fov_semiangle = 0.1
    flight = small_config().flight(np.array([25.0, 25.0, 20.0]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        flight.a_max = 1.0
    assert flight.box == ((0.0, 0.0, 10.0), (50.0, 50.0, 40.0))


FLIGHT = FlightConfig(slot_duration=1.0, n_slots=10, v_max=10.0, a_max=6.0,
                      q_min=np.array([0.0, 0.0, 10.0]),
                      q_max=np.array([100.0, 100.0, 50.0]),
                      q_init=np.array([50.0, 50.0, 25.0]),
                      return_tolerance=2.0)


def test_check_flight_and_clamp_match_previous_forms():
    rng = np.random.default_rng(32)
    failed = set()
    for trial in range(20000):
        pos = rng.uniform(FLIGHT.q_min - 5.0, FLIGHT.q_max + 5.0)
        if trial % 3 == 0:       # next to home, so the RTS slot can pass
            pos = FLIGHT.q_init + rng.normal(size=3) * 3.0
        # the final slot, where RTS is checked, and two others
        slot = int(rng.choice([0, 4, FLIGHT.n_slots - 1]))
        state = UavState(position=pos, slot=slot,
                         velocity=rng.normal(size=3) * rng.uniform(0.0, 8.0))
        v = rng.normal(size=3) * rng.uniform(0.0, 25.0)
        if trial % 4 == 0:
            v = FLIGHT.q_init - pos     # fly home
        if trial % 50 == 0:
            v[int(rng.integers(3))] = float(rng.choice([np.nan, -0.0]))
            state.position[int(rng.integers(3))] = FLIGHT.q_max[0]
        want = previous_check_flight(state, v, FLIGHT)
        assert check_flight(state, v, FLIGHT) == want
        failed.update(c for c, ok in want.items() if not ok)
        assert same_floats(clamp_velocity(state, v, FLIGHT),
                           previous_clamp_velocity(state, v, FLIGHT))
    assert failed == {"C5", "C6", "C7", "RTS"}


def test_n_active_matches_previous_form():
    for a in ([0, 1, 1], [1], [0, 0], [True, False, True], [0.0, 1.0],
              [-0.0, 1.0, 1.0]):
        sel = LedSelection(a=np.asarray(a))
        assert same_floats(sel.n_active, previous_n_active(sel))
    sel = LedSelection(a=np.array([1, 0, 1]))
    sel.a[1] = 2     # mutated past the check, as the C9 test does
    assert sel.n_active == previous_n_active(sel) == 4


def random_report_case(rng, bound_zero=False):
    """An env-like namespace and an action at a random slot: rows over,
    under and at the dynamic-range bound, signed zeros, users out of view,
    tied gains, non-binary selections and the final slot."""
    k = int(rng.integers(1, 10))
    dim = DimmingConfig(eta=0.7, i_low=0.0, i_high=0.01, n_leds=10)
    i_dc = dc_bias_for(dim, 7)
    bound = 0.0 if bound_zero else beamforming_bound(i_dc, 0.0, 0.01)
    gains = rng.random(k) * 1e-6
    gains[rng.random(k) < 0.2] = 0.0                    # out of view
    if rng.random() < 0.2:
        gains[:] = gains[0]                             # tied users
    h = np.tile(gains, (10, 1))
    sel = select_leds(np.round(rng.normal(size=10)), 7)  # tied scores
    w = rng.normal(size=(10, k)) * max(bound, 1e-3) * rng.uniform(0.0, 0.5)
    if rng.random() < 0.3:
        w[rng.random((10, k)) < 0.3] = -0.0
    i = int(np.flatnonzero(sel.a)[0])
    if rng.random() < 0.3 and np.abs(w[i]).sum() > 0.0:  # a row at the bound
        w[i] *= bound / np.abs(w[i]).sum()
    elif rng.random() < 0.2:
        w[int(rng.integers(10))] *= 10.0
    if rng.random() < 0.05:
        sel.a[int(rng.integers(10))] = int(rng.choice([0, 2]))
    state = UavState(position=rng.uniform(FLIGHT.q_min - 2, FLIGHT.q_max + 2),
                     velocity=rng.normal(size=3) * 3.0,
                     slot=int(rng.choice([0, FLIGHT.n_slots - 1])))
    env = SimpleNamespace(
        cfg=SimpleNamespace(r_min=float(rng.choice([0.0, 0.5, 5.0])),
                            p_max=5.0, amp_efficiency=1.2,
                            conversion_factor=1.0, circuit_power=0.5),
        channels=ChannelState(true_gain=h, est_gain=h,
                              noise_var=np.full(k, 10.0 ** rng.uniform(-20,
                                                                       -14))),
        uav_state=state, flight_cfg=FLIGHT, dim_cfg=dim, i_dc=i_dc,
        bound=bound)
    action = AllocationAction(w=w, selection=sel,
                              velocity=rng.normal(size=3) * 6.0)
    return env, action, float(rng.uniform(0.0, 6.0))


@pytest.mark.parametrize("bound_zero", [False, True],
                         ids=["bound", "zero-bound"])
def test_report_order_and_rates_match_previous_forms(bound_zero):
    rng = np.random.default_rng(33)
    outcomes = set()
    for _ in range(3000):
        env, action, p_prop = random_report_case(rng, bound_zero)
        h, w, sel = env.channels.true_gain, action.w, action.selection
        order = order_users(h, w, sel)
        assert same_floats(order, previous_order_users(h, w, sel))
        got = per_user_rate(h, w, sel, env.channels.noise_var, order)
        want = previous_per_user_rate(h, w, sel, env.channels.noise_var,
                                      order)
        assert same_floats(got.rates, want.rates)
        assert got.order is order
        report = check_p1_feasibility(env, action, p_prop)
        want = previous_check_p1_feasibility(env, action, p_prop)
        assert same_floats(report, want)
        power = total_power(w, sel, env.i_dc, p_prop, 1.2, 1.0, 0.5)
        assert same_floats(power, previous_power(
            active_magnitudes(w, sel), previous_n_active(sel), env.i_dc,
            p_prop, 1.2, 1.0, 0.5))
        outcomes.update(c for c in CONSTRAINTS if not want[c])
        outcomes.add(want["feasible"])
    assert outcomes >= {"C1", "C2", "C3", "C5", "C6", "C7", "C9", "RTS", 0}


def test_greedy_kernels_match_previous_forms():
    rng = np.random.default_rng(34)
    swept = 0
    for trial in range(3000):
        n, k = int(rng.integers(1, 11)), int(rng.integers(1, 8))
        h = np.tile(rng.random(k) * 10.0 ** rng.uniform(-8, -4), (n, 1))
        h[:, rng.random(k) < 0.15] = 0.0                # out of view
        if trial % 2:
            h = h + rng.uniform(0.0, 1e-12, h.shape)    # rows differ
        if trial % 7 == 0:
            h[:, :] = h[:, :1]                          # tied users
        # tied LED scores when the rows are equal
        sel = select_leds(np.add.reduce(h, axis=1),
                          int(rng.integers(1, n + 1)))
        bound = float(rng.choice([0.0, 10.0 ** rng.uniform(-4, 1)]))
        r_min = float(rng.choice([0.01, 0.5, 2.0, 6.0]))
        noise = 10.0 ** rng.uniform(-22, -12)
        got = cascade_beamformer(h, sel, bound, r_min, noise)
        assert same_floats(got, previous_cascade_beamformer(h, sel, bound,
                                                            r_min, noise))
        gains = np.add.reduce(h[sel.a.astype(bool)], axis=0)
        assert same_floats(
            noma_cascade_amplitudes(gains, r_min, noise),
            previous_noma_cascade_amplitudes(gains, r_min, noise))
        g = np.sort(gains[gains > 0.0])
        if g.size:
            ratio = ((g[:, None] / g[None, :]) ** 2).tolist()
            gamma = float(2.0 ** r_min - 1.0)
            cap = gamma * noise * 1e12
            assert same_floats(
                _cascade_sweeps(ratio, gamma, noise, cap),
                previous_cascade_sweeps(ratio, gamma, noise, cap))
            swept += 1
    assert swept > 2000


def test_least_floor_scale_matches_previous_form_where_the_sums_agree():
    rng = np.random.default_rng(37)
    agreed = 0
    for trial in range(3000):
        n, k = int(rng.integers(1, 11)), int(rng.integers(1, 8))
        h = rng.random((n, k)) * 10.0 ** rng.uniform(-8, -4)
        sel = select_leds(rng.normal(size=n), int(rng.integers(1, n + 1)))
        w = np.abs(rng.normal(size=(n, k))) * sel.a[:, None]
        served = rng.random(k) < 0.8
        floor = float(rng.choice([0.01, 0.5, 2.0]))
        noise = float(rng.choice([0.0, 10.0 ** rng.uniform(-22, -12)]))
        ks = order_users(h, w, sel).tolist()
        cross = ((h.T @ w) ** 2).tolist()
        # the builtin sum compensates from Python 3.12 on
        if any(sum(cross[k][i] for i in ks[pos + 1:])
               != left_to_right(cross[k][i] for i in ks[pos + 1:])
               for pos, k in enumerate(ks)):
            continue
        agreed += 1
        assert same_floats(
            least_floor_scale(h, w, sel, served, floor, noise),
            previous_least_floor_scale(h, w, sel, served, floor, noise))
    assert agreed > 2000


def left_to_right(terms):
    total = 0.0
    for x in terms:
        total += x
    return total


def test_least_floor_scale_sums_the_interference_left_to_right():
    # one LED, four users decoded in user order; user 0's interference is
    # [1, 1e-16, 1e-16], whose compensated sum is 1 + 2^-52 while the
    # left-to-right sum is 1, and its margin nearly cancels, so the scale
    # shows which sum was taken
    gamma = 2.0 ** 1e-3 - 1.0
    w = np.array([[math.sqrt(gamma * (1.0 + 1e-10)), 1.0, 1e-8, 1e-8]])
    h = np.array([[1.0, 1.0, 1e9, 1e10]])
    sel = LedSelection(a=np.array([1]))
    noise = 1e-20
    assert order_users(h, w, sel).tolist() == [0, 1, 2, 3]
    cross = ((h.T @ w) ** 2).tolist()
    terms = cross[0][1:]
    assert left_to_right(terms) != math.fsum(terms)

    def scale(sum_of):
        t2 = 0.0
        for k in range(4):
            margin = cross[k][k] - gamma * sum_of(cross[k][k + 1:])
            t2 = max(t2, gamma * noise / margin)
        return math.sqrt(t2)

    got = least_floor_scale(h, w, sel, np.ones(4, dtype=bool), 1e-3, noise)
    assert got == scale(left_to_right)
    assert got != scale(math.fsum)


def bench_config(regime, n_users, **overrides):
    return SystemConfig(**{**regime, "n_users": n_users, **overrides})


@pytest.mark.parametrize("regime, overrides", [
    (BENCH_K_REGIME, {}),
    (BENCH_POWER_REGIME, {}),
    (BENCH_K_REGIME, {"csi_radius": 0.0}),     # tied LED scores
    (BENCH_K_REGIME, {"clamp_velocity": False, "observe_pose": False,
                      "reward_mode": "paper"}),
], ids=["K-regime", "power-regime", "tied-scores", "paper-no-clamp"])
def test_episodes_match_previous_stepper_and_greedy(regime, overrides):
    rng = np.random.default_rng(35)
    rows = 0
    for n_users in range(1, 6):
        cfg = bench_config(regime, n_users, **overrides)
        task = sample_task(cfg, rng)
        env, prev = VlcUavEnv(cfg, task), PreviousEnv(cfg, task)
        for episode, scheme in enumerate(("greedy", "random", "raw")):
            policies = {"greedy": (GreedyPolicy(env),
                                   PreviousGreedyPolicy(prev)),
                        "random": (RandomPolicy(env, seed=episode),
                                   RandomPolicy(prev, seed=episode))}
            obs_a, obs_b = env.reset(seed=episode), prev.reset(seed=episode)
            assert same_floats(obs_a, obs_b)
            while not env.done:
                if scheme == "raw":
                    # past the box; tied scores; signed zeros
                    raw = rng.uniform(-1.5, 1.5, env.action_dim)
                    raw[rng.random(env.action_dim) < 0.1] = -0.0
                    a = b = raw
                else:
                    mine, theirs = policies[scheme]
                    a, b = mine(obs_a), theirs(obs_b)
                    assert same_floats(a, b)
                got, want = env.step(a), prev.step(b)
                obs_a, obs_b = got.next_obs, want.next_obs
                for field in ("obs", "raw_action", "reward", "next_obs",
                              "done"):
                    assert same_floats(getattr(got, field),
                                       getattr(want, field)), field
                assert same_floats(env.trace.rows[-1], prev.trace.rows[-1])
                rows += 1
    assert rows == 5 * 3 * 20


@pytest.mark.parametrize("special", [None, np.nan, np.inf, -np.inf, 1e308],
                         ids=repr)
def test_deterministic_act_matches_previous_form(special):
    cfg = small_config()
    agent = SacAgent(6, 3, cfg, seed=5)
    rng = np.random.default_rng(36)
    for trial in range(200):
        obs = rng.normal(size=6) * 10.0 ** rng.uniform(-2, 2)
        if special is not None:
            # one output entry through the last layer's bias
            out_bias = agent.actor.params[-1]
            saved = out_bias.copy()
            out_bias[int(rng.integers(out_bias.size))] = special
        with np.errstate(invalid="ignore", over="ignore"):
            got = agent.act(obs, deterministic=True)
            want = previous_act(agent, obs, deterministic=True)
        if special is not None:
            out_bias[:] = saved
        assert same_floats(got, want)
