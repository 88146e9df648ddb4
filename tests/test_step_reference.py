"""The environment step against its earlier per-user, per-element kernels.

Each slot kernel here has one frozen oracle, its earlier form kept below
verbatim (renamed `reference_*`), and its test asserts bit-for-bit
equality with it (`same_floats`: bytes, key order and reprs, so -0.0 and
a numpy scalar show) on seeded random inputs, up to whole episodes of the
environment:

- `channel_matrix` and `los_channel_gain`: `reference_channel_matrix`
  and `reference_los_channel_gain`, with users above, level with and
  below the UAV;
- `check_flight` and `clamp_velocity`: `reference_check_flight` and
  `reference_clamp_velocity`, at the final slot's RTS;
- `project_beamformer`: `reference_project_beamformer`, with rows over
  and under the bound and a zero bound;
- `LedSelection.n_active`, `total_power` and `check_p1_feasibility`:
  `reference_n_active`, `reference_total_power` and
  `reference_check_p1_feasibility`, with rows past the bound or at its
  tolerance and selections with no LED active or a non-binary entry;
- `VlcUavEnv.step` (decode, report, kinematics, channel refresh and
  observation): `ReferenceEnv`, over whole episodes of raw actions;
- `GreedyPolicy.__call__`: `ReferenceGreedyPolicy`, the one form here that
  is not per-element (see its docstring).

The fast paths' edge cases (tied gains and LED scores, -0.0 entries, rows
at the bound, NaN entries, users out of view, the greedy slot over whole
episodes) are tested against these same oracles in
`test_slot_fast_paths.py`, which imports them from here.
`reference_propulsion_power` alone is not verbatim: it takes the induced
root in the library's cancellation-free form, whose last bits differ from
the earlier form's. The other kernels' oracles: `per_user_rate` and
`order_users` in `test_metrics.py`, the greedy cascade in
`test_baselines.py`, and the kernels with no per-element form (`is_binary`,
the decoder's finiteness check, `perturb_csi`, `least_floor_scale`,
deterministic `act`, `propulsion_power`) in `test_slot_fast_paths.py`.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from uavlc import (DimmingConfig, FlightConfig, GreedyPolicy, LedSelection,
                   OpticsParams, SystemConfig, UavState, VlcUavEnv,
                   check_flight, check_p1_feasibility, channel_matrix,
                   clamp_velocity, los_channel_gain, project_beamformer,
                   sample_task, total_power)
from uavlc.baselines import cascade_beamformer
from uavlc.channel import (ChannelState, concentrator_gain, lambertian_order,
                           perturb_csi)
from uavlc.dimming import (beamforming_bound, dc_bias_for, dimming_level_of,
                           select_leds)
from uavlc.env import AllocationAction, EpisodeTrace, Transition
from uavlc.metrics import (CONSTRAINTS, PowerBreakdown, order_users,
                           per_user_rate)
from uavlc.uav import hover_power, step_kinematics

from conftest import (BENCH_K_REGIME, BENCH_POWER_REGIME, same_floats,
                      small_config)

# ---------------------------------------------------------------------------
# the earlier kernels, verbatim
# ---------------------------------------------------------------------------


def reference_los_channel_gain(uav, user, optics):
    uav = np.asarray(uav, dtype=float)
    user = np.asarray(user, dtype=float)
    diff = uav - user
    d = float(np.linalg.norm(diff))
    if d == 0.0:
        raise ValueError("degenerate geometry: UAV and user coincide")
    dz = float(diff[2])
    if dz <= 0.0:
        return 0.0
    cos_psi = dz / d
    psi = math.acos(min(1.0, cos_psi))
    if psi > optics.fov_semiangle:
        return 0.0
    m = lambertian_order(optics.half_power_semiangle)
    g = concentrator_gain(psi, optics)
    return ((m + 1.0) * optics.pd_area / (2.0 * math.pi * d * d)
            * g * cos_psi ** m * cos_psi)


def reference_channel_matrix(uav, users, optics, n_leds):
    if n_leds < 1:
        raise ValueError("need at least one LED")
    users = list(users)
    if not users:
        raise ValueError("need at least one user")
    gains = np.array([reference_los_channel_gain(uav, u, optics)
                      for u in users])
    return np.tile(gains, (n_leds, 1))


def reference_check_flight(state, v_next, cfg):
    v_next = np.asarray(v_next, dtype=float)
    tau = cfg.slot_duration
    violations = []
    next_pos = state.position + v_next * tau
    if not np.all((cfg.q_min < next_pos) & (next_pos < cfg.q_max)):
        violations.append("C5")
    if np.linalg.norm(v_next - state.velocity) > cfg.a_max * tau * (1 + 1e-12):
        violations.append("C6")
    if np.linalg.norm(v_next) > cfg.v_max * (1 + 1e-12):
        violations.append("C7")
    if state.slot + 1 == cfg.n_slots:
        if np.linalg.norm(next_pos - cfg.q_init) > cfg.return_tolerance:
            violations.append("RTS")
    return violations


def reference_clamp_velocity(state, v_cmd, cfg):
    v_cmd = np.asarray(v_cmd, dtype=float)
    dv = v_cmd - state.velocity
    max_dv = cfg.a_max * cfg.slot_duration
    n = np.linalg.norm(dv)
    if n > max_dv:
        dv = dv * (max_dv / n)
    v = state.velocity + dv
    speed = np.linalg.norm(v)
    if speed > cfg.v_max:
        v = v * (cfg.v_max / speed)
    return v


def reference_propulsion_power(v, p):
    speed2 = float(np.dot(np.asarray(v, dtype=float).ravel(),
                          np.asarray(v, dtype=float).ravel()))
    hov = hover_power(p)
    tip2 = (p.blade_angular_velocity * p.rotor_radius) ** 2
    blade = (1.0 + 3.0 * speed2 / tip2) * hov.blade
    x = speed2 / (2.0 * p.induced_hover_velocity ** 2)
    induced = np.sqrt(1.0 / (np.sqrt(1.0 + x * x) + x)) * hov.induced
    parasite = 0.5 * p.fuselage_drag_ratio * p.air_density * p.rotor_solidity \
        * p.rotor_disk_area * speed2 ** 1.5
    return float(blade + induced + parasite)


def reference_project_beamformer(w_raw, bound, selection):
    if bound < 0:
        raise ValueError("bound must be non-negative")
    w = np.asarray(w_raw, dtype=float) * selection.a[:, None]
    row_sums = np.abs(w).sum(axis=1)
    over = row_sums > bound
    scale = np.ones_like(row_sums)
    scale[over] = bound / row_sums[over] if bound > 0 else 0.0
    # bound == 0 with nonzero rows: zero them out
    if bound == 0.0:
        scale[over] = 0.0
    return w * scale[:, None]


def reference_n_active(selection):
    return int(selection.a.sum())


def reference_total_power(w, selection, i_dc, p_propulsion, amp_efficiency,
                          conversion_factor, circuit_power):
    transmit = amp_efficiency * float(
        (np.abs(w) * selection.a[:, None]).sum())
    bias = conversion_factor * reference_n_active(selection) * i_dc
    return PowerBreakdown(transmit=transmit, bias=bias,
                          circuit=circuit_power, propulsion=p_propulsion)


def reference_check_p1_feasibility(w, selection, i_dc, v_next, h_true,
                                   noise_var, uav_state, flight_cfg, dim_cfg,
                                   qos, p_propulsion, amp_efficiency,
                                   conversion_factor, circuit_power):
    order = order_users(h_true, w, selection)
    report_rates = per_user_rate(h_true, w, selection, noise_var, order)
    power = reference_total_power(w, selection, i_dc, p_propulsion,
                                  amp_efficiency, conversion_factor,
                                  circuit_power)
    flight = reference_check_flight(uav_state, v_next, flight_cfg)
    bound = beamforming_bound(i_dc, dim_cfg.i_low, dim_cfg.i_high)
    row_sums = np.abs(w * selection.a[:, None]).sum(axis=1)
    n_a = reference_n_active(selection)
    eta_back = dimming_level_of(n_a, i_dc, dim_cfg)
    report = {
        "C1": bool(np.all(report_rates.rates >= qos.r_min - 1e-12)),
        "C2": power.total <= qos.p_max * (1.0 + 1e-12),
        "C3": bool(np.all(row_sums <= bound * (1.0 + 1e-9) + 1e-15)),
        "C4": True,
        "C5": "C5" not in flight,
        "C6": "C6" not in flight,
        "C7": "C7" not in flight,
        "C8": abs(eta_back - dim_cfg.eta) <= 1e-9,
        "C9": bool(np.all((selection.a == 0) | (selection.a == 1))
                   and n_a >= 1),
        "RTS": "RTS" not in flight,
    }
    report["feasible"] = all(report[k] for k in
                             ("C1", "C2", "C3", "C4", "C5", "C6", "C7",
                              "C8", "C9", "RTS"))
    report["rates"] = report_rates
    report["power"] = power
    return report


class ReferenceEnv(VlcUavEnv):
    """The earlier stepper: two observations per slot, reference kernels."""

    def __init__(self, cfg, task):
        super().__init__(cfg, task)
        z_ref = 0.5 * (cfg.q_min[2] + cfg.q_max[2])
        self._h_ref = reference_los_channel_gain(
            np.array([0.0, 0.0, z_ref]), np.zeros(3), self.optics)

    def reset(self, seed=None):
        episode_seed = self.task.seed if seed is None else seed
        self._rng = np.random.default_rng([episode_seed, self.task.seed])
        self._uav = UavState(position=self.task.q_init.copy(),
                             velocity=np.zeros(3), slot=0)
        self._refresh_channels()
        self._done = False
        self.trace = EpisodeTrace()
        return self._observation()

    def decode_action(self, raw):
        raw = np.asarray(raw, dtype=float)
        n, k = self.cfg.n_leds, self.cfg.n_users
        beam = np.clip(raw[:n * k], -1.0, 1.0).reshape(n, k) * self.bound
        scores = raw[n * k:n * k + n]
        selection = select_leds(scores, self.n_active)
        w = reference_project_beamformer(beam, self.bound, selection)
        v_raw = np.clip(raw[n * k + n:], -1.0, 1.0) * self.cfg.v_max
        if self.cfg.clamp_velocity:
            velocity = reference_clamp_velocity(self._uav, v_raw,
                                                self.flight_cfg)
        else:
            velocity = v_raw
        return AllocationAction(w=w, selection=selection, velocity=velocity)

    def step(self, raw):
        if self._done:
            raise RuntimeError("cannot step a finished episode")
        obs = self._observation()
        action = self.decode_action(raw)
        p_prop = reference_propulsion_power(action.velocity, self.rotor)
        report = reference_check_p1_feasibility(
            w=action.w, selection=action.selection, i_dc=self.i_dc,
            v_next=action.velocity, h_true=self._channels.true_gain,
            noise_var=self._channels.noise_var, uav_state=self._uav,
            flight_cfg=self.flight_cfg, dim_cfg=self.dim_cfg, qos=self.cfg,
            p_propulsion=p_prop, amp_efficiency=self.cfg.amp_efficiency,
            conversion_factor=self.cfg.conversion_factor,
            circuit_power=self.cfg.circuit_power)
        power = report["power"]
        if report["feasible"]:
            reward = -power.total
        elif self.cfg.reward_mode == "paper":
            reward = 0.0
        else:
            reward = self.penalty
        self.trace.rows.append(self._record(report, action, reward))
        self._uav = step_kinematics(self._uav, action.velocity,
                                    self.flight_cfg)
        self._refresh_channels()
        self._done = self._uav.slot >= self.cfg.n_slots
        next_obs = self._observation()
        return Transition(obs=obs, raw_action=raw.copy(), reward=reward,
                          next_obs=next_obs, done=self._done)

    def _record(self, report, action, reward):
        """The earlier trace row builder, verbatim but for returning the
        row instead of appending it."""
        power = report["power"]
        rates = report["rates"]
        row = {
            "slot": self._uav.slot,
            "reward": reward,
            "p_transmit": power.transmit,
            "p_bias": power.bias,
            "p_circuit": power.circuit,
            "p_propulsion": power.propulsion,
            "p_total": power.total,
            "sum_rate": rates.sum_rate,
        }
        for k, rate in enumerate(rates.rates.tolist()):
            row[f"rate_{k}"] = rate
        for c in CONSTRAINTS:
            row[c] = int(report[c])
        row["feasible"] = int(report["feasible"])
        row["x"], row["y"], row["z"] = self._uav.position.tolist()
        return row

    def _refresh_channels(self):
        h = reference_channel_matrix(self._uav.position,
                                     self.task.user_positions, self.optics,
                                     self.cfg.n_leds)
        h_hat = perturb_csi(h, self.cfg.csi_radius, self._rng)
        self._channels = ChannelState(
            true_gain=h, est_gain=h_hat,
            noise_var=np.full(self.cfg.n_users, self.cfg.noise_var))

    def _observation(self):
        chan = np.log1p(self._channels.est_gain / self._h_ref).ravel()
        if not self.cfg.observe_pose:
            return chan.astype(float)
        q_min = np.asarray(self.cfg.q_min)
        q_max = np.asarray(self.cfg.q_max)
        pos = (self._uav.position - q_min) / (q_max - q_min)
        vel = self._uav.velocity / self.cfg.v_max
        frac = np.array([self._uav.slot / self.cfg.n_slots])
        return np.concatenate([chan, pos, vel, frac]).astype(float)


class ReferenceGreedyPolicy(GreedyPolicy):
    """The greedy slot before it filled its raw action in place, verbatim
    but for calling the library's `cascade_beamformer` (whose oracles are
    in `test_baselines.py`)."""

    def __call__(self, obs):
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


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

OPTICS = OpticsParams(half_power_semiangle=math.radians(60.0),
                      fov_semiangle=math.radians(60.0),
                      pd_area=1e-4, refractive_index=1.5)
NARROW = OpticsParams(half_power_semiangle=math.radians(35.0),
                      fov_semiangle=math.radians(25.0),
                      pd_area=2e-4, refractive_index=1.2)


@pytest.mark.parametrize("optics", [OPTICS, NARROW])
def test_channel_matrix_matches_reference_bitwise(optics):
    rng = np.random.default_rng(7)
    outside = below = 0
    for _ in range(2000):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 12))
        scale = 10.0 ** rng.uniform(-1.0, 2.5)
        users = rng.uniform(-1.0, 1.0, (k, 3)) * scale
        users[:, 2] = 0.0 if rng.random() < 0.5 else users[:, 2]
        # UAV above, level with or below some users' planes
        uav = rng.uniform(-1.0, 1.0, 3) * scale
        if rng.random() < 0.2:
            uav[2] = users[int(rng.integers(k)), 2]
        want = reference_channel_matrix(uav, list(users), optics, n)
        got = channel_matrix(uav, users, optics, n)
        assert same_floats(got, want)
        below += int(np.sum(uav[2] <= users[:, 2]))
        outside += int(np.sum((want[0] == 0.0) & (uav[2] > users[:, 2])))
        for u in users:
            assert (los_channel_gain(uav, u, optics)
                    == reference_los_channel_gain(uav, u, optics))
    # both zero-gain branches were exercised
    assert below > 100 and outside > 100


def test_channel_matrix_keeps_its_errors():
    users = [np.array([1.0, 2.0, 0.0]), np.array([3.0, 4.0, 0.0])]
    with pytest.raises(ValueError, match="coincide"):
        channel_matrix(np.array([3.0, 4.0, 0.0]), users, OPTICS, 2)
    with pytest.raises(ValueError, match="coincide"):
        los_channel_gain(np.zeros(3), np.zeros(3), OPTICS)
    with pytest.raises(ValueError, match="user"):
        channel_matrix(np.ones(3), [], OPTICS, 2)
    with pytest.raises(ValueError, match="LED"):
        channel_matrix(np.ones(3), users, OPTICS, 0)


FLIGHT = FlightConfig(slot_duration=1.0, n_slots=10, v_max=10.0, a_max=6.0,
                      q_min=np.array([0.0, 0.0, 10.0]),
                      q_max=np.array([100.0, 100.0, 50.0]),
                      q_init=np.array([50.0, 50.0, 25.0]),
                      return_tolerance=2.0)


def random_state(rng):
    pos = rng.uniform(FLIGHT.q_min - 5.0, FLIGHT.q_max + 5.0)
    vel = rng.normal(size=3) * rng.uniform(0.0, 8.0)
    # the RTS slot, and positions next to home so RTS can pass
    slot = int(rng.choice([0, 4, FLIGHT.n_slots - 1]))
    if rng.random() < 0.3:
        pos = FLIGHT.q_init + rng.normal(size=3) * 3.0
    return UavState(position=pos, velocity=vel, slot=slot)


def test_check_flight_and_clamp_match_reference_bitwise():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(20000):
        state = random_state(rng)
        v = rng.normal(size=3) * rng.uniform(0.0, 25.0)
        if rng.random() < 0.3:
            v = FLIGHT.q_init - state.position   # fly home
        want = reference_check_flight(state, v, FLIGHT)
        assert same_floats(check_flight(state, v, FLIGHT),
                           {c: c not in want
                            for c in ("C5", "C6", "C7", "RTS")})
        seen.update(want)
        assert same_floats(clamp_velocity(state, v, FLIGHT),
                           reference_clamp_velocity(state, v, FLIGHT))
    assert seen == {"C5", "C6", "C7", "RTS"}


def test_project_beamformer_matches_reference_bitwise():
    rng = np.random.default_rng(5)
    over_rows = 0
    for _ in range(5000):
        n, k = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        w = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-4.0, 1.0)
        bound = float(rng.choice([0.0, 10.0 ** rng.uniform(-4.0, 1.0)]))
        sel = select_leds(rng.normal(size=n), int(rng.integers(1, n + 1)))
        got = project_beamformer(w, bound, sel)
        assert same_floats(got, reference_project_beamformer(w, bound, sel))
        over_rows += int(np.sum(np.abs(w * sel.a[:, None]).sum(axis=1)
                                > bound))
    assert over_rows > 1000


def reference_outcome(env, action, p_propulsion):
    """The reference report on an env-like namespace, and the outcome
    columns of its trace row, in row order."""
    cfg, state = env.cfg, env.uav_state
    report = reference_check_p1_feasibility(
        w=action.w, selection=action.selection, i_dc=env.i_dc,
        v_next=action.velocity, h_true=env.channels.true_gain,
        noise_var=env.channels.noise_var, uav_state=state,
        flight_cfg=env.flight_cfg, dim_cfg=env.dim_cfg, qos=cfg,
        p_propulsion=p_propulsion, amp_efficiency=cfg.amp_efficiency,
        conversion_factor=cfg.conversion_factor,
        circuit_power=cfg.circuit_power)
    row = ReferenceEnv._record(SimpleNamespace(_uav=state), report, action,
                               0.0)
    return report, {k: v for k, v in row.items()
                    if k not in ("slot", "reward", "x", "y", "z")}


DIM = DimmingConfig(eta=0.7, i_low=0.0, i_high=0.01, n_leds=10)


def report_case(rng, r_min, h, sel, i_dc, w, state, v):
    """An env-like namespace the report reads, the decoded action and a
    propulsion power."""
    env = SimpleNamespace(
        cfg=SimpleNamespace(r_min=r_min, p_max=5.0, amp_efficiency=1.2,
                            conversion_factor=1.0, circuit_power=0.5),
        channels=ChannelState(
            true_gain=h, est_gain=h,
            noise_var=np.full(h.shape[1], 10.0 ** rng.uniform(-20, -14))),
        uav_state=state, flight_cfg=FLIGHT, dim_cfg=DIM, i_dc=i_dc,
        bound=beamforming_bound(i_dc, DIM.i_low, DIM.i_high))
    return (env, AllocationAction(w=w, selection=sel, velocity=v),
            float(rng.uniform(0.0, 6.0)))


def random_report_case(rng):
    """A random slot with some rows past the bound or at its tolerance,
    and a few selections with no LED active or a non-binary entry."""
    k = int(rng.integers(1, 9))
    h = np.tile(rng.random(k) * 1e-6, (10, 1))
    sel = select_leds(rng.normal(size=10), 7)
    i_dc = dc_bias_for(DIM, 7)
    bound = beamforming_bound(i_dc, 0.0, 0.01)
    w = rng.normal(size=(10, k)) * bound * rng.uniform(0.0, 0.5)
    if rng.random() < 0.2:     # some rows past the dynamic range: C3
        w[int(rng.integers(10))] *= 10.0
    elif rng.random() < 0.3:   # an active row at the C3 tolerance
        i = int(np.flatnonzero(sel.a)[0])
        w[i] *= bound * (1.0 + rng.uniform(0.0, 2e-9)) / np.abs(w[i]).sum()
    if rng.random() < 0.05:    # C9: no LED active, or a non-binary entry
        sel = LedSelection(a=np.zeros(10, dtype=int))
        sel.a[int(rng.integers(10))] = int(rng.choice([0, 2]))
    state = random_state(rng)
    v = rng.normal(size=3) * rng.uniform(0.0, 12.0)
    return report_case(rng, 0.5, h, sel, i_dc, w, state, v)


def test_check_p1_feasibility_matches_reference_bitwise():
    rng = np.random.default_rng(3)
    outcomes = set()
    for _ in range(3000):
        env, action, p_prop = random_report_case(rng)
        w, sel = action.w, action.selection
        want, outcome = reference_outcome(env, action, p_prop)
        assert same_floats(check_p1_feasibility(env, action, p_prop),
                           outcome)
        assert same_floats(sel.n_active, reference_n_active(sel))
        args = (env.i_dc, p_prop, 1.2, 1.0, 0.5)
        assert same_floats(total_power(w, sel, *args),
                           reference_total_power(w, sel, *args))
        outcomes.update(c for c in ("C1", "C2", "C3", "C5", "C6", "C7",
                                    "C8", "C9", "RTS") if not want[c])
        outcomes.add(want["feasible"])
    assert outcomes == {"C1", "C2", "C3", "C5", "C6", "C7", "C8", "C9", "RTS",
                        True, False}


def test_n_active_matches_reference():
    for a in ([0, 1, 1], [1], [0, 0], [True, False, True], [0.0, 1.0],
              [-0.0, 1.0, 1.0]):
        sel = LedSelection(a=np.asarray(a))
        assert same_floats(sel.n_active, reference_n_active(sel))
    sel = LedSelection(a=np.array([1, 0, 1]))
    sel.a[1] = 2     # mutated past the check, as the C9 test does
    assert same_floats(sel.n_active, reference_n_active(sel))
    assert sel.n_active == 4


# ---------------------------------------------------------------------------
# whole episodes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("overrides", [
    {},
    {"clamp_velocity": False},
    {"observe_pose": False},
    {"reward_mode": "paper"},
], ids=["default", "no-clamp", "channels-only", "paper-reward"])
def test_episodes_match_reference_stepper(overrides):
    cfg = small_config(n_leds=5, n_users=3, n_slots=8, r_min=1e-3,
                       noise_var=1e-16, i_high=1.0, circuit_power=0.1,
                       conversion_factor=0.01, uav_weight=1e-3,
                       rotor_radius=0.01, blade_angular_velocity=1.0,
                       rotor_disk_area=1e-4, induced_hover_velocity=0.5,
                       fuselage_drag_ratio=1e-6, **overrides)
    rng = np.random.default_rng(21)
    feasible = 0
    for episode in range(20):
        task = sample_task(cfg, rng)
        env, ref = VlcUavEnv(cfg, task), ReferenceEnv(cfg, task)
        assert env._h_ref == ref._h_ref
        assert np.array_equal(env.reset(seed=episode),
                              ref.reset(seed=episode))
        while not env.done:
            # past the box on both sides, so the clipping is exercised
            raw = rng.uniform(-1.5, 1.5, env.action_dim)
            got, want = env.step(raw), ref.step(raw)
            assert np.array_equal(got.obs, want.obs)
            assert np.array_equal(got.raw_action, want.raw_action)
            assert got.reward == want.reward
            assert np.array_equal(got.next_obs, want.next_obs)
            assert got.done == want.done
            assert env.trace.rows[-1] == ref.trace.rows[-1]
            assert list(env.trace.rows[-1]) == list(ref.trace.rows[-1])
        assert ref.done
        feasible += sum(r["feasible"] for r in env.trace.rows)
    assert feasible > 0


@pytest.mark.parametrize("regime", [BENCH_K_REGIME, BENCH_POWER_REGIME],
                         ids=["K-regime", "power-regime"])
def test_episodes_match_reference_stepper_at_benchmark_shapes(regime):
    # N = 10 and K = 1..5: 50-entry beam matrices, 5-term row sums and
    # 57-entry observations, which the small episodes above never reach
    rng = np.random.default_rng(22)
    for n_users in range(1, 6):
        cfg = SystemConfig(**{**regime, "n_users": n_users})
        task = sample_task(cfg, rng)
        env, ref = VlcUavEnv(cfg, task), ReferenceEnv(cfg, task)
        for episode in range(3):
            assert same_floats(env.reset(seed=episode),
                               ref.reset(seed=episode))
            while not env.done:
                raw = rng.uniform(-1.5, 1.5, env.action_dim)
                got, want = env.step(raw), ref.step(raw)
                assert got.obs.shape == (10 * n_users + 7,)
                for field in ("obs", "raw_action", "reward", "next_obs",
                              "done"):
                    assert same_floats(getattr(got, field),
                                       getattr(want, field)), field
                assert same_floats(env.trace.rows[-1], ref.trace.rows[-1])
            assert ref.done
