"""End-to-end acceptance gate.

Seven checks: closed-form physics oracles, finite-difference gradient
agreement, constraint satisfaction by construction, brute-force
equivalence of the greedy slot optimizer, learning-scheme power
separation on held-out tasks, qualitative sweep trends, and bit-identical
CSV reproducibility.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import stats as scistats

from uavlc import (ExperimentSpec, GreedyPolicy, LedSelection, MetaSac,
                   OpticsParams, RandomPolicy, RotorcraftParams,
                   SystemConfig, Task, VlcUavEnv, concentrator_gain,
                   evaluate, hover_power, lambertian_order,
                   los_channel_gain, propulsion_power, sample_task,
                   train_sac)
from uavlc.baselines import greedy_exhaustive_slot
from uavlc.dimming import DimmingConfig, active_led_count, dc_bias_for, dimming_level_of
from uavlc.harness import make_agent_policy, parallel_map, run_experiment
from uavlc.metrics import order_users, per_user_rate, total_power
from uavlc.sac import SacAgent, gaussian_policy_forward

from conftest import small_config

RTOL = 1e-9

# featherweight airframe: propulsion power in the microwatt range, so the
# transmit-side power terms drive every comparison that uses it
FEATHER = dict(uav_weight=1e-3, rotor_radius=0.01,
               blade_angular_velocity=1.0, rotor_disk_area=1e-4,
               induced_hover_velocity=0.5, fuselage_drag_ratio=1e-6)
# light airframe: propulsion present but small against transmit power
LIGHT = dict(uav_weight=0.2, rotor_radius=0.05, blade_angular_velocity=50.0,
             rotor_disk_area=0.008, induced_hover_velocity=0.5)


# ---------------------------------------------------------------------------
# 1. closed-form physics oracles
# ---------------------------------------------------------------------------

def test_closed_form_oracles():
    # Lambertian order at a 60 degree half-power semi-angle
    assert lambertian_order(math.radians(60.0)) == pytest.approx(1.0,
                                                                 rel=RTOL)
    optics = OpticsParams(half_power_semiangle=math.radians(60.0),
                          fov_semiangle=math.radians(60.0),
                          pd_area=1e-4, refractive_index=1.5)
    # concentrator gain q^2 / sin^2(Psi_c) inside the field of view
    assert concentrator_gain(math.radians(30.0), optics) == pytest.approx(
        3.0, rel=RTOL)
    # nadir link at 10 m: (m+1) A / (2 pi d^2) * G
    h = los_channel_gain(np.array([0.0, 0.0, 10.0]), np.zeros(3), optics)
    assert h == pytest.approx(9.549296585513723e-07, rel=RTOL)

    # bias/dimming round trip at a non-trivial operating point
    dim = DimmingConfig(eta=0.55, i_low=0.0, i_high=0.010, n_leds=10)
    n_a = active_led_count(dim.eta, dim.n_leds)
    i_dc = dc_bias_for(dim, n_a)
    assert i_dc == pytest.approx(0.004583333333333333, rel=RTOL)
    assert dimming_level_of(n_a, i_dc, dim) == pytest.approx(0.55, rel=RTOL)

    # rotorcraft hover and forward-flight power
    rotor = RotorcraftParams(
        profile_drag_coeff=0.012, air_density=1.225, rotor_solidity=0.05,
        rotor_disk_area=0.79, blade_angular_velocity=400.0,
        rotor_radius=0.05, correction_factor=1.0, uav_weight=100.0,
        induced_hover_velocity=7.2, fuselage_drag_ratio=0.3)
    hov = hover_power(rotor)
    assert hov.blade == pytest.approx(0.58065, rel=RTOL)
    assert hov.induced == pytest.approx(1437.5845869332215, rel=RTOL)
    assert propulsion_power(np.zeros(3), rotor) == pytest.approx(
        hov.total, rel=RTOL)
    assert propulsion_power(np.array([5.0, 0.0, 0.0]), rotor) == \
        pytest.approx(1277.353895297339, rel=RTOL)


# ---------------------------------------------------------------------------
# 2. gradient correctness against central finite differences
# ---------------------------------------------------------------------------

def _fd_grad(loss_at, flat, eps=1e-6):
    g = np.zeros_like(flat)
    for i in range(flat.size):
        fp, fm = flat.copy(), flat.copy()
        fp[i] += eps
        fm[i] -= eps
        g[i] = (loss_at(fp) - loss_at(fm)) / (2.0 * eps)
    return g


def _max_rel_err(analytic, numeric):
    return float(np.max(np.abs(analytic - numeric)
                        / (np.abs(numeric) + 1e-8)))


def test_sac_gradients_match_finite_differences_over_20_seeds():
    obs_dim, act_dim, batch = 5, 2, 6
    cfg = small_config(hidden_sizes=(16,))
    worst = 0.0
    for seed in range(20):
        agent = SacAgent(obs_dim, act_dim, cfg, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        data = {"obs": rng.standard_normal((batch, obs_dim)),
                "act": np.tanh(rng.standard_normal((batch, act_dim))),
                "rew": rng.standard_normal(batch),
                "next_obs": rng.standard_normal((batch, obs_dim)),
                "done": rng.integers(0, 2, batch).astype(float)}
        xi = rng.standard_normal((batch, act_dim))

        y = agent.critic_target(data["rew"], data["done"],
                                data["next_obs"], xi=xi)
        qin = np.concatenate([data["obs"], data["act"]], axis=1)
        (g1, _), (g2, _) = agent.critic_grads(data, xi=xi)
        for net, grads in ((agent.q1, g1), (agent.q2, g2)):
            def critic_loss(flat, net=net):
                probe = net.clone()
                probe.flat[:] = flat
                return float(np.mean((probe(qin)[:, 0] - y) ** 2))

            analytic = np.concatenate([g.ravel() for g in grads])
            worst = max(worst, _max_rel_err(
                analytic, _fd_grad(critic_loss, net.flat.copy())))

        ga, _ = agent.actor_grads(data, xi=xi)

        def actor_loss(flat):
            probe = agent.actor.clone()
            probe.flat[:] = flat
            fw = gaussian_policy_forward(probe, data["obs"], xi)
            q_in = np.concatenate([data["obs"], fw["action"]], axis=1)
            q_min = np.minimum(agent.q1(q_in)[:, 0], agent.q2(q_in)[:, 0])
            return float(np.mean(cfg.entropy_weight * fw["logp"] - q_min))

        analytic = np.concatenate([g.ravel() for g in ga])
        worst = max(worst, _max_rel_err(
            analytic, _fd_grad(actor_loss, agent.actor.flat.copy())))
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


# ---------------------------------------------------------------------------
# 3. constraint satisfaction by construction
# ---------------------------------------------------------------------------

def test_100k_decoded_actions_satisfy_dynamic_range_and_selection():
    cfg = small_config()
    env = VlcUavEnv(cfg, sample_task(cfg, np.random.default_rng(0)))
    env.reset(seed=0)
    rng = np.random.default_rng(1)
    raws = rng.uniform(-2.0, 2.0, (100_000, env.action_dim))
    for raw in raws:
        act = env.decode_action(raw)
        assert np.all(np.abs(act.w).sum(axis=1) <= env.bound * (1 + 1e-9))
        assert act.selection.n_active == env.n_active


def test_1000_clamped_random_episodes_satisfy_flight_limits():
    cfg = small_config(clamp_velocity=True)
    env = VlcUavEnv(cfg, sample_task(cfg, np.random.default_rng(0)))
    policy = RandomPolicy(env, seed=0)
    for ep in range(1000):
        obs = env.reset(seed=ep)
        while not env.done:
            obs = env.step(policy(obs)).next_obs
        for row in env.trace.rows:
            assert row["C6"] == 1 and row["C7"] == 1


# ---------------------------------------------------------------------------
# 4. brute-force equivalence of the greedy slot optimizer
# ---------------------------------------------------------------------------

def test_greedy_slot_matches_exhaustive_grid_minimum():
    led_scale = np.array([1.0, 0.8, 0.6, 0.4, 0.2])
    h_est = np.outer(led_scale, [0.4, 0.1])
    n, k = h_est.shape
    n_active, bound, r_min, noise = 3, 20.0, 1.0, 1.0
    pw = dict(i_dc=0.005, p_propulsion=10.0, amp_efficiency=1.2,
              conversion_factor=1.0, circuit_power=1.0)
    noise_vec = np.full(k, noise)

    # oracle: every LED subset x a 120x120 log-spaced per-user amplitude
    # grid (uniform rows are optimal here: within a subset every active
    # row sees the same channel ratio across users)
    grid = np.geomspace(0.01, 20.0, 120)
    oracle = np.inf
    for subset in itertools.combinations(range(n), n_active):
        sel = LedSelection(a=np.isin(np.arange(n), subset).astype(int))
        for t1 in grid:
            if t1 >= bound:
                continue
            for t2 in grid:
                if t1 + t2 > bound:
                    continue
                w = np.zeros((n, k))
                w[list(subset), 0] = t1
                w[list(subset), 1] = t2
                order = order_users(h_est, w, sel)
                rr = per_user_rate(h_est, w, sel, noise_vec, order)
                if np.all(rr.rates >= r_min):
                    p = total_power(w, sel, pw["i_dc"],
                                    pw["p_propulsion"],
                                    pw["amp_efficiency"],
                                    pw["conversion_factor"],
                                    pw["circuit_power"]).total
                    oracle = min(oracle, p)

    sel, w, p_pipe = greedy_exhaustive_slot(
        h_est, n_active, bound, pw["i_dc"], r_min, noise,
        pw["p_propulsion"], pw["amp_efficiency"], pw["conversion_factor"],
        pw["circuit_power"])
    assert sel is not None
    # the pipeline's answer is feasible ...
    order = order_users(h_est, w, sel)
    rr = per_user_rate(h_est, w, sel, noise_vec, order)
    assert np.all(rr.rates >= r_min * (1 - 1e-9))
    # ... picks the strongest LEDs ...
    assert list(sel.a) == [1, 1, 1, 0, 0]
    # ... and lands on the grid minimum within its design headroom
    assert p_pipe <= oracle * 1.05
    assert p_pipe >= oracle * (1 - 0.05)


# ---------------------------------------------------------------------------
# 5. learning-scheme power separation on held-out tasks
# ---------------------------------------------------------------------------

# high-altitude corridor with a cheap rate floor: the power ranking is
# decided by how quickly each scheme learns to fly at efficient speed
# under the total-power cap
POWER_REGIME = dict(q_max=(100.0, 100.0, 100.0), q_min=(0.0, 0.0, 60.0),
                    r_min=0.01, p_max=1300.0, noise_var=1e-22,
                    csi_radius=1e-10, entropy_weight=0.01,
                    episodes_per_task=3)


@pytest.mark.slow
def test_meta_adaptation_beats_sac_beats_greedy_on_mean_power():
    cfg = SystemConfig(**POWER_REGIME)
    probe = VlcUavEnv(cfg, sample_task(cfg, np.random.default_rng(0)))
    meta = MetaSac(cfg, probe.obs_dim, probe.action_dim, seed=0)
    task_rng = np.random.default_rng(7)
    meta.meta_train(lambda: sample_task(cfg, task_rng), 200)

    def pair(unit):
        # one (held-out task, seed) pair: every env reset and agent is
        # seeded from the pair and meta_adapt adapts a clone, so the pairs
        # are independent and may run in any process
        t, s = unit
        task = sample_task(cfg, np.random.default_rng(500 + t))
        env = VlcUavEnv(cfg, task)
        seed = 1000 * t + s
        adapted = meta.meta_adapt(task, 60, seed=seed)
        meta_p = evaluate(env, make_agent_policy(adapted), 3,
                          s)["mean_p_tot"]
        agent, _, _ = train_sac(env, cfg, seed=seed, episodes=25)
        sac_p = evaluate(env, make_agent_policy(agent), 3, s)["mean_p_tot"]
        greedy_p = evaluate(env, GreedyPolicy(env), 3, s)["mean_p_tot"]
        return meta_p, sac_p, greedy_p

    # held-out tasks, disjoint from meta-training draws
    pairs = [(t, s) for t in range(4) for s in range(5)]
    meta_p, sac_p, greedy_p = map(np.asarray,
                                  zip(*parallel_map(pair, pairs)))
    assert meta_p.mean() < sac_p.mean() < greedy_p.mean()
    assert scistats.ttest_rel(meta_p, sac_p,
                              alternative="less").pvalue < 0.05
    assert scistats.ttest_rel(sac_p, greedy_p,
                              alternative="less").pvalue < 0.05


# ---------------------------------------------------------------------------
# 6. qualitative sweep trends
# ---------------------------------------------------------------------------

TREND_SEEDS = 20

# small arena, featherweight airframe: total power tracks the transmit
# side, which must grow with the user count
K_REGIME = dict(i_high=1.0, r_min=0.5, noise_var=1e-16, csi_radius=1e-12,
                circuit_power=0.1, conversion_factor=0.01, p_max=2000.0,
                q_max=(40.0, 40.0, 30.0), q_min=(0.0, 0.0, 20.0), **FEATHER)


def _greedy_stats(cfg, task_seed, seed):
    task = sample_task(cfg, np.random.default_rng(task_seed))
    env = VlcUavEnv(cfg, task)
    return evaluate(env, GreedyPolicy(env), 2, seed)


def test_total_power_increases_with_user_count():
    ks = [1, 2, 3, 4, 5]
    means = []
    for k in ks:
        cfg = SystemConfig(n_users=k, **K_REGIME)
        vals = []
        for seed in range(TREND_SEEDS):
            # common random numbers: each K uses the first K users of one
            # superset task per seed
            sup = SystemConfig(n_users=max(ks), **K_REGIME)
            t = sample_task(sup, np.random.default_rng(3000 + seed))
            task = Task(user_positions=t.user_positions[:k],
                        q_init=t.q_init, seed=t.seed)
            env = VlcUavEnv(cfg, task)
            vals.append(evaluate(env, GreedyPolicy(env), 2,
                                 seed)["mean_p_tot"])
        means.append(float(np.mean(vals)))
    assert all(a < b for a, b in zip(means, means[1:])), means


def test_sum_rate_non_decreasing_in_power_budget():
    means = []
    for p_max in (500.0, 1000.0, 2000.0):
        cfg = SystemConfig(n_users=3, **{**K_REGIME, "p_max": p_max})
        vals = [_greedy_stats(cfg, 3500 + seed, seed)["mean_sum_rate"]
                for seed in range(TREND_SEEDS)]
        means.append(float(np.mean(vals)))
    assert all(b >= a - 1e-9 for a, b in zip(means, means[1:])), means


# around the feasibility transition of the rate floor, meeting a stiffer
# floor costs disproportionally more transmit power
R_REGIME = dict(i_high=1.0, noise_var=5e-22, csi_radius=1e-12,
                circuit_power=0.1, conversion_factor=0.01, p_max=2000.0,
                **LIGHT)


def test_energy_efficiency_non_increasing_in_rate_floor():
    means = []
    for r_min in (0.5, 0.7, 0.9, 1.1):
        cfg = SystemConfig(r_min=r_min, **R_REGIME)
        vals = [_greedy_stats(cfg, 4000 + seed, seed)["mean_ee"]
                for seed in range(TREND_SEEDS)]
        means.append(float(np.mean(vals)))
    assert all(a >= b - 1e-12 for a, b in zip(means, means[1:])), means


# under partial dimming and a stiff rate floor, a single LED's dynamic
# range saturates while ten LEDs pool theirs
N_REGIME = dict(i_high=1.0, dimming_level=0.85, r_min=5.0, noise_var=1e-18,
                csi_radius=1e-12, circuit_power=5.0, conversion_factor=0.01,
                p_max=2000.0, **LIGHT)


def test_ten_led_array_beats_single_led_on_rate_and_efficiency():
    results = {}
    for n in (1, 10):
        cfg = SystemConfig(n_leds=n, **N_REGIME)
        rates, ees = [], []
        for seed in range(TREND_SEEDS):
            s = _greedy_stats(cfg, 5000 + seed, seed)
            rates.append(s["mean_sum_rate"])
            ees.append(s["mean_ee"])
        results[n] = (float(np.mean(rates)), float(np.mean(ees)))
    assert results[10][0] > results[1][0], results
    assert results[10][1] > results[1][1], results


# single-user, transmit-dominated regime: learning shrinks beam
# amplitudes, which raises rate-per-watt; the scheme that adapts fastest
# ends up most energy efficient
EE_REGIME = dict(n_users=1, i_high=1.0, r_min=0.01, noise_var=1e-22,
                 csi_radius=1e-10, circuit_power=0.1,
                 conversion_factor=0.01, p_max=2000.0, entropy_weight=0.01,
                 episodes_per_task=3, reward_scale=0.1,
                 q_max=(100.0, 100.0, 100.0), q_min=(0.0, 0.0, 60.0),
                 **FEATHER)


@pytest.mark.slow
def test_energy_efficiency_ordering_meta_sac_random():
    cfg = SystemConfig(**EE_REGIME)
    probe = VlcUavEnv(cfg, sample_task(cfg, np.random.default_rng(0)))
    meta = MetaSac(cfg, probe.obs_dim, probe.action_dim, seed=0)
    task_rng = np.random.default_rng(7)
    meta.meta_train(lambda: sample_task(cfg, task_rng), 200)

    def pair(unit):     # independent, as in the power-separation test
        t, s = unit
        task = sample_task(cfg, np.random.default_rng(600 + t))
        env = VlcUavEnv(cfg, task)
        seed = 1000 * t + s
        adapted = meta.meta_adapt(task, 60, seed=seed)
        meta_ee = evaluate(env, make_agent_policy(adapted), 3, s)["mean_ee"]
        agent, _, _ = train_sac(env, cfg, seed=seed, episodes=50)
        sac_ee = evaluate(env, make_agent_policy(agent), 3, s)["mean_ee"]
        rand_ee = evaluate(env, RandomPolicy(env, seed=seed), 3,
                           s)["mean_ee"]
        return meta_ee, sac_ee, rand_ee

    pairs = [(t, s) for t in range(4) for s in range(5)]
    meta_ee, sac_ee, rand_ee = zip(*parallel_map(pair, pairs))
    assert np.mean(meta_ee) >= np.mean(sac_ee) >= np.mean(rand_ee), (
        np.mean(meta_ee), np.mean(sac_ee), np.mean(rand_ee))


# ---------------------------------------------------------------------------
# 7. bit-identical reproducibility of result rows
# ---------------------------------------------------------------------------

def test_sweep_rows_regenerate_bit_identically(tmp_path):
    cfg = small_config(n_slots=10)

    def spec(path):
        return ExperimentSpec(
            scenario="repro", sweep_var="R_min", sweep_values=[0.5, 1.0],
            seeds=2, schemes=["meta-sac", "sac", "greedy", "random"],
            out_path=str(path), eval_episodes=1, train_episodes=3,
            adapt_episodes=1, meta_iterations=2)

    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    rows1 = run_experiment(spec(p1), cfg)
    rows2 = run_experiment(spec(p2), cfg)
    assert p1.read_bytes() == p2.read_bytes()
    assert rows1 == rows2
    # re-running against an existing file reads the same rows back from it
    # and appends nothing
    rows3 = run_experiment(spec(p1), cfg)
    assert rows3 == rows1
    assert p1.read_bytes() == p2.read_bytes()
