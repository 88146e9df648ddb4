"""UAV-mounted LED-array VLC simulator with meta-learned SAC allocation."""

from .config import SystemConfig, load_config
from .channel import (OpticsParams, ChannelState, lambertian_order,
                      concentrator_gain, los_channel_gain, channel_matrix,
                      perturb_csi)
from .dimming import (DimmingConfig, LedSelection, active_led_count,
                      dc_bias_for, dimming_level_of, beamforming_bound,
                      project_beamformer, select_leds)
from .uav import (FlightConfig, RotorcraftParams, UavState, step_kinematics,
                  check_flight, clamp_velocity, hover_power,
                  propulsion_power)
from .metrics import (PowerBreakdown, RateReport, order_users, per_user_rate,
                      total_power, energy_efficiency, check_p1_feasibility)
from .env import (Task, AllocationAction, Transition, EpisodeTrace, VlcUavEnv,
                  rollout, sample_task)
from .sac import ReplayBuffer, SacAgent, learn_online, train_sac
from .meta import MetaSac
from .baselines import RandomPolicy, GreedyPolicy
from .harness import ExperimentSpec, ResultRow, evaluate, run_experiment

__version__ = "0.1.0"
