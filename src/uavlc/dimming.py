"""Hybrid analog/spatial dimming for the LED array.

Spatial domain: a target dimming level picks the active-LED count
N_a = round(eta * N). Analog domain: the uniform DC bias then follows as
I_DC = eta N (I_0 - I_l) / N_a + I_l, which inverts exactly back to eta.
The per-LED dynamic range bounds each row of the beamforming matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class DimmingConfig:
    eta: float        # target dimming level, (0, 1]
    i_low: float      # [A]
    i_high: float     # [A]
    n_leds: int

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("dimming level must be in (0, 1]")
        if self.i_low >= self.i_high:
            raise ValueError("need i_low < i_high")
        if self.n_leds < 1:
            raise ValueError("need at least one LED")

    @property
    def i_zero(self) -> float:
        return 0.5 * (self.i_low + self.i_high)


def is_binary(a: np.ndarray) -> bool:
    """Whether every entry is 0 or 1: the nonzero entries are the ones."""
    return np.count_nonzero(a) == np.count_nonzero(a == 1)


@dataclass
class LedSelection:
    a: np.ndarray     # length-N binary vector

    def __post_init__(self):
        self.a = np.asarray(self.a)
        if not is_binary(self.a):
            raise ValueError("selection vector must be binary")

    @property
    def n_active(self) -> int:
        return int(self.a.sum())


def active_led_count(eta: float, n_leds: int) -> int:
    """N_a = round-half-up(eta * N), floored at one active LED."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("dimming level must be in (0, 1]")
    if n_leds < 1:
        raise ValueError("need at least one LED")
    n_a = math.floor(eta * n_leds + 0.5)
    return min(max(n_a, 1), n_leds)


def dc_bias_for(cfg: DimmingConfig, n_active: int) -> float:
    """Uniform DC bias I_DC = eta N (I_0 - I_l) / N_a + I_l."""
    if n_active < 1:
        raise ValueError("need at least one active LED")
    i_dc = cfg.eta * cfg.n_leds * (cfg.i_zero - cfg.i_low) / n_active + cfg.i_low
    if i_dc > cfg.i_high * (1.0 + 1e-12):
        raise ValueError(
            f"DC bias {i_dc:.6g} A exceeds i_high={cfg.i_high:.6g} A "
            f"(inconsistent eta={cfg.eta}, N_a={n_active})")
    return min(i_dc, cfg.i_high)


def dimming_level_of(n_active: int, i_dc: float, cfg: DimmingConfig) -> float:
    """Algebraic inverse of dc_bias_for: eta = N_a (I_DC - I_l) / (N (I_0 - I_l))."""
    return n_active * (i_dc - cfg.i_low) / (cfg.n_leds * (cfg.i_zero - cfg.i_low))


def beamforming_bound(i_dc: float, i_low: float, i_high: float) -> float:
    """Per-LED dynamic-range headroom min(I_DC - I_l, I_h - I_DC)."""
    if not i_low <= i_dc <= i_high:
        raise ValueError("DC bias must lie within the driver current range")
    return min(i_dc - i_low, i_high - i_dc)


def project_beamformer(w_raw: np.ndarray, bound: float,
                       selection: LedSelection) -> np.ndarray:
    """Project raw beamformer rows onto the per-LED dynamic-range constraint.

    Rows of inactive LEDs are zeroed. Rows whose absolute sum exceeds the
    bound are scaled down (direction preserving); feasible rows pass through.
    The row sums are numpy's; the N row scales are Python float divisions.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    w = np.asarray(w_raw, dtype=float) * selection.a[:, None]
    # a zero bound zeroes every nonzero row
    scale = [(bound / s if bound > 0.0 else 0.0) if s > bound else 1.0
             for s in np.abs(w).sum(axis=1).tolist()]
    return w * np.array(scale)[:, None]


def select_leds(scores: np.ndarray, n_active: int) -> LedSelection:
    """Activate the n_active highest-scoring LEDs; ties go to lower indices."""
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[0]
    if n_active > n:
        raise ValueError("cannot activate more LEDs than exist")
    # stable sort on negated scores realizes the lowest-index tie-break
    top = (-scores).argsort(kind="stable")[:n_active]
    a = np.zeros(n, dtype=int)
    a[top] = 1
    return LedSelection(a=a)
