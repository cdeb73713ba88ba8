"""Synthetic shocked-equilibrium observations and full synthetic panels.

The simulator is the estimation oracle: it draws curve shocks, solves the
shocked system per observation, re-centers the deviations (mirroring what
the estimation pipeline observes) and can invert the preprocessing to emit
a raw value/flow panel whose pipeline round trip reproduces the simulated
deviations.

Emitted instrument columns: two lagged copies of the price deviations
(first entries noise-padded) and two supply-shifter columns (supply shock
plus noise).  Under the default demand-shock-only configuration the shifter
columns degenerate to independent noise; with a supply shock active they
give the control-function stage genuine identifying strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .market_curves import ShockModel
from .panel_io import RawPanel

__all__ = ["SimulatorError", "ScenarioConfig", "simulate_equilibria",
           "synthesize_panel", "ground_truth"]

MAX_ROWS = 10**6  # largest panel a scenario synthesizes
_MASK64 = (1 << 64) - 1


class SimulatorError(ValueError):
    """Raised for invalid scenario configurations or levels that overflow or underflow."""


@dataclass(frozen=True)
class ScenarioConfig:
    beta_xq: float
    mean_ln_flow: float
    mean_ln_price: float
    shocks: ShockModel = field(default_factory=ShockModel)
    n: int = 19
    seed: int = 0
    iv_noise_sd: float = 0.02

    def __post_init__(self):
        if not math.isfinite(self.beta_xq) or self.beta_xq <= 0.0:
            raise SimulatorError(f"beta must be positive, got {self.beta_xq}")
        if self.n < 5:
            raise SimulatorError(f"n must be >= 5, got {self.n}")
        if self.n > MAX_ROWS:
            raise SimulatorError(f"n must be <= {MAX_ROWS}, got {self.n}")
        if not (math.isfinite(self.mean_ln_flow) and math.isfinite(self.mean_ln_price)):
            raise SimulatorError("log means must be finite")
        if self.iv_noise_sd < 0:
            raise SimulatorError("iv_noise_sd must be >= 0")
        if int(self.seed) < 0:
            raise SimulatorError("seed must be a non-negative integer")


def _rng(config: ScenarioConfig, stream: int = 0) -> np.random.Generator:
    key = np.array([int(config.seed) & _MASK64, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_shocks(config: ScenarioConfig, rng: np.random.Generator):
    s = config.shocks
    eps_d = s.sigma_d * rng.standard_normal(config.n)
    if s.mode == "paper":
        eps_s = -eps_d
    else:
        eps_s = s.sigma_s * rng.standard_normal(config.n)
    return eps_s, eps_d


@np.errstate(over="ignore", invalid="ignore")
def _shocked_deviations(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-centered (flow deviations, price deviations) and the supply shocks
    that moved them; ``simulate_equilibria`` documents the errors."""
    eps_s, eps_d = _draw_shocks(config, _rng(config))
    x, y = kernels.equilibria_from_shocks(config.beta_xq, eps_s, eps_d)
    x, y = x - x.mean(), y - y.mean()
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise SimulatorError("non-finite shocks or deviations: shock scales too large")
    return x, y, eps_s


def simulate_equilibria(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Simulated (flow deviations, price deviations), re-centered to zero mean.

    Raises, without a NumPy warning, when a deviation is not finite: the
    shock scales are so large that the draws or their equilibria overflow.
    """
    x, y, _eps_s = _shocked_deviations(config)
    return x, y


@np.errstate(over="ignore", invalid="ignore")
def synthesize_panel(config: ScenarioConfig) -> RawPanel:
    """Invert the preprocessing: exponentiate levels and emit a raw panel.

    value_t = price_t * flow_t, so re-running the pipeline recovers the
    simulated deviations exactly (the alignment cosine is absorbed by the
    log centering).  Raises, without a NumPy warning, when a level or an
    instrument column is not finite, or when a level underflows to 0.
    """
    x, y, eps_s = _shocked_deviations(config)
    ln_flow = config.mean_ln_flow + x
    ln_price = config.mean_ln_price + y
    # negated, so that a NaN level fails the check too
    if not (np.max(ln_flow) <= 300.0 and np.max(ln_flow + ln_price) <= 300.0):
        raise SimulatorError("levels overflow: log means too extreme to exponentiate")
    flow = np.exp(ln_flow)
    price = np.exp(ln_price)
    value = price * flow
    if not (np.all(flow > 0.0) and np.all(value > 0.0)):
        raise SimulatorError("levels underflow to 0: log means too extreme to exponentiate")

    # instruments: lags of the price deviations (noise-padded head) and
    # noisy supply shifters; a separate stream keeps them independent of
    # the shock draws
    rng = _rng(config, stream=1)
    pad_sd = config.iv_noise_sd if config.iv_noise_sd > 0 else 1.0
    instruments: dict[str, np.ndarray] = {}
    for lag in (1, 2):
        col = np.empty(config.n)
        col[:lag] = pad_sd * rng.standard_normal(lag)
        col[lag:] = y[:-lag]
        instruments[f"iv_lag{lag}"] = col
    for j in (1, 2):
        instruments[f"iv_sup{j}"] = eps_s + config.iv_noise_sd * rng.standard_normal(config.n)
    overflowed = [name for name, col in {"value": value, **instruments}.items()
                  if not np.all(np.isfinite(col))]
    if overflowed:
        raise SimulatorError(f"non-finite {', '.join(overflowed)}: "
                             "level or noise scales too large")

    years = tuple(range(2000, 2000 + config.n))
    return RawPanel(years=years, value=value, flow=flow, instruments=instruments)


def ground_truth(config: ScenarioConfig) -> dict:
    """Sidecar description of the generating process."""
    return {
        "beta_xq": config.beta_xq,
        "mean_ln_flow": config.mean_ln_flow,
        "mean_ln_price": config.mean_ln_price,
        "sigma_s": config.shocks.sigma_s,
        "sigma_d": config.shocks.sigma_d,
        "shock_mode": config.shocks.mode,
        "n": config.n,
        "seed": config.seed,
        "iv_noise_sd": config.iv_noise_sd,
    }
