"""Monte Carlo oracle for the regime-switching model.

Given the chain's path, the log-return over an interval is exactly
Gaussian with mean sum_i (r_i - q_i - sigma_i^2 / 2) l_i and variance
sum_i sigma_i^2 l_i, where l_i is the time spent in regime i; the
discount factor is exp(-sum_i r_i l_i). Each base step (at most
``1 / n_steps`` years) therefore takes one normal draw per path, with
mean and variance built from that step's occupation times. The chain itself is
exact: every path carries the time of its next switch, an exponential
holding time at the regime's exit rate, and only the paths whose clock
falls inside a step draw a new regime and a new clock there. The only
discretization is the trapezoidal approximation of the running integral
of spot on the base grid, whose bias is O(1 / n_steps^2). The European
put reads only S_T, so it takes one step to expiry whatever ``n_steps``.

Reproducibility contract: each fixed-size batch of paths draws from its
own counter-based stream keyed by ``(seed, batch_index)``, and batch
results are reduced in index order. Estimates are therefore
bit-identical for a given seed regardless of how many worker threads
run the batches (``PRICER_THREADS`` caps the pool size).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import AsianOptionSpec, MarketState, OptionStyle, RegimeModel, payoff, validate_model

_BATCH_SIZE = 250_000  # fixed so that batching never depends on thread count


@dataclass(frozen=True)
class McConfig:
    """Path count, steps per year of the averaging grid (the European put
    takes one step whatever ``n_steps``), seed, and antithetic flag."""

    n_paths: int
    n_steps: int = 252
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValidationError("n_paths not >= 2")
        if self.n_steps < 1:
            raise ValidationError("n_steps not >= 1")
        if self.antithetic and self.n_paths % 2:
            raise ValidationError("antithetic runs need an even n_paths")


@dataclass(frozen=True)
class McEstimate:
    """Price and standard error, plus the split by terminal regime.

    ``terminal_price[i]`` estimates ``E[Y * 1{X_T = i}]`` for the
    discounted payoff ``Y``, with standard error ``terminal_se[i]``; the
    entries sum to ``price`` up to rounding. They come from the same
    paths as ``price`` and draw no extra random numbers.
    """

    price: float
    std_error: float
    n_paths: int
    terminal_price: tuple[float, ...] = ()
    terminal_se: tuple[float, ...] = ()


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, batch_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _price_batch(
    model: RegimeModel,
    spec: AsianOptionSpec,
    state: MarketState,
    cfg: McConfig,
    batch_index: int,
    batch_n: int,
) -> tuple[float, float, int, np.ndarray, np.ndarray]:
    """Returns (sum, sum of squares, count) of per-unit discounted payoffs,
    then the sums and sums of squares split by terminal regime.

    A unit is a path, or an antithetic pair mean. The pair shares one
    chain path, hence one terminal regime and the same occupation times;
    only the Gaussian increments are mirrored.
    """
    rng = _batch_rng(cfg.seed, batch_index)
    gen = model.gen_array()
    r = model.r_array()
    sig = model.sigma_array()
    var = sig * sig
    mu = r - model.q_array() - 0.5 * var
    exit_rates = -np.diag(gen)
    # below 1e-300 a year a regime never switches; its mean hold would overflow the draws
    mean_hold = np.divide(1.0, exit_rates, out=np.full_like(exit_rates, np.inf),
                          where=exit_rates > 1e-300)
    # next-regime CDF per row; dividing by the last entry makes it exactly 1
    n_states = gen.shape[0]
    cum = np.cumsum(np.maximum(gen, 0.0) * (1.0 - np.eye(n_states)), axis=1)
    cum = np.divide(cum, cum[:, -1:], out=np.zeros_like(cum), where=cum[:, -1:] > 0.0)
    T = spec.T
    anti = cfg.antithetic
    n_units = batch_n // 2 if anti else batch_n
    need_avg = spec.style is not OptionStyle.EUROPEAN_PUT
    # the European payoff reads only S_T, which one exact step samples
    n_base = max(1, int(math.ceil((T - state.t) * cfg.n_steps - 1e-12))) if need_avg else 1
    grid = np.linspace(state.t, T, n_base + 1)
    h = (T - state.t) / n_base
    sqrt_h = math.sqrt(h)

    # Chain state carried across steps: the regime and the time of its next
    # switch. drift and vol (log-return mean and standard deviation of the
    # step) are those of a whole step in the current regime, except during
    # a step in which the path switches. The discount exponent, the
    # integral of r, is booked to expiry at the start and corrected to
    # expiry at each switch.
    states = np.full(n_units, state.regime, dtype=np.int64)
    clock = state.t + rng.standard_exponential(n_units) * mean_hold[state.regime]
    drift = np.full(n_units, mu[state.regime] * h)
    vol = np.full(n_units, sig[state.regime] * sqrt_h)
    disc = np.full(n_units, r[state.regime] * (T - state.t))

    s_p = np.full(n_units, state.s)
    s_m = s_p.copy() if anti else None
    # trapezoid on the base grid: h * (s_0/2 + s_1 + ... + s_{N-1} + s_N/2)
    sum_p = np.zeros(n_units)
    sum_m = np.zeros(n_units) if anti else None
    x = np.empty(n_units)  # log-returns of the step

    for t1 in grid[1:]:
        hit = np.flatnonzero(clock < t1)
        if hit.size:
            # The paths that switch in this step get the log-return mean and
            # variance of their occupation times: those of the regime held
            # at the step's start, corrected at each switch by the change of
            # rate over the rest of the step.
            m = drift[hit]
            v = vol[hit] ** 2
            pos = np.arange(hit.size)
            while pos.size:
                j = hit[pos]
                tau = clock[j]
                frm = states[j]
                u = rng.random(j.size)
                to = np.zeros(j.size, dtype=np.int64)
                for c in range(n_states - 1):  # to = #{c : cum[frm, c] <= u}
                    to += cum[frm, c] <= u
                left = t1 - tau
                m[pos] += (mu[to] - mu[frm]) * left
                v[pos] += (var[to] - var[frm]) * left
                disc[j] += (r[to] - r[frm]) * (T - tau)
                states[j] = to
                tau += rng.standard_exponential(j.size) * mean_hold[to]
                clock[j] = tau
                pos = pos[tau < t1]
            drift[hit] = m
            vol[hit] = np.sqrt(v)
        dw = rng.standard_normal(n_units)
        dw *= vol
        np.add(drift, dw, out=x)
        s_p *= np.exp(x, out=x)
        if anti:
            np.subtract(drift, dw, out=x)
            s_m *= np.exp(x, out=x)
        if need_avg:
            sum_p += s_p
            if anti:
                sum_m += s_m
        if hit.size:
            now = states[hit]
            drift[hit] = mu[now] * h
            vol[hit] = sig[now] * sqrt_h

    def average(sums, s_last):
        return (state.a + h * (0.5 * state.s + sums - 0.5 * s_last)) / T

    df = np.exp(-disc)
    pay_p = payoff(spec, s_p, average(sum_p, s_p)) * df
    if anti:
        pay_m = payoff(spec, s_m, average(sum_m, s_m)) * df
        units = 0.5 * (pay_p + pay_m)
    else:
        units = pay_p
    term_sum = np.bincount(states, weights=units, minlength=n_states)
    term_sq = np.bincount(states, weights=units * units, minlength=n_states)
    return float(units.sum()), float(np.dot(units, units)), n_units, term_sum, term_sq


def _mean_se(total: float, total_sq: float, n_units: int) -> tuple[float, float]:
    mean = total / n_units
    var = max(total_sq / n_units - mean * mean, 0.0) * n_units / max(n_units - 1, 1)
    return mean, math.sqrt(var / n_units)


def mc_price(
    spec: AsianOptionSpec,
    state: MarketState,
    model: RegimeModel,
    cfg: McConfig,
) -> McEstimate:
    """Discounted-payoff estimate with its standard error.

    At ``t = T`` the payoff is deterministic and returned exactly with
    zero standard error.
    """
    validate_model(model)
    if state.regime >= model.n_states:
        raise ValidationError(f"regime index {state.regime} out of range")
    if state.t > spec.T:
        raise ValidationError(f"t={state.t!r} beyond expiry {spec.T!r}")
    if state.t == spec.T:
        val = float(payoff(spec, state.s, state.a / spec.T))
        split = [0.0] * model.n_states
        split[state.regime] = val
        return McEstimate(
            price=val,
            std_error=0.0,
            n_paths=cfg.n_paths,
            terminal_price=tuple(split),
            terminal_se=(0.0,) * model.n_states,
        )

    sizes = []
    remaining = cfg.n_paths
    while remaining > 0:
        b = min(_BATCH_SIZE, remaining)
        if cfg.antithetic and b % 2:
            b += 1
        sizes.append(b)
        remaining -= b

    def run(args):
        i, b = args
        return _price_batch(model, spec, state, cfg, i, b)

    n_workers = max(1, int(os.environ.get("PRICER_THREADS", "1")))
    jobs = list(enumerate(sizes))
    if n_workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]

    total = math.fsum(r[0] for r in results)
    total_sq = math.fsum(r[1] for r in results)
    n_units = sum(r[2] for r in results)
    mean, se = _mean_se(total, total_sq, n_units)
    terminal = [
        _mean_se(
            math.fsum(r[3][i] for r in results),
            math.fsum(r[4][i] for r in results),
            n_units,
        )
        for i in range(model.n_states)
    ]
    terminal_price, terminal_se = zip(*terminal)
    return McEstimate(
        price=mean,
        std_error=se,
        n_paths=cfg.n_paths,
        terminal_price=terminal_price,
        terminal_se=terminal_se,
    )
