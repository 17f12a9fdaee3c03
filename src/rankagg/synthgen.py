"""Seeded synthetic data generators for the experiments.

A single 64-bit seed fans out to fixed substreams (model weights,
features, label draws, resampling) so changing n never reshuffles
earlier stages. The logistic generators share one numpy sigmoid,
1 / (1 + exp(-z)), the formula scipy.special.expit evaluates, so the
skew sweep never loads scipy.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .core import EtaTable, InstanceSet, SampledLabels, _frozen
from .errors import DegenerateLabel

__all__ = [
    "SynthData",
    "SigmoidSynthConfig",
    "gen_sigmoid_pair",
    "sigmoid_sweep",
    "gen_gaussian_bilevel",
    "gen_d3_training_pair",
    "gen_conflicting_pair",
    "resample_to_skew",
]

# substream ids for seed fan-out
_STREAM_WEIGHTS = 0
_STREAM_FEATURES = 1
_STREAM_LABELS = 2
_STREAM_RESAMPLE = 3


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


class SynthData(NamedTuple):
    instances: InstanceSet
    eta: EtaTable
    labels: SampledLabels


class SigmoidSynthConfig(NamedTuple):
    """Two logistic labels over uniform features on [-1, 1]^2.

    Label 1 follows the diagonal direction (1, 1)/sqrt(2); label 2 follows
    (0, 1) shifted by rho. rho may be any finite real; its sign picks the
    skew direction of label 2.
    """

    n: int
    tau: float
    rho: float
    seed: int


_W1 = np.array([1.0, 1.0]) / np.sqrt(2.0)


def _sigmoid(z, out=None):
    """Logistic function 1 / (1 + exp(-z)); exp overflows to inf for z < -709, giving 0.

    Every step runs in the one buffer out, a fresh array unless given; out
    may be z itself.
    """
    out = np.negative(z, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _mean_sigmoid(rho: float, x: np.ndarray, tau: float, buf: np.ndarray) -> float:
    """mean sigmoid(tau * (x - rho)), leaving the sigmoids in buf.

    It evaluates 1 / (1 + exp(tau * (rho - x))) in place; tau * (rho - x) is
    exactly -(tau * (x - rho)), so the mean is bit for bit that of
    _sigmoid(tau * (x - rho)).
    """
    np.subtract(rho, x, out=buf)
    buf *= tau
    np.exp(buf, out=buf)
    buf += 1.0
    np.divide(1.0, buf, out=buf)
    return float(buf.mean())


# The safety factor by which the replay's clearance margin exceeds twice
# the mean's rounding-error bound (see _solve_rho).
_SAFETY = 2.0


def _solve_rho_for_pi2(feats: np.ndarray, tau: float, target: float) -> float:
    """The label-2 shift rho at which mean eta2 = target; see _solve_rho."""
    return _solve_rhos(feats, tau, (target,))[0]


def _solve_rhos(feats: np.ndarray, tau: float, targets) -> list[float]:
    """_solve_rho for each target, with one contiguous feature column and buffer, both freed on return."""
    x = np.ascontiguousarray(feats[:, 1])
    buf = np.empty_like(x)
    return [_solve_rho(x, buf, tau, target) for target in targets]


def _solve_rho(x: np.ndarray, buf: np.ndarray, tau: float, target: float) -> float:
    """Invert mean sigmoid(tau * (x - rho)) = target by bisection (decreasing in rho).

    The result is that of the plain bisection on [-50, 50], bit for bit: its
    steps are replayed, but most are decided without evaluating. buf is
    scratch of x's size.

    1. A few safeguarded Newton steps, slope -tau * mean(s (1 - s)), find an
       approximate root r. Newton stops once its step d is below
       1e-12 * max(1, |r|), or once the error that quadratic convergence
       predicts after the step, d^3 / d_prev^2 for the Newton step d_prev
       before it, is below delta / 16: the step is then taken without the
       evaluation that would confirm it.
    2. With delta = 4 M / |slope| if the last Newton slope is finite and
       negative, so that each side's mean sits about 4 M from the target,
       or else delta = 1e-10 * max(1, |r|), a = r - delta is a known lower
       bound if its computed mean exceeds target + M, and b = r + delta a
       known upper bound if its computed mean is below target - M. A side
       that does not clear stays unknown.
    3. The bisection is replayed: a step with mid <= a goes up and one with
       mid >= b goes down without evaluating; every other step evaluates as
       the plain bisection does.

    Why a decided step goes the way the plain one would: let F(rho) be the
    exact mean of the exact sigmoids at the float data, non-increasing in
    rho, and e(n) a bound on |computed - F| at any rho for n = x.size, in
    units of u = 2^-53. Each term is in [0, 1]; its four roundings (rho - x,
    the product by tau, 1 + exp, the division) and exp's error (within 3
    ulp) move it by at most 4 u, because s (1 - s) |z| <= 0.23 damps the
    argument's rounding. numpy's pairwise sum adds terms in a tree of depth
    at most log2(n) + 19 (8 interleaved runs of up to 16 terms per block of
    128, their 3 levels, up to 7 trailing terms, then halving), so the sum
    of nonnegative terms is off by at most (log2(n) + 19) u times itself,
    and the division by n adds u. So e(n) = (log2(n) + 24) u: 4.5e-15 at
    n = 10^5 and 6.0e-15 at n = 10^9. The margin is M(n) = 2 * _SAFETY *
    e(n), 1.8e-14 at n = 10^5, with a safety factor _SAFETY = 2 for the
    stated exp accuracy and any reduction order that deepens the tree;
    measured errors of the mean stay near 2 u. For mid <= a, computed(mid)
    >= F(mid) - e >= F(a) - e >= computed(a) - 2e > target + M - 2e >
    target, the plain step's decision; mid >= b is symmetric. The fixed-point stop is kept:
    each step is a function of (lo, hi) alone, so once one leaves the
    bracket unchanged every later one would too.
    """
    margin = 2.0 * _SAFETY * (np.log2(x.size) + 24.0) * 2.0**-53
    with np.errstate(over="ignore"):
        lo, hi, r, d_prev = -50.0, 50.0, 0.0, 0.0
        for _ in range(16):
            value = _mean_sigmoid(r, x, tau, buf)
            lo, hi = (r, hi) if value > target else (lo, r)
            # mean s (1 - s) as mean s - mean s^2, squaring the sigmoids in place
            buf *= buf
            slope = -tau * (value - float(buf.mean()))
            step = r - (value - target) / slope if slope < 0.0 else np.nan
            delta = 4.0 * margin / -slope if -np.inf < slope < 0.0 else 1e-10 * max(1.0, abs(r))
            d = abs(step - r)
            if d <= 1e-12 * max(1.0, abs(r)) or d * d * d <= delta / 16.0 * d_prev * d_prev:
                r = step
                break
            # a safeguarded bisection step resets the Newton step before it
            r, d_prev = (step, d) if lo < step < hi else (0.5 * (lo + hi), 0.0)
        a = r - delta if _mean_sigmoid(r - delta, x, tau, buf) > target + margin else -np.inf
        b = r + delta if _mean_sigmoid(r + delta, x, tau, buf) < target - margin else np.inf

        lo, hi = -50.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            above = mid <= a or (mid < b and _mean_sigmoid(mid, x, tau, buf) > target)
            bracket = (mid, hi) if above else (lo, mid)
            if bracket == (lo, hi):
                break
            lo, hi = bracket
    if lo == -50.0 or hi == 50.0:
        raise ValueError(f"no label-2 shift in [-50, 50] reaches positive rate {target:g} at tau={tau:g}")
    return 0.5 * (lo + hi)


def _sample_labels(eta: np.ndarray, uniforms: np.ndarray) -> SampledLabels:
    return SampledLabels(_frozen((uniforms < eta).astype(np.int8)))


def _sigmoid_draws(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The features and label uniforms of gen_sigmoid_pair, which depend on (n, seed) alone."""
    feats = _rng(seed, _STREAM_FEATURES).uniform(-1.0, 1.0, (n, 2))
    return feats, _rng(seed, _STREAM_LABELS).random((n, 2))


def _sigmoid_pair_from_draws(
    feats: np.ndarray, uniforms: np.ndarray, tau: float, rho: float
) -> tuple[EtaTable, SampledLabels]:
    """gen_sigmoid_pair's eta table and labels at (tau, rho) for already drawn inputs.

    eta1 = s(tau w1.x) and eta2 = s(tau (w2.x - rho)) are built in eta's two
    columns, with no array of their own; w2 = (0, 1), so w2.x is x2 bit for
    bit.
    """
    eta = np.empty((feats.shape[0], 2))
    eta1 = np.matmul(feats, _W1, out=eta[:, 0])
    eta1 *= tau
    _sigmoid(eta1, out=eta1)
    eta2 = np.subtract(feats[:, 1], rho, out=eta[:, 1])
    eta2 *= tau
    _sigmoid(eta2, out=eta2)
    return EtaTable(_frozen(eta)), _sample_labels(eta, uniforms)


def gen_sigmoid_pair(config: SigmoidSynthConfig) -> SynthData:
    """Two-label logistic model: eta1 = s(tau w1.x), eta2 = s(tau (w2.x - rho))."""
    if config.n < 1:
        raise ValueError("need n >= 1")
    feats, uniforms = _sigmoid_draws(config.n, config.seed)
    return SynthData(InstanceSet(feats), *_sigmoid_pair_from_draws(feats, uniforms, config.tau, config.rho))


def sigmoid_sweep(n: int, seed: int, taus, rhos=None, pi2=None) -> Iterator[tuple]:
    """Yield (tau, rho, target, eta, labels) of gen_sigmoid_pair(SigmoidSynthConfig(n, tau, rho, seed)), bit for bit.

    For each tau in turn, rho runs over rhos (target None) or else solves
    mean eta2 = target for each target in pi2, raising ValueError if no rho
    in [-50, 50] does. The inputs are drawn once; each point builds its own
    eta, so only the draws outlive a point.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    feats, uniforms = _sigmoid_draws(n, seed)
    for tau in taus:
        if rhos is not None:
            points = [(rho, None) for rho in rhos]
        else:
            points = list(zip(_solve_rhos(feats, tau, pi2), pi2))
        for rho, target in points:
            yield (tau, rho, target, *_sigmoid_pair_from_draws(feats, uniforms, tau, rho))


def gen_gaussian_bilevel(n: int, seed: int) -> SynthData:
    """Zero-mean correlated Gaussian pair thresholded at 0 into two hard labels.

    Covariance A A^T with A entries i.i.d. uniform [0, 1]; the eta table is
    the (deterministic) label matrix itself.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    a = _rng(seed, _STREAM_WEIGHTS).uniform(0.0, 1.0, (2, 2))
    z = _rng(seed, _STREAM_FEATURES).standard_normal((n, 2))
    feats = z @ a.T
    labels = (feats > 0.0).astype(np.int8)
    return SynthData(InstanceSet(feats), EtaTable(labels.astype(float)), SampledLabels(labels))


def gen_d3_training_pair(n: int, seed: int, tau: float) -> SynthData:
    """Two logistic labels with directions w1, w2 drawn uniform on [-1, 1]^2."""
    if n < 1:
        raise ValueError("need n >= 1")
    w = _rng(seed, _STREAM_WEIGHTS).uniform(-1.0, 1.0, (2, 2))
    feats = _rng(seed, _STREAM_FEATURES).uniform(-1.0, 1.0, (n, 2))
    eta = _sigmoid(tau * (feats @ w.T))
    labels = _sample_labels(eta, _rng(seed, _STREAM_LABELS).random(eta.shape))
    return SynthData(InstanceSet(feats), EtaTable(eta), labels)


def gen_conflicting_pair(n: int, seed: int) -> SynthData:
    """Two axis-aligned logistic labels with unequal signal strength.

    Label 1 follows x1 with a sharp sigmoid (slope 6), label 2 follows x2
    with a shallow one (slope 2), so a linear scorer must trade the two
    off. Reskewing label 1 afterwards reproduces the strong-skewed-label
    versus weak-balanced-label tension of the training comparisons.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    feats = _rng(seed, _STREAM_FEATURES).uniform(-1.0, 1.0, (n, 2))
    eta = np.column_stack([_sigmoid(6.0 * feats[:, 0]), _sigmoid(2.0 * feats[:, 1])])
    labels = _sample_labels(eta, _rng(seed, _STREAM_LABELS).random(eta.shape))
    return SynthData(InstanceSet(feats), EtaTable(eta), labels)


def resample_to_skew(
    instances: InstanceSet,
    labels: SampledLabels,
    k: int,
    target_pi: float,
    seed: int,
) -> tuple[InstanceSet, SampledLabels]:
    """With-replacement row resample so label k's positive rate hits target_pi.

    Other labels ride along with their rows. The empirical rate matches the
    target within 1/n.
    """
    if not (0.0 < target_pi < 1.0):
        raise ValueError("target positive rate must lie strictly inside (0, 1)")
    col = labels.labels[:, k]
    pos = np.flatnonzero(col == 1)
    neg = np.flatnonzero(col == 0)
    if pos.size == 0 or neg.size == 0:
        raise DegenerateLabel(f"label {k} has a single class; cannot reskew")
    n = labels.n
    n_pos = min(max(int(round(target_pi * n)), 1), n - 1)
    rng = _rng(seed, _STREAM_RESAMPLE)
    rows = np.concatenate([rng.choice(pos, n_pos), rng.choice(neg, n - n_pos)])
    rng.shuffle(rows)
    return InstanceSet(instances.features[rows]), SampledLabels(labels.labels[rows])
