"""Seeded synthetic data generators for the experiments.

A single 64-bit seed fans out to fixed substreams (model weights,
features, label draws, resampling) so changing n never reshuffles
earlier stages. The logistic generators share one numpy sigmoid,
1 / (1 + exp(-z)), the formula scipy.special.expit evaluates, so the
skew sweep never loads scipy.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import EtaTable, InstanceSet, SampledLabels
from .errors import DegenerateLabel

__all__ = [
    "SynthData",
    "SigmoidSynthConfig",
    "gen_sigmoid_pair",
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
_W2 = np.array([0.0, 1.0])


def _sigmoid(z):
    """Logistic function 1 / (1 + exp(-z)); exp overflows to inf for z < -709, giving 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _sample_labels(eta: np.ndarray, rng: np.random.Generator) -> SampledLabels:
    return SampledLabels((rng.random(eta.shape) < eta).astype(np.int64))


def gen_sigmoid_pair(config: SigmoidSynthConfig) -> SynthData:
    """Two-label logistic model: eta1 = s(tau w1.x), eta2 = s(tau (w2.x - rho))."""
    if config.n < 1:
        raise ValueError("need n >= 1")
    feats = _rng(config.seed, _STREAM_FEATURES).uniform(-1.0, 1.0, (config.n, 2))
    eta = np.column_stack(
        [
            _sigmoid(config.tau * (feats @ _W1)),
            _sigmoid(config.tau * (feats @ _W2 - config.rho)),
        ]
    )
    labels = _sample_labels(eta, _rng(config.seed, _STREAM_LABELS))
    return SynthData(InstanceSet(feats), EtaTable(eta), labels)


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
    labels = (feats > 0.0).astype(np.int64)
    return SynthData(InstanceSet(feats), EtaTable(labels.astype(float)), SampledLabels(labels))


def gen_d3_training_pair(n: int, seed: int, tau: float) -> SynthData:
    """Two logistic labels with directions w1, w2 drawn uniform on [-1, 1]^2."""
    if n < 1:
        raise ValueError("need n >= 1")
    w = _rng(seed, _STREAM_WEIGHTS).uniform(-1.0, 1.0, (2, 2))
    feats = _rng(seed, _STREAM_FEATURES).uniform(-1.0, 1.0, (n, 2))
    eta = _sigmoid(tau * (feats @ w.T))
    labels = _sample_labels(eta, _rng(seed, _STREAM_LABELS))
    return SynthData(InstanceSet(feats), EtaTable(eta), labels)


def gen_conflicting_pair(
    n: int,
    seed: int,
    tau_strong: float = 6.0,
    tau_weak: float = 2.0,
) -> SynthData:
    """Two axis-aligned logistic labels with unequal signal strength.

    Label 1 follows x1 with a sharp sigmoid, label 2 follows x2 with a
    shallow one, so a linear scorer must trade the two off. Reskewing
    label 1 afterwards reproduces the strong-skewed-label versus
    weak-balanced-label tension of the training comparisons.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    feats = _rng(seed, _STREAM_FEATURES).uniform(-1.0, 1.0, (n, 2))
    eta = np.column_stack(
        [_sigmoid(tau_strong * feats[:, 0]), _sigmoid(tau_weak * feats[:, 1])]
    )
    labels = _sample_labels(eta, _rng(seed, _STREAM_LABELS))
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
