"""Differentiable pairwise relaxations of the AUC objectives and a trainer.

Every objective family reduces to groups of (positive, negative) index
pairs with a group coefficient; the loss is the coefficient-weighted mean
of phi over each group's pair cross product. Gradients flow through the
per-instance scores into the layers of an MlpScorer analytically.

The pair blocks (z, e = exp(-|z|), phi and phi') live in one grow-only
scratch set that _pair_groups hands out with the groups, so they are reused
across groups and epochs: train builds its groups, and so its scratch, once
per run, and the one-shot surrogate_objective and surrogate_gradient build
theirs per call. A scratch set belongs to one caller at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    InstanceSet,
    LabelAgg,
    MlpScorer,
    SampledLabels,
    Scorer,
    aggregate_labels,
)
from .errors import DegenerateLabel, NotTrainable
from .metrics import _label_weights, auc_report

__all__ = [
    "Logistic",
    "TrainConfig",
    "surrogate_objective",
    "surrogate_gradient",
    "train",
    "init_scorer",
    "scorer_parameters",
]

_CHUNK_CELLS = 1 << 20
# Adam's moment decay rates and denominator guard, at Kingma and Ba's defaults
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def _exp_neg_abs(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    np.abs(z, out=e)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _logistic_dphi(z: np.ndarray, e: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """phi' = max(e, [z < 0]) / (-1 - e) into dphi, from e = exp(-|z|); e is overwritten."""
    # e <= 1, so max(e, [z < 0]) is 1 where z < 0 and e elsewhere
    np.less(z, 0.0, out=dphi)
    np.maximum(e, dphi, out=dphi)
    np.subtract(-1.0, e, out=e)
    dphi /= e
    return dphi


@dataclass(frozen=True)
class Logistic:
    """phi(z) = log(1 + exp(-z)), with phi and phi' from one exp(-|z|)."""

    def phi_dphi(self, z: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        """phi = log1p(e) - min(z, 0) and phi' = (e if z >= 0 else 1) / (-1 - e), e = exp(-|z|).

        out, if given, is three float arrays of z's shape: scratch for e,
        then phi and phi'. z is only read. Returns (phi, phi').
        """
        z = np.asarray(z, dtype=float)
        e, phi, dphi = out if out is not None else (np.empty_like(z) for _ in range(3))
        _exp_neg_abs(z, e)
        np.log1p(e, out=phi)
        phi -= np.minimum(z, 0.0, out=dphi)
        return phi, _logistic_dphi(z, e, dphi)

    def dphi(self, z: np.ndarray, out=None) -> np.ndarray:
        """phi' alone, bit for bit phi_dphi's; out, if given, is scratch for e, then phi'."""
        z = np.asarray(z, dtype=float)
        e, dphi = out if out is not None else (np.empty_like(z), np.empty_like(z))
        return _logistic_dphi(z, _exp_neg_abs(z, e), dphi)


def _pair_groups(
    labels: SampledLabels, objective
) -> tuple[list[np.ndarray], list[tuple[int, int, float]], list[np.ndarray]]:
    """Decompose an objective into row sets, (pos set, neg set, coefficient) groups and a scratch set.

    The surrogate loss is sum_g coeff_g * mean over g's pair cross product
    of phi(f_pos - f_neg). Groups name their sets by index, so a set that
    several groups share is listed once. The scratch set starts empty; see
    _scratch_bufs. PerLabel and LossAgg take their labels and checked
    weights from metrics._label_weights.
    """
    scratch = [np.empty(0) for _ in range(4)]
    if isinstance(objective, LabelAgg):
        ordinal = aggregate_labels(labels, objective.aggregator)
        levels = int(ordinal.max()) + 1
        if objective.costs.size < levels:
            raise ValueError("cost matrix smaller than the aggregate alphabet")
        by_level = [np.flatnonzero(ordinal == m) for m in range(levels)]
        raw = []
        for m in range(levels):
            for mp in range(m):
                c = float(objective.costs.costs[m, mp])
                if c > 0.0 and by_level[m].size and by_level[mp].size:
                    raw.append((m, mp, c * by_level[m].size * by_level[mp].size))
        total = sum(mass for _, _, mass in raw)
        if total == 0.0:
            raise DegenerateLabel("no discordant pair carries positive cost")
        return by_level, [(m, mp, mass / total) for m, mp, mass in raw], scratch
    ks, a = _label_weights(objective, labels.K)
    sides = []
    for k in ks:
        column = labels.labels[:, k]
        pos, neg = np.flatnonzero(column == 1), np.flatnonzero(column == 0)
        if pos.size == 0 or neg.size == 0:
            raise DegenerateLabel(f"label {k} has a single class")
        sides += [pos, neg]
    return sides, [(2 * i, 2 * i + 1, float(a_i)) for i, a_i in enumerate(a)], scratch


def _distinct_side(values: np.ndarray, inv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A row set's distinct scores, their counts and each row's index into them.

    values holds the sorted distinct scores of all rows and inv the set's
    rows' indices into it, so these equal np.unique(scores[rows],
    return_inverse=True, return_counts=True) without a sort.
    """
    counts = np.bincount(inv, minlength=values.size)
    present = counts > 0
    return values[present], counts[present].astype(float), (np.cumsum(present) - 1)[inv]


def _scratch_bufs(scratch: list[np.ndarray], cells: int) -> list[np.ndarray]:
    """The scratch set's four flat float buffers (z, e, phi, phi'), each regrown to cells if shorter.

    The buffers keep their size between calls, so a call that needs no more
    cells than an earlier one allocates nothing and faults no page in.
    """
    if scratch[0].size < cells:
        scratch[:] = [np.empty(cells) for _ in range(4)]
    return scratch


def _block_rows(n_pos: int, n_neg: int) -> int:
    """Positive values per block, so that a block holds at most about _CHUNK_CELLS pairs."""
    return min(n_pos, max(1, _CHUNK_CELLS // n_neg))


def _group_loss_grad(pos, neg, kind, want_grad, want_loss, grad_scores, coeff, bufs):
    """Exact mean phi over the full pos x neg cross product, chunked.

    pos and neg are (rows, distinct scores, counts, inverse) sides. Rows
    with equal scores contribute equal pair terms (resampled rows, discrete
    features, a zero-initialized scorer), so phi is evaluated once per
    distinct (positive, negative) score pair and weighted by the counts of
    both values; each row then takes its score value's gradient. bufs holds
    four flat float arrays (z, e, phi, phi') of at least one block's cells.
    Without want_loss only phi' is evaluated, and the loss returned is 0.
    """
    pos_rows, f_pos, c_pos, inv_pos = pos
    neg_rows, f_neg, c_neg, inv_neg = neg
    rows = _block_rows(f_pos.size, f_neg.size)
    total = 0.0
    g_pos = np.empty(f_pos.size)
    g_neg = np.zeros(f_neg.size)
    for start in range(0, f_pos.size, rows):
        block = slice(start, start + rows)
        cells = f_pos[block].size * f_neg.size
        z, e, phi, dphi = (buf[:cells].reshape(-1, f_neg.size) for buf in bufs)
        np.subtract(f_pos[block, None], f_neg, out=z)
        if want_loss:
            kind.phi_dphi(z, out=(e, phi, dphi))
            phi *= c_neg
            # np.sum's pairwise summation keeps the loss's rounding as small as a dense sum's
            total += float(phi.sum(axis=1) @ c_pos[block])
        else:
            kind.dphi(z, out=(e, dphi))
        if want_grad:
            g_pos[block] = dphi @ c_neg
            g_neg -= c_pos[block] @ dphi
    scale = coeff / (pos_rows.size * neg_rows.size)
    if want_grad:
        # pos and neg each hold distinct rows, so indexed += adds no row twice
        grad_scores[pos_rows] += scale * g_pos[inv_pos]
        grad_scores[neg_rows] += scale * g_neg[inv_neg]
    return scale * total


def _sampled_loss_grad(scores, pos, neg, kind, want_grad, want_loss, grad_scores, coeff, m, rng, bufs):
    """Unbiased with-replacement pair sample of size m; the loss is 0 without want_loss.

    bufs is as for _group_loss_grad, with at least m cells each.
    """
    i = rng.choice(pos, m)
    j = rng.choice(neg, m)
    z, e, phi, dphi = (buf[:m] for buf in bufs)
    # mode="clip" gathers straight into out (mode="raise" gathers into a copy); i and j are in range
    np.take(scores, i, out=z, mode="clip")
    z -= np.take(scores, j, out=e, mode="clip")
    if want_loss:
        kind.phi_dphi(z, out=(e, phi, dphi))
    else:
        kind.dphi(z, out=(e, dphi))
    if want_grad:
        # sampled rows repeat, so their terms are summed by bincount
        dphi *= coeff / m
        n = grad_scores.size
        grad_scores += np.bincount(i, weights=dphi, minlength=n) - np.bincount(j, weights=dphi, minlength=n)
    return coeff * float(phi.mean()) if want_loss else 0.0


def _loss_and_score_grad(scores, groups, kind, want_grad, budget=None, rng=None, want_loss=True):
    """Loss and d loss / d scores over _pair_groups' groups: exact, or sampled over budget pairs.

    Without want_loss phi itself is never evaluated, and the loss is None.
    The pair blocks come from the groups' scratch set.
    """
    sets, pairs, scratch = groups
    grad_scores = np.zeros(scores.shape[0]) if want_grad else None
    n_pairs = sum(sets[i].size * sets[j].size for i, j, _ in pairs)
    loss = 0.0
    if budget is not None and n_pairs > budget:
        sizes = [max(1, int(round(budget * sets[i].size * sets[j].size / n_pairs))) for i, j, _ in pairs]
        bufs = _scratch_bufs(scratch, max(sizes))
        for (i, j, coeff), m in zip(pairs, sizes):
            loss += _sampled_loss_grad(
                scores, sets[i], sets[j], kind, want_grad, want_loss, grad_scores, coeff, m, rng, bufs
            )
        return (loss if want_loss else None), grad_scores
    # the epoch's one sort: every set's distinct scores are a subset of these
    values, inv = np.unique(scores, return_inverse=True)
    sides = [(rows, *_distinct_side(values, inv[rows])) for rows in sets]
    cells = max(_block_rows(sides[i][1].size, sides[j][1].size) * sides[j][1].size for i, j, _ in pairs)
    bufs = _scratch_bufs(scratch, cells)
    for i, j, coeff in pairs:
        loss += _group_loss_grad(sides[i], sides[j], kind, want_grad, want_loss, grad_scores, coeff, bufs)
    return (loss if want_loss else None), grad_scores


def scorer_parameters(scorer: Scorer) -> list[np.ndarray]:
    """Writable copies of the trainable parameter arrays."""
    if isinstance(scorer, MlpScorer):
        return [p.copy() for layer in zip(scorer.weights, scorer.biases) for p in layer]
    raise NotTrainable(f"{type(scorer).__name__} has no trainable parameters")


def _rebuild(params: list[np.ndarray]) -> MlpScorer:
    return MlpScorer(weights=tuple(params[0::2]), biases=tuple(params[1::2]))


def _forward(scorer: MlpScorer, feats: np.ndarray):
    """Scores plus the activation cache needed for backprop."""
    acts = [feats, *scorer.layer_outputs(feats)]
    return acts[-1][:, 0], acts


def _backward(scorer: MlpScorer, grad_scores: np.ndarray, acts) -> list[np.ndarray]:
    grads: list[np.ndarray] = []
    delta = grad_scores[:, None]
    last = len(scorer.weights) - 1
    for i in range(last, -1, -1):
        inp = acts[i]
        grads[:0] = [inp.T @ delta, delta.sum(axis=0)]
        if i > 0:
            delta = (delta @ scorer.weights[i].T) * (acts[i] > 0.0)
    return grads


def surrogate_objective(scorer, instances: InstanceSet, labels: SampledLabels, objective, kind: Logistic) -> float:
    """Exact surrogate loss (full pair enumeration)."""
    scores = scorer.scores(instances) if isinstance(scorer, Scorer) else np.asarray(scorer, dtype=float)
    groups = _pair_groups(labels, objective)
    loss, _ = _loss_and_score_grad(scores, groups, kind, want_grad=False)
    return loss


def surrogate_gradient(scorer: Scorer, instances: InstanceSet, labels: SampledLabels, objective, kind: Logistic) -> list[np.ndarray]:
    """Exact analytic gradient with respect to the scorer parameters."""
    if not isinstance(scorer, MlpScorer):
        raise NotTrainable("only MLP scorers are trainable")
    scores, acts = _forward(scorer, instances.features)
    groups = _pair_groups(labels, objective)
    _, grad_scores = _loss_and_score_grad(scores, groups, kind, want_grad=True, want_loss=False)
    return _backward(scorer, grad_scores, acts)


@dataclass(frozen=True)
class TrainConfig:
    objective: object
    surrogate: Logistic = field(default_factory=Logistic)
    lr: float = 0.01
    epochs: int = 100
    pair_budget: int = 250_000
    seed: int = 0
    hidden: tuple = ()  # empty for a linear scorer

    def __post_init__(self):
        if not 0 <= self.lr < np.inf:
            raise ValueError("learning rate must be finite and non-negative")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")


def init_scorer(d: int, hidden: tuple, seed: int) -> MlpScorer:
    """Zero-initialized linear (one-layer) scorer, or an MLP with uniform +-1/sqrt(fan_in) init."""
    if not hidden:
        return MlpScorer(weights=(np.zeros((d, 1)),), biases=(np.zeros(1),))
    rng = np.random.default_rng([int(seed), 10])
    sizes = [d, *hidden, 1]
    ws, bs = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        lim = 1.0 / np.sqrt(fan_in)
        ws.append(rng.uniform(-lim, lim, (fan_in, fan_out)))
        bs.append(rng.uniform(-lim, lim, fan_out))
    return MlpScorer(weights=tuple(ws), biases=tuple(bs))


def train(
    instances: InstanceSet,
    labels: SampledLabels,
    config: TrainConfig,
    per_epoch: bool = True,
) -> tuple[MlpScorer, list[dict]]:
    """Full-batch Adam training, one step per epoch, deterministic per seed.

    When the pair count exceeds the budget, each step draws a fresh seeded
    pair sample. With per_epoch (the default), the trace holds one row per
    step: the surrogate loss at the step's start and the training per-label
    AUCs after it. Without per_epoch, the trace holds the last step's row
    alone, with its loss and no training AUCs; earlier steps evaluate phi'
    but not phi. Parameters and the last loss are the same bits either way.
    """
    groups = _pair_groups(labels, config.objective)
    scorer = init_scorer(instances.d, config.hidden, config.seed)
    params = scorer_parameters(scorer)
    rng = np.random.default_rng([int(config.seed), 11])
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    trace: list[dict] = []
    scores, acts = _forward(scorer, instances.features)
    for epoch in range(config.epochs):
        loss, grad_scores = _loss_and_score_grad(
            scores, groups, config.surrogate, want_grad=True, budget=config.pair_budget, rng=rng,
            want_loss=per_epoch or epoch == config.epochs - 1,
        )
        grads = _backward(scorer, grad_scores, acts)
        t = epoch + 1
        for idx, g in enumerate(grads):
            m_state[idx] = _ADAM_BETA1 * m_state[idx] + (1 - _ADAM_BETA1) * g
            v_state[idx] = _ADAM_BETA2 * v_state[idx] + (1 - _ADAM_BETA2) * g * g
            m_hat = m_state[idx] / (1 - _ADAM_BETA1**t)
            v_hat = v_state[idx] / (1 - _ADAM_BETA2**t)
            params[idx] = params[idx] - config.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        scorer = _rebuild(params)
        # the next step's forward pass also gives this step's training AUCs
        if per_epoch or epoch + 1 < config.epochs:
            scores, acts = _forward(scorer, instances.features)
        if per_epoch:
            trace.append({"epoch": epoch, "loss": loss, "train": auc_report(scores, labels)})
    if not per_epoch:
        trace.append({"epoch": config.epochs - 1, "loss": loss})
    return scorer, trace
