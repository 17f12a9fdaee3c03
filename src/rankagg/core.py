"""Domain types shared by every other module.

All types are immutable after construction (arrays are stored with the
writeable flag cleared) and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DegenerateLabel, TooLarge

__all__ = [
    "InstanceSet",
    "SampledLabels",
    "EtaTable",
    "JointLabelModel",
    "PriorVector",
    "CostMatrix",
    "Scorer",
    "TableScorer",
    "LinearScorer",
    "MlpScorer",
    "Sum",
    "Product",
    "WeightedSum",
    "Aggregator",
    "PerLabel",
    "LossAgg",
    "LabelAgg",
    "ObjectiveSpec",
    "AggregateDistribution",
    "aggregate_labels",
    "aggregate_distribution",
]

_PROB_TOL = 1e-9
# Largest table built on request (n x 2^K joint laws, 2^K x K combos, n x
# levels aggregate laws): 2^24 cells, 128 MiB of float64.
_MAX_TABLE_CELLS = 1 << 24


def _require_cells(cells: int, what: str) -> None:
    if cells > _MAX_TABLE_CELLS:
        raise TooLarge(f"{what} needs {cells} cells, over the cap of {_MAX_TABLE_CELLS}")


def _positive_weights(weights, count: int | None = None) -> np.ndarray:
    """Weights as a float vector; ValueError unless nonempty, count long, finite and > 0."""
    a = np.array(weights, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("need a nonempty list of weights")
    if count is not None and a.size != count:
        raise ValueError(f"{a.size} weights for {count} labels")
    if not np.all((a > 0) & (a < np.inf)):  # NaN fails both comparisons
        raise ValueError("weights must be strictly positive and finite")
    return a


def _frozen_array(values, dtype=float, ndim=None, nan_name=None) -> np.ndarray:
    """Read-only copy; with nan_name set, NaN entries raise ValueError naming it."""
    arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected {ndim}-dimensional array, got shape {arr.shape}")
    if nan_name is not None and np.isnan(arr).any():
        raise ValueError(f"{nan_name} must not be NaN")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class InstanceSet:
    """n x d feature matrix carrying the uniform empirical measure over rows."""

    features: np.ndarray

    def __post_init__(self):
        feats = _frozen_array(self.features, ndim=2)
        if feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("need at least one row and one column")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        object.__setattr__(self, "features", feats)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SampledLabels:
    """n x K binary label matrix."""

    labels: np.ndarray

    def __post_init__(self):
        lab = _frozen_array(self.labels, dtype=np.int64, ndim=2)
        if lab.shape[1] < 1:
            raise ValueError("need at least one label column")
        if not ((lab == 0) | (lab == 1)).all():
            raise ValueError("labels must be 0/1")
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def K(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True)
class EtaTable:
    """n x K table of per-instance positive-class probabilities."""

    eta: np.ndarray

    def __post_init__(self):
        eta = _frozen_array(self.eta, ndim=2, nan_name="class probabilities")
        if np.any(eta < 0) or np.any(eta > 1):
            raise ValueError("class probabilities must lie in [0, 1]")
        object.__setattr__(self, "eta", eta)

    @property
    def n(self) -> int:
        return self.eta.shape[0]

    @property
    def K(self) -> int:
        return self.eta.shape[1]


class JointLabelModel:
    """Per-instance joint law over the K binary labels.

    Either conditionally independent (given by an EtaTable) or explicit
    (an n x 2^K probability table; column index encodes the label combo in
    binary with label 0 as the most significant bit).
    """

    def __init__(self, *, eta: EtaTable | None = None, table: np.ndarray | None = None, K: int | None = None):
        if (eta is None) == (table is None):
            raise ValueError("provide exactly one of eta or table")
        if eta is not None:
            self._eta = eta
            self._table = None
            self._K = eta.K
            self._n = eta.n
        else:
            if K is None:
                raise ValueError("explicit tables need K")
            tab = _frozen_array(table, ndim=2, nan_name="joint label probabilities")
            if tab.shape[1] != 2**K:
                raise ValueError("explicit table must have 2^K columns")
            if np.any(tab < 0):
                raise ValueError("probabilities must be non-negative")
            if np.any(np.abs(tab.sum(axis=1) - 1.0) > _PROB_TOL):
                raise ValueError("explicit table rows must sum to 1")
            self._eta = None
            self._table = tab
            self._K = K
            self._n = tab.shape[0]

    @classmethod
    def from_eta(cls, eta: EtaTable) -> "JointLabelModel":
        return cls(eta=eta)

    @classmethod
    def explicit(cls, table, K: int) -> "JointLabelModel":
        return cls(table=table, K=K)

    @property
    def n(self) -> int:
        return self._n

    @property
    def K(self) -> int:
        return self._K

    @property
    def independent(self) -> bool:
        return self._eta is not None

    def combos(self) -> np.ndarray:
        """2^K x K matrix of label combos in explicit-column order."""
        K = self._K
        _require_cells(2**K * K, f"the {K}-label combo matrix")
        idx = np.arange(2**K)
        return (idx[:, None] >> (K - 1 - np.arange(K))) & 1

    def explicit_table(self) -> np.ndarray:
        if self._table is not None:
            return self._table
        _require_cells(self._n * 2**self._K, f"the {self._K}-label joint table")
        eta = self._eta.eta
        combos = self.combos()
        # product over labels of eta or 1-eta per combo column
        tab = np.ones((self._n, 2**self._K))
        for k in range(self._K):
            col = eta[:, k][:, None]
            tab *= np.where(combos[:, k][None, :] == 1, col, 1.0 - col)
        return tab

    def marginal_eta(self) -> EtaTable:
        if self._eta is not None:
            return self._eta
        combos = self.combos()
        return EtaTable(self._table @ combos.astype(float))

    def all_ones_prob(self) -> np.ndarray:
        """P(every label is 1) per instance."""
        if self._eta is not None:
            return self._eta.eta.prod(axis=1)
        return self._table[:, -1].copy()


@dataclass(frozen=True)
class PriorVector:
    """Marginal positive rates per label."""

    pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi", _frozen_array(self.pi, ndim=1, nan_name="priors"))

    @classmethod
    def from_labels(cls, labels: SampledLabels) -> "PriorVector":
        return cls(labels.labels.mean(axis=0))

    @classmethod
    def from_eta(cls, eta: EtaTable) -> "PriorVector":
        return cls(eta.eta.mean(axis=0))

    def require_nondegenerate(self) -> np.ndarray:
        bad = np.flatnonzero((self.pi <= 0) | (self.pi >= 1))
        if bad.size:
            raise DegenerateLabel(f"label {bad[0]} has prior {self.pi[bad[0]]}")
        return self.pi


@dataclass(frozen=True)
class CostMatrix:
    """Misranking costs c[y, y'] over an ordinal alphabet {0, ..., L}.

    Only entries with y > y' are ever read.
    """

    costs: np.ndarray

    def __post_init__(self):
        c = _frozen_array(self.costs, ndim=2, nan_name="costs")
        if c.shape[0] != c.shape[1] or c.shape[0] < 2:
            raise ValueError("costs must be a square matrix of size >= 2")
        if np.any(c < 0):
            raise ValueError("costs must be non-negative")
        object.__setattr__(self, "costs", c)

    @property
    def size(self) -> int:
        return self.costs.shape[0]

    @classmethod
    def uniform(cls, size: int) -> "CostMatrix":
        return cls(np.ones((size, size)))

    @classmethod
    def absdiff(cls, size: int) -> "CostMatrix":
        grid = np.arange(size)
        return cls(np.abs(grid[:, None] - grid[None, :]).astype(float))

    @classmethod
    def custom(cls, costs) -> "CostMatrix":
        return cls(np.asarray(costs, dtype=float))


class Scorer:
    """Maps instances to real scores. Subclasses implement scores()."""

    def scores(self, instances: InstanceSet | None = None) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class TableScorer(Scorer):
    """Explicit score per instance index; +inf entries rank above all finite scores."""

    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self.values, ndim=1, nan_name="scores")
        object.__setattr__(self, "values", vals)

    def scores(self, instances: InstanceSet | None = None) -> np.ndarray:
        if instances is not None and instances.n != self.values.shape[0]:
            raise ValueError("table length does not match instance count")
        return self.values


@dataclass(frozen=True)
class LinearScorer(Scorer):
    weights: np.ndarray
    bias: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_array(self.weights, ndim=1))
        object.__setattr__(self, "bias", float(self.bias))

    def scores(self, instances: InstanceSet | None = None) -> np.ndarray:
        if instances is None:
            raise ValueError("linear scorers need features")
        return instances.features @ self.weights + self.bias


@dataclass(frozen=True)
class MlpScorer(Scorer):
    """Fully connected ReLU network with a scalar output head."""

    weights: tuple  # tuple of (in, out) matrices
    biases: tuple  # tuple of (out,) vectors

    def __post_init__(self):
        ws = tuple(_frozen_array(w, ndim=2) for w in self.weights)
        bs = tuple(_frozen_array(b, ndim=1) for b in self.biases)
        if len(ws) != len(bs) or not ws:
            raise ValueError("need matching weight/bias lists")
        if ws[-1].shape[1] != 1:
            raise ValueError("output layer must be scalar")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    def scores(self, instances: InstanceSet | None = None) -> np.ndarray:
        if instances is None:
            raise ValueError("MLP scorers need features")
        h = instances.features
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < last:
                h = np.maximum(h, 0.0)
        return h[:, 0]


@dataclass(frozen=True)
class Sum:
    """Aggregate labels by summation onto {0, ..., K}."""


@dataclass(frozen=True)
class Product:
    """Aggregate labels by their product (logical AND)."""


@dataclass(frozen=True)
class WeightedSum:
    """Aggregate labels by a positive weighted sum, then rank distinct values."""

    alphas: tuple

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(_positive_weights(self.alphas).tolist()))

    def values(self) -> np.ndarray:
        """Distinct weighted sums over {0,1}^K in increasing order.

        Sums equal after rounding to 12 decimals count as one.
        """
        for values, _ in _lattice_steps(self.alphas):
            pass
        return values


def _lattice_steps(alphas, rows: int = 1):
    """Partial sums of the weighted labels, adding one label at a time.

    Yields per label the distinct sums so far and, for each candidate (every
    earlier sum with the label off, then with it on), its index among them.
    Sums are compared rounded to 12 decimals, so float addition order cannot
    split one value in two; each keeps its first unrounded sum. Raises
    TooLarge first if rows x sums could pass the cell cap: integer weights
    reach at most sum(a) + 1 sums, others up to 2^K.
    """
    a = np.asarray(alphas)
    levels = 2**a.size
    if np.all(a == np.round(a)):
        levels = min(levels, int(a.sum()) + 1)
    _require_cells(rows * levels, f"the {a.size}-label weighted sum over {rows} rows")
    sums = np.zeros(1)
    for alpha in alphas:
        candidates = np.concatenate([sums, sums + alpha])
        _, first, inverse = np.unique(np.round(candidates, 12), return_index=True, return_inverse=True)
        sums = candidates[first]
        yield sums, inverse


Aggregator = Union[Sum, Product, WeightedSum]


@dataclass(frozen=True)
class PerLabel:
    """Objective: bipartite AUC of one label."""

    k: int


@dataclass(frozen=True)
class LossAgg:
    """Objective: weighted sum of per-label AUCs."""

    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(_positive_weights(self.weights).tolist()))


@dataclass(frozen=True)
class LabelAgg:
    """Objective: multipartite AUC of the aggregated label."""

    aggregator: Aggregator
    costs: CostMatrix


ObjectiveSpec = Union[PerLabel, LossAgg, LabelAgg]


@dataclass(frozen=True)
class AggregateDistribution:
    """Per-instance law of the aggregated label.

    values holds the ordinal alphabet in increasing order; probs[i, m] is
    the probability instance i aggregates to values[m].
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, ndim=1))
        object.__setattr__(self, "probs", _frozen_array(self.probs, ndim=2))

    def mean(self) -> np.ndarray:
        return self.probs @ self.values


def aggregate_labels(labels: SampledLabels, aggregator: Aggregator) -> np.ndarray:
    """Collapse the K binary labels of each row into one ordinal label."""
    lab = labels.labels
    if isinstance(aggregator, Sum):
        return lab.sum(axis=1)
    if isinstance(aggregator, Product):
        return lab.prod(axis=1)
    if isinstance(aggregator, WeightedSum):
        if len(aggregator.alphas) != labels.K:
            raise ValueError("weight count must match K")
        raw = lab @ np.asarray(aggregator.alphas)
        # dense ordinal alphabet over the observed distinct values
        _, ordinal = np.unique(raw, return_inverse=True)
        return ordinal
    raise TypeError(f"unknown aggregator {aggregator!r}")


def aggregate_distribution(model: JointLabelModel, aggregator: Aggregator = Sum()) -> AggregateDistribution:
    """Per-instance distribution of the aggregated label.

    Sum is the weighted sum with unit weights. Under conditional
    independence a weighted sum is convolved one label at a time over its
    value alphabet, costing K x levels per instance; explicit tables sum
    their 2^K columns.
    """
    if isinstance(aggregator, Product):
        ones = model.all_ones_prob()
        return AggregateDistribution(np.array([0.0, 1.0]), np.column_stack([1.0 - ones, ones]))
    if isinstance(aggregator, Sum):
        aggregator = WeightedSum((1.0,) * model.K)
    if isinstance(aggregator, WeightedSum):
        if len(aggregator.alphas) != model.K:
            raise ValueError("weight count must match K")
        if not model.independent:
            raw = model.combos() @ np.asarray(aggregator.alphas)
            values, inverse = np.unique(np.round(raw, 12), return_inverse=True)
            probs = np.zeros((model.n, values.shape[0]))
            np.add.at(probs.T, inverse, model.explicit_table().T)
            return AggregateDistribution(values, probs)
        eta, probs = model.marginal_eta().eta, np.ones((model.n, 1))
        for (values, inverse), p in zip(_lattice_steps(aggregator.alphas, model.n), eta.T):
            candidates = np.concatenate([probs * (1.0 - p[:, None]), probs * p[:, None]], axis=1)
            probs = np.zeros((model.n, values.shape[0]))
            np.add.at(probs.T, inverse, candidates.T)
        return AggregateDistribution(values, probs)
    raise TypeError(f"unknown aggregator {aggregator!r}")
