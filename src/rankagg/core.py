"""Domain types shared by every other module.

A label law is an EtaTable when the labels are conditionally independent
given the instance (n x K marginals) and a JointLabelModel otherwise (an
explicit n x 2^K table); every function that takes a label model accepts
either. The library builds no 2^K joint law of an EtaTable and no combo
matrix: only aggregate levels, and only up to a cell cap.

All types are immutable after construction (arrays are stored with the
writeable flag cleared) and safe to share across threads. A constructor
adopts an owned, read-only, C-ordered array of the right dtype as is and
copies anything else (see _frozen_array).
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
# Largest aggregate law built on request (n x levels):
# 2^24 cells, 128 MiB of float64.
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


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A fresh array with its writeable flag cleared, for a constructor to adopt without a copy."""
    arr.setflags(write=False)
    return arr


def _frozen_array(values, dtype=float, ndim=None, nan_name=None) -> np.ndarray:
    """Read-only C-ordered array; with nan_name set, NaN entries raise ValueError naming it.

    An ndarray that is already read-only, owns its data, is C-contiguous and
    has the dtype is adopted, not copied: whoever hands it over gives up
    writing to it. Any other input is copied, so a caller's writable array or
    a view of one never aliases a frozen object. The C order fixes the bits
    of axis reductions: PriorVector.from_eta adds each column's entries in
    row order, starting from 0.0, as numpy's column reduction of a C-ordered
    table of two or more columns does.
    """
    adopt = (
        type(values) is np.ndarray
        and not values.flags.writeable
        and values.base is None
        and values.flags.c_contiguous
        and values.dtype == dtype
    )
    arr = values if adopt else np.array(values, dtype=dtype, order="C")
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
    """n x K binary label matrix, stored as one-byte int8.

    Sums and products along an axis give int64, means and matrix products
    with float weights float64; elementwise arithmetic and products with
    other int8 arrays (labels * k, labels.T @ labels) stay int8 and can
    overflow, so cast first.
    """

    labels: np.ndarray

    def __post_init__(self):
        # check before the int8 cast, which would truncate 0.7 to 0
        raw = np.asarray(self.labels)
        if not ((raw == 0) | (raw == 1)).all():
            raise ValueError("labels must be 0/1")
        lab = _frozen_array(raw, dtype=np.int8, ndim=2)
        if lab.shape[1] < 1:
            raise ValueError("need at least one label column")
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


@dataclass(frozen=True)
class JointLabelModel:
    """Explicit per-instance joint law over K binary labels: an n x 2^K table.

    The column index encodes the label combo in binary with label 0 as the
    most significant bit; K is read from the table width. A conditionally
    independent law is an EtaTable.
    """

    table: np.ndarray

    def __post_init__(self):
        tab = _frozen_array(self.table, ndim=2, nan_name="joint label probabilities")
        width = tab.shape[1]
        if width < 2 or width & (width - 1):
            raise ValueError(f"explicit table must have 2^K columns with K >= 1, got {width}")
        if np.any(tab < 0):
            raise ValueError("probabilities must be non-negative")
        if np.any(np.abs(tab.sum(axis=1) - 1.0) > _PROB_TOL):
            raise ValueError("explicit table rows must sum to 1")
        object.__setattr__(self, "table", tab)

    @property
    def n(self) -> int:
        return self.table.shape[0]

    @property
    def K(self) -> int:
        return self.table.shape[1].bit_length() - 1

    def marginal_eta(self) -> EtaTable:
        # label k is bit K-1-k of the column: sum the columns whose bit is 1
        eta = [self.table.reshape(self.n, 2**k, 2, -1)[:, :, 1, :].sum(axis=(1, 2)) for k in range(self.K)]
        # rows may sum to 1 + _PROB_TOL, so a marginal may round past 1
        return EtaTable(np.minimum(np.column_stack(eta), 1.0))


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
        """The column means of eta, bit for bit eta.eta.mean(axis=0).

        numpy reduces a C-ordered table of K >= 2 columns row by row, one
        K-element inner loop per row, adding each column's entries in row
        order to 0.0. Accumulating each column makes the same additions in
        the same order without that per-row loop; the final + 0.0 is the
        reduction's start, which only turns an all -0.0 column's -0.0 into
        0.0. numpy sums a single column pairwise, so K = 1 takes its mean.
        """
        table = eta.eta
        if table.shape[1] == 1:
            return cls(table.mean(axis=0))
        sums = np.array([np.add.accumulate(column)[-1] for column in table.T]) + 0.0
        return cls(sums / table.shape[0])

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
        if not np.isfinite(c).all():
            raise ValueError("costs must be finite")
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
class MlpScorer(Scorer):
    """Fully connected ReLU network with a scalar output head; one layer is a linear scorer."""

    weights: tuple  # tuple of (in, out) matrices
    biases: tuple  # tuple of (out,) vectors

    def __post_init__(self):
        ws = tuple(_frozen_array(w, ndim=2) for w in self.weights)
        bs = tuple(_frozen_array(b, ndim=1) for b in self.biases)
        if len(ws) != len(bs) or not ws:
            raise ValueError("need matching weight/bias lists")
        if ws[-1].shape[1] != 1:
            raise ValueError("output layer must be scalar")
        for i, (w, b) in enumerate(zip(ws, bs)):
            if b.shape != (w.shape[1],) or (i and w.shape[0] != ws[i - 1].shape[1]):
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} do not chain")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    def layer_outputs(self, features: np.ndarray):
        """Each layer's output in turn, with ReLU on every layer but the last."""
        h = features
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < last:
                np.maximum(h, 0.0, out=h)
            yield h

    def scores(self, instances: InstanceSet | None = None) -> np.ndarray:
        if instances is None:
            raise ValueError("MLP scorers need features")
        for h in self.layer_outputs(instances.features):
            pass
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
    """Collapse the K binary labels of each row into its index among aggregate_distribution's values."""
    lab = labels.labels
    if isinstance(aggregator, Sum):
        return lab.sum(axis=1)
    if isinstance(aggregator, Product):
        return lab.prod(axis=1)
    if isinstance(aggregator, WeightedSum):
        if len(aggregator.alphas) != labels.K:
            raise ValueError("weight count must match K")
        # each label appends its bit to the level index, as for a JointLabelModel's columns
        level = np.zeros(labels.n, dtype=np.intp)
        for (_, inverse), bit in zip(_lattice_steps(aggregator.alphas), lab.T):
            level = inverse[np.where(bit, level + inverse.shape[0] // 2, level)]
        return level
    raise TypeError(f"unknown aggregator {aggregator!r}")


def aggregate_distribution(model: EtaTable | JointLabelModel, aggregator: Aggregator = Sum()) -> AggregateDistribution:
    """Per-instance distribution of the aggregated label.

    Sum is the weighted sum with unit weights. An EtaTable (conditionally
    independent labels) convolves a weighted sum one label at a time over
    its value alphabet, costing K x levels per instance; an explicit
    JointLabelModel sums its 2^K columns onto the same values.
    """
    if not isinstance(model, (EtaTable, JointLabelModel)):
        raise TypeError(f"unsupported label model {model!r}")
    if isinstance(aggregator, Product):
        ones = model.eta.prod(axis=1) if isinstance(model, EtaTable) else model.table[:, -1]
        return AggregateDistribution(np.array([0.0, 1.0]), np.column_stack([1.0 - ones, ones]))
    if isinstance(aggregator, Sum):
        aggregator = WeightedSum((1.0,) * model.K)
    if not isinstance(aggregator, WeightedSum):
        raise TypeError(f"unknown aggregator {aggregator!r}")
    if len(aggregator.alphas) != model.K:
        raise ValueError("weight count must match K")
    if isinstance(model, JointLabelModel):
        # level[c]: column c's index among the sums; each label appends its bit to c
        level = np.zeros(1, dtype=np.intp)
        for values, inverse in _lattice_steps(aggregator.alphas, model.n):
            level = inverse[np.add.outer(level, [0, inverse.shape[0] // 2]).ravel()]
        probs = np.zeros((model.n, values.shape[0]))
        np.add.at(probs.T, level, model.table.T)
        return AggregateDistribution(values, probs)
    probs = np.ones((model.n, 1))
    for (values, inverse), p in zip(_lattice_steps(aggregator.alphas, model.n), model.eta.T):
        candidates = np.concatenate([probs * (1.0 - p[:, None]), probs * p[:, None]], axis=1)
        probs = np.zeros((model.n, values.shape[0]))
        np.add.at(probs.T, inverse, candidates.T)
    return AggregateDistribution(values, probs)
