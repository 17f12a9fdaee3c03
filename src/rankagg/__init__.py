"""Bipartite ranking from multiple binary labels.

Objectives (per-label, loss-aggregated, label-aggregated AUC), their
closed-form optimal scorers, brute-force certification oracles, an
optimality-gap bound, pairwise surrogate training, synthetic generators,
and a CLI experiment harness.
"""

from .core import (
    AggregateDistribution,
    CostMatrix,
    EtaTable,
    InstanceSet,
    JointLabelModel,
    LabelAgg,
    LossAgg,
    MlpScorer,
    PerLabel,
    PriorVector,
    Product,
    SampledLabels,
    Scorer,
    Sum,
    TableScorer,
    WeightedSum,
    aggregate_distribution,
    aggregate_labels,
)
from .errors import (
    BudgetExceeded,
    DegenerateLabel,
    DegenerateVariance,
    InvalidCosts,
    NotTrainable,
    RankAggError,
    TooLarge,
)
from .metrics import (
    AucReport,
    auc_report,
    bipartite_auc_empirical,
    bipartite_auc_population,
    label_agg_auc,
    loss_agg_auc,
    multipartite_auc,
    multipartite_auc_population,
    pareto_dominates,
    pareto_front,
)
from .bayes import (
    alpha_vector,
    bayes_scorer,
    label_agg_bayes_scorer_sum,
    label_agg_uniform_cost_scorer_k2,
    loss_agg_bayes_scorer,
    multipartite_bayes_scorer,
    product_agg_bayes_scorer,
)
from .oracle import certify_bayes, maximizer_sets, optimal_weak_order, optimal_weak_order_for
from .bound import evaluate_bound, gap_bound, measure_gap
from .surrogate import Logistic, TrainConfig, surrogate_gradient, surrogate_objective, train
from .synthgen import (
    SigmoidSynthConfig,
    gen_conflicting_pair,
    gen_gaussian_bilevel,
    gen_sigmoid_pair,
    resample_to_skew,
    sigmoid_sweep,
)

__version__ = "0.1.0"
