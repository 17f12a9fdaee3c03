import numpy as np
import pytest

from rankagg import (
    DegenerateLabel,
    SigmoidSynthConfig,
    gen_conflicting_pair,
    gen_d3_training_pair,
    gen_gaussian_bilevel,
    gen_sigmoid_pair,
    resample_to_skew,
)
from rankagg.cli import _solve_rho_for_pi2
from rankagg.synthgen import _sigmoid


def test_generation_is_deterministic_per_seed():
    cfg = SigmoidSynthConfig(n=50, tau=2.0, rho=0.3, seed=9)
    a, b = gen_sigmoid_pair(cfg), gen_sigmoid_pair(cfg)
    np.testing.assert_array_equal(a.instances.features, b.instances.features)
    np.testing.assert_array_equal(a.labels.labels, b.labels.labels)
    c = gen_sigmoid_pair(SigmoidSynthConfig(n=50, tau=2.0, rho=0.3, seed=10))
    assert not np.array_equal(a.labels.labels, c.labels.labels)


def test_growing_n_preserves_the_earlier_prefix():
    small = gen_sigmoid_pair(SigmoidSynthConfig(n=20, tau=2.0, rho=0.0, seed=4))
    big = gen_sigmoid_pair(SigmoidSynthConfig(n=40, tau=2.0, rho=0.0, seed=4))
    np.testing.assert_array_equal(
        small.instances.features, big.instances.features[:20]
    )


def test_tau_zero_gives_coin_flip_probabilities():
    data = gen_sigmoid_pair(SigmoidSynthConfig(n=10, tau=0.0, rho=0.7, seed=1))
    np.testing.assert_array_equal(data.eta.eta, 0.5)
    d3 = gen_d3_training_pair(10, 1, tau=0.0)
    np.testing.assert_array_equal(d3.eta.eta, 0.5)


def test_rho_zero_balances_label_two():
    data = gen_sigmoid_pair(SigmoidSynthConfig(n=100_000, tau=5.0, rho=0.0, seed=0))
    assert abs(data.labels.labels[:, 1].mean() - 0.5) < 0.01


def test_large_tau_concentrates_probabilities():
    data = gen_d3_training_pair(2000, 3, tau=20.0)
    interior = ((data.eta.eta > 0.1) & (data.eta.eta < 0.9)).mean()
    assert interior < 0.2


def test_labels_track_eta_rates():
    data = gen_sigmoid_pair(SigmoidSynthConfig(n=50_000, tau=3.0, rho=0.4, seed=2))
    for k in range(2):
        expected = data.eta.eta[:, k].mean()
        assert abs(data.labels.labels[:, k].mean() - expected) < 0.01


def test_gaussian_bilevel_is_deterministic_thresholding():
    data = gen_gaussian_bilevel(40, 5)
    np.testing.assert_array_equal(data.labels.labels, data.eta.eta)
    np.testing.assert_array_equal(
        data.labels.labels, (data.instances.features > 0).astype(int)
    )


def test_gaussian_bilevel_generic_covariance_disagrees_sometimes():
    hits = 0
    for seed in range(1, 9):
        labels = gen_gaussian_bilevel(30, seed).labels.labels
        disagreements = int((labels[:, 0] != labels[:, 1]).sum())
        if 0 < disagreements < 30:
            hits += 1
    assert hits >= 6


def test_conflicting_pair_signal_layout():
    data = gen_conflicting_pair(50_000, 7)
    eta = data.eta.eta
    x = data.instances.features
    # label 1 rides x1 steeply, label 2 rides x2 gently; both balanced
    assert np.corrcoef(eta[:, 0], x[:, 0])[0, 1] > 0.9
    assert np.corrcoef(eta[:, 1], x[:, 1])[0, 1] > 0.9
    assert eta[:, 0].std() > eta[:, 1].std()
    assert abs(data.labels.labels.mean(axis=0) - 0.5).max() < 0.02


def test_resample_to_skew_hits_the_target_rate():
    data = gen_conflicting_pair(400, 11)
    inst, labs = resample_to_skew(data.instances, data.labels, 0, 0.85, 11)
    assert labs.n == 400 and inst.n == 400
    assert abs(labs.labels[:, 0].mean() - 0.85) <= 1.0 / 400 + 1e-12


def test_resample_to_skew_preconditions():
    data = gen_conflicting_pair(40, 1)
    with pytest.raises(ValueError):
        resample_to_skew(data.instances, data.labels, 0, 1.0, 1)
    ones = type(data.labels)(np.ones_like(data.labels.labels))
    with pytest.raises(DegenerateLabel):
        resample_to_skew(data.instances, ones, 0, 0.5, 1)


@pytest.mark.filterwarnings("error")
def test_sigmoid_matches_expit():
    from scipy.special import expit

    z = np.concatenate([np.linspace(-800.0, 800.0, 400_001), [0.0, -0.0, np.inf, -np.inf]])
    got, ref = _sigmoid(z), expit(z)
    tiny = np.finfo(float).tiny
    normal = ref >= tiny
    assert normal.sum() > 300_000
    np.testing.assert_array_less(np.abs(got[normal] - ref[normal]), 1e-15 * ref[normal])
    np.testing.assert_array_less(got[~normal], tiny)
    assert _sigmoid(np.array([0.0, np.inf, -np.inf])).tolist() == [0.5, 1.0, 0.0]


def _bisect_rho(feats, tau, target, sigmoid):
    """All 200 steps of the plain bisection, one fresh sigmoid array per step."""
    lo, hi = -50.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(sigmoid(tau * (feats[:, 1] - mid)).mean()) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_rho_bisection_matches_plain_and_scipy_references():
    from scipy.special import expit

    for seed in range(4):
        for tau in (0.5, 1.0, 5.0, 20.0, 200.0):
            feats = gen_sigmoid_pair(SigmoidSynthConfig(2000, tau, 0.0, seed)).instances.features
            for target in (0.1, 0.3, 0.5, 0.6, 0.8, 0.9, 0.95):
                rho = _solve_rho_for_pi2(feats, tau, target)
                assert rho == _bisect_rho(feats, tau, target, _sigmoid)
                assert abs(rho - _bisect_rho(feats, tau, target, expit)) <= 1e-15
