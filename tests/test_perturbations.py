"""Circumstance ladders, partitions, posteriors, and size measures."""

from fractions import Fraction as F

import pytest

from robustmech import (
    BiasSpec,
    ModelError,
    Perturbation,
    binary_trial_scenario,
    build_general_ladder,
    build_ladder,
    eta_of,
    is_c_bounded,
    posterior,
    simple_bias_ladder,
    unperturbed,
)
from robustmech.perturbations import ladder_partition


def test_ladder_partition_offsets():
    assert ladder_partition(5, 0) == ((0,), (1, 2), (3, 4))
    assert ladder_partition(5, 1) == ((0, 1), (2, 3), (4,))


def test_collapse_tail_masses():
    s = binary_trial_scenario()
    eta = F(1, 10)
    p = build_ladder(s, 4, eta)
    assert p.pi[0] == eta
    assert p.pi[2] == eta * (1 - eta) ** 2
    assert p.pi[-1] == (1 - eta) ** 4
    assert sum(p.pi) == 1
    assert p.tail_mass == (1 - eta) ** 4


def test_renormalized_tail_posteriors():
    s = binary_trial_scenario()
    eta = F(1, 20)
    p = build_ladder(s, 6, eta, tail="renormalize")
    assert sum(p.pi) == 1
    # Every two-circumstance type puts 1/(2 - eta) on its lower rung,
    # including the topmost one.
    for agent in (0, 1):
        for t, block in enumerate(p.partitions[agent]):
            if len(block) != 2:
                continue
            lo, hi = block
            assert p.pi[lo] / (p.pi[lo] + p.pi[hi]) == 1 / (2 - eta)


def test_unknown_tail_convention():
    with pytest.raises(ModelError):
        build_ladder(binary_trial_scenario(), 4, F(1, 10), tail="drop")


def test_eta_of_single_bias():
    s = binary_trial_scenario()
    eta = F(1, 100)
    p = simple_bias_ladder(s, 10, eta, 0, {(0, 1): F(50)})
    # Only the first circumstance carries a biased type, and agent 1's
    # first partition element is exactly that circumstance.
    assert eta_of(p) == eta
    assert not p.type_is_normal(0, 0)
    assert p.type_is_normal(1, 0)


def test_eta_of_unperturbed_is_zero():
    assert eta_of(unperturbed(binary_trial_scenario())) == 0


def test_override_equal_to_base_is_not_a_bias():
    s = binary_trial_scenario()
    p = simple_bias_ladder(s, 4, F(1, 10), 0, {(0, 0): s.payoffs[0].u[0][0]})
    assert p.type_is_normal(0, 0)
    assert eta_of(p) == 0


def test_cost_bound():
    s = binary_trial_scenario()
    p = simple_bias_ladder(s, 4, F(1, 10), 0, {}, biased_cost=F(5))
    assert is_c_bounded(p, 5)
    assert not is_c_bounded(p, 4)
    assert p.cost(0, 0) == 5
    assert p.cost(0, 1) == 1
    assert p.cost(1, 0) == 1


def test_posterior_sums_to_one_and_matches_ladder():
    s = binary_trial_scenario()
    eta = F(1, 10)
    p = build_ladder(s, 10, eta)
    for agent in (0, 1):
        for t in range(len(p.partitions[agent])):
            post = posterior(p, agent, t)
            assert sum(post.values()) == 1
    # Interior rung of agent 1: type {w1, w2} sees the opponent's
    # {w0, w1} with probability 1/(2 - eta).
    post = posterior(p, 0, 1)
    assert post[p.type_of(1, 1)] == 1 / (2 - eta)


def test_partition_must_cover():
    s = binary_trial_scenario()
    with pytest.raises(ModelError):
        Perturbation(s, (F(1, 2), F(1, 2)), (((0,),), ((0, 1),)))


def test_distribution_must_sum_to_one():
    s = binary_trial_scenario()
    with pytest.raises(ModelError):
        build_general_ladder(s, (F(1, 2), F(1, 3)))


def test_bias_circumstance_in_range():
    s = binary_trial_scenario()
    with pytest.raises(ModelError):
        build_general_ladder(s, (F(1, 2), F(1, 2)), [BiasSpec(0, 5, {})])


def test_second_bias_at_one_circumstance_is_rejected():
    """Two biases for one agent at one circumstance are refused rather
    than the second silently replacing the first; the other agent may
    have its own there."""
    s = binary_trial_scenario()
    with pytest.raises(ModelError, match="two biases apply to agent 0 at circumstance 0"):
        build_ladder(s, 4, "1/10", [BiasSpec(0, 0, {(0, 0): 5}), BiasSpec(0, 0, {(0, 1): 7})])
    p = build_ladder(s, 4, "1/10", [BiasSpec(0, 0, {(0, 0): 5}), BiasSpec(1, 0, {(0, 1): 7})])
    assert p.utility(0, 0, 0, 0) == 5 and p.utility(1, 0, 0, 1) == 7


def test_depth_and_eta_validation():
    s = binary_trial_scenario()
    with pytest.raises(ModelError):
        build_ladder(s, 1, F(1, 10))
    with pytest.raises(ModelError):
        build_ladder(s, 4, F(0))
