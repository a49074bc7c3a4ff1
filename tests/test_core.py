"""Core model objects: lotteries, payoffs, scenarios."""

import re
from dataclasses import replace
from fractions import Fraction as F

import pytest

from robustmech import (
    AgentPayoff,
    Lottery,
    ModelError,
    binary_trial_scenario,
    four_state_scenario,
    is_generic,
    is_nonconstant,
    make_scenario,
    three_state_scenario,
    tv_distance,
)
from generators import point_lottery
from robustmech.core import OutcomeSpace, SocialChoiceFunction, StateSpace


def test_prior_must_sum_to_one():
    with pytest.raises(ModelError):
        StateSpace(("a", "b"), (F(1, 2), F(1, 3)))


def test_prior_must_be_positive():
    with pytest.raises(ModelError):
        StateSpace(("a", "b"), (F(1), F(0)))


def test_lottery_point_and_mix():
    p = point_lottery(1, 3)
    assert p.weights == (F(0), F(1), F(0))
    m = Lottery.mix([(F(1, 2), point_lottery(0, 3)), (F(1, 2), p)])
    assert m.weights == (F(1, 2), F(1, 2), F(0))


def test_lottery_weights_validated():
    with pytest.raises(ModelError):
        Lottery((F(1, 2), F(1, 3)))
    with pytest.raises(ModelError):
        Lottery((F(3, 2), F(-1, 2)))


def test_tv_distance_extremes():
    a = point_lottery(0, 2)
    b = point_lottery(1, 2)
    assert tv_distance(a, b) == 1
    assert tv_distance(a, a) == 0
    mid = Lottery.mix([(F(1, 2), a), (F(1, 2), b)])
    assert tv_distance(a, mid) == F(1, 2)


def test_is_generic():
    ok, top = is_generic((F(7, 10), F(3, 10)))
    assert ok and top == 0
    ok, _ = is_generic((F(1, 2), F(1, 2)))
    assert not ok


def test_binary_trial_scenario_shape():
    s = binary_trial_scenario()
    assert s.n == 2
    assert s.prior == (F(7, 10), F(3, 10))
    assert s.state_space.states == ("innocent", "guilty")
    assert s.outcome_space.outcomes == ("acquit", "convict")
    assert s.scf(0).weights == (F(1), F(0))
    assert s.scf(1).weights == (F(0), F(1))
    assert s.generic
    assert is_nonconstant(s.scf)
    assert s.max_cost == 1


def test_builtin_scenarios_are_generic():
    for s in (three_state_scenario(), four_state_scenario()):
        assert s.generic
        assert s.prior == tuple(sorted(s.prior, reverse=True))


def test_canonicalize_reorders_by_descending_prior():
    s = make_scenario(
        [("rare", "3/10"), ("common", "7/10")],
        ["a", "b"],
        {"rare": {"b": "1"}, "common": {"a": "1"}},
    )
    # The most likely state comes first and the target rows follow it.
    assert s.state_space.states == ("common", "rare")
    assert s.prior == (F(7, 10), F(3, 10))
    assert s.scf(0).weights == (F(1), F(0))
    assert s.scf(1).weights == (F(0), F(1))


def test_expected_utility():
    p = AgentPayoff(((F(0), F(0)), (F(0), F(0))), F(1))
    assert p.expected_utility(0, point_lottery(0, 2)) == 0
    s = make_scenario(
        [("x", "7/10"), ("y", "3/10")],
        ["a", "b"],
        {"x": {"a": "1"}, "y": {"b": "1"}},
        u_tables=({("x", "a"): "2", ("y", "b"): "4"}, {}),
    )
    mid = Lottery((F(1, 2), F(1, 2)))
    assert s.payoffs[0].expected_utility(0, mid) == 1
    assert s.payoffs[0].expected_utility(1, mid) == 2


HALF = (F(1, 2), F(1, 2))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: StateSpace(("a", "a"), HALF), "state labels must be distinct"),
        (lambda: StateSpace(("a", "b", "c"), HALF), "prior length does not match states"),
        (lambda: OutcomeSpace(()), "outcome space is empty"),
        (lambda: OutcomeSpace(("x", "x")), "outcome labels must be distinct"),
        (lambda: tv_distance(Lottery((F(1),)), Lottery(HALF)),
         "lotteries live on different outcome spaces"),
        (lambda: replace(binary_trial_scenario(),
                         scf=SocialChoiceFunction((Lottery(HALF),))),
         "scf is not total on the state space"),
        (lambda: replace(binary_trial_scenario(),
                         scf=SocialChoiceFunction((Lottery((F(1),)),) * 2)),
         "scf lottery dimension mismatch"),
        (lambda: replace(binary_trial_scenario(),
                         payoffs=(AgentPayoff(((0,), (0,)), 1),) * 2),
         "payoff table dimension mismatch"),
    ],
    ids=["state-labels", "prior-length", "no-outcomes", "outcome-labels", "tv-spaces",
         "scf-states", "scf-dimension", "payoff-dimension"],
)
def test_model_constructors_refuse_bad_input(build, message):
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        build()
