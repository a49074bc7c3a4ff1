"""Seeded input generators for the tests: random generic priors, the
pure-outcome scenario of a prior, and random instances for the
cyclical-monotonicity oracle."""

import random
from fractions import Fraction

from robustmech.core import (
    AgentPayoff,
    Lottery,
    ScenarioModel,
    SocialChoiceFunction,
    make_scenario,
)
from robustmech.numeric import Number


def random_generic_prior(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """Random full-support rational prior with a unique maximum."""
    while True:
        weights = [rng.randint(1, 60) for _ in range(n)]
        top = max(weights)
        if weights.count(top) == 1:
            total = sum(weights)
            prior = sorted((Fraction(w, total) for w in weights), reverse=True)
            return tuple(prior)


def uniform_scenario(prior: tuple[Fraction, ...], cost: Number = 1) -> ScenarioModel:
    """Pure-outcome scenario with one outcome per state and the given prior."""
    n = len(prior)
    states = [(f"s{j + 1}", prior[j]) for j in range(n)]
    outcomes = [f"y{j + 1}" for j in range(n)]
    rows = {f"s{j + 1}": {f"y{j + 1}": 1} for j in range(n)}
    return make_scenario(states, outcomes, rows, costs=(cost, cost))


def random_scm_instance(rng: random.Random, n: int = 3, n_outcomes: int = 3):
    """Random utility table and pure-outcome target for oracle cross-checks."""
    u = tuple(
        tuple(Fraction(rng.randint(-6, 6)) for _ in range(n_outcomes)) for _ in range(n)
    )
    f = [rng.randrange(n_outcomes) for _ in range(n)]
    lots = tuple(Lottery.point(y, n_outcomes) for y in f)
    return AgentPayoff(u, Fraction(0)), SocialChoiceFunction(lots)
