"""Seeded input generators for the tests: random generic priors, the
pure-outcome scenario of a prior, a binary scenario with state-dependent
stakes, random instances for the cyclical-monotonicity oracle, point
lotteries and uniform trembles."""

import random
from fractions import Fraction

from robustmech.core import (
    AgentPayoff,
    Lottery,
    ScenarioModel,
    SocialChoiceFunction,
    make_scenario,
)
from robustmech.engine import TrembleSpec
from robustmech.numeric import Number, rat


def point_lottery(index: int, size: int) -> Lottery:
    """The lottery on ``size`` outcomes that puts all mass on ``index``."""
    return Lottery(tuple(Fraction(y == index) for y in range(size)))


def uniform_tremble(tau: Number, messages: tuple[tuple[int, ...], tuple[int, ...]]) -> TrembleSpec:
    """A tremble of probability ``tau`` whose noise is uniform over each
    agent's messages."""
    return TrembleSpec(rat(tau), tuple({m: Fraction(1, len(ms)) for m in ms} for ms in messages))


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


def state_dependent_binary(costs: tuple[Number, Number] = (5, 5)) -> ScenarioModel:
    """Binary verdict scenario whose stakes depend on the state: agent 1's
    utilities range over 2 and agent 2's over 1, so x_u = 2, and at the
    default costs, above twice that, prop2 applies and emits its
    learning-value rows."""
    return make_scenario(
        states=[("innocent", "7/10"), ("guilty", "3/10")],
        outcomes=["acquit", "convict"],
        scf_rows={"innocent": {"acquit": 1}, "guilty": {"convict": 1}},
        costs=costs,
        u_tables=(
            {("innocent", "convict"): -1, ("guilty", "convict"): 1},
            {("innocent", "convict"): 1, ("guilty", "acquit"): 1},
        ),
    )


def random_scm_instance(rng: random.Random, n: int = 3, n_outcomes: int = 3):
    """Random utility table and pure-outcome target for oracle cross-checks."""
    u = tuple(
        tuple(Fraction(rng.randint(-6, 6)) for _ in range(n_outcomes)) for _ in range(n)
    )
    f = [rng.randrange(n_outcomes) for _ in range(n)]
    lots = tuple(point_lottery(y, n_outcomes) for y in f)
    return AgentPayoff(u, Fraction(0)), SocialChoiceFunction(lots)
