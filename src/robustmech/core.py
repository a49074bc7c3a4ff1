"""Unperturbed environment: states, outcomes, lotteries, the target social
choice function, agent payoffs, and the implementation metric.

Conventions used throughout the package:

* states are canonically ordered so the most likely state comes first
  (ties broken by input order, in which case the prior is non-generic);
* all probabilities and payoffs are exact rationals;
* every value object is immutable and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .numeric import Number, rat


class ModelError(ValueError):
    """Raised when a model object violates its invariants."""


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite state labels with a full-support prior."""

    states: tuple[str, ...]
    prior: tuple[Number, ...]

    def __post_init__(self):
        if len(self.states) < 2:
            raise ModelError("need at least two states")
        if len(set(self.states)) != len(self.states):
            raise ModelError("state labels must be distinct")
        if len(self.prior) != len(self.states):
            raise ModelError("prior length does not match states")
        if any(p <= 0 for p in self.prior):
            raise ModelError("prior must have full support")
        if sum(self.prior) != 1:
            raise ModelError("prior must sum to one")

    @property
    def n(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class OutcomeSpace:
    """Ordered finite outcome labels."""

    outcomes: tuple[str, ...]

    def __post_init__(self):
        if not self.outcomes:
            raise ModelError("outcome space is empty")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ModelError("outcome labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class Lottery:
    """Probability vector over an outcome space."""

    weights: tuple[Number, ...]

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise ModelError("lottery weights must be non-negative")
        if sum(self.weights) != 1:
            raise ModelError("lottery weights must sum to one")

    @staticmethod
    def mix(parts: list[tuple[Number, "Lottery"]]) -> "Lottery":
        size = len(parts[0][1].weights)
        acc = [Fraction(0)] * size
        for p, lot in parts:
            for k, w in enumerate(lot.weights):
                if w:
                    acc[k] = acc[k] + p * w
        return Lottery(tuple(acc))

    def same_as(self, other: "Lottery") -> bool:
        """Exact component-wise equality."""
        return self.weights == other.weights


def tv_distance(p: Lottery, r: Lottery) -> Number:
    """Total variation distance ``(1/2) * sum |p(y) - r(y)|``."""
    if len(p.weights) != len(r.weights):
        raise ModelError("lotteries live on different outcome spaces")
    return sum(abs(a - b) for a, b in zip(p.weights, r.weights)) / 2


@dataclass(frozen=True)
class SocialChoiceFunction:
    """Per-state target lottery over outcomes, stored in canonical state order."""

    lotteries: tuple[Lottery, ...]

    def __call__(self, j: int) -> Lottery:
        return self.lotteries[j]


def is_generic(prior: tuple[Number, ...]) -> tuple[bool, int]:
    """Whether a unique strictly-most-likely state exists.

    Returns ``(flag, argmax_index)``; on ties the first maximiser is
    reported with ``flag=False``.
    """
    best = max(prior)
    winners = [j for j, p in enumerate(prior) if p == best]
    return len(winners) == 1, winners[0]


def is_nonconstant(scf: SocialChoiceFunction) -> bool:
    """True iff the target maps two states to different lotteries."""
    first = scf.lotteries[0]
    return any(not lot.same_as(first) for lot in scf.lotteries[1:])


@dataclass(frozen=True)
class AgentPayoff:
    """State-outcome utility table plus the cost of learning the state.

    ``u`` is stored as a tuple-of-tuples indexed ``[state][outcome]``; a
    zero table encodes the leading transfer-only case.
    """

    u: tuple[tuple[Number, ...], ...]
    cost: Number

    def __post_init__(self):
        if self.cost < 0:
            raise ModelError("learning cost must be non-negative")

    def expected_utility(self, state: int, lottery: Lottery) -> Number:
        return sum(w * self.u[state][k] for k, w in enumerate(lottery.weights) if w)


@dataclass(frozen=True)
class ScenarioModel:
    """The unperturbed environment a mechanism is built around."""

    state_space: StateSpace
    outcome_space: OutcomeSpace
    scf: SocialChoiceFunction
    payoffs: tuple[AgentPayoff, AgentPayoff]

    def __post_init__(self):
        n, m = self.state_space.n, self.outcome_space.size
        if len(self.scf.lotteries) != n:
            raise ModelError("scf is not total on the state space")
        for lot in self.scf.lotteries:
            if len(lot.weights) != m:
                raise ModelError("scf lottery dimension mismatch")
        for pay in self.payoffs:
            if len(pay.u) != n or any(len(row) != m for row in pay.u):
                raise ModelError("payoff table dimension mismatch")

    @property
    def n(self) -> int:
        return self.state_space.n

    @property
    def prior(self) -> tuple[Number, ...]:
        return self.state_space.prior

    @property
    def max_cost(self) -> Number:
        return max(p.cost for p in self.payoffs)

    def with_cost(self, cost: Number) -> "ScenarioModel":
        """The same scenario with both agents' learning cost set to ``cost``."""
        return replace(self, payoffs=tuple(replace(p, cost=rat(cost)) for p in self.payoffs))

    def canonicalize(self) -> "ScenarioModel":
        """Reorder states so the prior is non-increasing (stable on ties)."""
        order = sorted(range(self.n), key=lambda j: (-self.prior[j], j))
        if order == list(range(self.n)):
            return self
        ss = StateSpace(
            tuple(self.state_space.states[j] for j in order),
            tuple(self.prior[j] for j in order),
        )
        scf = SocialChoiceFunction(tuple(self.scf.lotteries[j] for j in order))
        payoffs = tuple(
            replace(p, u=tuple(p.u[j] for j in order)) for p in self.payoffs
        )
        return ScenarioModel(ss, self.outcome_space, scf, payoffs)

    @property
    def generic(self) -> bool:
        return is_generic(self.prior)[0]


def make_scenario(
    states: list[tuple[str, Number | str]],
    outcomes: list[str],
    scf_rows: dict[str, dict[str, Number | str]],
    costs: tuple[Number | str, Number | str] = (1, 1),
    u_tables: tuple[dict, dict] | None = None,
) -> ScenarioModel:
    """Convenience constructor from label-keyed tables (exact mode).

    ``scf_rows`` maps state label -> {outcome label: weight}; ``u_tables``
    maps (state label, outcome label) -> value, defaulting to zero.
    The result is canonically reordered.
    """
    labels = [s for s, _ in states]
    ss = StateSpace(tuple(labels), tuple(rat(p) for _, p in states))
    os_ = OutcomeSpace(tuple(outcomes))
    lots = []
    for s in labels:
        row = scf_rows[s]
        w = [rat(row.get(o, 0)) for o in outcomes]
        lots.append(Lottery(tuple(w)))
    scf = SocialChoiceFunction(tuple(lots))
    payoffs = []
    for i in range(2):
        table = (u_tables[i] if u_tables else {}) or {}
        u = tuple(
            tuple(rat(table.get((s, o), 0)) for o in outcomes) for s in labels
        )
        payoffs.append(AgentPayoff(u, rat(costs[i])))
    return ScenarioModel(ss, os_, scf, tuple(payoffs)).canonicalize()


def binary_trial_scenario(q_guilty: Number | str = "3/10", cost: Number | str = 1) -> ScenarioModel:
    """The two-state acquit/convict scenario used as the leading instance."""
    q = rat(q_guilty)
    return make_scenario(
        states=[("innocent", 1 - q), ("guilty", q)],
        outcomes=["acquit", "convict"],
        scf_rows={"innocent": {"acquit": 1}, "guilty": {"convict": 1}},
        costs=(cost, cost),
    )


def three_state_scenario(cost: Number | str = 1) -> ScenarioModel:
    """Canonical three-state instance with a generic prior."""
    return make_scenario(
        states=[("alpha", rat("3/5")), ("beta", rat("1/4")), ("gamma", rat("3/20"))],
        outcomes=["left", "middle", "right"],
        scf_rows={
            "alpha": {"left": 1},
            "beta": {"middle": 1},
            "gamma": {"right": 1},
        },
        costs=(cost, cost),
    )


def four_state_scenario(cost: Number | str = 1) -> ScenarioModel:
    """Canonical four-state instance with a generic prior."""
    return make_scenario(
        states=[
            ("s1", rat("2/5")),
            ("s2", rat("3/10")),
            ("s3", rat("1/5")),
            ("s4", rat("1/10")),
        ],
        outcomes=["a", "b", "c", "d"],
        scf_rows={"s1": {"a": 1}, "s2": {"b": 1}, "s3": {"c": 1}, "s4": {"d": 1}},
        costs=(cost, cost),
    )
