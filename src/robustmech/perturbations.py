"""Finite perturbed environments: circumstance ladders, information
partitions, perturbed payoffs and costs, and their size measures.

A countable circumstance space is truncated to ``T + 1`` elements with the
geometric tail mass collapsed onto the last circumstance, which always
carries normal payoffs.  Every perturbation records its truncation tail
mass so callers can report it next to their results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .core import AgentPayoff, ModelError, ScenarioModel
from .numeric import Number, rat


@dataclass(frozen=True)
class BiasSpec:
    """Payoff/cost override for one agent at one circumstance.

    ``u_overrides`` maps (state index, outcome index) -> value and is
    applied on top of the agent's unperturbed table; ``cost`` replaces the
    unperturbed learning cost when given.
    """

    agent: int
    circumstance: int
    u_overrides: dict[tuple[int, int], Number] = field(default_factory=dict)
    cost: Number | None = None

    def __post_init__(self):
        if self.cost is not None and self.cost < 0:
            raise ModelError("learning cost must be non-negative")


def _exact_sum(values) -> Fraction:
    """Exact sum of rationals on one running common denominator, reduced
    once at the end.  Ladder denominators divide one another, so each
    step's gcd is cheap, where ``sum`` would reduce a fraction of growing
    size at every step."""
    num, den = 0, 1
    for v in values:
        g = gcd(den, v.denominator)
        num, den = num * (v.denominator // g) + v.numerator * (den // g), den // g * v.denominator
    return Fraction(num, den)


def _conditional_groups(weights, opp_type_index, classes):
    """A type's ``(circ, weight)`` pairs grouped by the opponent type they
    induce, same-class circumstances merged into their first one."""
    by_opp: dict[int, dict] = {}
    for w, weight in weights:
        cells = by_opp.setdefault(opp_type_index[w], {})
        first = cells.get(classes[w])
        cells[classes[w]] = (w, weight) if first is None else (first[0], first[1] + weight)
    return tuple((opp, tuple(cells.values())) for opp, cells in by_opp.items())


def ladder_partition(size: int, offset: int) -> tuple[tuple[int, ...], ...]:
    """Pairing partition of circumstances 0..size-1.

    ``offset=0`` gives {w0},{w1,w2},... and ``offset=1`` gives
    {w0,w1},{w2,w3},...; a leftover element becomes a singleton.
    """
    blocks = []
    start = 0
    if offset == 0:
        blocks.append((0,))
        start = 1
    while start < size:
        blocks.append(tuple(range(start, min(start + 2, size))))
        start += 2
    return tuple(blocks)


@dataclass(frozen=True)
class Perturbation:
    """Circumstance ladder with partitions and perturbed payoffs.

    Masses are recorded twice: exactly, as ``pi``, and as a common ratio
    ``ratio`` with per-circumstance coefficients ``coef`` such that
    ``pi[w] = K * coef[w] * ratio**w`` for one constant ``K > 0``.  A
    geometric ladder has ratio ``1 - eta``, so its coefficients are the
    same small number on every rung; any other distribution is ratio 1
    with ``coef = pi`` (the default).  Ratios of masses are read from the
    second form, whose operands stay small at any ladder depth, where
    ladder masses themselves carry denominators that grow with it.

    Construction compiles the partitions into per-agent tables so that
    evaluators never rescan them:

    * a circumstance -> type table and a type -> mass table, which make
      ``type_of`` and ``type_prob`` lookups;
    * payoff classes: a circumstance's class for an agent is ``None``
      ("normal") or the index of the ``BiasSpec`` that applies to that
      agent there, so every circumstance of a class has the same payoffs
      and cost;
    * per type, the conditional weights ``pi[w] / P(type)`` of its
      positive-mass circumstances, grouped by the opponent type they
      induce, with same-class circumstances merged by summing their
      weights (``type_groups``).

    A type's weights and mass come from its circumstances' masses relative
    to its first positive-mass circumstance ``a``, ``coef[w] / coef[a] *
    ratio**(w - a)``, memoized per block shape, so the interior rungs of a
    ladder share one computation.  ``masses_by`` sums masses over runs of
    circumstances in closed form.  Evaluators key their caches by payoff
    class, so their size does not grow with the ladder depth either.
    """

    scenario: ScenarioModel
    pi: tuple[Number, ...]
    partitions: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]
    biases: tuple[BiasSpec, ...] = ()
    tail_mass: Number = Fraction(0)
    ratio: Number = Fraction(1)
    coef: tuple[Number, ...] | None = None

    def __post_init__(self):
        if _exact_sum(self.pi) != 1:
            raise ModelError("circumstance distribution must sum to one")
        if any(p < 0 for p in self.pi):
            raise ModelError("circumstance probabilities must be nonnegative")
        coef = tuple(map(rat, self.pi if self.coef is None else self.coef))
        if len(coef) != len(self.pi) or not self.ratio > 0 or any(
            bool(c) != bool(p) for c, p in zip(coef, self.pi)
        ):
            raise ModelError("mass coefficients must match the circumstances")
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "ratio", rat(self.ratio))
        for part in self.partitions:
            seen = sorted(w for block in part for w in block)
            if seen != list(range(len(self.pi))):
                raise ModelError("partition must cover circumstances exactly once")
        for b in self.biases:
            if not 0 <= b.circumstance < len(self.pi):
                raise ModelError("bias refers to a missing circumstance")
        bias_index = {(b.agent, b.circumstance): i for i, b in enumerate(self.biases)}
        type_index = []
        for part in self.partitions:
            index = [0] * len(self.pi)
            for t, block in enumerate(part):
                for w in block:
                    index[w] = t
            type_index.append(tuple(index))
        shapes: dict[tuple, tuple] = {}
        relative = tuple(
            tuple(self._relative_masses(block, shapes) for block in part)
            for part in self.partitions
        )
        type_mass = tuple(
            tuple(self.pi[anchor] * total for anchor, total, _ in part) for part in relative
        )
        classes = tuple(
            tuple(bias_index.get((agent, w)) for w in range(len(self.pi)))
            for agent in (0, 1)
        )
        groups = tuple(
            tuple(
                _conditional_groups(weights, type_index[1 - agent], classes[agent])
                for _, _, weights in relative[agent]
            )
            for agent in (0, 1)
        )
        object.__setattr__(self, "_bias_map", {
            (b.agent, b.circumstance): b for b in self.biases
        })
        object.__setattr__(self, "_type_index", tuple(type_index))
        object.__setattr__(self, "_type_mass", type_mass)
        object.__setattr__(self, "_classes", classes)
        object.__setattr__(self, "_groups", groups)

    def _relative_masses(self, block, shapes):
        """``(anchor, total, ((w, weight), ...))`` for one partition block:
        its first positive-mass circumstance, its mass relative to the
        anchor's, and the conditional weight of each positive-mass
        circumstance.  Blocks of one shape (coefficients and offsets from
        the anchor) share one entry of ``shapes``."""
        members = [w for w in block if self.coef[w]]
        if not members:
            return block[0], Fraction(0), ()
        anchor = members[0]
        shape = tuple((self.coef[w], w - anchor) for w in members)
        hit = shapes.get(shape)
        if hit is None:
            rel = [c / self.coef[anchor] * self.ratio ** k for c, k in shape]
            total = sum(rel)
            hit = shapes[shape] = (total, tuple(x / total for x in rel))
        total, weights = hit
        return anchor, total, tuple(zip(members, weights))

    def masses_by(self, labels) -> dict:
        """``{label: mass}``: the total mass of the circumstances carrying
        each label, for ``labels[w]`` a hashable per circumstance.

        Walks maximal runs of circumstances with one label and one
        coefficient.  The masses of such a run are geometric, so its total
        is ``pi[lo] * (1 - ratio**len) / (1 - ratio)``, or ``pi[lo] * len``
        at ratio 1.  Labels met only at zero mass are left out."""
        out: dict = {}
        coef, size, lo = self.coef, len(self.pi), 0
        for w in range(1, size + 1):
            if w < size and labels[w] == labels[lo] and coef[w] == coef[lo]:
                continue
            if coef[lo]:
                length, label = w - lo, labels[lo]
                run = length if self.ratio == 1 else (1 - self.ratio**length) / (1 - self.ratio)
                mass = self.pi[lo] * run
                out[label] = out[label] + mass if label in out else mass
            lo = w
        return out

    @property
    def size(self) -> int:
        return len(self.pi)

    def type_of(self, agent: int, circ: int) -> int:
        if not 0 <= circ < len(self.pi):
            raise ModelError(f"circumstance {circ} not in agent {agent} partition")
        return self._type_index[agent][circ]

    def type_prob(self, agent: int, type_index: int) -> Number:
        return self._type_mass[agent][type_index]

    def payoff_class(self, agent: int, circ: int) -> int | None:
        """``None`` where the agent has normal payoffs, else the index of
        the bias that applies to the agent at ``circ``."""
        return self._classes[agent][circ]

    def type_groups(self, agent: int, type_index: int):
        """``((opp_type, ((circ, weight), ...)), ...)``: the type's
        positive-mass circumstances grouped by the opponent type they
        induce, one representative circumstance per payoff class, with the
        class's summed conditional weight ``pi[w] / P(type)``."""
        return self._groups[agent][type_index]

    def cost(self, agent: int, circ: int) -> Number:
        bias = self._bias_map.get((agent, circ))
        if bias is not None and bias.cost is not None:
            return bias.cost
        return self.scenario.payoffs[agent].cost

    def utility(self, agent: int, circ: int, state: int, outcome: int) -> Number:
        bias = self._bias_map.get((agent, circ))
        if bias is not None and (state, outcome) in bias.u_overrides:
            return bias.u_overrides[(state, outcome)]
        return self.scenario.payoffs[agent].u[state][outcome]

    def is_biased_at(self, agent: int, circ: int) -> bool:
        bias = self._bias_map.get((agent, circ))
        if bias is None:
            return False
        base = self.scenario.payoffs[agent]
        if bias.cost is not None and bias.cost != base.cost:
            return True
        return any(
            value != base.u[s][o] for (s, o), value in bias.u_overrides.items()
        )

    def type_is_normal(self, agent: int, type_index: int) -> bool:
        """A type is normal iff payoffs and cost match the unperturbed model
        on every circumstance of its partition element."""
        return not any(
            self.is_biased_at(agent, w) for w in self.partitions[agent][type_index]
        )


def unperturbed(scenario: ScenarioModel) -> Perturbation:
    """Single-circumstance perturbation equal to the unperturbed model."""
    one = (Fraction(1),)
    return Perturbation(scenario, one, (((0,),), ((0,),)))


def build_ladder(
    scenario: ScenarioModel,
    depth: int,
    eta: Number | str,
    biases: list[BiasSpec] | None = None,
    tail: str = "collapse",
) -> Perturbation:
    """Geometric circumstance ladder truncated at ``depth``.

    Circumstance ``w_t`` has probability ``eta * (1 - eta)^t`` for
    ``t < depth``.  With ``tail="collapse"`` the residual mass
    ``(1 - eta)^depth`` sits on the last circumstance, so the mass of
    ``w_0`` is exactly ``eta``; with ``tail="renormalize"`` the geometric
    weights extend through the last circumstance and are rescaled to sum
    to one, which preserves the 1/(2-eta) posterior at every rung of the
    ladder, including the top one.  Contagion arguments need the second
    form: collapsing the tail inverts the last type's posterior and lets
    the boundary types keep a self-sustaining coordination pair.  The last
    circumstance keeps normal payoffs either way.  Agent 1's partition is
    {w0},{w1,w2},...; agent 2's is {w0,w1},{w2,w3},...

    Masses are built by the recurrence ``pi[t] = pi[t-1] * (1 - eta)``
    from ``pi[0] = eta`` (collapse) or ``eta / (1 - (1 - eta)^(depth+1))``
    (renormalize; the truncated tail mass is ``(1 - eta)^(depth+1)``).
    The perturbation records ratio ``1 - eta`` with coefficient ``eta`` on
    every geometric rung and 1 on a collapsed tail.
    """
    eta = rat(eta)
    if not 0 < eta < 1:
        raise ModelError("eta must lie strictly between 0 and 1")
    if depth < 2:
        raise ModelError("ladder depth must be at least 2")
    ratio = 1 - eta
    if tail == "collapse":
        tail_mass = ratio**depth
        pi, last = _geometric(eta, ratio, depth) + [tail_mass], Fraction(1)
    elif tail == "renormalize":
        tail_mass = ratio ** (depth + 1)
        pi, last = _geometric(eta / (1 - tail_mass), ratio, depth + 1), eta
    else:
        raise ModelError(f"unknown tail convention {tail!r}")
    return Perturbation(
        scenario,
        tuple(pi),
        (ladder_partition(depth + 1, 0), ladder_partition(depth + 1, 1)),
        tuple(biases or ()),
        tail_mass=tail_mass,
        ratio=ratio,
        coef=(eta,) * depth + (last,),
    )


def _geometric(first: Fraction, ratio: Fraction, count: int) -> list[Fraction]:
    """``first * ratio**t`` for ``t < count``, each from the one before."""
    out = [first]
    for _ in range(count - 1):
        out.append(out[-1] * ratio)
    return out


def build_general_ladder(
    scenario: ScenarioModel,
    pi: tuple[Number, ...],
    biases: list[BiasSpec] | None = None,
) -> Perturbation:
    """Ladder partition structure with an arbitrary finite distribution."""
    pi = tuple(rat(p) for p in pi)
    return Perturbation(
        scenario,
        pi,
        (ladder_partition(len(pi), 0), ladder_partition(len(pi), 1)),
        tuple(biases or ()),
    )


def simple_bias_ladder(
    scenario: ScenarioModel,
    depth: int,
    eta: Number | str,
    biased_agent: int,
    u_overrides: dict[tuple[int, int], Number],
    biased_cost: Number | None = None,
    tail: str = "collapse",
) -> Perturbation:
    """Ladder with a single biased circumstance ``w0`` for one agent."""
    bias = BiasSpec(biased_agent, 0, dict(u_overrides), biased_cost)
    return build_ladder(scenario, depth, eta, [bias], tail=tail)


def eta_of(perturbation: Perturbation) -> Number:
    """One minus the probability that both agents are normal types."""
    normal = [
        {
            idx
            for idx in range(len(perturbation.partitions[agent]))
            if perturbation.type_is_normal(agent, idx)
        }
        for agent in (0, 1)
    ]
    both_normal = [
        perturbation.type_of(0, w) in normal[0] and perturbation.type_of(1, w) in normal[1]
        for w in range(perturbation.size)
    ]
    return 1 - perturbation.masses_by(both_normal).get(True, 0)


def is_c_bounded(perturbation: Perturbation, c_bar: Number) -> bool:
    """True iff every perturbed learning cost is at most ``c_bar``."""
    return all(
        perturbation.cost(agent, w) <= c_bar
        for agent in (0, 1)
        for w in range(perturbation.size)
    )


def posterior(perturbation: Perturbation, agent: int, type_index: int) -> dict[int, Number]:
    """Bayes posterior over the opponent's types given one's own type."""
    element = perturbation.partitions[agent][type_index]
    total = perturbation.type_prob(agent, type_index)
    if total == 0:
        raise ModelError("posterior of a zero-probability type")
    other = 1 - agent
    out: dict[int, Number] = {}
    for w in element:
        opp = perturbation.type_of(other, w)
        out[opp] = out.get(opp, 0) + perturbation.pi[w] / total
    return out
