"""Finite perturbed environments: circumstance ladders, information
partitions, perturbed payoffs and costs, and their size measures.

A countable circumstance space is truncated to ``T + 1`` elements whose
last one always carries normal payoffs; every perturbation records its
truncation tail mass so callers can report it next to their results.
Masses are recorded once, as ``scale * coef[w] * ratio**w``, whose parts
stay small on a ladder of any depth; exact masses are computed only when a
caller asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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

    Masses are recorded once, as ``pi[w] = scale * coef[w] * ratio**w``.  A
    geometric ladder has ratio ``1 - eta``, so its coefficients are the
    same small number on every rung, and a renormalized ladder puts its
    renormalizing factor in ``scale``; any other distribution is its masses
    as ``coef`` at ratio 1 and scale 1 (the defaults).  Exact masses, whose
    denominators grow with the ladder depth, are computed only where a
    caller asks: ``pi``, ``type_prob`` and ``masses_by``.

    Construction compiles the partitions into per-agent tables so that
    evaluators never rescan them:

    * a circumstance -> type table, which makes ``type_of`` a lookup;
    * payoff classes: a circumstance's class for an agent is ``None``
      ("normal") or the index of the one ``BiasSpec`` that applies to that
      agent there, so every circumstance of a class has the same payoffs
      and cost;
    * per type, the conditional weights ``pi[w] / P(type)`` of its
      positive-mass circumstances, grouped by the opponent type they
      induce, with same-class circumstances merged by summing their
      weights (``type_groups``).  A type has zero mass exactly when it has
      no group.

    A type's weights come from its circumstances' masses relative to its
    first positive-mass circumstance ``a``, ``coef[w] / coef[a] *
    ratio**(w - a)``, memoized per block shape, so the interior rungs of a
    ladder share one computation and no table holds a number that grows
    with the depth.  Evaluators key their caches by payoff class, so their
    size does not grow with the ladder depth either.
    """

    scenario: ScenarioModel
    coef: tuple[Number, ...]
    partitions: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]
    biases: tuple[BiasSpec, ...] = ()
    tail_mass: Number = Fraction(0)
    ratio: Number = Fraction(1)
    scale: Number = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "coef", tuple(map(rat, self.coef)))
        object.__setattr__(self, "ratio", rat(self.ratio))
        object.__setattr__(self, "scale", rat(self.scale))
        size = len(self.coef)
        if not (self.ratio > 0 and self.scale > 0):
            raise ModelError("mass ratio and scale must be positive")
        if sum(self.masses_by((None,) * size).values()) != 1:
            raise ModelError("circumstance distribution must sum to one")
        if any(c < 0 for c in self.coef):
            raise ModelError("circumstance probabilities must be nonnegative")
        for part in self.partitions:
            seen = sorted(w for block in part for w in block)
            if seen != list(range(size)):
                raise ModelError("partition must cover circumstances exactly once")
        bias_index: dict[tuple[int, int], int] = {}
        for i, b in enumerate(self.biases):
            if not 0 <= b.circumstance < size:
                raise ModelError("bias refers to a missing circumstance")
            if bias_index.setdefault((b.agent, b.circumstance), i) != i:
                raise ModelError(
                    f"two biases apply to agent {b.agent} at circumstance {b.circumstance}"
                )
        type_index = []
        for part in self.partitions:
            index = [0] * size
            for t, block in enumerate(part):
                for w in block:
                    index[w] = t
            type_index.append(tuple(index))
        shapes: dict[tuple, tuple] = {}
        relative = tuple(
            tuple(self._relative_masses(block, shapes) for block in part)
            for part in self.partitions
        )
        classes = tuple(
            tuple(bias_index.get((agent, w)) for w in range(size)) for agent in (0, 1)
        )
        groups = tuple(
            tuple(
                _conditional_groups(weights, type_index[1 - agent], classes[agent])
                for _, _, weights in relative[agent]
            )
            for agent in (0, 1)
        )
        object.__setattr__(self, "_type_index", tuple(type_index))
        object.__setattr__(self, "_anchors", tuple(
            tuple((anchor, total) for anchor, total, _ in part) for part in relative
        ))
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
        coefficient, carrying ``scale * ratio**lo`` from one run to the
        next.  The masses of a run are geometric, so its total is
        ``pi[lo] * (1 - ratio**len) / (1 - ratio)``, or ``pi[lo] * len`` at
        ratio 1.  Labels met only at zero mass are left out."""
        out: dict = {}
        coef, ratio, size = self.coef, self.ratio, len(self.coef)
        lo, step = 0, self.scale
        for w in range(1, size + 1):
            if w < size and labels[w] == labels[lo] and coef[w] == coef[lo]:
                continue
            length, label = w - lo, labels[lo]
            power = ratio**length
            if coef[lo]:
                run = length if ratio == 1 else (1 - power) / (1 - ratio)
                mass = step * coef[lo] * run
                out[label] = out[label] + mass if label in out else mass
            lo, step = w, step * power
        return out

    @property
    def pi(self) -> tuple[Fraction, ...]:
        """Every circumstance's mass, computed on each access."""
        out, step = [], self.scale
        for c in self.coef:
            out.append(step * c)
            step *= self.ratio
        return tuple(out)

    @property
    def size(self) -> int:
        return len(self.coef)

    def type_of(self, agent: int, circ: int) -> int:
        if not 0 <= circ < len(self.coef):
            raise ModelError(f"circumstance {circ} not in agent {agent} partition")
        return self._type_index[agent][circ]

    def type_prob(self, agent: int, type_index: int) -> Fraction:
        """The type's mass: its anchor's mass times its relative total."""
        anchor, total = self._anchors[agent][type_index]
        return self.scale * self.coef[anchor] * self.ratio**anchor * total

    def payoff_class(self, agent: int, circ: int) -> int | None:
        """``None`` where the agent has normal payoffs, else the index of
        the bias that applies to the agent at ``circ``."""
        return self._classes[agent][circ]

    def type_groups(self, agent: int, type_index: int):
        """``((opp_type, ((circ, weight), ...)), ...)``: the type's
        positive-mass circumstances grouped by the opponent type they
        induce, one representative circumstance per payoff class, with the
        class's summed conditional weight ``pi[w] / P(type)``; empty for a
        zero-mass type."""
        return self._groups[agent][type_index]

    def _bias(self, agent: int, circ: int) -> BiasSpec | None:
        cls = self._classes[agent][circ]
        return None if cls is None else self.biases[cls]

    def cost(self, agent: int, circ: int) -> Number:
        bias = self._bias(agent, circ)
        if bias is not None and bias.cost is not None:
            return bias.cost
        return self.scenario.payoffs[agent].cost

    def utility(self, agent: int, circ: int, state: int, outcome: int) -> Number:
        bias = self._bias(agent, circ)
        if bias is not None and (state, outcome) in bias.u_overrides:
            return bias.u_overrides[(state, outcome)]
        return self.scenario.payoffs[agent].u[state][outcome]

    def is_biased_at(self, agent: int, circ: int) -> bool:
        bias = self._bias(agent, circ)
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

    The perturbation records ratio ``1 - eta`` and coefficient ``eta`` on
    every geometric rung.  A collapsed tail has coefficient 1 and scale 1;
    a renormalized ladder has coefficient ``eta`` on its last rung too and
    scale ``1 / (1 - tail_mass)``, its truncated tail mass being
    ``(1 - eta)^(depth+1)``.
    """
    eta = rat(eta)
    if not 0 < eta < 1:
        raise ModelError("eta must lie strictly between 0 and 1")
    if depth < 2:
        raise ModelError("ladder depth must be at least 2")
    ratio = 1 - eta
    if tail == "collapse":
        tail_mass, coef, scale = ratio**depth, (eta,) * depth + (Fraction(1),), Fraction(1)
    elif tail == "renormalize":
        tail_mass = ratio ** (depth + 1)
        coef, scale = (eta,) * (depth + 1), 1 / (1 - tail_mass)
    else:
        raise ModelError(f"unknown tail convention {tail!r}")
    return Perturbation(
        scenario,
        coef,
        (ladder_partition(depth + 1, 0), ladder_partition(depth + 1, 1)),
        tuple(biases or ()),
        tail_mass=tail_mass,
        ratio=ratio,
        scale=scale,
    )


def build_general_ladder(
    scenario: ScenarioModel,
    pi: tuple[Number, ...],
    biases: list[BiasSpec] | None = None,
) -> Perturbation:
    """Ladder partition structure with an arbitrary finite distribution."""
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
    """Bayes posterior over the opponent's types given one's own type: the
    summed conditional weights of ``type_groups``.  Every opponent type the
    partition element meets is a key, in order of first meeting, with
    ``Fraction(0)`` where it is met only at zero-mass circumstances."""
    groups = perturbation.type_groups(agent, type_index)
    if not groups:
        raise ModelError("posterior of a zero-probability type")
    element = perturbation.partitions[agent][type_index]
    out = dict.fromkeys((perturbation.type_of(1 - agent, w) for w in element), Fraction(0))
    for opp, cells in groups:
        out[opp] = sum(weight for _, weight in cells)
    return out
