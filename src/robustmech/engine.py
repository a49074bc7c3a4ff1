"""Strategies and payoff computation for the induced incomplete-information
game.

A pure strategy is a tuple of messages indexed by the agent's signal; a
game given no signal structure plays ``revealing_signals``, whose signal
is the state.  Payoffs, outcome lotteries and a structure's size read
its joint from one agent's side, ``SignalStructure.seen_by``.  A
non-constant tuple implies paying the (circumstance-dependent) learning
cost.  Type strategies are finite-support mixtures stored as
``{pure_tuple: weight}`` dicts, and a profile is a pair of
``{type_index: TypeStrategy}`` maps.  Wherever a play is read, it may
also be given as its small-int id in the game (``Game.play_id``).

All computations are pure functions of immutable inputs; the ``Game``
wrapper only memoizes derived tables: payoffs and per-coordinate payoff
rows by payoff class, which ``Game.with_perturbation`` shares between the
games of one scenario and biases, per-type payoff tables by type kind
and opponent play ids, whose best responses are memoized on the table,
and dominance checks by type kind and pool ids.

Trembles enter once, when a game first reads its payoffs or outcome
lotteries: ``TrembleSpec.apply`` folds the realized messages into a
mechanism whose lottery and transfers at each intended pair are their
expectations, and every payoff and outcome lottery of the game reads
that played mechanism (``Game.played``).

A ``StrategySet`` holds per coordinate the messages a strategy may send
there, ascending; its members are their product, in canonical order.

Payoffs separate across the coordinates of an own strategy: a pure
strategy's payoff is a sum of one-coordinate terms, less the learning
cost when the strategy is not constant (``PayoffTable``).
``Game.coordinate_row`` holds those terms at one circumstance against
one opponent pure strategy, and ``Game.payoff_table`` their weighted
sum for one type against the opponent side of a profile.  A table
stores its entries and cost as integer numerators over one positive
denominator.  A game puts each payoff class's state values and cost, and
each agent's signal probabilities, over one denominator once, so a row
is summed on integers, a type's table is summed from rows on integers,
and a table's reads (value, best response, near-best members, deficits)
compare and sum integers and build one exact ``Fraction`` at their
output.  The outcome side works the same way: ``lottery_nums`` sums
every state's outcome lottery on integers from the groups of one walk
of the circumstances (``play_groups``), ``outcome_distribution`` reads
every state's lottery from one such walk and ``implementation_metrics``
both implementation metrics, and ``TrembleSpec.apply`` folds the
realized pairs on integers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .core import Lottery, ModelError, ScenarioModel
from .mechanisms import Mechanism
from .numeric import ONE, Number, rat, weights_key
from .perturbations import Perturbation, unperturbed

PureStrategy = tuple[int, ...]
TypeStrategy = dict[PureStrategy, Number]
StrategyProfile = list[dict[int, TypeStrategy]]
StrategySet = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class TrembleSpec:
    """Intended messages go through w.p. ``1 - tau``; otherwise the realized
    message is drawn from the agent's noise distribution."""

    tau: Number
    noise: tuple[dict[int, Number], dict[int, Number]]

    def __post_init__(self):
        if not 0 <= self.tau < 1:
            raise ModelError("tremble probability must lie in [0, 1)")
        for dist in self.noise:
            if any(p < 0 for p in dist.values()) or sum(dist.values()) != 1:
                raise ModelError("tremble noise must be a distribution")

    @staticmethod
    def point(tau: Number, messages, target: tuple[int, int]) -> "TrembleSpec":
        for i in range(2):
            if target[i] not in messages[i]:
                raise ModelError(
                    f"tremble target {target[i]} of agent {i + 1} is not one of its "
                    f"messages {messages[i]}"
                )
        noise = tuple(
            {m: Fraction(1) if m == target[i] else Fraction(0) for m in messages[i]}
            for i in range(2)
        )
        return TrembleSpec(rat(tau), noise)

    def realized(self, agent: int, intended: int) -> list[tuple[int, Number]]:
        """The agent's realized messages and their probabilities when it
        intends ``intended``."""
        dist: dict[int, Number] = {intended: 1 - self.tau}
        for m, p in self.noise[agent].items():
            if p:
                dist[m] = dist.get(m, Fraction(0)) + self.tau * p
        return list(dist.items())

    def apply(self, mechanism: Mechanism) -> Mechanism:
        """The mechanism as the intended pairs play it: at each intended
        pair, the expected lottery and transfers over the realized pairs.

        Summed on integers: every pair's lottery weights and transfers go
        over one denominator, each agent's realized probabilities over
        another, and each intended pair's lottery and transfers are built
        once, one ``Fraction`` per entry."""
        entries = {m: (*g.weights, *mechanism.transfer[m]) for m, g in mechanism.outcome.items()}
        den = math.lcm(*(x.denominator for row in entries.values() for x in row))
        nums = {m: [(y, x.numerator * (den // x.denominator)) for y, x in enumerate(row) if x]
                for m, row in entries.items()}
        realized = []
        for i in (0, 1):
            rows = {m: self.realized(i, m) for m in mechanism.messages[i]}
            r_den = math.lcm(*(p.denominator for row in rows.values() for _, p in row))
            realized.append([(m, [(a, p.numerator * (r_den // p.denominator)) for a, p in row])
                             for m, row in rows.items()])
            den *= r_den
        outcome, transfer = {}, {}
        for m1, row1 in realized[0]:
            for m2, row2 in realized[1]:
                acc = [0] * len(entries[(m1, m2)])
                for a, p in row1:
                    for b, q in row2:
                        w = p * q
                        for y, x in nums[(a, b)]:
                            acc[y] += w * x
                *weights, t1, t2 = (Fraction(x, den) for x in acc)
                outcome[(m1, m2)] = Lottery(tuple(weights))
                transfer[(m1, m2)] = (t1, t2)
        return replace(mechanism, outcome=outcome, transfer=transfer)


@dataclass(frozen=True)
class SignalStructure:
    """Joint distribution of the state and both agents' private signals,
    with per-agent meaning maps into state indices (1-based)."""

    sizes: tuple[int, int]
    joint: dict[tuple[int, int, int], Number]  # (state, s1, s2) -> prob, 0-based
    meanings: tuple[tuple[int, ...], tuple[int, ...]]  # h_i, 1-based state index

    def __post_init__(self):
        for key, p in self.joint.items():
            if p < 0:
                raise ModelError(f"signal joint probability of {key} is negative: {p}")
            for agent in (0, 1):
                if not 0 <= key[1 + agent] < self.sizes[agent]:
                    raise ModelError(
                        f"signal {key[1 + agent]} of agent {agent + 1} at {key} lies outside "
                        f"0..{self.sizes[agent] - 1}"
                    )
        if sum(self.joint.values()) != 1:
            raise ModelError("signal joint distribution must sum to one")
        for i in (0, 1):
            if len(self.meanings[i]) != self.sizes[i]:
                raise ModelError("meaning map must cover every signal")

    def theta_marginal(self, n: int) -> tuple[Number, ...]:
        out = [Fraction(0)] * n
        for (theta, _, _), p in self.joint.items():
            out[theta] += p
        return tuple(out)

    def seen_by(self, agent: int) -> list[tuple[int, int, int, Number]]:
        """``(state, own signal, opponent signal, p)`` for every point of
        the joint of positive probability, from the agent's side."""
        return [
            (theta, s1, s2, p) if agent == 0 else (theta, s2, s1, p)
            for (theta, s1, s2), p in self.joint.items()
            if p
        ]


def revealing_signals(scenario: ScenarioModel) -> SignalStructure:
    """Each agent's signal equals the state; size zero."""
    n = scenario.n
    joint = {(j, j, j): scenario.prior[j] for j in range(n)}
    h = tuple(range(1, n + 1))
    return SignalStructure((n, n), joint, (h, h))


def mislabel_signals(scenario: ScenarioModel, delta: Number) -> SignalStructure:
    """Both agents always see the same signal, whose meaning differs from
    the state (cyclic shift) with probability ``delta``; size is exactly
    ``delta``."""
    delta = rat(delta)
    n = scenario.n
    joint: dict[tuple[int, int, int], Number] = {}
    for j in range(n):
        joint[(j, j, j)] = joint.get((j, j, j), Fraction(0)) + scenario.prior[j] * (1 - delta)
        k = (j + 1) % n
        joint[(j, k, k)] = joint.get((j, k, k), Fraction(0)) + scenario.prior[j] * delta
    h = tuple(range(1, n + 1))
    return SignalStructure((n, n), joint, (h, h))


def size_of_signal_structure(
    structure: SignalStructure, prior: tuple[Number, ...]
) -> Number:
    """Smallest ``tau`` satisfying both agreement conditions, after checking
    that the state marginal matches the prior."""
    n = len(prior)
    marginal = structure.theta_marginal(n)
    if any(marginal[j] != prior[j] for j in range(n)):
        raise ModelError("signal structure marginal on states differs from the prior")
    tau = Fraction(0)
    for agent in (0, 1):
        h_own = structure.meanings[agent]
        h_opp = structure.meanings[1 - agent]
        total = [Fraction(0)] * structure.sizes[agent]
        agree = [Fraction(0)] * structure.sizes[agent]
        matched = Fraction(0)
        for theta, own, opp, p in structure.seen_by(agent):
            total[own] += p
            if h_opp[opp] == h_own[own]:
                agree[own] += p
            if h_own[own] == theta + 1:
                matched += p
        for mass, same in zip(total, agree):
            if mass:
                tau = max(tau, 1 - same / mass)
        tau = max(tau, 1 - matched)
    return tau


def is_constant(strategy: PureStrategy) -> bool:
    return len(set(strategy)) <= 1


@dataclass
class Game:
    """A mechanism played under a perturbation, with optional signal noise
    and trembles.  Derived tables are memoized; inputs stay immutable.
    ``played`` is the mechanism the game plays, built on first read:
    ``tremble.apply(mechanism)`` under a tremble of positive probability,
    the mechanism itself otherwise.  A game given no signals plays
    ``revealing_signals``."""

    scenario: ScenarioModel
    mechanism: Mechanism
    perturbation: Perturbation | None = None
    signals: SignalStructure | None = None
    tremble: TrembleSpec | None = None
    _inner_cache: dict = field(default_factory=dict, repr=False)
    _row_cache: dict = field(default_factory=dict, repr=False)
    _table_cache: dict = field(default_factory=dict, repr=False)
    _u_cache: dict = field(default_factory=dict, repr=False)
    _dom_cache: dict = field(default_factory=dict, repr=False)
    _pool_ids: dict = field(default_factory=dict, repr=False)
    _pools: list = field(default_factory=list, repr=False)
    _play_ids: dict = field(default_factory=dict, repr=False)
    _plays: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.perturbation is None:
            self.perturbation = unperturbed(self.scenario)
        if self.perturbation.scenario is not self.scenario:
            raise ModelError("perturbation was built for a different scenario")
        n = self.scenario.n
        if self.signals is None:
            self.signals = revealing_signals(self.scenario)
        for theta, _, _ in self.signals.joint:
            if not 0 <= theta < n:
                raise ModelError(
                    f"signal structure names state index {theta}; the scenario has {n}"
                )
        for agent, meanings in enumerate(self.signals.meanings):
            for k, h in enumerate(meanings):
                if not 1 <= h <= n:
                    raise ModelError(
                        f"agent {agent + 1}'s signal {k} means state {h}, outside 1..{n}"
                    )
        if self.tremble is not None:
            for agent, dist in enumerate(self.tremble.noise):
                for m in dist:
                    if m not in self.mechanism.messages[agent]:
                        raise ModelError(
                            f"tremble noise of agent {agent + 1} names message {m}, "
                            "which the mechanism lacks"
                        )

    @functools.cached_property
    def played(self) -> Mechanism:
        if self.tremble is not None and self.tremble.tau:
            return self.tremble.apply(self.mechanism)
        return self.mechanism

    def with_perturbation(self, perturbation: Perturbation) -> "Game":
        """This game's mechanism, signals and trembles under another
        perturbation of the same scenario object with equal biases, as
        the games of one eta grid are.

        The new game shares what the mechanism, signals and tremble fix:
        ``played``, its lotteries over one denominator (``_outcomes``) and
        the points each agent sees (``_seen``).  It shares the caches keyed
        by payoff class too: state values, coordinate rows and
        ``inner_value``.  A payoff class is ``None`` or an index into the
        biases, so equal biases give every class the same payoffs and cost
        in both games.  Payoff tables, dominance checks and the play and
        pool ids their keys hold stay the new game's own, because those
        keys hold the perturbation's type kinds.
        """
        if perturbation.scenario is not self.scenario:
            raise ModelError("perturbation was built for a different scenario")
        if perturbation.biases != self.perturbation.biases:
            raise ModelError("a game shares its payoff rows only under equal biases")
        game = Game(
            self.scenario,
            self.mechanism,
            perturbation,
            self.signals,
            self.tremble,
            _inner_cache=self._inner_cache,
            _row_cache=self._row_cache,
            _u_cache=self._u_cache,
        )
        vars(game).update(played=self.played, _outcomes=self._outcomes, _seen=self._seen)
        return game

    # -- information -------------------------------------------------------

    def strategy_length(self, agent: int) -> int:
        return self.signals.sizes[agent]

    def truthful(self, agent: int) -> PureStrategy:
        """Report the meaning of the signal: the state index, when signals
        reveal it."""
        return self.signals.meanings[agent]

    # -- payoffs -----------------------------------------------------------

    @functools.cached_property
    def _seen(self) -> tuple[tuple[int, list], tuple[int, list]]:
        """Per agent, ``(den, points)``: the ``seen_by`` points, each
        probability an integer numerator over one denominator ``den``."""
        out = []
        for agent in (0, 1):
            points = self.signals.seen_by(agent)
            den = math.lcm(*(p.denominator for *_, p in points))
            out.append((den, [(theta, k, j, p.numerator * (den // p.denominator))
                              for theta, k, j, p in points]))
        return tuple(out)

    @functools.cached_property
    def _outcomes(self) -> tuple[int, dict]:
        """``(den, lotteries)``: the played mechanism's lotteries over one
        denominator, ``lotteries[(m1, m2)]`` the ``(outcome, numerator)``
        pairs of its positive weights."""
        lots = self.played.outcome
        den = math.lcm(*(w.denominator for lot in lots.values() for w in lot.weights))
        return den, {m: [(y, w.numerator * (den // w.denominator))
                         for y, w in enumerate(lot.weights) if w] for m, lot in lots.items()}

    def _state_values(self, agent: int, circ: int) -> tuple[int, int, list]:
        """``(den, cost_num, values)`` of the circumstance's payoff class:
        ``values[state][opp][own] / den`` is the state value, the expected
        transfer plus expected utility to the agent of intending ``own``
        against the opponent's ``opp`` at one state, and ``cost_num / den``
        the learning cost.  ``den`` clears the played mechanism's transfers
        to the agent, its lottery weights times the class's utilities, and
        the cost, once (the weights read ``_outcomes``).  Cached in
        ``_u_cache`` by payoff class, which fixes the table."""
        key = (agent, self.perturbation.payoff_class(agent, circ))
        hit = self._u_cache.get(key)
        if hit is not None:
            return hit
        played, pert = self.played, self.perturbation
        pairs = [(m1, m2) for m1 in played.messages[0] for m2 in played.messages[1]]
        utils = [
            [pert.utility(agent, circ, state, y) for y in range(self.scenario.outcome_space.size)]
            for state in range(self.scenario.n)
        ]
        cost = pert.cost(agent, circ)
        w_den, lotteries = self._outcomes
        u_den = math.lcm(*(u.denominator for row in utils for u in row))
        den = math.lcm(
            w_den * u_den, cost.denominator, *(played.t(agent, *m).denominator for m in pairs)
        )
        u_nums = [[u.numerator * (u_den // u.denominator) for u in row] for row in utils]
        scale = den // (w_den * u_den)
        values = [{b: {} for b in played.messages[1 - agent]} for _ in utils]
        for m1, m2 in pairs:
            t = played.t(agent, m1, m2)
            t_num = t.numerator * (den // t.denominator)
            weights = lotteries[(m1, m2)]
            own, opp = (m1, m2) if agent == 0 else (m2, m1)
            for state, row in enumerate(u_nums):
                values[state][opp][own] = t_num + scale * sum(w * row[y] for y, w in weights)
        hit = self._u_cache[key] = (den, cost.numerator * (den // cost.denominator), values)
        return hit

    def coordinate_row(self, agent: int, circ: int, opp: PureStrategy) -> "PayoffTable":
        """The agent's payoffs at ``circ`` against the opponent pure
        strategy ``opp``, by own coordinate: entry ``[k][m]`` sums ``p``
        times the state value of ``m`` (``_state_values``) over the points
        the agent sees with own signal ``k`` (``SignalStructure.seen_by``),
        and the cost is the learning cost at ``circ``.  Summed on integers:
        the row's denominator is the points' times the state values'.
        Cached by the circumstance's payoff class, which fixes the row."""
        key = (agent, self.perturbation.payoff_class(agent, circ), opp)
        hit = self._row_cache.get(key)
        if hit is not None:
            return hit
        den, cost_num, values = self._state_values(agent, circ)
        p_den, points = self._seen[agent]
        msgs = self.mechanism.messages[agent]
        cells = tuple(dict.fromkeys(msgs, 0) for _ in range(self.strategy_length(agent)))
        for theta, k, j, p in points:
            cell = cells[k]
            for m, v in values[theta][opp[j]].items():
                cell[m] += p * v
        row = self._row_cache[key] = PayoffTable(cells, cost_num * p_den, den * p_den)
        return row

    def inner_value(self, agent: int, circ: int, own: PureStrategy, opp: PureStrategy) -> Number:
        """Expected payoff at a fixed circumstance against an opponent pure
        strategy, integrating over states, signals, and trembles, read from
        the coordinate row.  Cached by the circumstance's payoff class,
        which fixes the value."""
        key = (agent, self.perturbation.payoff_class(agent, circ), own, opp)
        hit = self._inner_cache.get(key)
        if hit is not None:
            return hit
        total = self._inner_cache[key] = self.coordinate_row(agent, circ, opp).value(own)
        return total

    def play_id(self, play: TypeStrategy | int) -> int:
        """A small int given once per distinct ``weights_key`` in this game,
        so two plays share an id exactly when they are equal as dicts;
        ``_plays[id]`` holds the mixture without its zero weights.  An int
        is taken to be an id already."""
        if type(play) is int:
            return play
        key = weights_key(play)
        i = self._play_ids.get(key)
        if i is None:
            i = self._play_ids[key] = len(self._plays)
            self._plays.append({s: w for s, w in play.items() if w})
        return i

    def play_ids(self, profile: StrategyProfile | list[list[int]]) -> list[list[int]]:
        """Every type's ``play_id``, per agent, read once per profile; a
        side given as a list of ids is copied."""
        return [list(side) if isinstance(side, list) and set(map(type, side)) <= {int}
                else [self.play_id(side[t]) for t in range(len(part))]
                for side, part in zip(profile, self.perturbation.partitions)]

    def pool_id(self, pool) -> int:
        """A small int given once per distinct pool (a sequence of pure
        strategies) in this game; ``_pools[id]`` holds the pool's tuple."""
        key = tuple(pool)
        i = self._pool_ids.get(key)
        if i is None:
            i = self._pool_ids[key] = len(self._pools)
            self._pools.append(key)
        return i

    def payoff_table(
        self, agent: int, type_index: int, opponent: dict[int, TypeStrategy] | list[int]
    ) -> "PayoffTable":
        """The type's payoffs against the opponent side of a profile, by
        coordinate: cell weight x opponent weight x coordinate row, entries
        and cost alike, summed over the type's cells.  Memoized by the
        type's kind (the small int its template, ``Perturbation._templates``,
        gives its ``(payoff class, conditional weight)`` cells) and
        the ``play_id`` at each opponent type it meets, in ``type_groups``
        order: ints only, meaningful within this game.  The payoff class
        fixes the rows and the cost, so equal keys give equal tables: types
        with equal keys have equal payoffs for every strategy, and the
        interior rungs of a ladder cost one table per distinct rung kind
        instead of one per rung.

        The key and the sum read the type's template tables
        (``Perturbation._templates``) and add its opponent-type base and
        its anchor circumstance to their offsets, so no group is shifted.
        The sum runs on integers: the table's denominator is the least
        common multiple of every term's ``scale.denominator x row.den``,
        and each row's numerators are scaled by one integer factor.  A sum
        of one term at scale 1 (one circumstance of mass 1 against one
        pure play of weight 1) is that coordinate row, which is stored and
        returned itself."""
        pert = self.perturbation
        groups, kind, offsets = pert._templates[pert._type_template[agent][type_index]]
        if not groups:
            raise ModelError("expected payoff of a zero-probability type")
        base = pert._type_base[agent][type_index]
        ids = tuple([self.play_id(opponent[base + u]) for u in offsets])
        key = (agent, kind, ids)
        hit = self._table_cache.get(key)
        if hit is not None:
            return hit
        anchor = pert._type_anchor[agent][type_index]
        terms = []
        for cells, i in zip(groups, ids):
            for r, weight in self._plays[i].items():
                for k, mass in cells:
                    scale = mass * weight
                    row = self.coordinate_row(agent, anchor + k, r)
                    terms.append((scale.numerator, scale.denominator * row.den, row))
        if len(terms) == 1 and terms[0][0] == 1 and terms[0][1] == terms[0][2].den:
            table = self._table_cache[key] = terms[0][2]
            return table
        den = math.lcm(*(d for _, d, _ in terms))
        msgs = self.mechanism.messages[agent]
        nums = tuple(dict.fromkeys(msgs, 0) for _ in range(self.strategy_length(agent)))
        cost = 0
        for num, d, row in terms:
            factor = num * (den // d)
            cost += factor * row.cost_num
            for cell, entries in zip(nums, row.nums):
                for m, e in entries.items():
                    cell[m] += factor * e
        table = self._table_cache[key] = PayoffTable(nums, cost, den)
        return table


@functools.cache
def _constants(choices: StrategySet) -> tuple[tuple[int, PureStrategy], ...]:
    """Each message that every coordinate of ``choices`` allows, with its
    constant strategy, ascending; read once per strategy set."""
    return tuple((m, (m,) * len(choices)) for m in choices[0]
                 if all(m in ms for ms in choices[1:]))


class PayoffTable:
    """Payoffs against fixed opponent play, separated by own coordinate,
    stored exactly as integer numerators over one positive denominator
    ``den``: ``nums[k][m] / den`` is the payoff share of sending ``m`` at
    coordinate ``k``, and ``cost_num / den`` the learning cost a
    non-constant strategy pays.  A coordinate row holds one
    circumstance's against one opponent pure strategy; a type's table is
    their weighted sum.

    Every comparison and sum runs on the integers, and each read builds
    one ``Fraction`` at its output: ``value``, ``best``'s value,
    ``deficit`` and ``entries``.  A plain slotted class: a
    dataclass would cost every process about 1 ms at import."""

    __slots__ = ("nums", "cost_num", "den", "_best")

    def __init__(self, nums: tuple[dict[int, int], ...], cost_num: int, den: int):
        self.nums = nums
        self.cost_num = cost_num
        self.den = den
        self._best = {}

    def entries(self) -> tuple[dict[int, Fraction], ...]:
        """The entries as exact ``Fraction``s, ``[k][m]``, built anew on
        each call."""
        return tuple({m: Fraction(x, self.den) for m, x in cell.items()} for cell in self.nums)

    def _value_num(self, strategy: PureStrategy) -> int:
        total = sum(cell[m] for cell, m in zip(self.nums, strategy))
        return total if is_constant(strategy) else total - self.cost_num

    def value(self, strategy: PureStrategy) -> Fraction:
        """Payoff of any pure strategy over the agent's messages."""
        return Fraction(self._value_num(strategy), self.den)

    def best(self, choices: StrategySet) -> tuple[tuple[PureStrategy, ...], Fraction]:
        """Canonically ordered maximizers over the product of ``choices``
        and their value, memoized per ``choices``.  The table is shared by
        every type with its ``Game.payoff_table`` key, so those types share
        their maximizers and value exactly, and each is read once."""
        winners, value, _ = self._top(choices)
        return winners, value

    def _top(self, choices: StrategySet) -> tuple[tuple[PureStrategy, ...], Fraction, int]:
        """``best``'s maximizers and value, and the value's numerator.

        A non-constant strategy is worth the sum of its coordinate entries
        less ``cost``, so the best of them takes a per-coordinate argmax,
        when the product of the argmax sets has a non-constant member.
        Otherwise that product is one constant, which is worth at least as
        much as every non-constant strategy because the cost is
        non-negative.  Constants pay no cost and are compared directly.
        """
        hit = self._best.get(choices)
        if hit is not None:
            return hit
        if len(choices) != len(self.nums) or not all(choices):
            raise ModelError(f"strategy set needs {len(self.nums)} non-empty coordinates")
        top = 0
        argmax = []
        for k, (cell, ms) in enumerate(zip(self.nums, choices)):
            for m in ms:
                if m not in cell:
                    raise ModelError(f"strategy set coordinate {k} names unknown message {m}")
            high = max(cell[m] for m in ms)
            top += high
            argmax.append(tuple(m for m in ms if cell[m] == high))
        constants = {s: sum(cell[m] for cell in self.nums) for m, s in _constants(choices)}
        mixed = len(choices) > 1 and (any(len(a) > 1 for a in argmax) or len(set(argmax)) > 1)
        best_num = max([*constants.values(), *([top - self.cost_num] if mixed else [])])
        winners = [s for s, v in constants.items() if v == best_num]
        if mixed and top - self.cost_num == best_num:
            winners += [s for s in itertools.product(*argmax) if not is_constant(s)]
        hit = self._best[choices] = (tuple(sorted(winners)), Fraction(best_num, self.den), best_num)
        return hit

    def deficit(self, choices: StrategySet, mixture: TypeStrategy) -> Fraction:
        """The best value over ``choices`` less the value of ``mixture``,
        ``{strategy: weight}``, whose weights need not sum to one: a
        residual, or for a pure strategy of weight one its deficit.
        Summed over the least common multiple of the weights'
        denominators."""
        scale = math.lcm(*(w.denominator for w in mixture.values() if w))
        total = self._top(choices)[2] * scale
        for s, w in mixture.items():
            if w:
                total -= w.numerator * (scale // w.denominator) * self._value_num(s)
        return Fraction(total, self.den * scale)

    def deficit_nums(self, choices: StrategySet, strategies) -> list[int]:
        """``deficit`` of each pure strategy at weight one, as a numerator
        over ``den``: the best value's numerator less the strategy's."""
        top = self._top(choices)[2]
        return [top - self._value_num(s) for s in strategies]

    def near_best(self, choices: StrategySet, slack: Number) -> list[PureStrategy]:
        """Every member of the product of ``choices`` worth at least the
        best value less ``slack``, in canonical order.

        Values are numerators over ``den``, so a member is kept iff its
        numerator is at least the best one less ``floor(slack * den)``,
        exactly, whatever ``slack``'s denominator.  Depth first over the
        coordinates, in ascending message order, carrying each prefix's
        room: its entries plus the maxima of the coordinates after it,
        less the cost once two of its messages differ, less the threshold.
        No completion has more room than its prefix, because the gaps to
        the maxima and the cost are non-negative, so a prefix of negative
        room is dropped; a completed strategy's room is its value less the
        threshold, exactly.  Constancy is carried down as ``lone``, the
        message a constant prefix sends, so no completion is tested for it.
        """
        floor = self._top(choices)[2] - slack.numerator * self.den // slack.denominator
        tops = [max(cell[m] for m in ms) for cell, ms in zip(self.nums, choices)]
        gaps = [[(m, top - cell[m]) for m in ms] for cell, ms, top in zip(self.nums, choices, tops)]
        out = []

        def extend(prefix, room, lone):
            if len(prefix) == len(gaps):
                out.append(prefix)
                return
            for m, gap in gaps[len(prefix)]:
                same = not prefix or m == lone
                left = room - gap - (self.cost_num if lone is not None and not same else 0)
                if left >= 0:
                    extend(prefix + (m,), left, m if same else None)

        extend((), sum(tops) - floor, None)
        return out


def play_groups(game: Game, profile: StrategyProfile | list[list[int]]) -> dict:
    """The mass of the circumstances at each pair of plays, from one walk
    of the circumstances: ``(i, j)`` maps to the total mass of the
    circumstances where agent 1's type plays ``game._plays[i]`` and agent
    2's plays ``game._plays[j]`` (``Perturbation.masses_by``, in order of
    first meeting).  Each circumstance is labelled by the ``Game.play_id``
    pair of its types, read once per profile (``Game.play_ids``)."""
    pert = game.perturbation
    ids = game.play_ids(profile)
    return pert.masses_by(list(zip(*[map(side.__getitem__, index)
                                     for side, index in zip(ids, pert._type_index)])))


def lottery_nums(game: Game, groups: dict) -> list[tuple[int, list[int]]]:
    """Per state, ``(den, nums)``: ``nums[y] / den`` is the implemented
    lottery's weight on outcome ``y`` conditional on the state, integrating
    over circumstances, signals, mixtures, and trembles, from the groups
    of one walk of the circumstances (``play_groups``).

    Summed on integers: each term, a group's mass times one play's weight
    from each side, is put over the least common multiple of the terms'
    denominators, and the signal points (``Game._seen``) and the played
    lotteries (``Game._outcomes``) are on integers already.  Each state's
    numerators are checked as ``Lottery`` checks its weights."""
    plays = game._plays
    terms = [
        (mass.numerator * w1.numerator * w2.numerator,
         mass.denominator * w1.denominator * w2.denominator, s1, s2)
        for (i, j), mass in groups.items()
        for s1, w1 in plays[i].items()
        for s2, w2 in plays[j].items()
    ]
    den = math.lcm(*(d for _, d, _, _ in terms))
    p_den, points = game._seen[0]
    g_den, lotteries = game._outcomes
    joint = [[0] * game.scenario.outcome_space.size for _ in range(game.scenario.n)]
    for num, d, s1, s2 in terms:
        factor = num * (den // d)
        for theta, k1, k2, p in points:
            cell, fp = joint[theta], factor * p
            for y, w in lotteries[(s1[k1], s2[k2])]:
                cell[y] += fp * w
    den *= p_den * g_den
    out = [(den * q.numerator, [x * q.denominator for x in cell])
           for cell, q in zip(joint, game.scenario.prior)]
    for state, (d, nums) in enumerate(out):
        if min(nums) < 0 or sum(nums) != d:
            raise ModelError(f"state {state}'s lottery weights must be non-negative and sum to one")
    return out


def outcome_distribution(game: Game, profile: StrategyProfile | list[list[int]]) -> list[Lottery]:
    """Every state's implemented lottery, integrating over circumstances,
    signals, mixtures, and trembles, from one walk of the circumstances:
    each state's ``lottery_nums``, one ``Fraction`` per outcome."""
    return [Lottery(tuple(Fraction(x, den) for x in nums))
            for den, nums in lottery_nums(game, play_groups(game, profile))]


def implementation_metrics(
    game: Game, profile: StrategyProfile | list[list[int]]
) -> tuple[Number, Number]:
    """``(truthful_mass, max_tv)`` of a profile, from one walk of the
    circumstances (``play_groups``).

    ``truthful_mass`` is the probability that both agents' realized
    intent is the truthful one, summed over the groups with each play's
    truthful weight read from ``game._plays``.  ``max_tv`` is the largest
    total variation distance, over the states, between the implemented
    lottery and the target, from one ``lottery_nums`` walk of the same
    groups: each state's distance is one integer sum, with the target's
    weights over one denominator, and one ``Fraction``."""
    groups = play_groups(game, profile)
    plays, truth = game._plays, (game.truthful(0), game.truthful(1))
    mass = sum(
        (m * plays[i].get(truth[0], 0) * plays[j].get(truth[1], 0) for (i, j), m in groups.items()),
        Fraction(0),
    )
    worst, targets = Fraction(0), game.scenario.scf.lotteries
    for (den, nums), target in zip(lottery_nums(game, groups), targets):
        t_den = math.lcm(*(w.denominator for w in target.weights))
        gap = sum(abs(x * t_den - w.numerator * (t_den // w.denominator) * den)
                  for x, w in zip(nums, target.weights))
        worst = max(worst, Fraction(gap, 2 * den * t_den))
    return mass, worst


# -- restricted strategy sets and replacements -----------------------------


def full_strategy_set(messages: tuple[int, ...], length: int) -> StrategySet:
    """Every message at each of ``length`` coordinates."""
    return (tuple(sorted(messages)),) * length


def restricted_strategy_set(
    messages: tuple[int, ...], meanings: tuple[int, ...]
) -> StrategySet:
    """The strategies kept by a rule's restricted game: per coordinate,
    the messages they may send there, in ascending order.

    ``messages`` is the agent's message set under the rule, and a
    coordinate's meaning is its state index, or, with a signal structure,
    the state index its signal means (pass the agent's meaning map).  A
    coordinate keeps the rule's negative messages, the status-quo message
    1 and its meaning.
    """
    negatives = tuple(sorted(m for m in messages if m < 0))
    return tuple(negatives + ((1,) if h == 1 else (1, h)) for h in meanings)


def canonical_replacement(
    strategy: PureStrategy, messages: tuple[int, ...], meanings: tuple[int, ...]
) -> PureStrategy:
    """Map a strategy outside the restricted set to its canonical stand-in.

    A rule without negative messages replaces invalid entries by the
    status quo message; a rule with them flips invalid entries to their
    negative, except a wholly-constant high vector which flips as a whole.
    """
    allowed = restricted_strategy_set(messages, meanings)
    if all(m in a for m, a in zip(strategy, allowed)):
        raise ModelError("strategy already belongs to the restricted set")
    if min(messages) > 0:
        return tuple(m if m in a else 1 for m, a in zip(strategy, allowed))
    if is_constant(strategy) and strategy[0] >= 2:
        return tuple(-m for m in strategy)
    return tuple(m if m in a else -m for m, a in zip(strategy, allowed))


# -- profile helpers -------------------------------------------------------


def truthful_profile(game: Game) -> StrategyProfile:
    """Every type of each agent plays its truthful strategy."""
    return [
        {t: {game.truthful(agent): ONE} for t in range(len(game.perturbation.partitions[agent]))}
        for agent in (0, 1)
    ]
