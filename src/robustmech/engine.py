"""Strategies and payoff computation for the induced incomplete-information
game.

A pure strategy is a tuple of messages indexed by information realization:
state index in the baseline, signal index when a signal structure is
present.  A non-constant tuple implies paying the (circumstance-dependent)
learning cost.  Type strategies are finite-support mixtures stored as
``{pure_tuple: weight}`` dicts, and a profile is a pair of
``{type_index: TypeStrategy}`` maps.

All computations are pure functions of immutable inputs; the ``Game``
wrapper only memoizes derived tables: payoffs and per-coordinate payoff
rows by payoff class, and per-type payoff tables, whose best responses
are memoized on the table, and dominance checks by ``type_signature``.

A ``StrategySet`` holds per coordinate the messages a strategy may send
there, ascending; its members are their product, in canonical order.

Payoffs separate across the coordinates of an own strategy: a pure
strategy's payoff is a sum of one-coordinate terms, less the learning
cost when the strategy is not constant (``PayoffTable``).
``Game.coordinate_row`` holds those terms at one circumstance against
one opponent pure strategy, and ``Game.payoff_table`` their weighted
sum for one type against the opponent side of a profile.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Lottery, ModelError, ScenarioModel, tv_distance
from .mechanisms import Mechanism
from .numeric import Number, rat
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
    def uniform(tau: Number, messages: tuple[tuple[int, ...], tuple[int, ...]]) -> "TrembleSpec":
        noise = tuple({m: Fraction(1, len(ms)) for m in ms} for ms in messages)
        return TrembleSpec(rat(tau), noise)

    @staticmethod
    def point(tau: Number, messages, target: tuple[int, int]) -> "TrembleSpec":
        noise = tuple(
            {m: Fraction(1) if m == target[i] else Fraction(0) for m in messages[i]}
            for i in range(2)
        )
        return TrembleSpec(rat(tau), noise)


@dataclass(frozen=True)
class SignalStructure:
    """Joint distribution of the state and both agents' private signals,
    with per-agent meaning maps into state indices (1-based)."""

    sizes: tuple[int, int]
    joint: dict[tuple[int, int, int], Number]  # (state, s1, s2) -> prob, 0-based
    meanings: tuple[tuple[int, ...], tuple[int, ...]]  # h_i, 1-based state index

    def __post_init__(self):
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

    def signal_prob(self, agent: int, k: int) -> Number:
        pos = 1 + agent
        return sum(p for key, p in self.joint.items() if key[pos] == k)


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
        for k in range(structure.sizes[agent]):
            total = structure.signal_prob(agent, k)
            if total == 0:
                continue
            agree = sum(
                p
                for (theta, s1, s2), p in structure.joint.items()
                if (s1 if agent == 0 else s2) == k
                and h_opp[s2 if agent == 0 else s1] == h_own[k]
            )
            tau = max(tau, 1 - agree / total)
        matched = sum(
            p
            for (theta, s1, s2), p in structure.joint.items()
            if h_own[s1 if agent == 0 else s2] == theta + 1
        )
        tau = max(tau, 1 - matched)
    return tau


def is_constant(strategy: PureStrategy) -> bool:
    return len(set(strategy)) <= 1


@dataclass
class Game:
    """A mechanism played under a perturbation, with optional signal noise
    and trembles.  Derived tables are memoized; inputs stay immutable."""

    scenario: ScenarioModel
    mechanism: Mechanism
    perturbation: Perturbation | None = None
    signals: SignalStructure | None = None
    tremble: TrembleSpec | None = None
    _pair_cache: dict = field(default_factory=dict, repr=False)
    _inner_cache: dict = field(default_factory=dict, repr=False)
    _row_cache: dict = field(default_factory=dict, repr=False)
    _table_cache: dict = field(default_factory=dict, repr=False)
    _u_cache: dict = field(default_factory=dict, repr=False)
    _dom_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.perturbation is None:
            self.perturbation = unperturbed(self.scenario)
        if self.perturbation.scenario is not self.scenario:
            raise ModelError("perturbation was built for a different scenario")

    # -- information -------------------------------------------------------

    @property
    def coords(self) -> list[tuple[int, int, int, Number]]:
        """Joint support of (state, own-coordinate, opp-coordinate)."""
        if self.signals is None:
            return [(j, j, j, self.scenario.prior[j]) for j in range(self.scenario.n)]
        return [(theta, k1, k2, p) for (theta, k1, k2), p in self.signals.joint.items() if p]

    def strategy_length(self, agent: int) -> int:
        if self.signals is None:
            return self.scenario.n
        return self.signals.sizes[agent]

    def truthful(self, agent: int) -> PureStrategy:
        """Report the state index, or the meaning of the signal."""
        if self.signals is None:
            return tuple(range(1, self.scenario.n + 1))
        return self.signals.meanings[agent]

    # -- realized-message tables -------------------------------------------

    def realized(self, agent: int, intended: int) -> list[tuple[int, Number]]:
        if self.tremble is None or self.tremble.tau == 0:
            return [(intended, Fraction(1))]
        tau = self.tremble.tau
        dist: dict[int, Number] = {intended: 1 - tau}
        for m, p in self.tremble.noise[agent].items():
            if p:
                dist[m] = dist.get(m, Fraction(0)) + tau * p
        return list(dist.items())

    def pair_values(self, m1: int, m2: int):
        """Expected transfers and outcome lottery for an intended pair."""
        key = (m1, m2)
        hit = self._pair_cache.get(key)
        if hit is not None:
            return hit
        t1 = t2 = Fraction(0)
        parts = []
        for a, p in self.realized(0, m1):
            for b, q in self.realized(1, m2):
                w = p * q
                t1 += w * self.mechanism.t(0, a, b)
                t2 += w * self.mechanism.t(1, a, b)
                parts.append((w, self.mechanism.g(a, b)))
        lot = Lottery.mix(parts)
        self._pair_cache[key] = (t1, t2, lot)
        return t1, t2, lot

    # -- payoffs -----------------------------------------------------------

    def state_value(self, agent: int, circ: int, state: int, m1: int, m2: int) -> Number:
        """Expected transfer plus expected utility of an intended pair at one
        state, with the agent's payoffs at ``circ``.  Every payoff of the
        game is a weighted sum of these values.  Cached by the
        circumstance's payoff class, which fixes the value."""
        key = (agent, self.perturbation.payoff_class(agent, circ), state, m1, m2)
        hit = self._u_cache.get(key)
        if hit is not None:
            return hit
        pair = self.pair_values(m1, m2)
        value = pair[agent] + sum(
            w * self.perturbation.utility(agent, circ, state, y)
            for y, w in enumerate(pair[2].weights)
            if w
        )
        self._u_cache[key] = value
        return value

    def coordinate_row(self, agent: int, circ: int, opp: PureStrategy) -> "PayoffTable":
        """The agent's payoffs at ``circ`` against the opponent pure
        strategy ``opp``, by own coordinate: entry ``[k][m]`` sums
        ``p * state_value`` over the coords whose own index is ``k``, with
        ``m`` sent there, and the cost is the learning cost at ``circ``.
        Cached by the circumstance's payoff class, which fixes the row."""
        key = (agent, self.perturbation.payoff_class(agent, circ), opp)
        hit = self._row_cache.get(key)
        if hit is not None:
            return hit
        msgs = self.mechanism.messages[agent]
        cells = tuple(dict.fromkeys(msgs, Fraction(0)) for _ in range(self.strategy_length(agent)))
        for theta, k1, k2, p in self.coords:
            if agent == 0:
                cell, b = cells[k1], opp[k2]
                for m in msgs:
                    cell[m] += p * self.state_value(0, circ, theta, m, b)
            else:
                cell, a = cells[k2], opp[k1]
                for m in msgs:
                    cell[m] += p * self.state_value(1, circ, theta, a, m)
        row = self._row_cache[key] = PayoffTable(cells, self.perturbation.cost(agent, circ))
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

    def payoff_table(
        self, agent: int, type_index: int, opponent: dict[int, TypeStrategy]
    ) -> "PayoffTable":
        """The type's payoffs against the opponent side of a profile, by
        coordinate: cell weight x opponent weight x coordinate row, entries
        and cost alike, summed over the type's signature cells.  Memoized
        by ``type_signature``."""
        pert = self.perturbation
        if not pert.type_groups(agent, type_index):
            raise ModelError("expected payoff of a zero-probability type")
        key = (agent, type_signature(self, agent, type_index, opponent))
        hit = self._table_cache.get(key)
        if hit is not None:
            return hit
        msgs = self.mechanism.messages[agent]
        coords = tuple(dict.fromkeys(msgs, Fraction(0)) for _ in range(self.strategy_length(agent)))
        cost = Fraction(0)
        for opp_type, cells in pert.type_groups(agent, type_index):
            for r, weight in opponent[opp_type].items():
                if not weight:
                    continue
                for w, mass in cells:
                    scale = mass * weight
                    row = self.coordinate_row(agent, w, r)
                    cost += scale * row.cost
                    for cell, terms in zip(coords, row.coords):
                        for m, term in terms.items():
                            cell[m] += scale * term
        table = self._table_cache[key] = PayoffTable(coords, cost)
        return table


class PayoffTable:
    """Payoffs against fixed opponent play, separated by own coordinate:
    ``coords[k][m]`` is the payoff share of sending ``m`` at coordinate
    ``k``, and ``cost`` the learning cost a non-constant strategy pays.
    A coordinate row holds one circumstance's against one opponent pure
    strategy; a type's table is their weighted sum.  A plain slotted
    class: a dataclass would cost every process about 1 ms at import."""

    __slots__ = ("coords", "cost", "_best")

    def __init__(self, coords: tuple[dict[int, Number], ...], cost: Number):
        self.coords = coords
        self.cost = cost
        self._best = {}

    def value(self, strategy: PureStrategy) -> Number:
        """Payoff of any pure strategy over the agent's messages."""
        total = sum(cell[m] for cell, m in zip(self.coords, strategy))
        return total if is_constant(strategy) else total - self.cost

    def best(self, choices: StrategySet) -> tuple[tuple[PureStrategy, ...], Number]:
        """Canonically ordered maximizers over the product of ``choices``
        and their value, memoized per ``choices``.

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
        if len(choices) != len(self.coords) or not all(choices):
            raise ModelError(f"strategy set needs {len(self.coords)} non-empty coordinates")
        top = 0
        argmax = []
        for k, (cell, ms) in enumerate(zip(self.coords, choices)):
            for m in ms:
                if m not in cell:
                    raise ModelError(f"strategy set coordinate {k} names unknown message {m}")
            high = max(cell[m] for m in ms)
            top += high
            argmax.append(tuple(m for m in ms if cell[m] == high))
        constants = {
            (m,) * len(choices): self.value((m,) * len(choices))
            for m in choices[0]
            if all(m in ms for ms in choices[1:])
        }
        mixed = len(choices) > 1 and (any(len(a) > 1 for a in argmax) or len(set(argmax)) > 1)
        best_value = max([*constants.values(), *([top - self.cost] if mixed else [])])
        winners = [s for s, v in constants.items() if v == best_value]
        if mixed and top - self.cost == best_value:
            winners += [s for s in itertools.product(*argmax) if not is_constant(s)]
        hit = self._best[choices] = (tuple(sorted(winners)), best_value)
        return hit


def expected_payoff(
    game: Game,
    agent: int,
    type_index: int,
    strategy: PureStrategy,
    opponent: dict[int, TypeStrategy],
) -> Number:
    """Interim expected payoff of a type playing a pure strategy against the
    opponent side of a profile, read from the type's payoff table."""
    return game.payoff_table(agent, type_index, opponent).value(strategy)


def type_signature(
    game: Game,
    agent: int,
    type_index: int,
    opponent: dict[int, TypeStrategy] | dict[int, list[PureStrategy]],
) -> tuple:
    """Everything a type's payoffs depend on besides its own strategy.

    Per opponent type the type meets (in ``type_groups`` order): the
    opponent's play there, a mixture with its zero weights dropped or a
    list of surviving strategies, and the type's ``(payoff class,
    conditional weight)`` cells.  The payoff class fixes the coordinate
    rows, ``inner_value`` and the learning cost, and ``payoff_table`` sums
    cell weight x opponent weight x row over these cells, so two types of
    one game with equal signatures have equal payoffs for every own
    strategy.
    """
    pert = game.perturbation
    out = []
    for opp_type, cells in pert.type_groups(agent, type_index):
        play = opponent[opp_type]
        if isinstance(play, dict):
            play = tuple((r, w) for r, w in play.items() if w)
        else:
            play = tuple(play)
        out.append((play, tuple((pert.payoff_class(agent, w), m) for w, m in cells)))
    return tuple(out)


def mixture_payoff(
    game: Game,
    agent: int,
    type_index: int,
    mixture: TypeStrategy,
    opponent: dict[int, TypeStrategy],
) -> Number:
    return sum(
        w * expected_payoff(game, agent, type_index, s, opponent)
        for s, w in mixture.items()
        if w
    )


def outcome_distribution(game: Game, profile: StrategyProfile, state: int) -> Lottery:
    """Implemented lottery conditional on the state, integrating over
    circumstances, signals, mixtures, and trembles.

    Circumstances are grouped by the pair of plays the agents' types make
    there (mixtures with zero weights dropped), the group masses come from
    ``Perturbation.masses_by``, and the lottery is mixed once per group."""
    pert = game.perturbation
    coords = [
        (k1, k2, p / game.scenario.prior[state])
        for theta, k1, k2, p in game.coords
        if theta == state
    ]
    plays = [
        {t: tuple((s, x) for s, x in mix.items() if x) for t, mix in side.items()}
        for side in profile
    ]
    labels = [
        (plays[0][pert.type_of(0, w)], plays[1][pert.type_of(1, w)]) for w in range(pert.size)
    ]
    parts = []
    for (play1, play2), mass in pert.masses_by(labels).items():
        for s1, w1 in play1:
            for s2, w2 in play2:
                weight = mass * w1 * w2
                for k1, k2, pc in coords:
                    lot = game.pair_values(s1[k1], s2[k2])[2]
                    parts.append((weight * pc, lot))
    return Lottery.mix(parts)


def max_tv_to_target(game: Game, profile: StrategyProfile) -> Number:
    return max(
        tv_distance(outcome_distribution(game, profile, j), game.scenario.scf(j))
        for j in range(game.scenario.n)
    )


# -- restricted strategy sets and replacements -----------------------------


def full_strategy_set(messages: tuple[int, ...], length: int) -> StrategySet:
    """Every message at each of ``length`` coordinates."""
    return (tuple(sorted(messages)),) * length


def restricted_strategy_set(
    variant: str,
    n: int,
    meanings: tuple[int, ...] | None = None,
) -> StrategySet:
    """The strategies kept by each construction's restricted game: per
    coordinate, the messages they may send there, in ascending order.

    A coordinate's meaning is its state index, or, with a signal
    structure, the state index its signal means (pass the agent's meaning
    map).  ``"sqr"``: the status-quo message or the meaning.  ``"asqr"``:
    any negative message as well.
    """
    if variant == "sqr":
        negatives = ()
    elif variant == "asqr":
        negatives = tuple(range(-n, -1))
    else:
        raise ModelError(f"unknown restricted-set variant {variant!r}")
    if meanings is None:
        meanings = range(1, n + 1)
    return tuple(negatives + ((1,) if h == 1 else (1, h)) for h in meanings)


def canonical_replacement(
    strategy: PureStrategy,
    variant: str,
    n: int,
    meanings: tuple[int, ...] | None = None,
) -> PureStrategy:
    """Map a strategy outside the restricted set to its canonical stand-in.

    The plain-rule variant replaces invalid entries by the status quo
    message; the augmented variant flips invalid entries to their negative,
    except a wholly-constant high vector which flips as a whole.
    """
    allowed = restricted_strategy_set(variant, n, meanings)
    if all(m in a for m, a in zip(strategy, allowed)):
        raise ModelError("strategy already belongs to the restricted set")
    if variant == "sqr":
        return tuple(m if m in a else 1 for m, a in zip(strategy, allowed))
    if is_constant(strategy) and strategy[0] >= 2:
        return tuple(-m for m in strategy)
    return tuple(m if m in a else -m for m, a in zip(strategy, allowed))


# -- profile helpers -------------------------------------------------------


def pure_profile(game: Game, strategies: tuple[PureStrategy, PureStrategy]) -> StrategyProfile:
    """Every type of each agent plays the given pure strategy."""
    pert = game.perturbation
    return [
        {t: {strategies[agent]: Fraction(1)} for t in range(len(pert.partitions[agent]))}
        for agent in (0, 1)
    ]


def truthful_profile(game: Game) -> StrategyProfile:
    return pure_profile(game, (game.truthful(0), game.truthful(1)))
