"""Equilibrium verification, best responses, dominance thresholds,
iterated elimination, and a small exact bimatrix solver.

Everything here works over finite strategy sets with exact arithmetic when
the scenario is exact.  Best-response ties are broken by canonical
strategy order: lexicographic over intent vectors with ascending message
numbers, so negative messages come before positive ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .core import ModelError, ScenarioModel
from .engine import (
    Game,
    PureStrategy,
    StrategyProfile,
    StrategySet,
    TypeStrategy,
    max_tv_to_target,
    type_signature,
)
from .mechanisms import Mechanism
from .numeric import Number


def best_response(
    game: Game,
    agent: int,
    type_index: int,
    opponent: dict[int, TypeStrategy],
    strategy_set: StrategySet,
) -> tuple[list[PureStrategy], Number]:
    """All exact maximizers over the strategy set, canonically ordered,
    with the attained value.

    The set is given by its per-coordinate choices, and the type's payoff
    table separates by coordinate, so the maximum is read per coordinate
    instead of over every strategy (see ``PayoffTable.best``).

    The result is memoized on the type's payoff table, which the game
    memoizes by ``(agent, type_signature)``.  Two types with equal
    signatures have equal payoffs for every strategy (see
    ``type_signature``), so they share their maximizers and value exactly,
    and the interior rungs of a ladder cost one evaluation per distinct
    rung kind instead of one per rung.
    """
    winners, best_value = game.payoff_table(agent, type_index, opponent).best(strategy_set)
    return list(winners), best_value


@dataclass(frozen=True)
class EquilibriumReport:
    """Best-response residuals of a profile plus implementation metrics."""

    residuals: dict[tuple[int, int], Number]  # (agent, type) -> gain from best deviation
    max_residual: Number
    is_equilibrium: bool
    epsilon: Number
    truthful_mass: Number | None
    max_tv: Number
    best_deviation: dict[tuple[int, int], PureStrategy]  # canonically first maximizer


def truthful_probability_mass(game: Game, profile: StrategyProfile) -> Number:
    """Probability that both agents' realized intent is the truthful one,
    summed over circumstances grouped by the pair of truthful weights
    their types carry (``Perturbation.masses_by``)."""
    pert = game.perturbation
    truthful = (game.truthful(0), game.truthful(1))
    labels = [
        tuple(profile[a][pert.type_of(a, w)].get(truthful[a], Fraction(0)) for a in (0, 1))
        for w in range(pert.size)
    ]
    return sum(
        (mass * w1 * w2 for (w1, w2), mass in pert.masses_by(labels).items()), Fraction(0)
    )


def equilibrium_residuals(
    game: Game,
    profile: StrategyProfile,
    strategy_sets: tuple[StrategySet, StrategySet],
) -> dict[tuple[int, int], Number]:
    """Per positive-probability type, the best pure deviation value over
    the agent's strategy set (per-coordinate choices) minus the prescribed
    mixture's value.  Pure deviations suffice because payoffs are affine
    in own mixtures.

    Both values are read from the type's payoff table: the best one from
    ``PayoffTable.best``, and the mixture's from ``PayoffTable.value``,
    which prices any message vector, inside the set or not.  So each
    residual equals ``best value - mixture_payoff``.
    """
    return _residuals(game, profile, strategy_sets)[0]


def _residuals(game, profile, strategy_sets):
    """Residuals and the canonically first best deviation per type."""
    residuals: dict[tuple[int, int], Number] = {}
    deviations: dict[tuple[int, int], PureStrategy] = {}
    pert = game.perturbation
    for agent in (0, 1):
        opponent = profile[1 - agent]
        for t in range(len(pert.partitions[agent])):
            if not pert.type_groups(agent, t):
                continue
            table = game.payoff_table(agent, t, opponent)
            winners, best_value = table.best(strategy_sets[agent])
            own = sum(w * table.value(s) for s, w in profile[agent][t].items() if w)
            residuals[(agent, t)] = best_value - own
            deviations[(agent, t)] = winners[0]
    return residuals, deviations


def verify_equilibrium(
    game: Game,
    profile: StrategyProfile,
    strategy_sets: tuple[StrategySet, StrategySet],
    epsilon: Number = 0,
) -> EquilibriumReport:
    """Interim check: the residuals of ``equilibrium_residuals``, with the
    best deviation behind each, plus the implementation metrics
    (``truthful_mass`` and ``max_tv``).  Callers that only need the
    pass/fail verdict should filter on the residuals first: the metrics
    walk every circumstance and are computed for every report built."""
    residuals, deviations = _residuals(game, profile, strategy_sets)
    max_res = max(residuals.values())
    return EquilibriumReport(
        residuals=residuals,
        max_residual=max_res,
        is_equilibrium=max_res <= epsilon,
        epsilon=epsilon,
        truthful_mass=truthful_probability_mass(game, profile),
        max_tv=max_tv_to_target(game, profile),
        best_deviation=deviations,
    )


# -- gamma dominance -------------------------------------------------------


@dataclass(frozen=True)
class DominanceCertificate:
    """Threshold above which truthful reporting is the strict best reply
    whenever the opponent's truthful weight exceeds it.

    ``witness`` records, for each agent and deviation, the truth-vs-truth
    gain, the adversarial worst-case gain with its per-state message
    choices, and that deviation's own threshold.
    """

    gamma: Number
    witness: tuple[dict, ...]

    @property
    def below_half(self) -> bool:
        return self.gamma < Fraction(1, 2)


def gamma_dominance_threshold(
    mechanism: Mechanism,
    scenario: ScenarioModel,
    restricted_sets: tuple[StrategySet, StrategySet],
    c_bar: Number,
) -> DominanceCertificate:
    """Exact threshold for truthful reporting on the unperturbed scenario.

    Each restricted set is given by its per-coordinate choices and must
    allow the truthful message at every state.  Against a mixture putting
    weight gamma on the truthful opponent and 1 - gamma on an adversarial
    restricted strategy, the gain of truth over a deviation is linear in
    gamma; the adversarial side separates across states because the
    opponent may pick its message at each state from that state's
    choices, so the worst case is a per-state minimum.  Deviations are
    the product of the agent's own choices, in canonical order.  The
    reported gamma is the largest root across agents and deviations (zero
    when every deviation is dominated outright); strictness holds for
    truthful weight above it.

    The learning-cost bound ``c_bar`` is charged in place of the scenario
    cost, which makes the certificate valid for every cost profile below
    the bound.  Each gain is a difference of ``inner_value`` in the game
    charging ``c_bar``; the adversary is chosen per state from the
    coordinate rows of the constant opponent strategies.
    """
    truth = tuple(range(1, scenario.n + 1))
    gamma = Fraction(0)
    witness = []
    charged = tuple(replace(p, cost=c_bar) for p in scenario.payoffs)
    game = Game(replace(scenario, payoffs=charged), mechanism)
    for choices in restricted_sets:
        if len(choices) != scenario.n or any(t not in ms for t, ms in zip(truth, choices)):
            raise ModelError("restricted set must contain the truthful strategy")
    for agent in (0, 1):
        own = restricted_sets[agent]
        allowed = restricted_sets[1 - agent]
        msgs_own = sorted({m for ms in own for m in ms})
        # phi[b][k][m]: the prior-weighted payoff of sending m at state k
        # against b, read from the coordinate row of the constant (b, ..., b).
        phi = {
            b: game.coordinate_row(agent, 0, (b,) * scenario.n).coords
            for b in {b for a in allowed for b in a}
        }
        # The adversary's worst reply at state k depends on the deviation
        # only through the message m it sends there.
        worst = {
            (k, m): min(allowed[k], key=lambda b: phi[b][k][t] - phi[b][k][m])
            for k, t in enumerate(truth)
            for m in msgs_own
        }
        truth_value = game.inner_value(agent, 0, truth, truth)
        for s in itertools.product(*own):
            if s == truth:
                continue
            d_truth = truth_value - game.inner_value(agent, 0, s, truth)
            if d_truth <= 0:
                raise ModelError(
                    f"truthful reporting is not strictly dominant at gamma=1 "
                    f"(deviation {s} gains {-d_truth})"
                )
            picks = tuple(worst[(k, m)] for k, m in enumerate(s))
            d_adv = game.inner_value(agent, 0, truth, picks) - game.inner_value(agent, 0, s, picks)
            root = Fraction(0) if d_adv > 0 else d_adv / (d_adv - d_truth)
            gamma = max(gamma, root)
            witness.append(
                {
                    "agent": agent,
                    "deviation": s,
                    "gain_vs_truthful": d_truth,
                    "worst_case_gain": d_adv,
                    "adversary": picks,
                    "threshold": root,
                }
            )
    return DominanceCertificate(gamma, tuple(witness))


# -- best-response iteration ----------------------------------------------


@dataclass(frozen=True)
class BRIterationResult:
    profile: StrategyProfile
    rounds: int
    converged: bool
    cycled: bool
    report: EquilibriumReport | None


def iterate_best_response(
    game: Game,
    strategy_sets: tuple[StrategySet, StrategySet],
    initial: StrategyProfile | None = None,
    max_rounds: int = 200,
) -> BRIterationResult:
    """Synchronous pure best-response iteration from the truthful profile
    (or a given start).  Ties resolve to the canonically first maximizer.
    On convergence the fixed point is re-verified."""
    from .engine import truthful_profile

    pert = game.perturbation
    profile = initial if initial is not None else truthful_profile(game)
    seen = {_profile_key(profile): 0}
    rounds = 0
    cycled = False
    for rounds in range(1, max_rounds + 1):
        nxt: StrategyProfile = [{}, {}]
        for agent in (0, 1):
            opponent = profile[1 - agent]
            for t in range(len(pert.partitions[agent])):
                if not pert.type_groups(agent, t):
                    nxt[agent][t] = dict(profile[agent][t])
                    continue
                winners, _ = best_response(game, agent, t, opponent, strategy_sets[agent])
                nxt[agent][t] = {winners[0]: Fraction(1)}
        key = _profile_key(nxt)
        if key == _profile_key(profile):
            report = verify_equilibrium(game, nxt, strategy_sets)
            return BRIterationResult(nxt, rounds, True, False, report)
        if key in seen:
            cycled = True
            profile = nxt
            break
        seen[key] = rounds
        profile = nxt
    return BRIterationResult(profile, rounds, False, cycled, None)


def _profile_key(profile: StrategyProfile):
    return tuple(
        tuple(sorted((t, tuple(sorted(mix.items()))) for t, mix in side.items()))
        for side in profile
    )


# -- iterated strict dominance --------------------------------------------


def iterated_dominance(
    game: Game,
    strategy_sets: tuple[StrategySet, StrategySet],
    mixture_denominator: int = 0,
) -> tuple[list[dict[int, list[PureStrategy]]], int]:
    """Interim iterated elimination of strictly dominated strategies.

    A type's strategy is eliminated when some other surviving strategy
    (or, if ``mixture_denominator`` > 0, a two-point mixture on that grid)
    does strictly better against every selection of surviving opponent
    strategies.  The worst case separates across opponent types, so each
    comparison is a sum of per-opponent-type minima.  Every type's pool
    starts as the product of its agent's per-coordinate choices, in
    canonical order; surviving pools are not products, so they are member
    lists.  Returns the surviving lists per (agent, type) and the number
    of rounds to the fixed point.

    A round checks agent 1's types, then agent 2's, so agent 2 sees agent
    1's eliminations of the same round.  A type is checked again only
    when an opponent type it meets with positive mass has lost a strategy
    since its last check.  Its own pool shrinking needs no recheck: a
    strategy that no member or grid mixture of a pool dominates stays
    undominated within any subset of that pool.  Every skipped check would
    have eliminated nothing, so the surviving sets after each round, and
    the round count, equal those of checking every type every round.

    A check's result is memoized on the game by ``(agent, pool,
    type_signature against the opponent surviving sets,
    mixture_denominator)``.  Every dominance margin is a sum over the
    signature's cells of weight x ``inner_value``, which the payoff class
    fixes, minimized over the surviving opponent strategies, so types
    with equal keys keep the same strategies.
    """
    pert = game.perturbation
    surviving: list[dict[int, list[PureStrategy]]] = [
        {
            t: list(itertools.product(*strategy_sets[agent]))
            for t in range(len(pert.partitions[agent]))
        }
        for agent in (0, 1)
    ]
    stale = [set(surviving[0]), set(surviving[1])]
    for rounds in itertools.count():
        changed = False
        for agent in (0, 1):
            opp = 1 - agent
            todo, stale[agent] = stale[agent], set()
            for t in sorted(todo):
                pool = surviving[agent][t]
                if not pert.type_groups(agent, t) or len(pool) <= 1:
                    continue
                key = (agent, tuple(pool), type_signature(game, agent, t, surviving[opp]),
                       mixture_denominator)
                keep = game._dom_cache.get(key)
                if keep is None:
                    keep = game._dom_cache[key] = tuple(
                        s
                        for s in pool
                        if not _is_dominated(
                            game, agent, t, s, pool, surviving[opp], mixture_denominator
                        )
                    )
                if len(keep) != len(pool):
                    surviving[agent][t] = list(keep)
                    changed = True
                    stale[opp].update(u for u, _ in pert.type_groups(agent, t))
        if not changed:
            return surviving, rounds


def _pair_margin(game: Game, agent: int, t: int, better, worse, opp_surviving):
    """Worst-case gain of ``better`` over ``worse`` in conditional weights
    (the interim gain divided by the type's positive mass, so its sign is
    the interim sign); ``better`` may be a pure strategy or a
    [(strategy, weight)] mixture."""
    total = Fraction(0)
    for opp_type, cells in game.perturbation.type_groups(agent, t):
        best = None
        for r in opp_surviving[opp_type]:
            gain = Fraction(0)
            for w, mass in cells:
                if isinstance(better, tuple):
                    up = game.inner_value(agent, w, better, r)
                else:
                    up = sum(
                        wt * game.inner_value(agent, w, s, r) for s, wt in better
                    )
                gain += mass * (up - game.inner_value(agent, w, worse, r))
            if best is None or gain < best:
                best = gain
        total += best
    return total


def _is_dominated(game, agent, t, s, pool, opp_surviving, mixture_denominator):
    for other in pool:
        if other == s:
            continue
        if _pair_margin(game, agent, t, other, s, opp_surviving) > 0:
            return True
    if mixture_denominator > 1:
        for a, b in itertools.combinations([x for x in pool if x != s], 2):
            for k in range(1, mixture_denominator):
                w = Fraction(k, mixture_denominator)
                mix = [(a, w), (b, 1 - w)]
                if _pair_margin(game, agent, t, mix, s, opp_surviving) > 0:
                    return True
    return False


# -- exact bimatrix solving ------------------------------------------------


def solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination over the rationals; None when singular or
    inconsistent."""
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivots = []
    row = 0
    for col in range(m):
        pivot = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        factor = aug[row][col]
        aug[row] = [v / factor for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    for r in range(row, n):
        if aug[r][m] != 0:
            return None
    if len(pivots) < m:
        return None
    out = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        out[col] = aug[r][m]
    return out


def support_enumeration_nash(
    a: list[list[Number]], b: list[list[Number]]
) -> tuple[tuple[Number, ...], tuple[Number, ...], Number, Number]:
    """One exact Nash equilibrium of a bimatrix game.

    Supports are scanned by total size then lexicographically, so the
    output is deterministic.  Returns the two mixtures and their values.
    """
    rows, cols = len(a), len(a[0])
    a = [[Fraction(x) if not isinstance(x, Fraction) else x for x in row] for row in a]
    b = [[Fraction(x) if not isinstance(x, Fraction) else x for x in row] for row in b]
    supports_r = _supports(rows)
    supports_c = _supports(cols)
    for size in range(2, rows + cols + 1):
        for sr in supports_r:
            for sc in supports_c:
                if len(sr) + len(sc) != size:
                    continue
                result = _try_supports(a, b, sr, sc)
                if result is not None:
                    return result
    raise ModelError("no equilibrium found; inputs are not a finite bimatrix game")


def _supports(k: int):
    out = []
    for size in range(1, k + 1):
        out.extend(itertools.combinations(range(k), size))
    return sorted(out, key=lambda s: (len(s), s))


def _try_supports(a, b, sr, sc):
    rows, cols = len(a), len(a[0])
    # Column player's mixture equalizes row payoffs on sr; likewise for rows.
    y = _equalizing(
        [[a[i][j] for j in sc] for i in sr], len(sc)
    )
    x = _equalizing(
        [[b[i][j] for i in sr] for j in sc], len(sr)
    )
    if x is None or y is None:
        return None
    xs = [Fraction(0)] * rows
    ys = [Fraction(0)] * cols
    for idx, i in enumerate(sr):
        xs[i] = x[idx]
    for idx, j in enumerate(sc):
        ys[j] = y[idx]
    va = [sum(a[i][j] * ys[j] for j in range(cols)) for i in range(rows)]
    vb = [sum(b[i][j] * xs[i] for i in range(rows)) for j in range(cols)]
    value_a = va[sr[0]]
    value_b = vb[sc[0]]
    if any(va[i] > value_a for i in range(rows)):
        return None
    if any(vb[j] > value_b for j in range(cols)):
        return None
    return tuple(xs), tuple(ys), value_a, value_b


def _equalizing(payoff_rows, width):
    """Opponent mixture making all listed payoff rows equal, or None."""
    k = len(payoff_rows)
    matrix = []
    rhs = []
    for r in range(1, k):
        matrix.append([payoff_rows[r][j] - payoff_rows[0][j] for j in range(width)])
        rhs.append(Fraction(0))
    matrix.append([Fraction(1)] * width)
    rhs.append(Fraction(1))
    sol = solve_linear(matrix, rhs)
    if sol is None or any(v < 0 for v in sol):
        return None
    return sol
