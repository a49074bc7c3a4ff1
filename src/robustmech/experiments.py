"""Named, reproducible experiment runs.

Each experiment builds its mechanism and perturbations, runs the relevant
verification machinery, and returns an :class:`ExperimentResult` whose
JSON form is byte-stable: all numbers are exact rationals rendered as
strings, dictionaries are emitted with sorted keys, and every random
choice flows through a seeded generator recorded in the result.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .core import (
    AgentPayoff,
    Lottery,
    ModelError,
    ScenarioModel,
    SocialChoiceFunction,
    binary_trial_scenario,
    is_nonconstant,
    make_scenario,
    three_state_scenario,
    tv_distance,
)
from .engine import (
    Game,
    outcome_distribution,
    size_of_signal_structure,
    TrembleSpec,
    canonical_replacement,
    full_strategy_set,
    implementation_metrics,
    is_constant,
    mislabel_signals,
    restricted_strategy_set,
    truthful_profile,
)
from .equilibrium import (
    _strategy_sets,
    gamma_dominance_threshold,
    iterate_best_response,
    iterated_dominance,
    solve_linear,
    support_enumeration_nash,
    verify_equilibrium,
)
from .mechanisms import (
    Mechanism,
    build_augmented_status_quo,
    build_maskin,
    build_modified_status_quo,
    build_one_respondent,
    build_status_quo,
)
from .numeric import Number, fmt, rat
from .perturbations import (
    BiasSpec,
    _ladder_masses,
    _learning_costs,
    build_general_ladder,
    build_ladder,
    eta_of,
    is_c_bounded,
)


def _jsonable(value):
    if isinstance(value, Fraction):
        return fmt(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(_key(k)): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(_key(kv[0])))}
    raise TypeError(f"cannot write a {type(value).__name__} to JSON")


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return k


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one named experiment: pass/fail certificates plus the
    exact numeric witnesses behind them."""

    name: str
    parameters: dict
    certificates: dict
    artifacts: dict
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(bool(v) for v in self.certificates.values())

    def to_json(self) -> str:
        record = {
            "name": self.name,
            "parameters": _jsonable(self.parameters),
            "certificates": _jsonable(self.certificates),
            "artifacts": _jsonable(self.artifacts),
            "provenance": _jsonable(self.provenance),
            "passed": self.passed,
        }
        return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"

    def grid_csv(self) -> str:
        """CSV of the per-grid-point measurements, when any were taken."""
        rows = self.artifacts.get("grid", [])
        if not rows:
            return ""
        headers = sorted({k for row in rows for k in row})
        lines = [",".join(headers)]
        for row in rows:
            lines.append(",".join(str(_jsonable(row.get(h, ""))) for h in headers))
        return "\n".join(lines) + "\n"


class Certificate(NamedTuple):
    """A pass/fail check and the exact witness behind its verdict.  A
    pair, so ``ok, witness = certificate`` unpacks it; a pair is always
    truthy, so read ``.ok`` and never test the certificate itself."""

    ok: bool
    witness: object

    @classmethod
    def of_rows(cls, rows: list[dict]) -> Certificate:
        """Passes iff every row's ``"ok"`` does; the rows are the witness."""
        return cls(all(row["ok"] for row in rows), rows)


# -- shared helpers --------------------------------------------------------


def _exact(experiment: str, option: str, value) -> Fraction:
    """``rat(value)`` for an option of a run.  A float was rounded to
    binary before it arrived, so it raises ``ModelError`` naming the
    experiment, the option and the value."""
    if isinstance(value, float):
        raise ModelError(f"experiment {experiment}: option {option} must be exact (an int, a "
                         f"Fraction or a string such as '1/10'), not the float {value!r}")
    return rat(value)


def preferred_outcome_bias(
    scenario: ScenarioModel, state_index: int, strength: Number
) -> dict[tuple[int, int], Number]:
    """Payoff override granting ``strength`` for the modal outcome of
    ``f(state_index)`` in every state."""
    weights = scenario.scf(state_index).weights
    target = max(range(len(weights)), key=lambda y: weights[y])
    return {(s, target): rat(strength) for s in range(scenario.n)}


def step3_closure_certificate(mechanism: Mechanism, scenario: ScenarioModel) -> Certificate:
    """Replacement-dominance check over every strategy outside the
    restricted set.

    The restricted set and the canonical replacement are the rule's, read
    off the mechanism's messages.  Every pure strategy outside the
    restricted set must (a) induce the same outcome as its canonical
    replacement at every state against every message a restricted
    opponent may send there and (b) never earn a larger expected
    transfer against a restricted opponent, strictly smaller against the
    truthful one for constant vectors of a high message when the rule has
    negative messages.  The restricted opponent may pick its message at
    each state from that state's choices, so the worst transfer gain over
    it is a sum of per-state minima.

    A non-constant strategy is replaced coordinate by coordinate, so it
    fails exactly when one of its coordinates outside the restricted set
    does: when ``(1, ..., a, ..., 1)``, with that coordinate's message
    ``a`` at state j, fails.  The verdict checks those n x |M| strategies
    and the constant ones; only a failure enumerates every strategy
    outside the set, for the witnesses: an outcome failure names the
    strategy, the state and the opponent's message there; a transfer
    failure names the strategy, the opponent strategy and the gain.  The
    witness is the list of failures.
    """
    n = scenario.n
    truth = tuple(range(1, n + 1))
    msgs_own = mechanism.messages[0]
    choices = restricted_strategy_set(msgs_own, truth)

    @functools.cache
    def coordinate(a, a_star, b):
        """Whether a and its replacement a_star give the same outcome
        against b, and the transfer gain of a_star over a."""
        return (
            mechanism.g(a, b).same_as(mechanism.g(a_star, b)),
            mechanism.t(0, a_star, b) - mechanism.t(0, a, b),
        )

    def failures_of(s):
        s_star = canonical_replacement(s, msgs_own, truth)
        failures = []
        worst_gain = Fraction(0)
        picks = []
        for j, (a, a_star) in enumerate(zip(s, s_star)):
            for b in choices[j]:
                if not coordinate(a, a_star, b)[0]:
                    failures.append(
                        {"strategy": s, "state": j, "opponent_message": b, "kind": "outcome"}
                    )
            b_worst = min(choices[j], key=lambda b: coordinate(a, a_star, b)[1])
            picks.append(b_worst)
            worst_gain += scenario.prior[j] * coordinate(a, a_star, b_worst)[1]
        if worst_gain < 0:
            failures.append(
                {"strategy": s, "opponent": tuple(picks), "gain": worst_gain, "kind": "transfer"}
            )
        elif is_constant(s) and s[0] >= 2 and min(msgs_own) < 0:
            gain = sum(
                scenario.prior[j] * coordinate(a, a_star, b)[1]
                for j, (a, a_star, b) in enumerate(zip(s, s_star, truth))
            )
            if gain <= 0:
                failures.append({"strategy": s, "opponent": truth, "gain": gain, "kind": "transfer"})
        return failures

    def outside(s):
        return any(m not in c for m, c in zip(s, choices))

    probes = [(m,) * n for m in msgs_own] + [
        (1,) * j + (a,) + (1,) * (n - j - 1)
        for j, c in enumerate(choices)
        for a in msgs_own
        if a not in c
    ]
    if not any(failures_of(s) for s in probes if outside(s)):
        return Certificate(True, [])
    failures = [
        f
        for s in itertools.product(*full_strategy_set(msgs_own, n))
        if outside(s)
        for f in failures_of(s)
    ]
    return Certificate(False, failures)


def _mass_linear_fit(grid: list[dict]) -> tuple[Fraction, Fraction]:
    """Least-squares slope K of (1 - truthful mass) against eta, through
    the origin, and the largest relative residual of the fit."""
    num = sum(row["eta"] * (1 - row["truthful_mass"]) for row in grid)
    den = sum(row["eta"] ** 2 for row in grid)
    k = num / den
    resid = Fraction(0)
    for row in grid:
        deficit = 1 - row["truthful_mass"]
        if k * row["eta"]:
            resid = max(resid, abs(deficit - k * row["eta"]) / (k * row["eta"]))
    return k, resid


def _ladder_games(experiment, scenario, mechanism, depth, eta_grid, biases, tail):
    """``(eta, perturbation, game)`` for each eta of ``experiment``'s grid: the ladder
    ``build_ladder(scenario, depth, eta, biases, tail)`` and the mechanism
    played on it.  Only eta changes along a grid, so the ladders share
    their partitions, biases and compiled partition tables: the first is
    built by ``build_ladder`` and each later one by ``_reweighed`` from the
    one before, which checks the new masses and weighs the templates
    again.  Every game after the first is built by ``Game.with_perturbation``
    and shares the played mechanism's tables and the payoff rows of the
    earlier ones.  An empty grid raises ``ModelError``: a certificate over
    no ladder would hold vacuously."""
    if not eta_grid:
        raise ModelError("eta grid is empty: a ladder certificate needs at least one eta")
    pert = game = None
    for eta in eta_grid:
        eta = _exact(experiment, "eta_grid", eta)
        if pert is None:
            pert = build_ladder(scenario, depth, eta, list(biases), tail=tail)
            game = Game(scenario, mechanism, pert)
        else:
            pert = pert._reweighed(**_ladder_masses(depth, eta, tail))
            game = game.with_perturbation(pert)
        yield eta, pert, game


def _status_quo_run(experiment, scenario, mech, c_bar, depth, eta_grid, biases):
    """What thm1 and thm2 (``experiment``) certify alike about a status-quo rule.

    Returns the certificates (the dominance threshold below 1/2, a
    best-response equilibrium on every collapsed-tail ladder of the grid
    and, for n <= 3, the exhaustive replacement closure) and the
    artifacts (``gamma``, the schedule's rewards and the per-eta grid).
    Each ladder must meet the hypotheses, or ``ModelError`` names its eta
    and the value that misses: ``eta_of`` is that eta and, for thm1 (thm2
    allows costs up to its cap), every learning cost is at most ``c_bar``.
    """
    cert_gamma = gamma_dominance_threshold(mech, scenario, c_bar)
    grid = []
    for eta, pert, game in _ladder_games(
        experiment, scenario, mech, depth, eta_grid, biases, "collapse"
    ):
        measured = eta_of(pert)
        if measured != eta:
            raise ModelError(
                f"{experiment}: the ladder at eta = {fmt(eta)} has ex-ante perturbation "
                f"probability {fmt(measured)}, not eta"
            )
        if experiment == "thm1" and not is_c_bounded(pert, c_bar):
            raise ModelError(
                f"thm1: the ladder at eta = {fmt(eta)} has learning cost "
                f"{fmt(max(_learning_costs(pert)))} above c_bar = {fmt(c_bar)}"
            )
        res = iterate_best_response(game, _strategy_sets(game))
        grid.append(
            {
                "eta": eta,
                "converged": res.converged,
                # A run carries its report iff it converged.
                "equilibrium": res.converged and res.report.is_equilibrium,
                "rounds": res.rounds,
                "truthful_mass": res.report.truthful_mass if res.report else None,
                "max_tv": res.report.max_tv if res.report else None,
                "tail_mass": pert.tail_mass,
            }
        )
    certificates = {"gamma_below_half": cert_gamma.below_half,
                    "ladder_equilibria": all(row["equilibrium"] for row in grid)}
    if scenario.n <= 3:
        certificates["step3_closure"] = step3_closure_certificate(mech, scenario).ok
    artifacts = {"gamma": cert_gamma.gamma, "schedule": mech.schedule.rewards, "grid": grid}
    return certificates, artifacts


# -- named experiment runs -------------------------------------------------


def run_thm1(
    scenario: ScenarioModel | None = None,
    depth: int = 100,
    eta_grid=("1/1000", "1/100", "1/20", "1/10"),
    biases: list[BiasSpec] | None = None,
) -> ExperimentResult:
    """Status quo rule with ascending transfers, c_bar = 1, on a ladder family.

    Certifies the dominance threshold, constructs an equilibrium on every
    ladder in the grid, fits the linear containment of non-truthful mass,
    and (for small n) checks replacement closure exhaustively.
    """
    scenario = scenario or binary_trial_scenario()
    c_bar = Fraction(1)
    mech = build_status_quo(scenario, c_bar)
    if biases is None:
        bias_strength = 10 * mech.schedule.top
        biases = [BiasSpec(0, 0, preferred_outcome_bias(scenario, 0, bias_strength))]
    certificates, artifacts = _status_quo_run(
        "thm1", scenario, mech, c_bar, depth, eta_grid, biases
    )
    grid = artifacts["grid"]
    k, resid = _mass_linear_fit(grid)
    certificates["mass_linear_bound"] = all(
        (1 - row["truthful_mass"]) <= k * row["eta"] for row in grid
    )
    certificates["mass_fit_residual_small"] = resid <= Fraction(1, 20)
    return ExperimentResult(
        name="thm1",
        parameters={"n": scenario.n, "c_bar": c_bar, "depth": depth,
                    "eta_grid": [row["eta"] for row in grid]},
        certificates=certificates,
        artifacts={**artifacts, "mass_slope_K": k, "mass_fit_residual": resid},
        provenance={"scenario_states": scenario.state_space.states, "prior": scenario.prior},
    )


def run_thm2(
    scenario: ScenarioModel | None = None,
    depth: int = 100,
    eta_grid=("1/1000", "1/100", "1/20", "1/10"),
    biases: list[BiasSpec] | None = None,
) -> ExperimentResult:
    """Augmented rule run; allows unbounded-cost bias types (capped at 10**6
    times agent 1's cost) and certifies the constant-deviation comparison."""
    scenario = scenario or binary_trial_scenario()
    if not scenario.generic:
        raise ModelError("augmented rule run needs a generic prior")
    cost_cap = Fraction(10**6)
    mech = build_augmented_status_quo(scenario)
    sched = mech.schedule
    if biases is None:
        strength = 10 * sched.top
        biases = [
            BiasSpec(
                0,
                0,
                preferred_outcome_bias(scenario, min(1, scenario.n - 1), strength),
                cost=cost_cap * scenario.payoffs[0].cost,
            )
        ]
    certificates, artifacts = _status_quo_run(
        "thm2", scenario, mech, scenario.max_cost, depth, eta_grid, biases
    )
    # Constant high reports lose to coordinated low play under the ratio
    # constraint: q(j) R^j < q(1) R^0 for every j >= 2.
    certificates["constant_deviation_comparison"] = all(
        scenario.prior[j - 1] * sched.r(j) < scenario.prior[0] * sched.r(0)
        for j in range(2, scenario.n + 1)
    )
    return ExperimentResult(
        name="thm2",
        parameters={"n": scenario.n, "depth": depth,
                    "eta_grid": [row["eta"] for row in artifacts["grid"]], "cost_cap": cost_cap},
        certificates=certificates,
        artifacts=artifacts,
        provenance={"scenario_states": scenario.state_space.states, "prior": scenario.prior},
    )


def deviation_dominance_certificate(game: Game) -> Certificate:
    """Agent 1's replacement-transfer check in a game with trembles.

    Reads agent 1's transfers ``t(own, other)`` off the game's mechanism,
    and its signals and tremble: agent 2's intended messages are realized
    by ``game.tremble.realized``.  For every own signal and every high
    message ``m`` that is neither the status quo nor the signal's meaning,
    the worst case over agent 2's restricted play of ``E[t(m) - t(-m)]``
    must stay below zero: strictly for the modified rule, weakly for the
    augmented rule.  The modified rule always pays ``-m`` its base reward,
    so its rows show ``E[t(m)]`` against that reward.  Also checks the ex
    ante comparison for wholly-constant high vectors.  Passes iff every
    witness row does; raises ``ModelError`` for a game with no tremble or
    a rule without negative messages.
    """
    tremble, mech = game.tremble, game.mechanism
    if tremble is None:
        raise ModelError("the deviation dominance certificate needs a game with a tremble")
    n = game.scenario.n
    if -n not in mech.messages[0]:
        raise ModelError(f"the deviation dominance certificate needs a rule with negative "
                         f"messages; the {mech.kind} rule has none")
    tau = tremble.tau
    strict = mech.kind == "msqr"
    t = functools.partial(mech.t, 0)  # agent 1's transfer t(own, other)
    h_own, h_opp = game.signals.meanings
    opp_choices = restricted_strategy_set(mech.messages[1], h_opp)
    noise = tremble.noise[1]
    noise_low = sum(p for m, p in noise.items() if m <= 1)
    realized = {b: tremble.realized(1, b) for b in mech.messages[1]}
    # E[t(m) - t(-m)] when agent 2 intends b.
    gain = {(m, b): sum(q * (t(m, a) - t(-m, a)) for a, q in pairs)
            for m in range(2, n + 1) for b, pairs in realized.items()}
    seen = game.signals.seen_by(0)
    by_signal: dict[int, dict[int, Number]] = {}
    for _, k, j, p in seen:
        cond = by_signal.setdefault(k, {})
        cond[j] = cond.get(j, Fraction(0)) + p
    rows = []
    for k in sorted(by_signal):
        cond = by_signal[k]
        own_total = sum(cond.values())
        for m in range(2, n + 1):
            if m == h_own[k]:
                continue
            worst = Fraction(0)
            for j, p in cond.items():
                worst += p / own_total * max(gain[m, b] for b in opp_choices[j])
            # The modified rule promises a strict gap; the augmented rule
            # only ever had a weak one, so ties do not count against it.
            bound = t(-m, 1) if strict else Fraction(0)
            rows.append({"signal": k, "message": m, "worst_case": worst + bound, "bound": bound,
                         "ok": worst < 0 if strict else worst <= 0})
    # Constant high vectors, compared ex ante against their negation.
    prob_meaning = {
        j: sum(p for _, _, s_opp, p in seen if h_opp[s_opp] == j) for j in range(1, n + 1)
    }
    for m in range(2, n + 1):
        p_m_max = (1 - tau) * prob_meaning[m] + tau * noise.get(m, Fraction(0))
        p_low_min = (1 - tau) * prob_meaning[1] + tau * noise_low
        if strict:
            worst = p_m_max * t(m, m) + max(
                t(m, 1) * ((1 - tau) + tau * noise_low), t(m, 1) * (tau * noise_low)
            )
        else:
            worst = p_m_max * t(m, m) - p_low_min * t(-m, 1)
        rows.append({"signal": "constant", "message": m, "worst_case": worst,
                     "ok": worst < (t(-m, 1) if strict else 0)})
    return Certificate.of_rows(rows)


def run_thm3(scenario: ScenarioModel | None = None) -> ExperimentResult:
    """Trembles and noisy signals: the modified rule survives where the
    augmented rule's replacement argument breaks.

    Uses trembles of size tau = 1/100 whose adversarial noise is
    concentrated on message 2, a correlated signal structure of size
    exactly delta = 1/100, and its perfectly-revealing limit at zero noise.
    """
    scenario = scenario or three_state_scenario()
    tau = delta = Fraction(1, 100)
    noise_target = 2
    msqr = build_modified_status_quo(scenario)
    asqr = build_augmented_status_quo(scenario)
    n = scenario.n
    tremble = TrembleSpec.point(tau, msqr.messages, (noise_target, noise_target))
    noisy = mislabel_signals(scenario, delta)

    asqr_cert = deviation_dominance_certificate(Game(scenario, asqr, tremble=tremble))
    game = Game(scenario, msqr, signals=noisy, tremble=tremble)
    msqr_cert = deviation_dominance_certificate(game)

    report = verify_equilibrium(game, truthful_profile(game), _strategy_sets(game))

    game0 = Game(scenario, msqr)
    report0 = verify_equilibrium(game0, truthful_profile(game0), _strategy_sets(game0))

    certificates = {
        "asqr_certificate_fails": not asqr_cert.ok,
        "msqr_certificate": msqr_cert.ok,
        "msqr_truthful_equilibrium": report.is_equilibrium,
        "revealing_limit_equilibrium": report0.is_equilibrium,
        "structure_size_matches": delta == size_of_signal_structure(noisy, scenario.prior),
    }
    return ExperimentResult(
        name="thm3",
        parameters={"n": n, "tau": tau, "delta": delta, "noise_target": noise_target},
        certificates=certificates,
        artifacts={
            "asqr_witness": asqr_cert.witness,
            "msqr_witness": msqr_cert.witness,
            "schedule": msqr.schedule.rewards,
            "penalty": msqr.schedule.penalty,
            "equilibrium_max_residual": report.max_residual,
            "equilibrium_max_tv": report.max_tv,
        },
        provenance={"scenario_states": scenario.state_space.states, "prior": scenario.prior},
    )


# -- impossibility constructions ------------------------------------------


@dataclass(frozen=True)
class SeparatingFunctional:
    """Linear functional on outcomes separating one target lottery from
    the hull of the remaining ones, with the scale needed to overwhelm a
    mechanism's transfers."""

    values: tuple[Number, ...]  # v(y) per outcome index
    state_index: int
    margin: Number
    scale: Number

    def of(self, lottery: Lottery) -> Number:
        return sum(w * self.values[y] for y, w in enumerate(lottery.weights) if w)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _nearest_in_hull(points: list[tuple[Number, ...]], target: tuple[Number, ...]):
    """Exact nearest point of the convex hull of ``points`` to ``target``.

    Enumerates support subsets and solves the normal equations over the
    rationals; valid at desk scale (few points, low dimension).
    """
    best = None
    m = len(points)
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            base = points[subset[0]]
            dirs = [tuple(points[i][d] - base[d] for d in range(len(base))) for i in subset[1:]]
            rel = tuple(target[d] - base[d] for d in range(len(base)))
            if dirs:
                gram = [[_dot(u, w) for w in dirs] for u in dirs]
                rhs = [_dot(u, rel) for u in dirs]
                coeffs = solve_linear([[Fraction(v) for v in row] for row in gram], [Fraction(v) for v in rhs])
                if coeffs is None:
                    continue
                if any(c < 0 for c in coeffs) or sum(coeffs) > 1:
                    continue
                point = tuple(
                    base[d] + sum(c * u[d] for c, u in zip(coeffs, dirs))
                    for d in range(len(base))
                )
            else:
                point = base
            dist = sum((point[d] - target[d]) ** 2 for d in range(len(base)))
            if best is None or dist < best[0]:
                best = (dist, point)
    return best


def separating_functional(
    scf: SocialChoiceFunction, mechanism: Mechanism
) -> SeparatingFunctional:
    """Functional v with v(f(theta*)) strictly below v on the hull of the
    other target lotteries, scaled so margin * C exceeds four times the
    mechanism's largest transfer."""
    if not is_nonconstant(scf):
        raise ModelError("separating functional needs a non-constant target")
    x_bound = mechanism.transfer_bound
    for star in range(len(scf.lotteries)):
        target = scf.lotteries[star].weights
        others = [
            lot.weights
            for j, lot in enumerate(scf.lotteries)
            if j != star and not lot.same_as(scf.lotteries[star])
        ]
        if not others:
            continue
        dist, proj = _nearest_in_hull(others, target)
        if dist == 0:
            continue
        direction = tuple(t - p for t, p in zip(target, proj))
        raw = tuple(-d for d in direction)
        low = min(raw)
        shifted = tuple(v - low for v in raw)
        top = max(shifted)
        values = tuple(v / top for v in shifted)
        v_star = sum(w * values[y] for y, w in enumerate(target))
        margin = min(
            sum(w * values[y] for y, w in enumerate(other)) for other in others
        ) - v_star
        if margin <= 0:
            continue
        # The smallest integer scale with margin * scale > 4 * x_bound.
        scale = Fraction(4 * x_bound // margin + 1)
        return SeparatingFunctional(values, star, margin, scale)
    raise ModelError("no separable target lottery found")


def _two_point_grid(a, b, step: int) -> list[dict]:
    """``{a: k/step, b: 1 - k/step}`` for ``k = 0..step``, zero weights kept."""
    return [{a: Fraction(k, step), b: 1 - Fraction(k, step)} for k in range(step + 1)]


def _candidate_type_strategies(n_states: int, messages, step: int = 20):
    """Pure strategies plus the interior of a grid of mixtures over two
    constant vectors; the grid's end points are pure constants, listed
    once among the pure strategies."""
    pures = [
        {s: Fraction(1)} for s in itertools.product(*full_strategy_set(messages, n_states))
    ]
    constants = [tuple([m] * n_states) for m in messages]
    if len(constants) != 2:
        return pures
    return pures + _two_point_grid(*constants, step)[1:-1]


def _grid_equilibria(game, strategy_set, candidates, epsilon):
    """Every candidate profile pair passing the residual check, in
    ``(i, j)`` order, as ``[{0: mix_i}, {0: mix_j}]``, yielded lazily; no
    report is built.  The candidates are checked at call time, so a bad
    one raises ``ModelError`` before any pair is asked for.

    An agent's residual depends on the pair only through the opponent's
    candidate, which fixes its payoff table and best value.  So the
    search takes, per candidate ``i`` of agent 1, the set of agent 2's
    candidates passing against it; for each ``j`` in that set, agent 1's
    passing set against ``j`` is computed the first time it is needed and
    kept, and the pair passes iff ``i`` is in it.  A caller that stops at
    the first pair it wants builds only the tables read up to that pair.

    A candidate mixes at most two pure strategies of the set, ``a`` with
    weight ``w`` and ``b``.  With the deficits ``d = best - value``, its
    residual is ``w * d_a + (1 - w) * d_b``, so it passes only if ``a``
    or ``b`` is within ``epsilon`` of the best (``PayoffTable.near_best``).
    Supports are indexed by member, so only those that meet that band are
    visited.  For each, the deficits are read once, as numerators over the
    table's denominator (``PayoffTable.deficit_nums``): the passing
    weights lie on one side of the cut ``(epsilon - d_b) / (d_a - d_b)``,
    one ``Fraction``, and when ``d_a == d_b`` every weight passes.  A
    support's candidates are kept in ascending weight, so the passing ones
    are a prefix or a suffix, found by bisection."""
    supports: dict[tuple, list] = {}
    for i, mix in enumerate(candidates):
        support = tuple(s for s, w in mix.items() if w)
        if len(support) > 2 or sum(mix.values()) != 1 or not all(
            len(s) == len(strategy_set) and all(m in ms for m, ms in zip(s, strategy_set))
            for s in support
        ):
            raise ModelError(f"grid candidate {i} must mix at most two strategies of the set, "
                             "with weights summing to one")
        supports.setdefault(support, []).append((mix[support[0]], i))
    by_weight, by_member = {}, {}
    for support, members in supports.items():
        members.sort()
        by_weight[support] = ([w for w, _ in members], [i for _, i in members])
        for s in support:
            by_member.setdefault(s, []).append(support)
    eps_num, eps_den = epsilon.numerator, epsilon.denominator

    def passing(agent, opp):
        """The agent's candidates passing against the opponent's ``opp``."""
        table = game.payoff_table(agent, 0, {0: opp})
        band = table.near_best(strategy_set, epsilon)
        passed = set()
        for support in dict.fromkeys(u for s in band for u in by_member.get(s, ())):
            weights, ids = by_weight[support]
            if len(support) == 2:
                d_a, d_b = table.deficit_nums(strategy_set, support)
                if d_a != d_b:
                    cut = Fraction(eps_num * table.den - d_b * eps_den, (d_a - d_b) * eps_den)
                    ids = (ids[:bisect.bisect_right(weights, cut)] if d_a > d_b
                           else ids[bisect.bisect_left(weights, cut):])
            passed.update(ids)
        return passed

    def pairs():
        own = {}
        for i, mix1 in enumerate(candidates):
            for j in sorted(passing(1, mix1)):
                if j not in own:
                    own[j] = passing(0, candidates[j])
                if i in own[j]:
                    yield [{0: mix1}, {0: candidates[j]}]

    return pairs()


def run_prop1(
    scenario: ScenarioModel | None = None,
    mechanism: Mechanism | None = None,
    grid_step: int = 20,
) -> ExperimentResult:
    """Impossibility of implementation across all cost-bounded
    perturbations: the two opposed payoff tilts cannot both be passed.

    Builds the tilted perturbations from the separating functional,
    certifies the transfer-bound inequality chain over a mixed-message
    grid, runs the two equilibrium searches, and measures the outcome-gap
    lower bound on two-point perturbations (eta 1/10, 1/5) for the linear-slope check.
    The plus tilt's search is read only up to its first hit with
    ``max_tv <= 1/10``; the minus tilt's is drained, because its hits
    with a zero deficit on both sides are the exact equilibria the bound
    walks.
    """
    if isinstance(grid_step, bool) or not isinstance(grid_step, int) or grid_step < 1:
        raise ModelError(f"grid_step must be an integer of at least 1, not {grid_step!r}")
    etas = (Fraction(1, 10), Fraction(1, 5))
    scenario = scenario or binary_trial_scenario()
    mechanism = mechanism or build_status_quo(scenario, scenario.max_cost)
    if not is_nonconstant(scenario.scf):
        raise ModelError("impossibility run needs a non-constant target")
    sep = separating_functional(scenario.scf, mechanism)
    cv = tuple(sep.scale * v for v in sep.values)
    x_bound = mechanism.transfer_bound
    star = sep.state_index
    others = [
        lot for j, lot in enumerate(scenario.scf.lotteries)
        if not lot.same_as(scenario.scf.lotteries[star])
    ]

    # The two opposed payoff tilts, each on a single circumstance.
    bias_plus = BiasSpec(0, 0, {(s, y): cv[y] for s in range(scenario.n) for y in range(len(cv))})
    bias_minus = BiasSpec(1, 0, {(s, y): -cv[y] for s in range(scenario.n) for y in range(len(cv))})
    plus = Game(scenario, mechanism, build_general_ladder(scenario, (1,), [bias_plus]))
    minus = Game(scenario, mechanism, build_general_ladder(scenario, (1,), [bias_minus]))

    # Inequality chain on the message grid: any opponent mixture that
    # caps agent 1's tilted payoff at the target level must hand agent 2
    # a payoff too high for the remaining outcomes under the opposite tilt.
    msgs = mechanism.messages[1]
    m2_grid = (_two_point_grid(*msgs, grid_step) if len(msgs) == 2
               else [{m: Fraction(1)} for m in msgs])

    def constant(mix):
        """The type strategy mixing constant intent vectors by ``mix``,
        zero weights dropped so that equal plays share one play id."""
        return {(m,) * scenario.n: w for m, w in mix.items() if w}

    chain_rows = []
    v_star_payoff = sep.scale * sep.of(scenario.scf.lotteries[star])
    y_best_neg = max(-sep.scale * sep.of(lot) for lot in others)
    for m2_mix in m2_grid:
        mix = constant(m2_mix)
        tilted = plus.payoff_table(0, 0, {0: mix})
        lhs_41 = max(tilted.value((m1,) * scenario.n) for m1 in mechanism.messages[0])
        if lhs_41 <= v_star_payoff + x_bound:
            lhs_43 = min(
                sum(w * minus.payoff_table(1, 0, {0: constant({m1: 1})}).value(s)
                    for s, w in mix.items())
                for m1 in mechanism.messages[0]
            )
            bound = y_best_neg + x_bound
            chain_rows.append({"m2": m2_mix, "value": lhs_43, "bound": bound, "ok": lhs_43 > bound})

    # Equilibrium searches under the two tilts.
    eps = Fraction(1, 10)
    candidates = _candidate_type_strategies(scenario.n, mechanism.messages[0], grid_step)
    full = full_strategy_set(mechanism.messages[0], scenario.n)

    def implements(game, hits):
        """Whether some hit has ``max_tv <= 1/10``, read up to the first."""
        return any(implementation_metrics(game, prof)[1] <= Fraction(1, 10) for prof in hits)

    passes_plus = implements(plus, _grid_equilibria(plus, full, candidates, eps))
    minus_hits = list(_grid_equilibria(minus, full, candidates, eps))
    passes_minus = implements(minus, minus_hits)
    # The exact equilibria under the minus tilt: its hits where both sides'
    # deficits are 0 on the tables the search built, the pairs a search
    # at epsilon 0 finds, in the same order.
    eq0 = [prof for prof in minus_hits
           if not any(minus.payoff_table(a, 0, prof[1 - a]).deficit(full, prof[a][0])
                      for a in (0, 1))]

    # Two-point perturbation: biased circumstance with probability eta.
    slack = Fraction(1, grid_step)
    worst_match = max(
        1 - tv_distance(lot, scenario.scf(j))
        for prof in eq0
        for j, lot in enumerate(outcome_distribution(minus, prof))
        if not scenario.scf(j).same_as(scenario.scf.lotteries[star])
    ) if eq0 else Fraction(0)
    tv_rows = []
    for eta in etas:
        bound = eta * (1 - worst_match) if eq0 else eta
        tv_rows.append({"eta": eta, "tv_lower_bound": bound, "ok": bound >= eta * (1 - slack)})

    certificates = {
        "inequality_chain": Certificate.of_rows(chain_rows).ok,
        "not_both_passed": not (passes_plus and passes_minus),
        "tv_linear_lower_bound": Certificate.of_rows(tv_rows).ok,
    }
    return ExperimentResult(
        name="prop1",
        parameters={"eta_values": etas, "grid_step": grid_step},
        certificates=certificates,
        artifacts={
            "separating_values": sep.values,
            "margin": sep.margin,
            "scale": sep.scale,
            "transfer_bound": x_bound,
            "chain_rows": chain_rows,
            "implements_under_plus": passes_plus,
            "implements_under_minus": passes_minus,
            "grid": tv_rows,
        },
        provenance={"scenario_states": scenario.state_space.states, "prior": scenario.prior},
    )


def run_prop2(
    scenario: ScenarioModel | None = None, mechanism: Mechanism | None = None
) -> ExperimentResult:
    """No-learning equilibria when payoffs barely respond to the state.

    Applies when utilities are state-independent with positive costs, or
    when both costs exceed twice the utility range; otherwise the run
    holds the one certificate ``applicable: False``.  The default
    mechanism is the status quo rule built on the scenario at its
    largest cost.  Payoffs are read off each agent's coordinate row
    against each constant opponent message; with revealing signals,
    entry ``[k][m1]`` of agent 1's row is state ``k``'s prior times its
    state value, so E max sums each coordinate's largest entry.
    """
    scenario = scenario or _default_prop2_scenario()
    mechanism = mechanism or build_status_quo(scenario, scenario.max_cost)
    u_range = []
    for p in scenario.payoffs:
        flat = [v for row in p.u for v in row]
        u_range.append(max(flat) - min(flat))
    x_u = max(u_range)
    state_independent = all(
        len({tuple(row) for row in p.u}) == 1 for p in scenario.payoffs
    )
    costs = tuple(p.cost for p in scenario.payoffs)
    applicable = (state_independent and all(c > 0 for c in costs)) or all(
        c > 2 * x_u for c in costs
    )
    certificates = {"applicable": applicable}
    artifacts = {"x_u": x_u, "state_independent": state_independent, "costs": costs}
    if not applicable:
        return ExperimentResult(
            "prop2",
            {"applicable": False},
            certificates,
            artifacts,
            {"scenario_states": scenario.state_space.states, "prior": scenario.prior},
        )

    msgs1, msgs2 = mechanism.messages
    n = scenario.n
    game = Game(scenario, mechanism)
    rows1 = {m2: game.coordinate_row(0, 0, (m2,) * n) for m2 in msgs2}
    rows2 = {m1: game.coordinate_row(1, 0, (m1,) * n) for m1 in msgs1}
    a = [[rows1[m2].value((m1,) * n) for m2 in msgs2] for m1 in msgs1]
    b = [[rows2[m1].value((m2,) * n) for m2 in msgs2] for m1 in msgs1]
    x_mix, y_mix, va, vb = support_enumeration_nash(a, b)

    profile = [
        {0: {(m,) * n: w for m, w in zip(msgs1, x_mix) if w}},
        {0: {(m,) * n: w for m, w in zip(msgs2, y_mix) if w}},
    ]
    full1 = full_strategy_set(msgs1, n)
    full2 = full_strategy_set(msgs2, n)
    report = verify_equilibrium(game, profile, (full1, full2))
    outcome = outcome_distribution(game, profile)
    constant_outcome = all(lot == outcome[0] for lot in outcome[1:])
    certificates["no_learning_equilibrium"] = report.is_equilibrium
    certificates["state_constant_outcome"] = constant_outcome
    artifacts["nash"] = {"x": x_mix, "y": y_mix, "values": (va, vb)}
    artifacts["max_residual"] = report.max_residual

    if not state_independent:
        # Learning-value bound (E max minus max E) per pure opponent message.
        rows = []
        for col, m2 in enumerate(msgs2):
            e_max = sum(max(cell.values()) for cell in rows1[m2].entries())
            max_e = max(row[col] for row in a)
            val = e_max - max_e
            rows.append({"m2": m2, "learning_value": val, "bound": 2 * x_u, "ok": val <= 2 * x_u})
        certificates["learning_value_bounded"] = Certificate.of_rows(rows).ok
        artifacts["learning_rows"] = rows
    return ExperimentResult(
        "prop2",
        {"applicable": True, "state_independent": state_independent},
        certificates,
        artifacts,
        {"scenario_states": scenario.state_space.states, "prior": scenario.prior},
    )


# -- cyclical monotonicity and full implementation -------------------------


def _f_classes(scf: SocialChoiceFunction) -> tuple[list[int], list[Lottery]]:
    """Each state's class, the index of its target among the distinct
    target lotteries, and those lotteries in order of first appearance."""
    reps = list(dict.fromkeys(scf.lotteries))
    return [reps.index(lot) for lot in scf.lotteries], reps


def _class_graph(u: AgentPayoff, scf: SocialChoiceFunction):
    """Each state's class, the number of classes and the complete graph
    of arcs W(A, B): the smallest truthful advantage of class A's target
    over class B's among A's states."""
    assign, reps = _f_classes(scf)
    k = len(reps)
    arcs = {
        (a, b): min(
            u.expected_utility(j, reps[a]) - u.expected_utility(j, reps[b])
            for j, cls in enumerate(assign)
            if cls == a
        )
        for a in range(k)
        for b in range(k)
        if a != b
    }
    return assign, k, arcs


def _shortest_paths(arcs, k):
    """Floyd-Warshall over the complete graph on ``k`` classes: the least
    weight of a path from ``a`` to ``b != a``, exact while no cycle has
    negative weight."""
    dist = dict(arcs)
    for mid in range(k):
        for a in range(k):
            for b in range(k):
                if a == b or mid in (a, b):
                    continue
                if dist[(a, mid)] + dist[(mid, b)] < dist[(a, b)]:
                    dist[(a, b)] = dist[(a, mid)] + dist[(mid, b)]
    return dist


def _truthful_margin(u: AgentPayoff, scf: SocialChoiceFunction, assign, transfers) -> Number:
    """Smallest gain, transfers included, of each state's own target over
    another class's: positive iff the transfers make truth strictly best."""
    return min(
        u.expected_utility(j, scf(j)) + transfers[j]
        - u.expected_utility(j, scf(j2)) - transfers[j2]
        for j in range(len(assign))
        for j2 in range(len(assign))
        if assign[j] != assign[j2]
    )


def check_strict_cyclical_monotonicity(u: AgentPayoff, scf: SocialChoiceFunction) -> Certificate:
    """Whether truthful assignment beats every state permutation, with
    the transfers that make truthful outcome choice strictly optimal.

    By Rochet (1987) that holds exactly when every cycle of the graph of
    distinct target lotteries has positive weight, so the check is the
    graph's minimum cycle, a shortest path closed by one arc.  A failure's
    witness is that cycle's weight and the lowest class it was found at
    (``min_cycle_weight``, ``at_class``).  A pass's witness adds
    ``transfers``, state index to transfer: they solve the difference
    constraints t(B) - t(A) <= W(A,B) - delta by shortest-path potentials
    on the class graph, where W(A,B) is the smallest truthful advantage of
    class A over class B and delta eats half the minimum cycle slack:
    class B's potential is the least of 0 and every path weight into B
    under W - delta, read off the same ``_shortest_paths`` the cycle check
    uses.  States sharing a target lottery share a transfer; the minimum
    transfer is normalized to zero.  It also adds ``pair_margin``, the
    smallest gain of a state's own target over another class's, transfers
    included, which the check re-verifies is positive.  With fewer than
    two classes there is no cycle and every transfer is 0.
    """
    assign, k, arcs = _class_graph(u, scf)
    if k < 2:
        zero = dict.fromkeys(range(len(assign)), Fraction(0))
        return Certificate(True, {"classes": k, "transfers": zero})
    dist = _shortest_paths(arcs, k)
    weight, start = min(
        (min(dist[(a, b)] + arcs[(b, a)] for b in range(k) if b != a), a) for a in range(k)
    )
    if weight <= 0:
        return Certificate(False, {"min_cycle_weight": weight, "at_class": start})
    delta = weight / (2 * k)
    dist = _shortest_paths({arc: w - delta for arc, w in arcs.items()}, k)
    reach = [min(Fraction(0), *(dist[(a, b)] for a in range(k) if a != b)) for b in range(k)]
    low = min(reach)
    transfers = {j: reach[cls] - low for j, cls in enumerate(assign)}
    # Independent strictness re-check over all state pairs.
    pair_margin = _truthful_margin(u, scf, assign, transfers)
    if pair_margin <= 0:
        raise ModelError("transfer synthesis failed its strictness re-check")
    return Certificate(True, {"min_cycle_weight": weight, "transfers": transfers,
                              "pair_margin": pair_margin})


def run_prop3(
    scenario: ScenarioModel | None = None,
    agent: int = 0,
    cost: Number | None = None,
) -> ExperimentResult:
    """Full implementation through a single informed respondent.

    Requires a non-constant target.  Without strict cyclical monotonicity
    for the respondent it fails that one check, the minimum cycle its
    witness; otherwise it takes the transfers from the check's witness,
    computes the learning threshold, and enumerates every equilibrium of
    the one-respondent mechanism to confirm each one implements the
    target exactly.
    """
    scenario = scenario or _default_prop3_scenario()
    if not is_nonconstant(scenario.scf):
        raise ModelError("full implementation run needs a non-constant target")
    if isinstance(agent, bool) or not isinstance(agent, int) or agent not in (0, 1):
        raise ModelError(f"prop3: the respondent must be agent 0 or 1, not {agent!r}")
    if cost is not None:
        cost = _exact("prop3", "cost", cost)
    u = scenario.payoffs[agent]
    provenance = {"scenario_states": scenario.state_space.states, "prior": scenario.prior}
    verdict = check_strict_cyclical_monotonicity(u, scenario.scf)
    if not verdict.ok:
        return ExperimentResult("prop3", {"agent": agent, "cost": cost},
                                {"cyclical_monotonicity": False}, dict(verdict.witness), provenance)
    transfers, pair_margin = verdict.witness["transfers"], verdict.witness["pair_margin"]
    assign, _ = _f_classes(scenario.scf)
    n = scenario.n
    mech = build_one_respondent(scenario, agent, {j + 1: transfers[j] for j in range(n)})
    truthful = tuple(range(1, n + 1))
    other = (1,) * n  # the other agent's only message
    zero_cost = Game(scenario.with_cost(0), mech)
    truthful_value = zero_cost.inner_value(agent, 0, truthful, other)
    best_constant = max(zero_cost.inner_value(agent, 0, (m,) * n, other) for m in truthful)
    learning_margin = truthful_value - best_constant
    threshold = learning_margin / 2
    c = cost if cost is not None else learning_margin / 4

    # The other agent has one message, so equilibria are exactly the
    # mixtures over the respondent's best replies.
    game = Game(scenario.with_cost(c), mech)
    strategies = full_strategy_set(truthful, n)
    argmax = game.payoff_table(agent, 0, {0: {other: Fraction(1)}}).best(strategies)[0]
    full_impl = all(all(assign[s[j] - 1] == assign[j] for j in range(n)) for s in argmax)
    certificates = {
        "cyclical_monotonicity": verdict.ok,
        "transfer_conditions": pair_margin > 0,
        "cost_below_threshold": c < threshold,
        "truthful_strict_best": argmax == (truthful,) or full_impl,
        "full_implementation": full_impl,
    }
    return ExperimentResult(
        "prop3",
        {"agent": agent, "cost": c},
        certificates,
        {
            "transfers": transfers,
            "pair_margin": pair_margin,
            "learning_margin": learning_margin,
            "threshold": threshold,
            "argmax": argmax,
        },
        provenance,
    )


def run_maskin_contagion(
    scenario: ScenarioModel | None = None,
    bias_factor: Number = 10,
    depth: int = 100,
    eta_grid=("1/100", "1/20", "1/10"),
) -> ExperimentResult:
    """Matching-rule uniqueness, at reward 1, on the renormalized
    geometric ladder.

    The ladder keeps the geometric posterior at every rung (see
    ``build_ladder``), so iterated strict dominance unravels every type
    to the status-quo report.
    """
    scenario = scenario or binary_trial_scenario()
    reward = Fraction(1)
    mech = build_maskin(scenario, reward)
    factor = _exact("maskin-contagion", "bias_factor", bias_factor)
    bias = BiasSpec(0, 0, preferred_outcome_bias(scenario, 0, factor * reward))
    grid, status_quo = [], [(1,) * scenario.n]
    for eta, pert, game in _ladder_games(
        "maskin-contagion", scenario, mech, depth, eta_grid, [bias], "renormalize"
    ):
        surviving, rounds, _ = iterated_dominance(game, _strategy_sets(game))
        unique = all(pool == status_quo for side in surviving for pool in side.values())
        grid.append({"eta": eta, "rounds": rounds, "unique_always_status_quo": unique,
                     "tail_mass": pert.tail_mass})
    return ExperimentResult(
        "maskin-contagion",
        {"reward": reward, "bias_factor": bias_factor, "depth": depth,
         "eta_grid": [row["eta"] for row in grid]},
        {"unique_survivor_everywhere": all(row["unique_always_status_quo"] for row in grid)},
        {"grid": grid},
        {"scenario_states": scenario.state_space.states, "prior": scenario.prior},
    )


# -- registry --------------------------------------------------------------


def _default_prop2_scenario():
    # State-independent stakes: both agents value the second outcome.
    return make_scenario(
        states=[("innocent", "7/10"), ("guilty", "3/10")],
        outcomes=["acquit", "convict"],
        scf_rows={"innocent": {"acquit": 1}, "guilty": {"convict": 1}},
        costs=(1, 1),
        u_tables=(
            {("innocent", "convict"): 2, ("guilty", "convict"): 2},
            {("innocent", "convict"): 1, ("guilty", "convict"): 1},
        ),
    )


def _default_prop3_scenario():
    return make_scenario(
        states=[("alpha", "3/5"), ("beta", "1/4"), ("gamma", "3/20")],
        outcomes=["left", "middle", "right"],
        scf_rows={"alpha": {"left": 1}, "beta": {"middle": 1}, "gamma": {"right": 1}},
        costs=(0, 0),
        u_tables=(
            {
                ("alpha", "left"): 3, ("alpha", "middle"): 1, ("alpha", "right"): 0,
                ("beta", "left"): 0, ("beta", "middle"): 2, ("beta", "right"): 1,
                ("gamma", "left"): 1, ("gamma", "middle"): 0, ("gamma", "right"): 3,
            },
            {},
        ),
    )


EXPERIMENTS = ("maskin-contagion", "prop1", "prop2", "prop3", "thm1", "thm2", "thm3")


def run_experiment(name: str, scenario: ScenarioModel | None = None, **kwargs) -> ExperimentResult:
    """Run ``run_<name>`` on ``scenario`` (None for its default input).

    Options the run function does not take raise ``ModelError`` naming
    the experiment.  The function is looked up when called, so a wrapper
    installed on the module is the one that runs.
    """
    if name not in EXPERIMENTS:
        raise ModelError(f"unknown experiment {name!r}; see experiment list")
    run = globals()["run_" + name.replace("-", "_")]
    try:
        inspect.signature(run).bind(scenario, **kwargs)
    except TypeError as exc:
        raise ModelError(f"experiment {name}: {exc}") from None
    return run(scenario, **kwargs)


def list_experiments() -> list[str]:
    return list(EXPERIMENTS)
