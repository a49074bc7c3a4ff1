"""Named, reproducible experiment runs.

Each experiment builds its mechanism and perturbations, runs the relevant
verification machinery, and returns an :class:`ExperimentResult` whose
JSON form is byte-stable: all numbers are exact rationals rendered as
strings, dictionaries are emitted with sorted keys, and every random
choice flows through a seeded generator recorded in the result.
"""

from __future__ import annotations

import inspect
import itertools
import json
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .core import (
    AgentPayoff,
    Lottery,
    ModelError,
    ScenarioModel,
    SocialChoiceFunction,
    binary_trial_scenario,
    is_nonconstant,
    three_state_scenario,
    tv_distance,
)
from .engine import (
    Game,
    expected_payoff,
    mixture_payoff,
    outcome_distribution,
    size_of_signal_structure,
    SignalStructure,
    TrembleSpec,
    canonical_replacement,
    full_strategy_set,
    is_constant,
    mislabel_signals,
    restricted_strategy_set,
    revealing_signals,
    truthful_profile,
)
from .equilibrium import (
    best_response,
    gamma_dominance_threshold,
    iterate_best_response,
    iterated_dominance,
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
    solve_rewards,
)
from .numeric import Number, fmt, rat
from .perturbations import (
    BiasSpec,
    Perturbation,
    build_ladder,
    simple_bias_ladder,
)


def _jsonable(value):
    if isinstance(value, Fraction):
        return fmt(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Lottery):
        return [_jsonable(w) for w in value.weights]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(_key(k)): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(_key(kv[0])))}
    return str(value)


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    if isinstance(k, Fraction):
        return fmt(k)
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


# -- shared helpers --------------------------------------------------------


def _with_cost(scenario: ScenarioModel, cost: Number) -> ScenarioModel:
    payoffs = tuple(replace(p, cost=rat(cost)) for p in scenario.payoffs)
    return ScenarioModel(scenario.state_space, scenario.outcome_space, scenario.scf, payoffs)


def preferred_outcome_bias(
    scenario: ScenarioModel, state_index: int, strength: Number
) -> dict[tuple[int, int], Number]:
    """Payoff override granting ``strength`` for the modal outcome of
    ``f(state_index)`` in every state."""
    weights = scenario.scf(state_index).weights
    target = max(range(len(weights)), key=lambda y: weights[y])
    return {(s, target): rat(strength) for s in range(scenario.n)}


def step3_closure_certificate(
    mechanism: Mechanism, scenario: ScenarioModel, variant: str
) -> tuple[bool, list]:
    """Exhaustive replacement-dominance check.

    Every pure strategy outside the restricted set must (a) induce the
    same outcome as its canonical replacement at every state against
    every message a restricted opponent may send there and (b) never earn
    a larger expected transfer against a restricted opponent, strictly
    smaller against the truthful one for constant vectors of a high
    message.  The restricted opponent may pick its message at each state
    from that state's choices, so the worst transfer gain over it is a sum
    of per-state minima.  Returns failures as witnesses: an outcome
    failure names the strategy, the state and the opponent's message
    there; a transfer failure names the strategy, the opponent strategy
    and the gain.
    """
    n = scenario.n
    choices = restricted_strategy_set(variant, n)
    truth = tuple(range(1, n + 1))
    msgs_own, msgs_opp = mechanism.messages
    # Per message triple (a, a_star, b): whether a and its replacement
    # a_star give the same outcome against b, and the transfer gain of
    # a_star over a.
    coordinate = {
        (a, a_star, b): (
            mechanism.g(a, b).same_as(mechanism.g(a_star, b)),
            mechanism.t(0, a_star, b) - mechanism.t(0, a, b),
        )
        for a in msgs_own
        for a_star in msgs_own
        for b in msgs_opp
    }
    failures = []
    for s in itertools.product(*full_strategy_set(msgs_own, n)):
        if all(m in c for m, c in zip(s, choices)):
            continue
        s_star = canonical_replacement(s, variant, n)
        worst_gain = Fraction(0)
        picks = []
        for j, (a, a_star) in enumerate(zip(s, s_star)):
            for b in choices[j]:
                if not coordinate[(a, a_star, b)][0]:
                    failures.append(
                        {"strategy": s, "state": j, "opponent_message": b, "kind": "outcome"}
                    )
            b_worst = min(choices[j], key=lambda b: coordinate[(a, a_star, b)][1])
            picks.append(b_worst)
            worst_gain += scenario.prior[j] * coordinate[(a, a_star, b_worst)][1]
        if worst_gain < 0:
            failures.append(
                {"strategy": s, "opponent": tuple(picks), "gain": worst_gain, "kind": "transfer"}
            )
        elif is_constant(s) and s[0] >= 2 and variant != "sqr":
            gain = sum(
                scenario.prior[j] * coordinate[(a, a_star, b)][1]
                for j, (a, a_star, b) in enumerate(zip(s, s_star, truth))
            )
            if gain <= 0:
                failures.append({"strategy": s, "opponent": truth, "gain": gain, "kind": "transfer"})
    return not failures, failures


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


def _ladder_grid_run(
    scenario: ScenarioModel,
    mechanism: Mechanism,
    variant: str,
    depth: int,
    eta_grid,
    biases,
) -> tuple[list[dict], bool]:
    """Best-response equilibria on a family of ladders; per-eta metrics."""
    rs = restricted_strategy_set(variant, scenario.n)
    sets = (rs, rs)
    grid = []
    all_ok = True
    for eta in eta_grid:
        eta = rat(eta)
        pert = build_ladder(scenario, depth, eta, list(biases))
        game = Game(scenario, mechanism, pert)
        res = iterate_best_response(game, sets)
        ok = res.converged and res.report is not None and res.report.is_equilibrium
        all_ok = all_ok and ok
        grid.append(
            {
                "eta": eta,
                "converged": res.converged,
                "equilibrium": ok,
                "rounds": res.rounds,
                "truthful_mass": res.report.truthful_mass if res.report else None,
                "max_tv": res.report.max_tv if res.report else None,
                "tail_mass": pert.tail_mass,
            }
        )
    return grid, all_ok


# -- named experiment runs -------------------------------------------------


def run_thm1(
    scenario: ScenarioModel | None = None,
    c_bar: Number = 1,
    depth: int = 100,
    eta_grid=("1/1000", "1/100", "1/20", "1/10"),
    biases: list[BiasSpec] | None = None,
) -> ExperimentResult:
    """Status quo rule with ascending transfers on a ladder family.

    Certifies the dominance threshold, constructs an equilibrium on every
    ladder in the grid, fits the linear containment of non-truthful mass,
    and (for small n) checks replacement closure exhaustively.
    """
    scenario = scenario or binary_trial_scenario()
    c_bar = rat(c_bar)
    mech = build_status_quo(scenario, c_bar)
    if biases is None:
        bias_strength = 10 * mech.schedule.top
        biases = [BiasSpec(0, 0, preferred_outcome_bias(scenario, 0, bias_strength))]
    rs = restricted_strategy_set("sqr", scenario.n)
    cert_gamma = gamma_dominance_threshold(mech, scenario, (rs, rs), c_bar)
    grid, ladder_ok = _ladder_grid_run(scenario, mech, "sqr", depth, eta_grid, biases)
    k, resid = _mass_linear_fit(grid)
    certificates = {
        "gamma_below_half": cert_gamma.below_half,
        "ladder_equilibria": ladder_ok,
        "mass_linear_bound": all(
            (1 - row["truthful_mass"]) <= k * row["eta"] for row in grid
        ),
        "mass_fit_residual_small": resid <= Fraction(1, 20),
    }
    if scenario.n <= 3:
        ok, failures = step3_closure_certificate(mech, scenario, "sqr")
        certificates["step3_closure"] = ok
    return ExperimentResult(
        name="thm1",
        parameters={"n": scenario.n, "c_bar": c_bar, "depth": depth, "eta_grid": list(eta_grid)},
        certificates=certificates,
        artifacts={
            "gamma": cert_gamma.gamma,
            "schedule": mech.schedule.rewards,
            "grid": grid,
            "mass_slope_K": k,
            "mass_fit_residual": resid,
        },
        provenance={"scenario_states": scenario.state_space.states, "prior": scenario.prior},
    )


def run_thm2(
    scenario: ScenarioModel | None = None,
    depth: int = 100,
    eta_grid=("1/1000", "1/100", "1/20", "1/10"),
    biases: list[BiasSpec] | None = None,
    cost_cap: Number = 10**6,
) -> ExperimentResult:
    """Augmented rule run; allows unbounded-cost bias types (capped for
    finite representation) and certifies the constant-deviation comparison."""
    scenario = scenario or binary_trial_scenario()
    if not scenario.generic:
        raise ModelError("augmented rule run needs a generic prior")
    mech = build_augmented_status_quo(scenario)
    sched = mech.schedule
    if biases is None:
        strength = 10 * sched.top
        biases = [
            BiasSpec(
                0,
                0,
                preferred_outcome_bias(scenario, min(1, scenario.n - 1), strength),
                cost=rat(cost_cap) * scenario.payoffs[0].cost,
            )
        ]
    rs = restricted_strategy_set("asqr", scenario.n)
    cert_gamma = gamma_dominance_threshold(mech, scenario, (rs, rs), scenario.max_cost)
    grid, ladder_ok = _ladder_grid_run(scenario, mech, "asqr", depth, eta_grid, biases)
    # Constant high reports lose to coordinated low play under the ratio
    # constraint: q(j) R^j < q(1) R^0 for every j >= 2.
    constant_cmp = all(
        scenario.prior[j - 1] * sched.r(j) < scenario.prior[0] * sched.r(0)
        for j in range(2, scenario.n + 1)
    )
    certificates = {
        "gamma_below_half": cert_gamma.below_half,
        "ladder_equilibria": ladder_ok,
        "constant_deviation_comparison": constant_cmp,
    }
    if scenario.n <= 3:
        ok, _ = step3_closure_certificate(mech, scenario, "asqr")
        certificates["step3_closure"] = ok
    return ExperimentResult(
        name="thm2",
        parameters={"n": scenario.n, "depth": depth, "eta_grid": list(eta_grid), "cost_cap": rat(cost_cap)},
        certificates=certificates,
        artifacts={"gamma": cert_gamma.gamma, "schedule": sched.rewards, "grid": grid},
        provenance={"scenario_states": scenario.state_space.states, "prior": scenario.prior},
    )


def deviation_dominance_certificate(
    mechanism: Mechanism,
    structure: SignalStructure,
    tau: Number,
    noise_opp: dict[int, Number],
    agent: int = 0,
) -> tuple[bool, list]:
    """Replacement-transfer check under trembles and signal noise.

    For every own signal and every high realized message that is neither
    the status quo nor the signal's meaning, the worst-case expected
    transfer over restricted opponent play must stay strictly below the
    transfer from the mirrored negative message.  Also checks the
    ex ante comparison for wholly-constant high vectors.  Returns the
    witness rows; ``ok`` is False as soon as one comparison fails.
    """
    tau = rat(tau)
    sched = mechanism.schedule
    n = max(sched.rewards)
    x = sched.penalty if sched.penalty is not None else Fraction(0)
    modified = sched.penalty is not None
    r0 = sched.r(0)
    opp = 1 - agent
    h_own = structure.meanings[agent]
    h_opp = structure.meanings[opp]
    opp_choices = restricted_strategy_set("asqr", n, h_opp)
    noise_m = {m: noise_opp.get(m, Fraction(0)) for m in mechanism.messages[opp]}
    noise_low = sum(p for m, p in noise_m.items() if m <= 1)
    rows = []
    ok = True

    def realized_probs(intent: int, m: int):
        p_m = (1 - tau) * (1 if intent == m else 0) + tau * noise_m[m]
        p_low = (1 - tau) * (1 if intent <= 1 else 0) + tau * noise_low
        return p_m, p_low

    for k in range(structure.sizes[agent]):
        own_total = structure.signal_prob(agent, k)
        if own_total == 0:
            continue
        cond = {}
        for (theta, s1, s2), p in structure.joint.items():
            if (s1 if agent == 0 else s2) == k and p:
                key = s2 if agent == 0 else s1
                cond[key] = cond.get(key, Fraction(0)) + p / own_total
        for m in range(2, n + 1):
            if m == h_own[k]:
                continue
            worst = Fraction(0)
            for s_opp, p_cond in cond.items():
                best = None
                for b in opp_choices[s_opp]:
                    p_m, p_low = realized_probs(b, m)
                    if modified:
                        value = p_m * sched.r(m) + p_low * (r0 - x)
                    else:
                        value = p_m * sched.r(m) - p_low * r0
                    if best is None or value > best:
                        best = value
                worst += p_cond * best
            # The modified rule promises a strict gap; the augmented rule
            # only ever had a weak one, so ties do not count against it.
            bound = r0 if modified else Fraction(0)
            passed = worst < bound if modified else worst <= bound
            ok = ok and passed
            rows.append(
                {
                    "signal": k,
                    "message": m,
                    "worst_case": worst,
                    "bound": bound,
                    "ok": passed,
                }
            )
    # Constant high vectors, compared ex ante against their negation.
    prob_meaning = {
        j: sum(
            p
            for (theta, s1, s2), p in structure.joint.items()
            if h_opp[s2 if agent == 0 else s1] == j
        )
        for j in range(1, n + 1)
    }
    for m in range(2, n + 1):
        p_m_max = (1 - tau) * prob_meaning[m] + tau * noise_m[m]
        p_low_min = (1 - tau) * prob_meaning[1] + tau * noise_low
        if modified:
            worst = p_m_max * sched.r(m) + max(
                (r0 - x) * ((1 - tau) + tau * noise_low), (r0 - x) * (tau * noise_low)
            )
            passed = worst < r0
        else:
            worst = p_m_max * sched.r(m) - p_low_min * r0
            passed = worst < 0
        ok = ok and passed
        rows.append({"signal": "constant", "message": m, "worst_case": worst, "ok": passed})
    return ok, rows


def run_thm3(
    scenario: ScenarioModel | None = None,
    tau: Number = "1/100",
    delta: Number = "1/100",
    noise_target: int = 2,
) -> ExperimentResult:
    """Trembles and noisy signals: the modified rule survives where the
    augmented rule's replacement argument breaks.

    Uses adversarial tremble noise concentrated on one high message, a
    correlated signal structure of size exactly ``delta``, and its
    perfectly-revealing limit at zero noise.
    """
    scenario = scenario or three_state_scenario()
    tau = rat(tau)
    delta = rat(delta)
    msqr = build_modified_status_quo(scenario)
    asqr = build_augmented_status_quo(scenario)
    n = scenario.n
    noise = {noise_target: Fraction(1)}
    revealing = revealing_signals(scenario)
    noisy = mislabel_signals(scenario, delta)

    asqr_ok, asqr_rows = deviation_dominance_certificate(asqr, revealing, tau, noise)
    msqr_ok, msqr_rows = deviation_dominance_certificate(msqr, noisy, tau, noise)

    def make_game(mech, structure, tau_now):
        tremble = None
        if tau_now:
            dist = tuple(
                {m: noise.get(m, Fraction(0)) for m in mech.messages[i]} for i in range(2)
            )
            tremble = TrembleSpec(tau_now, dist)
        return Game(scenario, mech, signals=structure, tremble=tremble)

    sets = tuple(
        restricted_strategy_set("asqr", n, meanings=noisy.meanings[i]) for i in (0, 1)
    )
    game = make_game(msqr, noisy, tau)
    report = verify_equilibrium(game, truthful_profile(game), sets)

    sets0 = tuple(
        restricted_strategy_set("asqr", n, meanings=revealing.meanings[i]) for i in (0, 1)
    )
    game0 = make_game(msqr, revealing, Fraction(0))
    report0 = verify_equilibrium(game0, truthful_profile(game0), sets0)

    certificates = {
        "asqr_certificate_fails": not asqr_ok,
        "msqr_certificate": msqr_ok,
        "msqr_truthful_equilibrium": report.is_equilibrium,
        "revealing_limit_equilibrium": report0.is_equilibrium,
        "structure_size_matches": Fraction(delta)
        == size_of_signal_structure(noisy, scenario.prior),
    }
    return ExperimentResult(
        name="thm3",
        parameters={"n": n, "tau": tau, "delta": delta, "noise_target": noise_target},
        certificates=certificates,
        artifacts={
            "asqr_witness": asqr_rows,
            "msqr_witness": msqr_rows,
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
    from .equilibrium import solve_linear

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


def _single_circumstance(scenario, biases):
    return Perturbation(scenario, (Fraction(1),), (((0,),), ((0,),)), tuple(biases))


def _two_point_grid(a, b, step: int) -> list[dict]:
    """``{a: k/step, b: 1 - k/step}`` for ``k = 0..step``, zero weights kept."""
    return [{a: Fraction(k, step), b: 1 - Fraction(k, step)} for k in range(step + 1)]


def _candidate_type_strategies(n_states: int, messages, step: int = 20):
    """Pure strategies plus a grid of mixtures over constant vectors."""
    pures = [
        {s: Fraction(1)} for s in itertools.product(*full_strategy_set(messages, n_states))
    ]
    constants = [tuple([m] * n_states) for m in messages]
    if len(constants) != 2:
        return pures
    return pures + [
        {s: w for s, w in mix.items() if w} for mix in _two_point_grid(*constants, step)
    ]


def _grid_equilibria(game, strategy_set, candidates, epsilon):
    """All candidate profile pairs passing the residual check, with their
    reports; only passing pairs get one.

    An agent's residual depends on the pair only through the opponent's
    candidate, which fixes its best value and payoff table, and its own
    candidate's value in that table.  So both are read once per opponent
    candidate, and agent 2's residual is taken only where agent 1's
    passes."""
    sets = (strategy_set, strategy_set)
    reads = [
        [
            (best_response(game, agent, 0, {0: opp}, strategy_set)[1],
             game.payoff_table(agent, 0, {0: opp}))
            for opp in candidates
        ]
        for agent in (0, 1)
    ]

    def residual(agent, own, opp):
        best, table = reads[agent][opp]
        return best - sum(w * table.value(s) for s, w in candidates[own].items() if w)

    found = []
    for i, mix1 in enumerate(candidates):
        for j, mix2 in enumerate(candidates):
            if residual(0, i, j) <= epsilon and residual(1, j, i) <= epsilon:
                profile = [{0: mix1}, {0: mix2}]
                found.append((profile, verify_equilibrium(game, profile, sets, epsilon)))
    return found


def run_prop1(
    scenario: ScenarioModel | None = None,
    mechanism: Mechanism | None = None,
    eta_values=("1/10", "1/5"),
    grid_step: int = 20,
) -> ExperimentResult:
    """Impossibility of implementation across all cost-bounded
    perturbations: the two opposed payoff tilts cannot both be passed.

    Builds the tilted perturbations from the separating functional,
    certifies the transfer-bound inequality chain over a mixed-message
    grid, runs the two equilibrium searches, and measures the outcome-gap
    lower bound on two-point perturbations for the linear-slope check.
    """
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
    plus = Game(scenario, mechanism, _single_circumstance(scenario, [bias_plus]))
    minus = Game(scenario, mechanism, _single_circumstance(scenario, [bias_minus]))

    # Inequality chain on the message grid: any opponent mixture that
    # caps agent 1's tilted payoff at the target level must hand agent 2
    # a payoff too high for the remaining outcomes under the opposite tilt.
    msgs = mechanism.messages[1]
    m2_grid = (_two_point_grid(*msgs, grid_step) if len(msgs) == 2
               else [{m: Fraction(1)} for m in msgs])

    def constant(mix):
        """The type strategy mixing constant intent vectors by ``mix``."""
        return {(m,) * scenario.n: w for m, w in mix.items()}

    chain_ok = True
    chain_rows = []
    v_star_payoff = sep.scale * sep.of(scenario.scf.lotteries[star])
    y_best_neg = max(-sep.scale * sep.of(lot) for lot in others)
    for m2_mix in m2_grid:
        lhs_41 = max(
            expected_payoff(plus, 0, 0, (m1,) * scenario.n, {0: constant(m2_mix)})
            for m1 in mechanism.messages[0]
        )
        if lhs_41 <= v_star_payoff + x_bound:
            lhs_43 = min(
                mixture_payoff(minus, 1, 0, constant(m2_mix), {0: constant({m1: 1})})
                for m1 in mechanism.messages[0]
            )
            ok = lhs_43 > y_best_neg + x_bound
            chain_ok = chain_ok and ok
            chain_rows.append({"m2": m2_mix, "value": lhs_43, "bound": y_best_neg + x_bound, "ok": ok})

    # Equilibrium searches under the two tilts.
    eps = Fraction(1, 10)
    candidates = _candidate_type_strategies(scenario.n, mechanism.messages[0], grid_step)
    full = full_strategy_set(mechanism.messages[0], scenario.n)
    hits, passes = {}, {}
    for label, game in (("plus", plus), ("minus", minus)):
        hits[label] = _grid_equilibria(game, full, candidates, eps)
        passes[label] = any(rep.max_tv <= Fraction(1, 10) for _, rep in hits[label])
    # The exact equilibria under the minus tilt: its hits without residual,
    # the pairs a search at epsilon 0 finds, in the same order.
    eq0 = [prof for prof, rep in hits["minus"] if rep.max_residual == 0]

    # Two-point perturbation: biased circumstance with probability eta.
    slack = Fraction(1, grid_step)
    tv_rows = []
    tv_ok = True
    worst_match = max(
        (1 - tv_distance(
            outcome_distribution(minus, prof, j),
            scenario.scf(j),
        ))
        for prof in eq0
        for j in range(scenario.n)
        if not scenario.scf(j).same_as(scenario.scf.lotteries[star])
    ) if eq0 else Fraction(0)
    for eta in eta_values:
        eta = rat(eta)
        bound = eta * (1 - worst_match) if eq0 else eta
        ok = bound >= eta * (1 - slack)
        tv_ok = tv_ok and ok
        tv_rows.append({"eta": eta, "tv_lower_bound": bound, "ok": ok})

    certificates = {
        "inequality_chain": chain_ok,
        "not_both_passed": not (passes["plus"] and passes["minus"]),
        "tv_linear_lower_bound": tv_ok,
    }
    return ExperimentResult(
        name="prop1",
        parameters={"eta_values": [rat(e) for e in eta_values], "grid_step": grid_step},
        certificates=certificates,
        artifacts={
            "separating_values": sep.values,
            "margin": sep.margin,
            "scale": sep.scale,
            "transfer_bound": x_bound,
            "chain_rows": chain_rows,
            "implements_under_plus": passes["plus"],
            "implements_under_minus": passes["minus"],
            "grid": tv_rows,
        },
        provenance={"scenario_states": scenario.state_space.states, "prior": scenario.prior},
    )


def run_prop2(
    scenario: ScenarioModel | None = None, mechanism: Mechanism | None = None
) -> ExperimentResult:
    """No-learning equilibria when payoffs barely respond to the state.

    Applies when utilities are state-independent with positive costs, or
    when both costs exceed twice the utility range; otherwise the result
    is flagged inapplicable rather than failed.  The default mechanism is
    the status quo rule built at unit costs with the scenario's cost bound.
    """
    scenario = scenario or _default_prop2_scenario()
    mechanism = mechanism or build_status_quo(_with_cost(scenario, 1), scenario.max_cost)
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
    # inner_value takes the agent's own strategy first.
    a = [[game.inner_value(0, 0, (m1,) * n, (m2,) * n) for m2 in msgs2] for m1 in msgs1]
    b = [[game.inner_value(1, 0, (m2,) * n, (m1,) * n) for m2 in msgs2] for m1 in msgs1]
    x_mix, y_mix, va, vb = support_enumeration_nash(a, b)

    profile = [
        {0: {(m,) * n: w for m, w in zip(msgs1, x_mix) if w}},
        {0: {(m,) * n: w for m, w in zip(msgs2, y_mix) if w}},
    ]
    full1 = full_strategy_set(msgs1, n)
    full2 = full_strategy_set(msgs2, n)
    report = verify_equilibrium(game, profile, (full1, full2))
    outcome = [outcome_distribution(game, profile, j) for j in range(n)]
    constant_outcome = all(tv_distance(outcome[0], outcome[j]) == 0 for j in range(1, n))
    certificates["no_learning_equilibrium"] = report.is_equilibrium
    certificates["state_constant_outcome"] = constant_outcome
    artifacts["nash"] = {"x": x_mix, "y": y_mix, "values": (va, vb)}
    artifacts["max_residual"] = report.max_residual

    if not state_independent:
        # Learning-value bound (E max minus max E) per pure opponent message.
        rows = []
        ok = True
        for col, m2 in enumerate(msgs2):
            e_max = sum(
                max(q * game.state_value(0, 0, j, m1, m2) for m1 in msgs1)
                for j, q in enumerate(scenario.prior)
            )
            max_e = max(row[col] for row in a)
            val = e_max - max_e
            good = val <= 2 * x_u
            ok = ok and good
            rows.append({"m2": m2, "learning_value": val, "bound": 2 * x_u, "ok": good})
        certificates["learning_value_bounded"] = ok
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
    """Map each state to the index of its distinct target lottery."""
    reps: list[Lottery] = []
    assign = []
    for lot in scf.lotteries:
        for idx, rep in enumerate(reps):
            if lot.same_as(rep):
                assign.append(idx)
                break
        else:
            reps.append(lot)
            assign.append(len(reps) - 1)
    return assign, reps


def _class_graph(u: AgentPayoff, scf: SocialChoiceFunction):
    """Each state's class, the number of classes, the complete graph of
    arcs W(A, B) (the smallest truthful advantage of class A's target
    over class B's among A's states), and its minimum cycle."""
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
    return assign, k, arcs, _min_cycle(arcs, k)


def _min_cycle(arcs, k):
    """Minimum weight of a directed cycle over the complete class graph,
    with the class it was found at; (None, None) when k < 2."""
    if k < 2:
        return None, None
    dist = dict(arcs)
    for mid in range(k):
        for a in range(k):
            for b in range(k):
                if a == b or mid in (a, b):
                    continue
                if dist[(a, mid)] + dist[(mid, b)] < dist[(a, b)]:
                    dist[(a, b)] = dist[(a, mid)] + dist[(mid, b)]
    best = best_start = None
    for a in range(k):
        loop = min(dist[(a, b)] + arcs[(b, a)] for b in range(k) if b != a)
        if best is None or loop < best:
            best, best_start = loop, a
    return best, best_start


def _cycle_verdict(k, cycle):
    """Strict cyclical monotonicity from the class graph's minimum cycle,
    with its witness."""
    weight, start = cycle
    if weight is None:
        return True, {"classes": k}
    if weight <= 0:
        return False, {"min_cycle_weight": weight, "at_class": start}
    return True, {"min_cycle_weight": weight}


def check_strict_cyclical_monotonicity(
    u: AgentPayoff, scf: SocialChoiceFunction
) -> tuple[bool, dict]:
    """Whether truthful assignment beats every state permutation.

    By Rochet (1987) that holds exactly when every cycle of the graph of
    distinct target lotteries has positive weight, so the check is the
    graph's minimum cycle; the witness is its weight and start class.
    """
    _, k, _, cycle = _class_graph(u, scf)
    return _cycle_verdict(k, cycle)


def synthesize_transfers(u: AgentPayoff, scf: SocialChoiceFunction) -> dict[int, Number]:
    """Per-state transfers making truthful outcome choice strictly optimal.

    Solves the difference constraints t(B) - t(A) <= W(A,B) - delta by
    shortest-path potentials on the class graph, where W(A,B) is the
    smallest truthful advantage of class A over class B and delta eats
    half the minimum cycle slack.  States sharing a target lottery share
    a transfer; the minimum transfer is normalized to zero.  Raises
    ``ModelError`` when strict cyclical monotonicity fails.
    """
    assign, k, arcs, cycle = _class_graph(u, scf)
    ok, witness = _cycle_verdict(k, cycle)
    if not ok:
        raise ModelError(
            "strict cyclical monotonicity fails: minimum cycle weight "
            f"{fmt(witness['min_cycle_weight'])} at class {witness['at_class']}"
        )
    if k == 1:
        return {j: Fraction(0) for j in range(len(scf.lotteries))}
    delta = cycle[0] / (2 * k)
    # Bellman-Ford from a virtual source connected by zero arcs.
    dist = [Fraction(0)] * k
    for _ in range(k):
        changed = False
        for (a, b), w in arcs.items():
            if dist[a] + w - delta < dist[b]:
                dist[b] = dist[a] + w - delta
                changed = True
        if not changed:
            break
    low = min(dist)
    potentials = [d - low for d in dist]
    out = {j: potentials[assign[j]] for j in range(len(scf.lotteries))}
    # Independent strictness re-check over all state pairs.
    for j in range(len(assign)):
        for j2 in range(len(assign)):
            if assign[j] == assign[j2]:
                continue
            lhs = u.expected_utility(j, scf(j)) + out[j]
            rhs = u.expected_utility(j, scf(j2)) + out[j2]
            if lhs <= rhs:
                raise ModelError("transfer synthesis failed its strictness re-check")
    return out


def run_prop3(
    scenario: ScenarioModel | None = None,
    agent: int = 0,
    cost: Number | None = None,
) -> ExperimentResult:
    """Full implementation through a single informed respondent.

    Requires a non-constant target and strict cyclical monotonicity for
    the respondent; synthesizes transfers, computes the learning
    threshold, and enumerates every equilibrium of the one-respondent
    mechanism to confirm each one implements the target exactly.
    """
    scenario = scenario or _default_prop3_scenario()
    if not is_nonconstant(scenario.scf):
        raise ModelError("full implementation run needs a non-constant target")
    u = scenario.payoffs[agent]
    transfers = synthesize_transfers(u, scenario.scf)
    n = scenario.n
    assign, _ = _f_classes(scenario.scf)
    pair_margin = min(
        (
            u.expected_utility(j, scenario.scf(j)) + transfers[j]
            - u.expected_utility(j, scenario.scf(j2)) - transfers[j2]
        )
        for j in range(n)
        for j2 in range(n)
        if assign[j] != assign[j2]
    )
    mech = build_one_respondent(scenario, agent, {j + 1: transfers[j] for j in range(n)})
    truthful = tuple(range(1, n + 1))
    other = (1,) * n  # the other agent's only message
    zero_cost = Game(_with_cost(scenario, 0), mech)
    truthful_value = zero_cost.inner_value(agent, 0, truthful, other)
    best_constant = max(zero_cost.inner_value(agent, 0, (m,) * n, other) for m in truthful)
    learning_margin = truthful_value - best_constant
    threshold = learning_margin / 2
    c = rat(cost) if cost is not None else learning_margin / 4

    # The other agent has one message, so equilibria are exactly the
    # mixtures over the respondent's best replies.
    game = Game(_with_cost(scenario, c), mech)
    strategies = full_strategy_set(truthful, n)
    argmax, _ = best_response(game, agent, 0, {0: {other: Fraction(1)}}, strategies)
    full_impl = argmax == [truthful] or all(
        all(assign[s[j] - 1] == assign[j] for j in range(n)) for s in argmax
    )
    certificates = {
        "cyclical_monotonicity": True,
        "transfer_conditions": True,  # synthesize_transfers re-checks internally
        "cost_below_threshold": c < threshold,
        "truthful_strict_best": argmax == [truthful] or full_impl,
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
        {"scenario_states": scenario.state_space.states, "prior": scenario.prior},
    )


def run_maskin_contagion(
    scenario: ScenarioModel | None = None,
    reward: Number = 1,
    bias_factor: int = 10,
    depth: int = 100,
    eta_grid=("1/100", "1/20", "1/10"),
) -> ExperimentResult:
    """Matching-rule uniqueness on the renormalized geometric ladder.

    The ladder keeps the geometric posterior at every rung (see
    ``build_ladder``), so iterated strict dominance unravels every type
    to the status-quo report.
    """
    scenario = scenario or binary_trial_scenario()
    reward = rat(reward)
    mech = build_maskin(scenario, reward)
    strength = bias_factor * reward
    full = full_strategy_set((1, 2), scenario.n)
    grid = []
    all_unique = True
    for eta in eta_grid:
        eta = rat(eta)
        pert = simple_bias_ladder(
            scenario, depth, eta, 0, preferred_outcome_bias(scenario, 0, strength),
            tail="renormalize",
        )
        game = Game(scenario, mech, pert)
        surviving, rounds = iterated_dominance(game, (full, full))
        unique = all(
            surviving[a][t] == [(1,) * scenario.n]
            for a in (0, 1)
            for t in surviving[a]
        )
        all_unique = all_unique and unique
        grid.append({"eta": eta, "rounds": rounds, "unique_always_status_quo": unique,
                     "tail_mass": pert.tail_mass})
    return ExperimentResult(
        "maskin-contagion",
        {"reward": reward, "bias_factor": bias_factor, "depth": depth,
         "eta_grid": [rat(e) for e in eta_grid]},
        {"unique_survivor_everywhere": all_unique},
        {"grid": grid},
        {"scenario_states": scenario.state_space.states, "prior": scenario.prior},
    )


# -- registry --------------------------------------------------------------


def _default_prop2_scenario():
    from .core import make_scenario

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
    from .core import make_scenario

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
