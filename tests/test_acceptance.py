"""End-to-end acceptance gate.

Each test exercises one headline claim of the library on exact finite
instances and prints a single pass/fail line.  All comparisons are exact
rational arithmetic unless a tolerance is stated inline.
"""

import random
import time
from fractions import Fraction as F

import pytest

from robustmech import (
    BiasSpec,
    Game,
    ModelError,
    binary_trial_scenario,
    build_augmented_status_quo,
    build_ladder,
    build_status_quo,
    check_strict_cyclical_monotonicity,
    four_state_scenario,
    gamma_dominance_threshold,
    make_scenario,
    restricted_strategy_set,
    run_experiment,
    three_state_scenario,
    truthful_profile,
    verify_equilibrium,
)
from robustmech.experiments import preferred_outcome_bias, step3_closure_certificate
from robustmech.mechanisms import Mechanism

import naive_reference as naive
from generators import random_generic_prior, random_scm_instance, uniform_scenario


def report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def _gamma(scenario, kind):
    mech = (
        build_status_quo(scenario, scenario.max_cost)
        if kind == "sqr"
        else build_augmented_status_quo(scenario)
    )
    return gamma_dominance_threshold(mech, scenario, scenario.max_cost)


def test_criterion_1_gamma_dominance_below_half():
    start = time.monotonic()
    ok = True
    for scenario in (binary_trial_scenario(), three_state_scenario(), four_state_scenario()):
        for kind in ("sqr", "asqr"):
            ok = ok and _gamma(scenario, kind).gamma < F(1, 2)
    rng = random.Random(2026)
    for i in range(20):
        n = (2, 3, 4)[i % 3]
        kind = ("sqr", "asqr")[i % 2]
        scenario = uniform_scenario(random_generic_prior(rng, n))
        ok = ok and _gamma(scenario, kind).gamma < F(1, 2)
    # With the reward-growth requirement deliberately broken, the
    # threshold must fail: either at or above one half, or an error.
    s = binary_trial_scenario()
    bad = {1: F(3), 2: F(4)}
    sqr = build_status_quo(s, 1)
    mech = Mechanism(
        "sqr", sqr.messages, sqr.outcome,
        {(a, b): (bad[a], bad[a]) if a == b else (F(0), F(0)) for a, b in sqr.transfer},
    )
    try:
        cert = gamma_dominance_threshold(mech, s, F(1))
        ok = ok and cert.gamma >= F(1, 2)
    except ModelError:
        pass
    elapsed = time.monotonic() - start
    report(1, "gamma-dominance thresholds below 1/2", ok and elapsed < 10)


def test_criterion_2_matching_rule_contagion():
    start = time.monotonic()
    result = run_experiment(
        "maskin-contagion", depth=100, eta_grid=("1/100", "1/20", "1/10")
    )
    ok = result.passed and all(
        row["unique_always_status_quo"] for row in result.artifacts["grid"]
    )
    elapsed = time.monotonic() - start
    report(2, "matching-rule contagion leaves a unique survivor", ok and elapsed < 30)


def test_criterion_3_truthful_survives_conviction_bias():
    s = binary_trial_scenario()
    mech = build_status_quo(s, 1)
    rs = restricted_strategy_set(mech.messages[0], (1, 2))
    ok = True
    for strength in (F(10), F(10) ** 3, F(10) ** 6):
        bias = BiasSpec(0, 0, preferred_outcome_bias(s, 1, strength))
        pert = build_ladder(s, 50, "1/100", [bias])
        game = Game(s, mech, pert)
        rep = verify_equilibrium(game, truthful_profile(game), (rs, rs))
        ok = ok and rep.is_equilibrium and rep.max_residual <= 0 and rep.max_tv == 0
    report(3, "truthful profile exact under conviction bias", ok)


def test_criterion_4_acquittal_bias_linear_containment():
    result = run_experiment("thm1")
    ok = result.certificates["mass_linear_bound"]
    ok = ok and result.certificates["mass_fit_residual_small"]
    # Non-truthful mass stays below K * eta for one fitted K across the
    # whole eta grid; the fit residual tolerance is 5%.
    k = result.artifacts["mass_slope_K"]
    ok = ok and result.artifacts["mass_fit_residual"] <= F(1, 20)
    for row in result.artifacts["grid"]:
        ok = ok and 1 - row["truthful_mass"] <= k * row["eta"]
    report(4, "acquittal-bias mass bounded by a linear function", ok)


def test_criterion_5_replacement_closure_exhaustive():
    start = time.monotonic()
    ok = True
    for scenario in (binary_trial_scenario(), three_state_scenario()):
        good, failures = step3_closure_certificate(
            build_status_quo(scenario, scenario.max_cost), scenario
        )
        ok = ok and good and not failures
        good, failures = step3_closure_certificate(
            build_augmented_status_quo(scenario), scenario
        )
        ok = ok and good and not failures
    elapsed = time.monotonic() - start
    report(5, "replacement closure with zero counterexamples", ok and elapsed < 60)


def test_criterion_6_tremble_contrast():
    result = run_experiment("thm3")
    ok = (
        result.certificates["asqr_certificate_fails"]
        and result.certificates["msqr_certificate"]
        and result.certificates["msqr_truthful_equilibrium"]
        and result.certificates["revealing_limit_equilibrium"]
        and result.certificates["structure_size_matches"]
    )
    report(6, "penalty variant robust to trembles where plain variant fails", ok)


def test_criterion_7_impossibility_construction():
    result = run_experiment("prop1")
    ok = result.certificates["inequality_chain"]
    ok = ok and result.certificates["not_both_passed"]
    ok = ok and result.certificates["tv_linear_lower_bound"]
    # Grid slack: candidate mixtures walk a 1/20 grid, so the measured
    # outcome gap must reach eta * (1 - 1/20) at eta in {1/10, 1/5}.
    rows = {row["eta"]: row["tv_lower_bound"] for row in result.artifacts["grid"]}
    for eta in (F(1, 10), F(1, 5)):
        ok = ok and rows[eta] >= eta * (1 - F(1, 20))
    report(7, "opposed payoff tilts cannot both be passed", ok)


def test_criterion_8_no_learning_equilibria():
    result = run_experiment("prop2")
    ok = (
        result.certificates["applicable"]
        and result.certificates["no_learning_equilibrium"]
        and result.certificates["state_constant_outcome"]
    )
    # State-dependent payoffs with costs above twice the utility range:
    # the value of learning stays within that range bound.
    from robustmech.experiments import run_prop2

    sd = make_scenario(
        [("innocent", "7/10"), ("guilty", "3/10")],
        ["acquit", "convict"],
        {"innocent": {"acquit": "1"}, "guilty": {"convict": "1"}},
        costs=("7", "7"),
        u_tables=(
            {("innocent", "acquit"): "2", ("guilty", "convict"): "3"},
            {("innocent", "acquit"): "2", ("guilty", "convict"): "3"},
        ),
    )
    second = run_prop2(sd, build_status_quo(sd, sd.max_cost))
    ok = ok and second.passed and second.certificates["learning_value_bounded"]
    report(8, "costly learning forces state-constant outcomes", ok)


def test_criterion_9_full_implementation_and_oracles():
    result = run_experiment("prop3")
    ok = (
        result.certificates["cyclical_monotonicity"]
        and result.certificates["transfer_conditions"]
        and result.certificates["cost_below_threshold"]
        and result.certificates["truthful_strict_best"]
        and result.certificates["full_implementation"]
    )
    rng = random.Random(99)
    for _ in range(100):
        u, scf = random_scm_instance(rng)
        b, _ = check_strict_cyclical_monotonicity(u, scf)
        ok = ok and naive.strict_cyclical_monotonicity(u, scf) == b
    report(9, "single-respondent full implementation", ok)


@pytest.mark.parametrize("name", ["thm1", "thm3", "prop1", "prop3", "maskin-contagion"])
def test_criterion_10_determinism(name):
    kwargs = {"eta_grid": ("1/20",), "depth": 40} if name == "maskin-contagion" else {}
    first = run_experiment(name, **kwargs).to_json().encode()
    second = run_experiment(name, **kwargs).to_json().encode()
    ok = first == second
    report(10, f"byte-identical reruns ({name})", ok)
