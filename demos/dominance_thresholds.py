"""Dominance thresholds of truth-telling across scenarios and rules.

For each built-in scenario and each status-quo rule, computes the
smallest opponent-truthfulness probability gamma* above which truthful
learning is a strict best response against the worst adversarial play of
the rule's restricted strategies, which the certificate reads off the
rule's messages.  All values land strictly below one half,
which is what makes the truthful equilibrium survive every small
perturbation.
"""

from robustmech import (
    binary_trial_scenario,
    build_augmented_status_quo,
    build_status_quo,
    four_state_scenario,
    gamma_dominance_threshold,
    three_state_scenario,
)
from robustmech.numeric import fmt


def main():
    scenarios = [
        ("binary", binary_trial_scenario()),
        ("three-state", three_state_scenario()),
        ("four-state", four_state_scenario()),
    ]
    print(f"{'scenario':>12} {'rule':>10} {'gamma*':>10} {'< 1/2':>6}")
    for label, scenario in scenarios:
        for kind in ("sqr", "asqr"):
            mech = (
                build_status_quo(scenario, scenario.max_cost)
                if kind == "sqr"
                else build_augmented_status_quo(scenario)
            )
            cert = gamma_dominance_threshold(mech, scenario, scenario.max_cost)
            print(f"{label:>12} {kind:>10} {fmt(cert.gamma):>10} "
                  f"{str(cert.below_half):>6}")


if __name__ == "__main__":
    main()
