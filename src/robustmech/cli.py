"""Command line front end.

Subcommands mirror the library's main entry points: building mechanisms,
checking equilibria, computing dominance thresholds, running iterated
elimination, and executing named experiments.  Results print as JSON
records preceded by a short human-readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import ModelError, binary_trial_scenario
from .engine import Game, full_strategy_set, truthful_profile
from .equilibrium import (
    _strategy_sets,
    gamma_dominance_threshold,
    iterate_best_response,
    iterated_dominance,
    verify_equilibrium,
)
from .experiments import _jsonable, list_experiments, run_experiment
from .loader import ScenarioFileError, load_scenario, load_unperturbed_scenario
from .mechanisms import (
    InfeasibleScheduleError,
    build_augmented_status_quo,
    build_maskin,
    build_modified_status_quo,
    build_status_quo,
    export_mechanism,
)
from .numeric import fmt, rat


def _rational(text):
    """An exact rational option value, parsed when the command line is."""
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational number: {text!r}") from None


def _nonnegative_rational(text):
    value = _rational(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {text!r}")
    return value


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {text!r}")
    return value


def _mechanism(scenario, args):
    if args.kind == "maskin":
        return build_maskin(scenario, args.reward)
    if args.kind == "sqr":
        return build_status_quo(scenario, scenario.max_cost if args.c_bar is None else args.c_bar)
    if args.kind == "asqr":
        return build_augmented_status_quo(scenario)
    return build_modified_status_quo(scenario)


def _unperturbed(args):
    return load_unperturbed_scenario(args.scenario) if args.scenario else binary_trial_scenario()


def _game(args):
    """The ``--kind`` mechanism's game on the scenario file, playing the
    file's perturbation block when it has one."""
    if args.scenario:
        scenario, perturbation = load_scenario(args.scenario)
    else:
        scenario, perturbation = binary_trial_scenario(), None
    return Game(scenario, _mechanism(scenario, args), perturbation)


def _emit(record):
    print(json.dumps(_jsonable(record), sort_keys=True))


def cmd_mechanism_build(args):
    mech = _mechanism(_unperturbed(args), args)
    table = export_mechanism(mech)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table)
        print(f"wrote {args.out}")
    else:
        print(table, end="")
    if mech.schedule:
        _emit({"kind": mech.kind, "rewards": mech.schedule.rewards,
               "penalty": mech.schedule.penalty})
    return 0


def cmd_equilibrium_check(args):
    game = _game(args)
    sets = _strategy_sets(game)
    report = verify_equilibrium(game, truthful_profile(game), sets, args.epsilon)
    print(f"equilibrium: {report.is_equilibrium}   max residual: {fmt(report.max_residual)}"
          f"   max TV: {fmt(report.max_tv)}")
    _emit({
        "is_equilibrium": report.is_equilibrium,
        "max_residual": report.max_residual,
        "max_tv": report.max_tv,
        "truthful_mass": report.truthful_mass,
        "residuals": report.residuals,
    })
    return 0 if report.is_equilibrium else 1


def cmd_equilibrium_br(args):
    game = _game(args)
    sets = _strategy_sets(game)
    result = iterate_best_response(game, sets, max_rounds=args.max_rounds)
    print(f"converged: {result.converged}  rounds: {result.rounds}  cycled: {result.cycled}")
    record = {"converged": result.converged, "rounds": result.rounds, "cycled": result.cycled}
    if result.report:
        record["truthful_mass"] = result.report.truthful_mass
        record["max_tv"] = result.report.max_tv
        record["is_equilibrium"] = result.report.is_equilibrium
    _emit(record)
    return 0 if result.converged else 1


def cmd_dominance_gamma(args):
    scenario = _unperturbed(args)
    mech = _mechanism(scenario, args)
    c_bar = scenario.max_cost if args.c_bar is None else args.c_bar
    cert = gamma_dominance_threshold(mech, scenario, c_bar)
    print(f"gamma* = {fmt(cert.gamma)}   below 1/2: {cert.below_half}")
    _emit({"gamma": cert.gamma, "below_half": cert.below_half,
           "witness": list(cert.witness)})
    return 0 if cert.below_half else 1


def cmd_dominance_eliminate(args):
    game = _game(args)
    if args.full:
        sets = tuple(full_strategy_set(game.mechanism.messages[a], game.strategy_length(a))
                     for a in (0, 1))
    else:
        sets = _strategy_sets(game)
    surviving, rounds, _ = iterated_dominance(game, sets)
    counts = {f"agent{a + 1}": {t: len(pool) for t, pool in surviving[a].items()}
              for a in (0, 1)}
    print(f"rounds: {rounds}")
    _emit({"rounds": rounds, "surviving_counts": counts,
           "surviving": [{t: pool for t, pool in surviving[a].items()} for a in (0, 1)]})
    return 0


def cmd_experiment_run(args):
    scenario = load_unperturbed_scenario(args.scenario) if args.scenario else None
    kwargs = {}
    if args.eta_grid is not None:
        kwargs["eta_grid"] = tuple(args.eta_grid)
    result = run_experiment(args.name, scenario, **kwargs)
    for name, value in sorted(result.certificates.items()):
        print(f"{'PASS' if value else 'FAIL'}  {name}")
    payload = result.to_json()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.name}.json")
        with open(path, "w") as fh:
            fh.write(payload)
        csv = result.grid_csv()
        if csv:
            with open(os.path.join(args.out, f"{args.name}.csv"), "w") as fh:
                fh.write(csv)
        print(f"wrote {path}")
    else:
        print(payload, end="")
    return 0 if result.passed else 1


def cmd_experiment_list(args):
    for name in list_experiments():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robustmech",
                                     description="Robust implementation workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, kinds=("maskin", "sqr", "asqr", "msqr")):
        p.add_argument("--scenario", help="scenario YAML file")
        p.add_argument("--kind", choices=kinds, default="sqr")
        p.add_argument("--c-bar", dest="c_bar", type=_nonnegative_rational,
                       help="learning cost bound")
        p.add_argument("--reward", type=_rational, default="1", help="matching-rule reward")

    mech = sub.add_parser("mechanism", help="mechanism construction").add_subparsers(
        dest="sub", required=True)
    b = mech.add_parser("build", help="build and export a mechanism table")
    add_common(b)
    b.add_argument("--out", help="write the table to a file")
    b.set_defaults(func=cmd_mechanism_build)

    eq = sub.add_parser("equilibrium", help="equilibrium tools").add_subparsers(
        dest="sub", required=True)
    c = eq.add_parser("check", help="verify the truthful profile")
    add_common(c)
    c.add_argument("--epsilon", type=_nonnegative_rational, default="0")
    c.set_defaults(func=cmd_equilibrium_check)
    br = eq.add_parser("br-iterate", help="synchronous best-response iteration")
    add_common(br)
    br.add_argument("--max-rounds", type=_nonnegative_int, default=200)
    br.set_defaults(func=cmd_equilibrium_br)

    dom = sub.add_parser("dominance", help="dominance tools").add_subparsers(
        dest="sub", required=True)
    g = dom.add_parser("gamma", help="dominance threshold for truth-telling")
    add_common(g, kinds=("sqr", "asqr", "msqr"))
    g.set_defaults(func=cmd_dominance_gamma)
    e = dom.add_parser("eliminate", help="iterated strict dominance")
    add_common(e)
    e.add_argument("--full", action="store_true", help="use the full strategy set")
    e.set_defaults(func=cmd_dominance_eliminate)

    exp = sub.add_parser("experiment", help="named reproductions").add_subparsers(
        dest="sub", required=True)
    r = exp.add_parser("run", help="run one named experiment")
    r.add_argument("name")
    r.add_argument("--scenario")
    r.add_argument("--eta-grid", nargs="*", type=_rational,
                   help="eta values, e.g. 1/100 1/10")
    r.add_argument("--out", help="directory for JSON/CSV output")
    r.set_defaults(func=cmd_experiment_run)
    ls = exp.add_parser("list", help="list experiment names")
    ls.set_defaults(func=cmd_experiment_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ModelError, InfeasibleScheduleError, ScenarioFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left early (``robustmech ... | head -1``); stdout goes
        # to the null device so that the interpreter's last flush is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
