"""Benchmark workloads and the seeded input generator.

A workload is a list of experiment runs.  One *pass* executes every run
of the workload once, through ``run_experiment`` and ``to_json``.  The
seed only chooses eta grids; scenarios are written out as YAML and the
program reads them back through ``load_scenario``, so every input the
program sees is a generated file or a plain value.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

# Scenario files, in the loader's format.  The state and outcome names
# match the library's built-in constructors (``binary_trial_scenario``,
# ``three_state_scenario`` and the prop2/prop3 defaults), so a run on a
# loaded scenario must print the same bytes as the built-in default.
SCENARIOS = {
    "binary-trial": """\
states:
  - {name: innocent, prob: "7/10"}
  - {name: guilty, prob: "3/10"}
outcomes: [acquit, convict]
scf:
  innocent: {acquit: "1"}
  guilty: {convict: "1"}
agents:
  - cost: "1"
  - cost: "1"
""",
    "three-state": """\
states:
  - {name: alpha, prob: "3/5"}
  - {name: beta, prob: "1/4"}
  - {name: gamma, prob: "3/20"}
outcomes: [left, middle, right]
scf:
  alpha: {left: "1"}
  beta: {middle: "1"}
  gamma: {right: "1"}
agents:
  - cost: "1"
  - cost: "1"
""",
    "state-independent-stakes": """\
states:
  - {name: innocent, prob: "7/10"}
  - {name: guilty, prob: "3/10"}
outcomes: [acquit, convict]
scf:
  innocent: {acquit: "1"}
  guilty: {convict: "1"}
agents:
  - cost: "1"
    u: {"innocent,convict": "2", "guilty,convict": "2"}
  - cost: "1"
    u: {"innocent,convict": "1", "guilty,convict": "1"}
""",
    "costless-three-state": """\
states:
  - {name: alpha, prob: "3/5"}
  - {name: beta, prob: "1/4"}
  - {name: gamma, prob: "3/20"}
outcomes: [left, middle, right]
scf:
  alpha: {left: "1"}
  beta: {middle: "1"}
  gamma: {right: "1"}
agents:
  - cost: "0"
    u: {"alpha,left": "3", "alpha,middle": "1", "alpha,right": "0",
        "beta,left": "0", "beta,middle": "2", "beta,right": "1",
        "gamma,left": "1", "gamma,middle": "0", "gamma,right": "3"}
  - cost: "0"
""",
}

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "contagion-ladder": "maskin-contagion at T=100 and T=200, one call per eta: iterated dominance "
    "does over 99% of the work and best response never runs",
    "br-ladder": "thm2 on three states at T=50 and T=100: best-response iteration with its "
    "verification does ~91% of the work; no iterated dominance",
    "desk-suite": "prop1, prop2, prop3 and thm3 at default inputs: many small games, no ladder, "
    "so a ladder-side change should leave it unchanged",
}

# Depths of the T and 2T parts of the ladder workloads; the tiny sizes
# are for the self-check only.
DEPTHS = {
    "contagion-ladder": {"full": (100, 200), "tiny": (10, 20)},
    "br-ladder": {"full": (50, 100), "tiny": (10, 20)},
}


def _seeded_etas(rng: random.Random) -> list[str]:
    """Three points of {1/k : 10 <= k <= 100}, one from each third of the
    range, in ascending order.  Fraction sizes grow with log k, so one
    draw per third keeps the cost of a pass close to the same on every
    seed."""
    return [f"1/{rng.randint(lo, hi)}" for lo, hi in ((70, 100), (40, 69), (10, 39))]


def generate(workload: str, seed: int, tiny: bool = False) -> dict:
    """Inputs of one workload at one seed, as plain JSON-able data.

    Returns ``{"workload", "seed", "tiny", "scenarios", "runs"}``, where
    ``scenarios`` maps a file stem to its YAML text and each run names
    its experiment, scenario stem, keyword arguments and, on the ladder
    workloads, whether it is the ``T`` or the ``2T`` part.
    """
    if workload not in WHY:
        raise KeyError(workload)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "desk-suite":
        runs = [
            {"id": "prop1", "experiment": "prop1", "scenario": "binary-trial", "kwargs": {}},
            {"id": "prop2", "experiment": "prop2", "scenario": "state-independent-stakes",
             "kwargs": {}},
            {"id": "prop3", "experiment": "prop3", "scenario": "costless-three-state",
             "kwargs": {}},
            {"id": "thm3", "experiment": "thm3", "scenario": "three-state", "kwargs": {}},
        ]
    elif workload == "contagion-ladder":
        # One experiment call per (depth, eta): iterated dominance on one
        # ladder takes 0.4-2.5 s, so a pass yields six short timings
        # instead of two long ones.  Each call costs what its share of a
        # three-point grid would; maskin-contagion has no per-call work
        # beyond building the matching rule.
        grid = _seeded_etas(rng)
        runs = [
            {"id": f"T{depth}:{eta}", "experiment": "maskin-contagion",
             "scenario": "binary-trial", "part": part,
             "kwargs": {"depth": depth, "eta_grid": [eta]}}
            for depth, part in zip(DEPTHS[workload]["tiny" if tiny else "full"], ("T", "2T"))
            for eta in grid
        ]
    else:
        # thm2 also certifies the gamma threshold and the step-3 closure
        # once per call, so the grid stays whole to keep that share.
        grid = ["1/1000"] + _seeded_etas(rng)
        runs = [
            {"id": f"T{depth}", "experiment": "thm2", "scenario": "three-state", "part": part,
             "kwargs": {"depth": depth, "eta_grid": grid}}
            for depth, part in zip(DEPTHS[workload]["tiny" if tiny else "full"], ("T", "2T"))
        ]
    stems = sorted({run["scenario"] for run in runs})
    return {
        "workload": workload,
        "seed": seed,
        "tiny": tiny,
        "scenarios": {stem: SCENARIOS[stem] for stem in stems},
        "runs": runs,
    }
