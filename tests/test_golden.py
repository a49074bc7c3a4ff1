"""Byte stability of experiment JSON: the sha256 of ``to_json()`` for the
seven default experiments and two scaled variants."""

import hashlib
import json
from pathlib import Path

import robustmech

CORPUS = json.loads((Path(__file__).resolve().parent / "golden" / "experiments.json").read_text())


def test_experiment_json_matches_golden_hashes():
    got, want = {}, {}
    for entry in CORPUS:
        kwargs = dict(entry.get("kwargs", {}))
        if "scenario" in entry:
            kwargs["scenario"] = getattr(robustmech, entry["scenario"])()
        text = robustmech.run_experiment(entry["experiment"], **kwargs).to_json()
        got[entry["id"]] = hashlib.sha256(text.encode()).hexdigest()
        want[entry["id"]] = entry["sha256"]
    assert got == want
