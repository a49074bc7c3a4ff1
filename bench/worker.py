"""Child process of the benchmark: one fresh interpreter per measurement.

Usage: ``python3 worker.py <src dir> <probe|passes|golden> <config.json>``

* ``probe`` imports ``robustmech``, loads the scenario files and stops.
* ``passes`` does the same, then runs passes of the workload until the
  configured seconds have elapsed; with ``trace`` set it first runs traced
  passes, removes the wrappers and then runs the untraced ones.
* ``golden`` runs the golden corpus and prints the sha256 of each JSON.

``probe`` prints ``ready <CLOCK_MONOTONIC seconds>`` where the first
experiment call would start; the parent subtracts its own reading taken
before the spawn.  The last line of stdout is a JSON result.  The
process is single-threaded and runs nothing in parallel.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path


def _now() -> float:
    # CLOCK_MONOTONIC is one clock for every process on the machine.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def kernel_s() -> float:
    """Seconds that a fixed computation takes now: the median of three
    tries at summing 1/i for i < 900 in ``Fraction``.

    It does the library's kind of work, arithmetic on growing integers,
    but runs no library code, so a change to robustmech cannot move it.
    """
    tries = []
    for _ in range(3):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 900):
            total += Fraction(1, i)
        tries.append(time.perf_counter() - start)
    return statistics.median(tries)


def _import_library(src: Path):
    sys.path.insert(0, str(src))
    import robustmech

    if Path(robustmech.__file__).resolve().parent != (src / "robustmech").resolve():
        raise ImportError(f"robustmech imported from {robustmech.__file__}, not from {src}")
    return robustmech


def _load(robustmech, files: dict) -> dict:
    return {stem: robustmech.loader.load_scenario(path)[0] for stem, path in files.items()}


def _passes(robustmech, scenarios, runs, seconds, min_passes, tracer=None) -> list[dict]:
    """Run passes while the next one, taking as long as the last, would
    end within ``seconds``, and at least ``min_passes`` of them.  A pass's wall time is the sum of its runs'
    ``run_experiment`` plus ``to_json`` times; hashing and the kernel
    timed after each run are left out."""
    experiments = robustmech.experiments
    passes = []
    start = time.perf_counter()
    last = 0.0
    while len(passes) < min_passes or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        outcomes = []
        with tracer.span("bench.pass") if tracer else contextlib.nullcontext():
            for run in runs:
                outcome = {"id": run["id"], "part": run.get("part")}
                t0 = time.perf_counter()
                try:
                    with tracer.span(f"bench.run:{run['id']}") if tracer else contextlib.nullcontext():
                        result = experiments.run_experiment(
                            run["experiment"], scenario=scenarios[run["scenario"]], **run["kwargs"]
                        )
                        text = result.to_json()
                except Exception as exc:  # a raising run is a failed verdict, not a crash
                    outcome["wall_s"] = time.perf_counter() - t0
                    outcome["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    outcome["wall_s"] = time.perf_counter() - t0
                    outcome["passed"] = result.passed
                    outcome["sha256"] = hashlib.sha256(text.encode()).hexdigest()
                outcome["kernel_s"] = kernel_s()
                outcomes.append(outcome)
        record = {"wall_s": sum(o["wall_s"] for o in outcomes), "runs": outcomes}
        if tracer is not None:
            record["trace"] = tracer.snapshot()
        passes.append(record)
        last = time.perf_counter() - began
    return passes


def probe(src: Path, cfg: dict) -> dict:
    robustmech = _import_library(src)
    _load(robustmech, cfg["scenarios"])
    print(f"ready {_now()!r}", flush=True)
    return {"kernel_s": kernel_s()}


def passes(src: Path, cfg: dict) -> dict:
    robustmech = _import_library(src)
    out: dict = {}
    tracer = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        with tracer.span("bench.setup"):
            scenarios = _load(robustmech, cfg["scenarios"])
        out["setup_trace"] = tracer.snapshot()
    else:
        scenarios = _load(robustmech, cfg["scenarios"])
    seconds = cfg["seconds"]
    if tracer is not None:
        seconds /= 2
        out["traced"] = _passes(robustmech, scenarios, cfg["runs"], seconds, cfg["min_passes"], tracer)
        tracer.uninstall()
        Path(cfg["spans_path"]).write_text(json.dumps(tracer.span_records()))
    out["untraced"] = _passes(robustmech, scenarios, cfg["runs"], seconds, cfg["min_passes"])
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


def golden(src: Path, cfg: dict) -> dict:
    robustmech = _import_library(src)
    hashes = {}
    for entry in cfg["corpus"]:
        kwargs = dict(entry.get("kwargs", {}))
        if "scenario" in entry:
            kwargs["scenario"] = getattr(robustmech, entry["scenario"])()
        try:
            text = robustmech.run_experiment(entry["experiment"], **kwargs).to_json()
        except Exception as exc:  # reported as a mismatch by the parent
            hashes[entry["id"]] = f"error {type(exc).__name__}: {exc}"
        else:
            hashes[entry["id"]] = hashlib.sha256(text.encode()).hexdigest()
    return hashes


def main(argv: list[str]) -> int:
    src, mode, config = Path(argv[0]), argv[1], Path(argv[2])
    handler = {"probe": probe, "passes": passes, "golden": golden}[mode]
    result = handler(src, json.loads(config.read_text()))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
