"""Span recorder for the traced run.

The recorder wraps the public functions of the library's layer modules
from the outside: each function is replaced in the module that defines it
and in every ``robustmech`` module that imported it by name, and a few
methods (``Game.__init__``, ``Game.inner_value``,
``ExperimentResult.to_json``) are replaced on their class.  Nothing under
``src/`` changes, and :meth:`Tracer.uninstall` puts every original back.

Each call updates its *bucket*: ``calls`` counts entries from outside the
bucket, ``total_s`` is their wall time, and ``self_s`` is the wall time of
every call minus the time of the wrapped calls made inside it.  Calls of
functions outside ``HOT`` are also kept as spans ``(id, parent id, name,
start, end)`` in memory; the hot functions run hundreds of thousands of
times a pass, so they are only aggregated.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time

LAYERS = ("loader", "mechanisms", "perturbations", "engine", "equilibrium", "experiments")

HOT = frozenset({
    "engine.inner_value",
    "engine.expected_payoff",
    "engine.mixture_payoff",
    "engine.is_constant",
    "engine.outcome_distribution",
    "equilibrium.best_response",
})

_MARK = "__bench_wrapped__"


def bucket_of(name: str) -> str:
    """Metric bucket of a wrapped function, named ``<module>.<function>``.

    All mechanism builders share ``mechanisms.build``; the loader's two
    entry points share ``loader.load_scenario``; ``experiments.run_<x>``
    becomes ``experiments.<experiment name>``.
    """
    module, func = name.split(".", 1)
    if module == "mechanisms" and (func.startswith("build_") or func == "solve_rewards"):
        return "mechanisms.build"
    if module == "loader" and func in ("load_scenario", "parse_scenario"):
        return "loader.load_scenario"
    if module == "experiments" and func.startswith("run_") and func != "run_experiment":
        return "experiments." + func[len("run_"):].replace("_", "-")
    return name


class Tracer:
    """Wrappers, per-bucket statistics, counters and spans of one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # bucket -> [calls, total_s, self_s]
        self._depth: dict[str, list] = {}  # bucket -> [open calls]
        self.counters: dict[str, int] = {}
        self.games: list = []
        self.spans: list[tuple] = []
        self._child = [0.0]  # wrapped time inside each open call; [0] is the root
        self._open = [0]  # ids of the open recorded spans; 0 is the root
        self._next_id = 1
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from robustmech import engine, experiments

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "robustmech" or n.startswith("robustmech.")]
        for short in LAYERS:
            module = sys.modules[f"robustmech.{short}"]
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(fn, name, _OBSERVERS.get(name))
                for holder in modules:
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            self._replace(holder, held, wrapper)
        for cls, attr, name in (
            (engine.Game, "__init__", "engine.Game"),
            (engine.Game, "inner_value", "engine.inner_value"),
            (experiments.ExperimentResult, "to_json", "experiments.to_json"),
        ):
            self._replace(cls, attr, self._wrap(vars(cls)[attr], name, _OBSERVERS.get(name)))

    def uninstall(self) -> None:
        """Restore every original and check that no wrapper is left."""
        while self._undo:
            holder, name, original = self._undo.pop()
            setattr(holder, name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name == "robustmech" or module_name.startswith("robustmech."):
                holders = [module] + [v for v in vars(module).values() if inspect.isclass(v)]
                for holder in holders:
                    for name, value in vars(holder).items():
                        if getattr(value, _MARK, False):
                            raise RuntimeError(f"wrapper left on {module_name}.{name}")

    def _replace(self, holder, name, value) -> None:
        self._undo.append((holder, name, vars(holder)[name]))
        setattr(holder, name, value)

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name, observe):
        bucket = bucket_of(name)
        stat = self.stats.setdefault(bucket, [0, 0.0, 0.0])
        depth = self._depth.setdefault(bucket, [0])
        child, opened, spans = self._child, self._open, self.spans
        record = name not in HOT
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            outer = depth[0] == 0
            depth[0] += 1
            child.append(0.0)
            if record:
                sid = tracer._next_id
                tracer._next_id += 1
                opened.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                depth[0] -= 1
                inner = child.pop()
                child[-1] += elapsed
                if outer:
                    stat[0] += 1
                    stat[1] += elapsed
                stat[2] += elapsed - inner
                if record:
                    opened.pop()
                    spans.append((sid, opened[-1], name, start, end))
            if observe is not None:
                observe(tracer, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, True)
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span of the benchmark's own code, parent of the calls inside."""
        sid = self._next_id
        self._next_id += 1
        self._open.append(sid)
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._child.pop()
            self._open.pop()
            self.spans.append((sid, self._open[-1], name, start, end))

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    # -- snapshots ----------------------------------------------------------

    def reset(self) -> None:
        """Zero the statistics and counters; spans are kept."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counters.clear()
        self.games.clear()

    def snapshot(self) -> dict:
        """Statistics, counters and the cache sizes of every ``Game``
        constructed since the last :meth:`reset`."""
        counters = dict(self.counters)
        counters["engine.inner_cache.entries"] = sum(len(g._inner_cache) for g in self.games)
        counters["engine.u_cache.entries"] = sum(len(g._u_cache) for g in self.games)
        return {
            "stats": {b: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                      for b, s in sorted(self.stats.items())},
            "counters": counters,
        }

    def span_records(self) -> list[dict]:
        return [{"id": s, "parent": p, "name": n, "start": a, "end": b}
                for s, p, n, a, b in self.spans]


# -- counters read from arguments and results -------------------------------


def _built_ladder(tracer: Tracer, args, perturbation) -> None:
    tracer.count("perturbations.circumstances", perturbation.size)
    tracer.peak("perturbations.pi_den_bits_max",
                max(p.denominator.bit_length() for p in perturbation.pi))


_OBSERVERS = {
    "perturbations.build_ladder": _built_ladder,
    "equilibrium.iterated_dominance": lambda t, args, result: t.count(
        "equilibrium.iterated_dominance.rounds", result[1]),
    "equilibrium.iterate_best_response": lambda t, args, result: t.count(
        "equilibrium.iterate_best_response.rounds", result.rounds),
    "engine.Game": lambda t, args, result: t.games.append(args[0]),
    "experiments.to_json": lambda t, args, result: t.count(
        "experiments.to_json.bytes", len(result.encode())),
}
