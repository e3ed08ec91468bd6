"""Outside-in tracing of aoisched: spans around the calls into each layer.

The tracer replaces functions at the places where callers look them up, so
the program's own code stays untouched:

* ``cli`` binds the names it imports in its own namespace, so its sweep
  points and every solver, space and simulator entry point are patched there;
* ``bisect_lambda`` and ``dual_value_sweep`` resolve ``build_case``,
  ``rvi_plain`` and ``policy_averages`` in ``solver``;
* the state spaces resolve ``enumerate_states_*`` and ``belief_table`` in
  ``mdp``;
* ``estimate_mixture`` resolves ``simulate`` in ``sim``.

Each span records its name, its parent span, start and end, plus counters
read from the call's arguments and result. Spans stay in memory; the
benchmark turns them into per-layer metrics when the pass ends. A layer's
self time is its spans' durations minus the time their child spans cover, so
the self times of all spans add up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import time


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _horizon(args, kwargs):
    cfg = kwargs.get("cfg")
    if cfg is None:
        cfg = next(a for a in args if hasattr(a, "horizon"))
    return cfg.horizon


def _build_counts(args, kwargs, result):
    return {"states": int(result[1].n)}


def _rvi_counts(args, kwargs, result):
    kern = _arg(args, kwargs, 1, "kern")
    return {
        "states": int(kern.n),
        "admissible": int(kern.admissible.sum()),
        "sweeps": int(result.iterations),
        "argmin_evals": int(result.argmin_evals),
        "policy": hash(result.policy.actions.tobytes()),
    }


def _sim_counts(args, kwargs, result):
    return {"slots": int(_horizon(args, kwargs))}


# (module, attribute, span name, counter hook). A point is one sweep row, one
# single solve or one property check.
PATCH_SITES = [
    ("cli", "_constrained_point", "cli.point", None),
    ("cli", "_unconstrained_point", "cli.point", None),
    ("cli", "_greedy_point", "cli.point", None),
    ("cli", "_solve_rows", "cli.point", None),
    ("cli", "_check", "cli.point", None),
    ("cli", "build_case", "mdp.build_case", _build_counts),
    ("solver", "build_case", "mdp.build_case", _build_counts),
    ("mdp", "enumerate_states_no_sensing", "mdp.enumerate", None),
    ("mdp", "enumerate_states_delayed", "mdp.enumerate", None),
    ("cli", "rvi_plain", "solver.rvi", _rvi_counts),
    ("solver", "rvi_plain", "solver.rvi", _rvi_counts),
    ("cli", "rvi_threshold_no_sensing", "solver.rvi_threshold", _rvi_counts),
    ("cli", "rvi_threshold_delayed", "solver.rvi_threshold", _rvi_counts),
    ("cli", "policy_averages", "solver.eval", None),
    ("solver", "policy_averages", "solver.eval", None),
    ("cli", "bisect_lambda", "solver.price", None),
    ("cli", "discounted_vi", "solver.discounted_vi", None),
    ("cli", "dual_value_sweep", "solver.dual_sweep", None),
    ("cli", "estimate_mixture", "sim.mixture", None),
    ("cli", "simulate", "sim.run", _sim_counts),
    ("sim", "simulate", "sim.run", _sim_counts),
    ("cli", "simulate_greedy", "sim.greedy", _sim_counts),
]


# Unit of every metric layer_metrics returns. Counts and ratios of counts
# repeat exactly from run to run; the rest are times.
UNITS = {
    "mdp.build_case.calls": "count",
    "mdp.build_case.s": "s",
    "mdp.enumerate.s": "s",
    "mdp.states": "count",
    "solver.rvi.calls": "count",
    "solver.rvi.s": "s",
    "solver.rvi.sweeps": "count",
    "solver.rvi.argmin_evals": "count",
    "solver.rvi.us_per_state_sweep": "us",
    "solver.rvi_threshold.s": "s",
    "solver.rvi_threshold.sweeps": "count",
    "solver.rvi_threshold.argmin_ratio": "ratio",
    "solver.eval.calls": "count",
    "solver.eval.s": "s",
    "solver.price.solves_per_point": "count",
    "solver.price.distinct_policies_per_point": "count",
    "solver.price.useful_ratio": "ratio",
    "solver.price.self_s": "s",
    "solver.discounted_vi.s": "s",
    "solver.dual_sweep.s": "s",
    "sim.calls": "count",
    "sim.s": "s",
    "sim.slots": "count",
    "sim.slots_per_s": "1/s",
    "sim.greedy.s": "s",
    "cli.points": "count",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.self_sum_s": "s",
}
EXACT_UNITS = ("count", "ratio")


class Tracer:
    """In-memory span recorder for one process, single-threaded."""

    def __init__(self):
        # one list per span: [name, parent index, start, end, counters]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.missing_sites: list[str] = []

    def wrap(self, fn, name: str, counts=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, open_[-1] if open_ else -1, 0.0, 0.0, None]
            open_.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                open_.pop()
            if counts is not None:
                rec[4] = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every site in PATCH_SITES, plus ``mdp.belief_table``; a site
        that no longer exists is recorded in ``missing_sites``."""
        for module_name, attr, name, counts in PATCH_SITES:
            module = importlib.import_module(f"aoisched.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing_sites.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, counts))
        mdp = importlib.import_module("aoisched.mdp")
        if not hasattr(mdp, "belief_table"):
            self.missing_sites.append("mdp.belief_table")
            return
        # belief_table is looked up once per state and action while a kernel
        # is compiled, and a span per lookup would cost more than the lookup.
        # A cache in front of the traced function records a span only the
        # first time a table is asked for, which is when it is built.
        mdp.belief_table = functools.lru_cache(maxsize=None)(
            self.wrap(mdp.belief_table, "mdp.enumerate"))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [rec[3] - rec[2] for rec in spans]
    for rec in spans:
        if rec[1] >= 0:
            own[rec[1]] -= rec[3] - rec[2]
    return own


def _nearest(spans, i, name):
    parent = spans[i][1]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][1]
    return parent


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see README.md for definitions)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(*names):
        return sum(own[i] for name in names for i in by_name.get(name, ()))

    def total(name, key):
        return sum(spans[i][4][key] for i in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    rvi_s = self_s("solver.rvi")
    rvi_state_sweeps = sum(
        spans[i][4]["states"] * spans[i][4]["sweeps"] for i in by_name.get("solver.rvi", ())
    )
    thr_sweeps = total("solver.rvi_threshold", "sweeps")
    thr_possible = sum(
        spans[i][4]["admissible"] * spans[i][4]["sweeps"]
        for i in by_name.get("solver.rvi_threshold", ())
    )

    per_point = _price_solves(spans)
    n_solves = sum(len(v) for v in per_point)
    n_distinct = sum(len(set(v)) for v in per_point)

    sim_s = self_s("sim.run", "sim.greedy", "sim.mixture")
    sim_slots = total("sim.run", "slots") + total("sim.greedy", "slots")
    return {
        "mdp.build_case.calls": calls("mdp.build_case"),
        "mdp.build_case.s": self_s("mdp.build_case"),
        "mdp.enumerate.s": self_s("mdp.enumerate"),
        "mdp.states": total("mdp.build_case", "states"),
        "solver.rvi.calls": calls("solver.rvi"),
        "solver.rvi.s": rvi_s,
        "solver.rvi.sweeps": total("solver.rvi", "sweeps"),
        "solver.rvi.argmin_evals": total("solver.rvi", "argmin_evals"),
        "solver.rvi.us_per_state_sweep": ratio(rvi_s * 1e6, rvi_state_sweeps),
        "solver.rvi_threshold.s": self_s("solver.rvi_threshold"),
        "solver.rvi_threshold.sweeps": thr_sweeps,
        "solver.rvi_threshold.argmin_ratio": ratio(
            total("solver.rvi_threshold", "argmin_evals"), thr_possible),
        "solver.eval.calls": calls("solver.eval"),
        "solver.eval.s": self_s("solver.eval"),
        "solver.price.solves_per_point": ratio(n_solves, len(per_point)),
        "solver.price.distinct_policies_per_point": ratio(n_distinct, len(per_point)),
        "solver.price.useful_ratio": ratio(n_distinct, n_solves),
        "solver.price.self_s": self_s("solver.price"),
        "solver.discounted_vi.s": self_s("solver.discounted_vi"),
        "solver.dual_sweep.s": self_s("solver.dual_sweep"),
        "sim.calls": calls("sim.run") + calls("sim.greedy"),
        "sim.s": sim_s,
        "sim.slots": sim_slots,
        "sim.slots_per_s": ratio(sim_slots, sim_s),
        "sim.greedy.s": self_s("sim.greedy"),
        "cli.points": calls("cli.point"),
        "cli.self_s": self_s("cli.main", "cli.point"),
        "trace.spans": len(spans),
        "trace.self_sum_s": sum(own),
    }


def _price_solves(spans: list[list]) -> list[list[int]]:
    """Policy fingerprints of the solves inside each price search, in call order."""
    owner = {i: n for n, i in enumerate(i for i, rec in enumerate(spans) if rec[0] == "solver.price")}
    out: list[list[int]] = [[] for _ in owner]
    for i, rec in enumerate(spans):
        if rec[0] == "solver.rvi":
            p = _nearest(spans, i, "solver.price")
            if p >= 0:
                out[owner[p]].append(rec[4]["policy"])
    return out


def price_points(spans: list[list]) -> list[dict]:
    """Solves and distinct policies of every price search, in call order."""
    return [{"solves": len(v), "distinct_policies": len(set(v))} for v in _price_solves(spans)]
