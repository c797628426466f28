"""Outside-in layer trace.

`install(tracer)` replaces each traced function at the name its caller looks
it up by (for example `daccbs.controller.reachable_region` or
`daccbs.cbs.detect_first_conflict`) with a wrapper that records a span, and
puts the originals back on exit.  A span is (name, start, end, parent); spans
stay in memory until `write_spans` is called at the end of the run.  A span's
self time is its duration minus the duration of its child spans, and a
layer's self time is the sum over the spans named `<layer>.*`.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import daccbs.backup
import daccbs.cbs
import daccbs.controller
import daccbs.grid
import daccbs.simulate
import daccbs.trajectory

# Layers whose spans run inside an operation; grid runs only in set-up.
PASS_LAYERS = (
    "factorization", "trajectory", "lowlevel", "cbs",
    "certificate", "backup", "controller", "simulate",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[list] = []  # [span index, time covered by children]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                self.self_s[name] += t1 - t0 - frame[1]
                self.total_s[name] += t1 - t0
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += t1 - t0
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def root_s(self) -> float:
        """Time covered by top-level spans."""
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[3] < 0)

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    # -- outcome readers -------------------------------------------------------

    def _search_outcome(self, outcome) -> None:
        c = self.counts
        c["cbs.expansions"] += outcome.expansions
        c["cbs.dequeues"] += outcome.dequeues
        c["cbs.empty_searches"] += outcome.dequeues == 0
        c["cbs.h_r_sum"] += outcome.best_h
        c["cbs.reason." + outcome.reason] += 1

    def _search(self, fn):
        """run_adaptive wrapper; also spans the prefix callback it is given."""
        inner = self.wrap("cbs.search", fn, self._search_outcome)

        def search(*args, **kwargs):
            # The controller passes its candidate callback by keyword.
            if kwargs.get("on_prefix_found") is not None:
                kwargs["on_prefix_found"] = self.wrap(
                    "certificate.candidate", kwargs["on_prefix_found"]
                )
            return inner(*args, **kwargs)

        return search

    def _partition(self, groups) -> None:
        self.counts["factorization.groups"] += len(groups)
        self.counts["factorization.splits"] += len(groups) > 1

    def _count(self, key: str, value_of):
        def record(result) -> None:
            self.counts[key] += value_of(result)
        return record


@contextlib.contextmanager
def install(tracer: Tracer):
    """Swap the traced names for their wrappers for the duration of the block."""
    t = tracer
    plan = [
        (daccbs.grid, "load_map", t.wrap("grid.load_map", daccbs.grid.load_map)),
        (daccbs.grid, "load_scenario", t.wrap("grid.load_scenario", daccbs.grid.load_scenario)),
        (daccbs.simulate, "run_episode",
         t.wrap("simulate.run_episode", daccbs.simulate.run_episode)),
        (daccbs.controller.FleetController, "plan_step",
         t.wrap("controller.plan_step", daccbs.controller.FleetController.plan_step)),
        (daccbs.controller, "reachable_region",
         t.wrap("factorization.region", daccbs.controller.reachable_region,
                t._count("factorization.region_vertices", len))),
        (daccbs.controller, "partition",
         t.wrap("factorization.partition", daccbs.controller.partition, t._partition)),
        (daccbs.controller, "advance", t.wrap("certificate.advance", daccbs.controller.advance)),
        (daccbs.controller, "init_certificate",
         t.wrap("certificate.init", daccbs.controller.init_certificate)),
        (daccbs.controller, "build_candidate",
         t.wrap("certificate.build_candidate", daccbs.controller.build_candidate,
                t._count("certificate.candidates_built", lambda r: r is not None))),
        (daccbs.controller, "try_improve",
         t.wrap("certificate.try_improve", daccbs.controller.try_improve,
                t._count("certificate.candidates_accepted", lambda r: bool(r[1])))),
        (daccbs.controller, "run_adaptive", t._search(daccbs.controller.run_adaptive)),
        (daccbs.cbs, "run_classic_cbs", t.wrap("cbs.classic", daccbs.cbs.run_classic_cbs)),
        (daccbs.cbs, "run_adaptive", t._search(daccbs.cbs.run_adaptive)),
        (daccbs.cbs, "make_root", t.wrap("cbs.make_root", daccbs.cbs.make_root)),
        (daccbs.cbs, "plan_constrained",
         t.wrap("lowlevel.replan", daccbs.cbs.plan_constrained,
                t._count("lowlevel.replans_infeasible", lambda r: r is None))),
        (daccbs.cbs, "detect_first_conflict",
         t.wrap("trajectory.detect", daccbs.cbs.detect_first_conflict)),
        (daccbs.cbs, "count_conflicts", t.wrap("trajectory.count", daccbs.cbs.count_conflicts)),
        # is_conflict_free (certificate checks) looks the detector up here.
        (daccbs.trajectory, "detect_first_conflict",
         t.wrap("trajectory.detect", daccbs.trajectory.detect_first_conflict)),
        (daccbs.backup.LacamBackup, "rollout",
         t.wrap("backup.rollout", daccbs.backup.LacamBackup.rollout)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in plan]
    try:
        for owner, attr, wrapper in plan:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_metrics(t: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics of the traced passes, each as a per-pass mean."""
    calls, counts, self_s, total_s = t.calls, t.counts, t.self_s, t.total_s
    searches = calls["cbs.search"]
    built = counts["certificate.candidates_built"]
    m = {
        "factorization.region_calls": calls["factorization.region"],
        "factorization.region_s": total_s["factorization.region"],
        "factorization.partition_calls": calls["factorization.partition"],
        "factorization.partition_s": total_s["factorization.partition"],
        "factorization.splits": counts["factorization.splits"],
        "trajectory.detect_calls": calls["trajectory.detect"],
        "trajectory.detect_s": total_s["trajectory.detect"],
        "trajectory.count_calls": calls["trajectory.count"],
        "trajectory.count_s": total_s["trajectory.count"],
        "lowlevel.replans": calls["lowlevel.replan"],
        "lowlevel.replan_s": total_s["lowlevel.replan"],
        "lowlevel.replans_infeasible": counts["lowlevel.replans_infeasible"],
        "cbs.searches": searches,
        "cbs.search_s": self_s["cbs.search"],
        "cbs.make_root_s": total_s["cbs.make_root"],
        "cbs.expansions": counts["cbs.expansions"],
        "cbs.dequeues": counts["cbs.dequeues"],
        "cbs.empty_searches": counts["cbs.empty_searches"],
        "cbs.prefix_callbacks": calls["certificate.candidate"],
        "certificate.advance_s": total_s["certificate.advance"],
        "certificate.candidates_built": built,
        "certificate.candidates_accepted": counts["certificate.candidates_accepted"],
        "certificate.candidate_s": self_s["certificate.candidate"]
        + self_s["certificate.build_candidate"] + self_s["certificate.try_improve"],
        "backup.rollout_calls": calls["backup.rollout"],
        "backup.rollout_s": total_s["backup.rollout"],
        "backup.rollout_errors": counts["backup.rollout.errors"],
        "controller.self_s": self_s["controller.plan_step"],
        "simulate.validate_s": self_s["simulate.run_episode"],
    }
    for reason in ("horizon", "deadline", "no-prefix", "exhausted", "cap"):
        m["cbs.reason." + reason] = counts["cbs.reason." + reason]
    m = {k: v / passes for k, v in m.items()}
    # Means and ratios are per call, not per pass.
    m["factorization.region_size_mean"] = _ratio(
        counts["factorization.region_vertices"], calls["factorization.region"])
    m["factorization.groups_mean"] = _ratio(
        counts["factorization.groups"], calls["factorization.partition"])
    m["cbs.h_r_mean"] = _ratio(counts["cbs.h_r_sum"], searches)
    m["certificate.accept_ratio"] = _ratio(counts["certificate.candidates_accepted"], built)
    root = t.root_s()
    for layer in PASS_LAYERS:
        m[layer + ".self_share"] = _ratio(t.layer_self_s(layer), root)
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def write_spans(tracer: Tracer, path: Path) -> None:
    """One tab-separated line per span: index, name, start, end, parent."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for i, span in enumerate(tracer.spans):
            if span is not None:
                name, t0, t1, parent = span
                out.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")
