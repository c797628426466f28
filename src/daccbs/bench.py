"""Command-line benchmark harness.

Loads a MovingAI map/scenario pair, runs the Cartesian product of
(mode x t_max x seed) episodes one after another in one thread, and writes
per-episode records plus per-(mode, t_max) aggregates as JSON or CSV.
Optionally emits a factorization table (group count and largest-group ratio
at the episode's half-makespan step).

Exit codes: 0 success, 1 usage error, 2 data error (including a scenario with
no conflict-free solution), 3 internal defect (an invalid movement, a backup
cap hit on a feasible input, or a certificate or budget invariant broken).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .backup import BackupDefect
from .certificate import CertificateError
from .controller import ControllerConfig, FleetController, MODES
from .factorization import BudgetInvariantError
from .grid import InfeasibleInstanceError, MapFormatError, load_map, load_scenario
from .simulate import MovementDefect, run_episode

SCHEMA_VERSION = 7


class UsageError(ValueError):
    pass


@dataclass
class RunSpec:
    map_path: str
    scen_path: str
    agents: int
    modes: list[str] = field(default_factory=lambda: [ControllerConfig.mode])
    t_max_ms: list[float] = field(default_factory=lambda: [ControllerConfig.t_max_ms])
    h_max: int = ControllerConfig.h_max
    slack_threshold: int = ControllerConfig.slack_threshold
    seeds: list[int] = field(default_factory=lambda: [ControllerConfig.seed])
    out: str = "results.json"
    fmt: str = "json"
    step_cap: int | None = None
    factorization_report: str | None = None

    def validate(self) -> None:
        if self.agents < 0:
            raise UsageError("--agents must be >= 0")
        if self.step_cap is not None and self.step_cap < 0:
            raise UsageError("--step-cap must be >= 0")
        if not self.t_max_ms or not self.seeds:
            raise UsageError("at least one --tmax-ms and one --seed are required")
        for mode in self.modes:
            for t_max in self.t_max_ms:
                try:
                    self.config(mode, t_max)
                except ValueError as exc:
                    raise UsageError(str(exc)) from None
        if self.fmt not in ("json", "csv"):
            raise UsageError(f"unknown format {self.fmt!r}")
        outputs = {"--out": self.out, "--factorization-report": self.factorization_report}
        for flag, path in outputs.items():
            if path is not None and Path(path).is_dir():
                raise UsageError(f"{flag} {path!r} is a directory")

    def config(self, mode: str, t_max: float, seed: int = 0) -> ControllerConfig:
        return ControllerConfig(
            h_max=self.h_max,
            t_max_ms=t_max,
            slack_threshold=self.slack_threshold,
            mode=mode,
            seed=seed,
        )


def _episode_record(spec: RunSpec, mode: str, t_max: float, seed: int, instance) -> dict:
    controller = FleetController(instance, spec.config(mode, t_max, seed))
    result = run_episode(instance, controller, step_cap=spec.step_cap)
    record = {"mode": mode, "t_max_ms": t_max, "seed": seed}
    record.update(result.to_dict())
    return record


def run_suite(spec: RunSpec) -> dict:
    """Run every episode of the RunSpec and return the suite document."""
    spec.validate()
    graph = load_map(spec.map_path)
    instance = load_scenario(spec.scen_path, graph, spec.agents)

    episodes = [
        _episode_record(spec, mode, t_max, seed, instance)
        for mode in spec.modes
        for t_max in spec.t_max_ms
        for seed in spec.seeds
    ]

    aggregates = []
    for mode in spec.modes:
        for t_max in spec.t_max_ms:
            increments = [
                ep["soc_increment"]
                for ep in episodes
                if ep["mode"] == mode
                and ep["t_max_ms"] == t_max
                and ep["soc_increment"] is not None
            ]
            terminated = len(increments)
            total = len(spec.seeds)
            mean = sum(increments) / terminated if terminated else None
            std = (
                math.sqrt(sum((x - mean) ** 2 for x in increments) / terminated)
                if terminated
                else None
            )
            # A daccbs step 0 builds the initial certificate and is exempt
            # from t_max.
            first = 1 if mode == "daccbs" else 0
            overruns = [
                step["overrun_ms"]
                for ep in episodes
                if ep["mode"] == mode and ep["t_max_ms"] == t_max
                for step in ep["telemetry"][first:]
            ]
            aggregates.append(
                {
                    "mode": mode,
                    "t_max_ms": t_max,
                    "episodes": total,
                    "terminated": terminated,
                    "mean_soc_increment": mean,
                    "std_soc_increment": std,
                    "deadline_miss_frac": (
                        sum(x > 0 for x in overruns) / len(overruns) if overruns else None
                    ),
                    "max_overrun_ms": max(overruns, default=None),
                }
            )

    return {
        "schema_version": SCHEMA_VERSION,
        "spec": {
            "map": spec.map_path,
            "scen": spec.scen_path,
            "agents": spec.agents,
            "modes": spec.modes,
            "t_max_ms": spec.t_max_ms,
            "h_max": spec.h_max,
            "slack_threshold": spec.slack_threshold,
            "seeds": spec.seeds,
            "step_cap": spec.step_cap,
        },
        "episodes": episodes,
        "aggregates": aggregates,
    }


def report_factorization(suite: dict) -> list[dict]:
    """Per-episode (N, K, max group size / N) at the half-makespan step.

    Non-terminated episodes, and episodes with no step, are excluded with a
    note.
    """
    rows = []
    n = suite["spec"]["agents"]
    for ep in suite["episodes"]:
        if ep["mode"] != "daccbs":
            continue
        excluded = ("not terminated" if ep["termination"] != "all-at-goals"
                    else "no steps" if ep["makespan"] == 0 else None)
        if excluded:
            rows.append({"seed": ep["seed"], "t_max_ms": ep["t_max_ms"], "excluded": excluded})
            continue
        half = math.ceil(ep["makespan"] / 2)
        groups = groups_at_step(ep, half)
        k = len(groups)
        ratio = max(groups) / n
        rows.append(
            {
                "seed": ep["seed"],
                "t_max_ms": ep["t_max_ms"],
                "n_agents": n,
                "step": half,
                "k_groups": k,
                "max_group_ratio": ratio,
            }
        )
    return rows


def groups_at_step(episode: dict, step: int) -> list[int]:
    """Group sizes in effect at `step`, read from the step telemetry: the
    active groups' sizes, then the parked groups'."""
    # Telemetry t increases within an episode, so the last entry at or before
    # the step is the exact-step entry whenever there is one.
    best = None
    for telem in episode.get("telemetry", []):
        if "groups" in telem and telem.get("t", 0) <= step:
            best = telem
    if best is not None:
        return [g["size"] for g in best["groups"]] + best["parked"]
    return []


def open_output(path: str):
    """Open `path` for writing, creating its parent directories."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out.open("w", newline="")


def write_json(data, path: str) -> None:
    with open_output(path) as fh:
        fh.write(json.dumps(data, indent=2) + "\n")


def write_output(suite: dict, path: str, fmt: str) -> None:
    if fmt == "json":
        write_json(suite, path)
        return
    # CSV: one row per episode; structured traces are JSON-encoded cells so
    # both encodings carry identical values.
    fields = [
        "mode",
        "t_max_ms",
        "seed",
        "soc",
        "soc_increment",
        "makespan",
        "termination",
        "initial_budget",
        "gamma_sum",
        "budget_trace",
        "factorization_trace",
    ]
    with open_output(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for ep in suite["episodes"]:
            row = {k: ep.get(k) for k in fields}
            row["budget_trace"] = json.dumps(ep.get("budget_trace", []))
            row["factorization_trace"] = json.dumps(ep.get("factorization_trace", []))
            writer.writerow(row)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="daccbs-bench",
        description="Closed-loop MAPF benchmark harness.",
    )
    parser.add_argument("--map", required=True, help="MovingAI .map file")
    parser.add_argument("--scen", required=True, help="MovingAI .scen file")
    parser.add_argument("--agents", type=int, required=True, help="number of agents")
    parser.add_argument(
        "--mode", action="append", choices=MODES, help="controller mode (repeatable)"
    )
    parser.add_argument(
        "--tmax-ms", action="append", type=float, help="per-step budget in ms (repeatable)"
    )
    parser.add_argument("--hmax", type=int, default=ControllerConfig.h_max, help="nominal horizon")
    parser.add_argument("--slack-threshold", type=int, default=ControllerConfig.slack_threshold)
    parser.add_argument("--seed", action="append", type=int, help="seed (repeatable)")
    parser.add_argument("--step-cap", type=int, default=None)
    parser.add_argument("--out", default=RunSpec.out)
    parser.add_argument("--format", choices=("json", "csv"), default=RunSpec.fmt)
    parser.add_argument(
        "--factorization-report", default=None, help="also write a factorization table here"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Repeatable flags left out take RunSpec's defaults.
        repeated = {"modes": args.mode, "t_max_ms": args.tmax_ms, "seeds": args.seed}
        spec = RunSpec(
            map_path=args.map,
            scen_path=args.scen,
            agents=args.agents,
            h_max=args.hmax,
            slack_threshold=args.slack_threshold,
            out=args.out,
            fmt=args.format,
            step_cap=args.step_cap,
            factorization_report=args.factorization_report,
            **{key: value for key, value in repeated.items() if value},
        )
        spec.validate()
    except SystemExit as exc:  # --help
        return 1 if exc.code else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        suite = run_suite(spec)
    except (MapFormatError, InfeasibleInstanceError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (
        MovementDefect, BackupDefect, CertificateError, BudgetInvariantError, AssertionError
    ) as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return 3
    try:
        write_output(suite, spec.out, spec.fmt)
        if spec.factorization_report:
            write_json(report_factorization(suite), spec.factorization_report)
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
