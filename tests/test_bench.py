"""CLI harness: schema, exit codes, encodings, factorization report."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import daccbs
import daccbs.bench
from daccbs import BackupDefect, EpisodeResult, LacamBackup
from daccbs.bench import RunSpec, UsageError, main, report_factorization, run_suite


MAP_TEXT = "type octile\nheight 4\nwidth 4\nmap\n....\n....\n....\n....\n"


def scen_text(pairs):
    rows = ["version 1"]
    for (sx, sy), (gx, gy) in pairs:
        rows.append(f"0\ttiny.map\t4\t4\t{sx}\t{sy}\t{gx}\t{gy}\t1.0")
    return "\n".join(rows) + "\n"


@pytest.fixture
def files(tmp_path):
    map_path = tmp_path / "tiny.map"
    scen_path = tmp_path / "tiny.scen"
    map_path.write_text(MAP_TEXT)
    scen_path.write_text(scen_text([((0, 0), (3, 3)), ((3, 0), (0, 3))]))
    return map_path, scen_path, tmp_path


def base_spec(map_path, scen_path, tmp_path, **kw):
    defaults = dict(
        map_path=str(map_path),
        scen_path=str(scen_path),
        agents=2,
        t_max_ms=[5.0],
        seeds=[0],
        out=str(tmp_path / "out.json"),
    )
    defaults.update(kw)
    return RunSpec(**defaults)


class TestRunSuite:
    def test_episode_schema(self, files):
        suite = run_suite(base_spec(*files))
        assert suite["schema_version"] == 7
        assert len(suite["episodes"]) == 1
        ep = suite["episodes"][0]
        for key in ("mode", "seed", "t_max_ms", "soc", "soc_increment",
                    "makespan", "budget_trace", "factorization_trace"):
            assert key in ep
        assert ep["budget_trace"]

    def test_zero_agents(self, files):
        suite = run_suite(base_spec(*files, agents=0))
        assert suite["episodes"][0]["soc"] == 0
        assert suite["aggregates"][0]["mean_soc_increment"] == 0.0

    def test_cartesian_product(self, files):
        spec = base_spec(*files, modes=["daccbs", "accbs"], seeds=[0, 1])
        suite = run_suite(spec)
        assert len(suite["episodes"]) == 4
        assert len(suite["aggregates"]) == 2

    def test_budget_monotone_across_tmax(self, files):
        spec = base_spec(*files, t_max_ms=[1.0, 50.0])
        suite = run_suite(spec)
        by_tmax = {ep["t_max_ms"]: ep for ep in suite["episodes"]}
        b_small = by_tmax[1.0]["budget_trace"][0][1]
        b_large = by_tmax[50.0]["budget_trace"][0][1]
        assert b_large <= b_small

    def test_overruns_aggregated_from_step_1(self, files, monkeypatch):
        # A daccbs step 0 builds the initial certificate and is exempt from
        # t_max, so its overrun counts in no aggregate.  An accbs step 0
        # builds nothing first and counts like any other step.
        overruns = {0: [9.0, -1.0, 2.0], 1: [7.0, -0.5, -3.0, 0.25]}

        def stepped(instance, controller, step_cap=None):
            steps = overruns[controller.config.seed]
            return EpisodeResult(len(steps), len(steps), "all-at-goals", None, 0,
                                 telemetry=[{"overrun_ms": x} for x in steps])

        monkeypatch.setattr(daccbs.bench, "run_episode", stepped)
        spec = base_spec(*files, modes=["daccbs", "accbs"], seeds=[0, 1])
        daccbs_steps, accbs_steps = run_suite(spec)["aggregates"]
        assert daccbs_steps["mode"] == "daccbs"
        assert daccbs_steps["deadline_miss_frac"] == 2 / 5
        assert daccbs_steps["max_overrun_ms"] == 2.0
        assert accbs_steps["mode"] == "accbs"
        assert accbs_steps["deadline_miss_frac"] == 4 / 7
        assert accbs_steps["max_overrun_ms"] == 9.0

    def test_step_records_overrun(self, files):
        spec = base_spec(*files, modes=["daccbs", "accbs"], t_max_ms=[0.0, 5.0])
        suite = run_suite(spec)
        for ep in suite["episodes"]:
            for step in ep["telemetry"]:
                assert step["overrun_ms"] == step["wall_ms"] - ep["t_max_ms"]
                assert step["reserve_ms"] >= 0.0
        for aggregate in suite["aggregates"]:
            if aggregate["t_max_ms"] == 0.0:
                assert aggregate["deadline_miss_frac"] == 1.0
                assert aggregate["max_overrun_ms"] > 0

    def test_invalid_mode_rejected(self, files):
        with pytest.raises(UsageError):
            run_suite(base_spec(*files, modes=["bogus"]))

    def test_replay_identical(self, files):
        # The CLI path: episodes run one after another, groups one after another.
        def episodes():
            spec = base_spec(*files, t_max_ms=[0.0], seeds=[0, 1, 2, 3])
            eps = run_suite(spec)["episodes"]
            for ep in eps:
                for telem in ep["telemetry"]:
                    del telem["wall_ms"], telem["overrun_ms"], telem["reserve_ms"]
            return eps

        first = episodes()
        assert len(first) == 4
        assert first == episodes()


class TestMainExitCodes:
    def test_success(self, files):
        map_path, scen_path, tmp = files
        out = tmp / "r.json"
        code = main([
            "--map", str(map_path), "--scen", str(scen_path), "--agents", "2",
            "--tmax-ms", "5", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["episodes"]

    def test_outputs_into_missing_directories(self, files):
        # Both files are written through one writer that makes the parents.
        map_path, scen_path, tmp = files
        out = tmp / "new" / "r.json"
        report = tmp / "other" / "deeper" / "report.json"
        code = main([
            "--map", str(map_path), "--scen", str(scen_path), "--agents", "2",
            "--tmax-ms", "5", "--out", str(out), "--factorization-report", str(report),
        ])
        assert code == 0
        assert json.loads(out.read_text())["episodes"]
        assert len(json.loads(report.read_text())) == 1

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param(None, id="missing-map"),
            pytest.param(["--hmax", "0"], id="hmax-0"),
            pytest.param(["--tmax-ms", "-1"], id="tmax-negative"),
            pytest.param(["--tmax-ms", "nan"], id="tmax-nan"),
            pytest.param(["--tmax-ms", "inf"], id="tmax-inf"),
            pytest.param(["--step-cap", "-3"], id="step-cap-negative"),
            pytest.param(["--slack-threshold", "-7"], id="slack-threshold-negative"),
            pytest.param(["--backup", "nope"], id="backup-unknown"),
            pytest.param(["--backup", "cbs-full"], id="backup-removed"),
            pytest.param(["--backup", "lacam-ref"], id="backup-flag-removed"),
            pytest.param(["--mode", "backup-only"], id="mode-removed"),
            pytest.param(["--out", "{tmp}"], id="out-dir"),
            pytest.param(["--factorization-report", "{tmp}"], id="report-dir"),
        ],
    )
    def test_usage_error(self, files, extra):
        map_path, scen_path, tmp = files
        argv = ["--agents", "2"]
        if extra is not None:
            argv += ["--map", str(map_path), "--scen", str(scen_path),
                     "--out", str(tmp / "r.json"), *(a.format(tmp=tmp) for a in extra)]
        env = {**os.environ, "PYTHONPATH": str(Path(daccbs.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "daccbs.bench", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "usage error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "bad", ["missing-map", "dir-map", "dir-scen", "binary-map", "jointly-infeasible"]
    )
    def test_data_error(self, files, bad, capsys):
        map_path, scen_path, tmp = files
        if bad == "missing-map":
            map_path = tmp / "missing.map"
        elif bad == "dir-map":
            map_path = tmp
        elif bad == "dir-scen":
            scen_path = tmp
        elif bad == "binary-map":
            map_path = tmp / "binary.map"
            map_path.write_bytes(bytes(range(128, 256)))
        else:
            # Two agents swapping ends of a 1x3 corridor: each goal is
            # reachable alone, but no conflict-free plan exists.
            map_path = tmp / "corridor.map"
            scen_path = tmp / "corridor.scen"
            map_path.write_text("type octile\nheight 1\nwidth 3\nmap\n...\n")
            scen_path.write_text(
                "version 1\n"
                "0\tcorridor.map\t3\t1\t0\t0\t2\t0\t2.0\n"
                "0\tcorridor.map\t3\t1\t2\t0\t0\t0\t2.0\n"
            )
        code = main([
            "--map", str(map_path), "--scen", str(scen_path),
            "--agents", "2", "--out", str(tmp / "r.json"),
        ])
        assert code == 2
        assert "data error:" in capsys.readouterr().err

    def test_backup_defect_is_internal(self, files, monkeypatch, capsys):
        def capped(*args):
            raise BackupDefect("LaCAM iteration cap exceeded on a feasible input")

        monkeypatch.setattr(LacamBackup, "rollout", capped)
        map_path, scen_path, tmp = files
        code = main([
            "--map", str(map_path), "--scen", str(scen_path), "--agents", "2",
            "--out", str(tmp / "r.json"),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert "internal defect:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--out", "--factorization-report"])
    def test_unwritable_output(self, files, flag, capsys):
        map_path, scen_path, tmp = files
        blocker = tmp / "file"
        blocker.write_text("")
        argv = ["--map", str(map_path), "--scen", str(scen_path), "--agents", "2",
                "--tmax-ms", "5", "--out", str(tmp / "r.json"), flag, str(blocker / "x.json")]
        assert main(argv) == 2
        assert "data error:" in capsys.readouterr().err

    def test_malformed_map(self, files):
        map_path, scen_path, tmp = files
        bad = tmp / "bad.map"
        bad.write_text("not a map\n")
        code = main([
            "--map", str(bad), "--scen", str(scen_path), "--agents", "2",
            "--out", str(tmp / "r.json"),
        ])
        assert code == 2


class TestEncodings:
    def test_csv_json_value_parity(self, files):
        map_path, scen_path, tmp = files
        spec_j = base_spec(map_path, scen_path, tmp, out=str(tmp / "a.json"))
        suite = run_suite(spec_j)
        from daccbs.bench import write_output

        write_output(suite, str(tmp / "a.json"), "json")
        write_output(suite, str(tmp / "a.csv"), "csv")
        with open(tmp / "a.csv") as fh:
            rows = list(csv.DictReader(fh))
        ep = json.loads((tmp / "a.json").read_text())["episodes"][0]
        assert int(rows[0]["soc"]) == ep["soc"]
        assert json.loads(rows[0]["budget_trace"]) == ep["budget_trace"]

    def test_round_trip(self, files):
        suite = run_suite(base_spec(*files))
        encoded = json.dumps(suite)
        assert json.loads(encoded) == suite


class TestFactorizationReport:
    def test_two_independent_agents(self, tmp_path):
        map_path = tmp_path / "rows.map"
        scen_path = tmp_path / "rows.scen"
        map_path.write_text("type octile\nheight 5\nwidth 5\nmap\n" + "\n".join(["....."] * 5) + "\n")
        # row-0 and row-4 traversals: independent under a tight budget
        rows = ["version 1",
                "0\trows.map\t5\t5\t0\t0\t4\t0\t4.0",
                "0\trows.map\t5\t5\t4\t4\t0\t4\t4.0"]
        scen_path.write_text("\n".join(rows) + "\n")
        spec = RunSpec(
            map_path=str(map_path), scen_path=str(scen_path), agents=2,
            t_max_ms=[5.0], seeds=[0], out=str(tmp_path / "o.json"),
        )
        suite = run_suite(spec)
        table = report_factorization(suite)
        assert table
        assert table[0]["k_groups"] == 2
        assert table[0]["max_group_ratio"] == 0.5

    def test_zero_step_episode_excluded(self, tmp_path):
        # Both agents start on their goals, so the episode has no step and
        # no groups to report.
        map_path = tmp_path / "line.map"
        scen_path = tmp_path / "line.scen"
        report = tmp_path / "report.json"
        map_path.write_text("type octile\nheight 1\nwidth 3\nmap\n...\n")
        scen_path.write_text("version 1\n0\tline.map\t3\t1\t0\t0\t0\t0\t0.0\n"
                             "0\tline.map\t3\t1\t2\t0\t2\t0\t0.0\n")
        code = main(["--map", str(map_path), "--scen", str(scen_path), "--agents", "2",
                     "--out", str(tmp_path / "o.json"), "--factorization-report", str(report)])
        assert code == 0
        assert json.loads(report.read_text()) == [
            {"seed": 0, "t_max_ms": 100.0, "excluded": "no steps"}
        ]

    def test_parked_group_counted(self, tmp_path):
        # Agents 0 and 1 share a group and hold their goals after one step,
        # so the pair has parked by the half-makespan step (2) while agent 2
        # still crosses row 4.  K and the largest group count the pair.
        map_path = tmp_path / "rows.map"
        scen_path = tmp_path / "rows.scen"
        map_path.write_text("type octile\nheight 5\nwidth 5\nmap\n" + "\n".join(["....."] * 5) + "\n")
        rows = ["version 1",
                "0\trows.map\t5\t5\t0\t0\t1\t0\t1.0",
                "0\trows.map\t5\t5\t1\t0\t2\t0\t1.0",
                "0\trows.map\t5\t5\t4\t4\t0\t4\t4.0"]
        scen_path.write_text("\n".join(rows) + "\n")
        spec = RunSpec(
            map_path=str(map_path), scen_path=str(scen_path), agents=3,
            t_max_ms=[5.0], seeds=[0], out=str(tmp_path / "o.json"),
        )
        suite = run_suite(spec)
        (ep,) = suite["episodes"]
        half = ep["telemetry"][2]
        assert ([g["size"] for g in half["groups"]], half["parked"]) == ([1], [2])
        (row,) = report_factorization(suite)
        assert (row["step"], row["k_groups"], row["max_group_ratio"]) == (2, 2, 2 / 3)
