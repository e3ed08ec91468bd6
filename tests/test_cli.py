import csv
import json
from pathlib import Path

import numpy as np
import pytest

from aoisched.channel import ChannelModel
from aoisched.cli import (
    EXIT_OK,
    EXIT_PROPERTY,
    EXIT_USAGE,
    GREEDY_COLUMNS,
    TRADEOFF_COLUMNS,
    _primal_and_dual,
    main,
)
from aoisched.mdp import Case, FrameSpec, TruncationBound

from oracles import dual_grid_maximum

FAST = [
    "--bound-N", "25", "--horizon", "6000", "--warmup", "500",
    "--eps", "1e-6", "--eps-lambda", "1e-3", "--seed", "7",
]


@pytest.fixture
def no_solve(monkeypatch):
    """Make every solve the CLI can start fail the test."""
    import aoisched.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran before the arguments were checked")

    for name in ("bisect_lambda", "build_case", "rvi_plain", "simulate_greedy"):
        monkeypatch.setattr(cli, name, refuse)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestTradeoff:
    def test_writes_sorted_provenance_rows(self, tmp_path):
        out = tmp_path / "tradeoff.csv"
        code = main([
            "tradeoff", "--case", "no_sensing", "--p11", "0.7", "--p01", "0.3",
            "--emax", "0.4,0.8", "--out", str(out), *FAST,
        ])
        assert code == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == TRADEOFF_COLUMNS
        body = rows[1:]
        assert len(body) == 3  # two budgets plus the unconstrained line
        kinds = [r[TRADEOFF_COLUMNS.index("row_kind")] for r in body]
        assert kinds == ["constrained", "constrained", "unconstrained"]
        for r in body:
            assert r[TRADEOFF_COLUMNS.index("seed")] == "7"
            assert r[TRADEOFF_COLUMNS.index("p11")] == "0.7"

    def test_energy_column_respects_budget(self, tmp_path):
        out = tmp_path / "tradeoff.csv"
        main([
            "tradeoff", "--case", "delayed_sensing", "--p11", "0.8", "--p01", "0.4",
            "--emax", "0.3", "--out", str(out), *FAST,
        ])
        rows = read_csv(out)
        idx_kind = TRADEOFF_COLUMNS.index("row_kind")
        idx_energy = TRADEOFF_COLUMNS.index("energy_analytic")
        for r in rows[1:]:
            if r[idx_kind] == "constrained":
                assert float(r[idx_energy]) <= 0.3 + 1e-9

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "tradeoff", "--case", "no_sensing", "--p11", "0.7", "--p01", "0.3",
            "--emax", "0.5", *FAST,
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_curve_shares_its_repeated_solves(self, tmp_path, monkeypatch):
        # alone, the two budgets' searches take 23 + 17 solves and the
        # unconstrained row one more; one curve shares price 0, 1 and 2
        import aoisched.cli as cli
        import aoisched.solver as solver

        prices, solve = [], solver.rvi_plain

        def counted(space, kern, lam, **kwargs):
            prices.append(lam)
            return solve(space, kern, lam, **kwargs)

        for module in (cli, solver):
            monkeypatch.setattr(module, "rvi_plain", counted)
        code = main([
            "tradeoff", "--case", "no_sensing", "--frame-K", "3", "--p11", "0.7", "--p01", "0.3",
            "--emax", "0.3,0.6", "--bound-N", "40", "--eps", "1e-6", "--eps-lambda", "1e-4",
            "--horizon", "3000", "--warmup", "100", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_OK
        assert len(prices) == 37
        assert prices.count(0.0) == 1

    def test_unconstrained_row_is_the_budget_one_row(self, tmp_path):
        # the unconstrained optimum is the budget-1 mixture: price 0, q = 1 and
        # two equal components, simulated as its one policy
        out = tmp_path / "tradeoff.csv"
        code = main([
            "tradeoff", "--case", "both", "--emax", "0.3,1.0", "--bound-N", "20",
            "--horizon", "3000", "--warmup", "100", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = [dict(zip(TRADEOFF_COLUMNS, r)) for r in read_csv(out)[1:]]
        results = TRADEOFF_COLUMNS[TRADEOFF_COLUMNS.index("lambda_minus"):]
        assert len(results) == 10
        curves = {(r["case"], r["p11"], r["p01"]) for r in rows}
        assert len(curves) == 6
        for curve in curves:
            [budget_one] = [r for r in rows if (r["case"], r["p11"], r["p01"]) == curve
                            and r["emax"] == "1.0"]
            [unconstrained] = [r for r in rows if (r["case"], r["p11"], r["p01"]) == curve
                               and r["row_kind"] == "unconstrained"]
            assert budget_one["row_kind"] == "constrained"
            assert [budget_one[c] for c in results] == [unconstrained[c] for c in results]

    def test_worker_pool_does_not_change_output(self, tmp_path):
        args = [
            "tradeoff", "--case", "both", "--p11", "0.7", "--p01", "0.3",
            "--emax", "0.4,0.7", *FAST,
        ]
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        main(args + ["--out", str(a), "--workers", "1"])
        main(args + ["--out", str(b), "--workers", "2"])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("workers, started", [(64, 3), (2, 2)])
    def test_pool_starts_no_more_workers_than_jobs(self, monkeypatch, workers, started):
        # with the fork start method the pool starts all max_workers at once
        import concurrent.futures

        from aoisched.cli import _map_points

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        assert _map_points(lambda job: [job, -job], [1, 2, 3], workers) == [1, -1, 2, -2, 3, -3]
        assert sizes == [started]


class TestFramelength:
    def test_sweeps_frame_lengths(self, tmp_path):
        out = tmp_path / "framelength.csv"
        code = main([
            "framelength", "--case", "delayed_sensing", "--frame-K", "2,3",
            "--p11", "0.7", "--p01", "0.3", "--emax", "0.3", "--out", str(out), *FAST,
        ])
        assert code == EXIT_OK
        rows = read_csv(out)
        ks = {r[TRADEOFF_COLUMNS.index("frame_k")] for r in rows[1:]}
        assert ks == {"2", "3"}

    def test_delayed_sensing_never_worse_per_frame_length(self, tmp_path):
        out = tmp_path / "framelength.csv"
        main([
            "framelength", "--case", "both", "--frame-K", "2,3",
            "--p11", "0.7", "--p01", "0.3", "--emax", "0.3", "--out", str(out),
            "--bound-N", "30", "--horizon", "30000", "--warmup", "1000",
            "--eps", "1e-7", "--eps-lambda", "1e-4", "--seed", "7",
        ])
        rows = [dict(zip(TRADEOFF_COLUMNS, r)) for r in read_csv(out)[1:]]
        constrained = [r for r in rows if r["row_kind"] == "constrained"]
        by_case_k = {(r["case"], r["frame_k"]): r for r in constrained}
        for k in ("2", "3"):
            ns = by_case_k[("no_sensing", k)]
            de = by_case_k[("delayed_sensing", k)]
            two_sigma = 2 * (float(ns["aoi_mc_se"]) ** 2 + float(de["aoi_mc_se"]) ** 2) ** 0.5
            assert float(de["aoi_mc"]) <= float(ns["aoi_mc"]) + two_sigma


class TestGreedyCompare:
    def test_columns_and_gap_consistency(self, tmp_path):
        out = tmp_path / "greedy.csv"
        code = main([
            "greedy-compare", "--emax", "0.2,0.4", "--out", str(out), *FAST,
        ])
        assert code == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == GREEDY_COLUMNS
        for r in rows[1:]:
            row = dict(zip(GREEDY_COLUMNS, r))
            gap = float(row["aoi_greedy"]) - float(row["aoi_no_sensing"])
            assert float(row["gap_no_sensing"]) == pytest.approx(gap, abs=1e-12)

    def test_sweeps_every_frame_length(self, tmp_path):
        out = tmp_path / "greedy.csv"
        code = main([
            "greedy-compare", "--frame-K", "3,2", "--emax", "0.5,0.3", "--out", str(out),
            *FAST,
        ])
        assert code == EXIT_OK
        rows = [dict(zip(GREEDY_COLUMNS, r)) for r in read_csv(out)[1:]]
        assert [(r["frame_k"], r["emax"]) for r in rows] == [
            ("2", "0.3"), ("2", "0.5"), ("3", "0.3"), ("3", "0.5"),
        ]

    @pytest.mark.parametrize("case", ["no_sensing", "delayed_sensing"])
    def test_single_case_rejected_before_any_solve(self, tmp_path, capsys, no_solve, case):
        out = tmp_path / "greedy.csv"
        code = main(["greedy-compare", "--case", case, "--emax", "0.4", "--out", str(out), *FAST])
        assert code == EXIT_USAGE
        assert "both cases" in capsys.readouterr().err
        assert not out.exists()


class TestSolve:
    def test_dumps_belief_cutoffs(self, tmp_path):
        out = tmp_path / "solve.csv"
        code = main([
            "solve", "--case", "no_sensing", "--lam", "1.0", "--out", str(out),
            "--bound-N", "12", "--eps", "1e-6",
        ])
        assert code == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == ["case", "component", "delta", "k", "omega_star"]
        assert all(r[1] == "priced" for r in rows[1:])

    def test_dumps_aoi_cutoffs_for_mixture(self, tmp_path):
        out = tmp_path / "solve.csv"
        code = main([
            "solve", "--case", "delayed_sensing", "--emax", "0.3", "--out", str(out),
            *FAST,
        ])
        assert code == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == ["case", "component", "k", "g", "delta_star"]
        assert {r[1] for r in rows[1:]} == {"minus", "plus"}

    def test_both_cases_rejected(self, tmp_path):
        code = main(["solve", "--case", "both", "--out", str(tmp_path / "x.csv"), *FAST])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flags", [["--frame-K", "2,3"], ["--emax", "0.1,0.3"]])
    def test_list_values_rejected(self, tmp_path, flags):
        out = tmp_path / "x.csv"
        code = main(["solve", "--case", "no_sensing", *flags, "--out", str(out), *FAST])
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
    def test_bad_price_rejected(self, tmp_path, lam):
        out = tmp_path / "x.csv"
        code = main([
            "solve", "--case", "delayed_sensing", f"--lam={lam}", "--out", str(out),
            "--bound-N", "12",
        ])
        assert code == EXIT_USAGE
        assert not out.exists()


class TestConfigAndValidation:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment configuration\n"
            "case = no_sensing\n"
            "p11 = 0.7\np01 = 0.3\n"
            "emax = 0.9\n"
            "bound-N = 25\nhorizon = 6000\nwarmup = 500\nseed = 7\n"
            "eps = 1e-6\neps-lambda = 1e-3\n"
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["tradeoff", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        # an explicit flag overrides the file value
        assert main([
            "tradeoff", "--config", str(cfg), "--seed", "8", "--out", str(out2),
        ]) == EXIT_OK
        rows1, rows2 = read_csv(out1), read_csv(out2)
        assert rows1[1][TRADEOFF_COLUMNS.index("seed")] == "7"
        assert rows2[1][TRADEOFF_COLUMNS.index("seed")] == "8"

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frame-q = 3\n")
        assert main(["tradeoff", "--config", str(cfg)]) == EXIT_USAGE

    def test_budget_out_of_range_rejected(self, tmp_path):
        code = main(["tradeoff", "--emax", "1.5", "--out", str(tmp_path / "x.csv"), *FAST])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["solve", "--emax", ","],
        ["greedy-compare", "--frame-K", ","],
        ["tradeoff", "--emax", ""],
    ])
    def test_empty_list_rejected(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path / "x.csv"), *FAST]) == EXIT_USAGE

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("flag", ["--eps", "--eps-lambda"])
    def test_bad_tolerance_rejected(self, tmp_path, flag, value):
        out = tmp_path / "x.csv"
        code = main([
            "solve", "--case", "no_sensing", "--emax", "0.3", "--out", str(out),
            *FAST, f"{flag}={value}",
        ])
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tradeoff", "greedy-compare"])
    def test_negative_seed_rejected_before_any_solve(self, tmp_path, capsys, no_solve, command):
        out = tmp_path / "x.csv"
        code = main([command, "--emax", "0.4", "--out", str(out), *FAST, "--seed", "-1"])
        assert code == EXIT_USAGE
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target, message", [
        ("missing/x.csv", "does not exist"),
        ("", "is a directory"),
    ], ids=["missing-directory", "directory"])
    @pytest.mark.parametrize("argv", [
        ["tradeoff", "--emax", "0.4"],
        ["greedy-compare", "--emax", "0.4"],
        ["solve", "--case", "no_sensing", "--emax", "0.4"],
        ["properties"],
    ], ids=["tradeoff", "greedy-compare", "solve", "properties"])
    def test_unusable_out_rejected_before_any_solve(self, tmp_path, capsys, no_solve, argv,
                                                    target, message):
        out = tmp_path / target
        code = main([*argv, "--out", str(out), *FAST])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["tradeoff", "--case", "no_sensing", "--emax", "0.3,0.3"],
        ["tradeoff", "--emax", "0.3,0.30"],
        ["framelength", "--frame-K", "3,3"],
        ["greedy-compare", "--emax", "0.2,0.4,0.2"],
    ])
    def test_repeated_sweep_value_rejected_before_any_solve(self, tmp_path, capsys, no_solve,
                                                            argv):
        out = tmp_path / "x.csv"
        code = main([*argv, "--p11", "0.7", "--p01", "0.3", "--out", str(out), *FAST])
        assert code == EXIT_USAGE
        assert "more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["emax = 0.3,0.6,0.3", "frame-K = 2,3,2"])
    def test_repeated_config_value_rejected_before_any_solve(self, tmp_path, no_solve, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\np11 = 0.7\np01 = 0.3\nbound-N = 12\n")
        assert main(["tradeoff", "--config", str(cfg)]) == EXIT_USAGE

    def test_bad_channel_rejected(self, tmp_path):
        code = main([
            "tradeoff", "--p11", "0.2", "--p01", "0.7",
            "--out", str(tmp_path / "x.csv"), *FAST,
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["tradeoff", "greedy-compare", "framelength", "solve"])
    def test_absorbing_bad_state_rejected_before_any_solve(self, tmp_path, capsys, no_solve,
                                                           command):
        out = tmp_path / "x.csv"
        code = main([command, "--p11", "0.7", "--p01", "0.0", "--emax", "0.3",
                     "--out", str(out), *FAST])
        assert code == EXIT_USAGE
        assert "absorbing" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["tradeoff", "--bound-N", "not-a-number"])
        assert err.value.code == 2


class TestExitCodes:
    def test_solver_non_convergence_maps_to_three(self, tmp_path, monkeypatch):
        import aoisched.cli as cli
        from aoisched.solver import NonConvergenceError

        def blow_up(*args, **kwargs):
            raise NonConvergenceError("stuck", span=1.0)

        monkeypatch.setattr(cli, "bisect_lambda", blow_up)
        code = main([
            "tradeoff", "--case", "no_sensing", "--p11", "0.7", "--p01", "0.3",
            "--emax", "0.4", "--out", str(tmp_path / "x.csv"), *FAST,
        ])
        assert code == 3


class TestProperties:
    def test_suite_passes_and_writes_json(self, tmp_path, capsys):
        runs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main([
                "properties", "--seed", "5", "--eps", "1e-7", "--out", str(out),
            ])
            assert code == EXIT_OK
            runs.append((out.read_bytes(), capsys.readouterr().out))
        report = json.loads(runs[0][0])
        assert report["all_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"threshold_structure", "threshold_equivalence", "lemma_mix_inequality",
                "delta_star_ordering", "truncation_convergence", "dual_gap"} <= names
        assert "[PASS]" in runs[0][1]
        # the report and its stdout lines carry no wall-clock field
        assert runs[0] == runs[1]

    def test_injected_bug_fails_equivalence(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "properties", "--seed", "5", "--eps", "1e-7",
            "--inject-tie-break-bug", "--out", str(out),
        ])
        assert code == EXIT_PROPERTY
        report = json.loads(out.read_text())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert "threshold_equivalence" in failed

    def test_planted_aoi_drop_fails_its_lemma(self, tmp_path, monkeypatch, capsys):
        # the first delayed-sensing value function drops by 1 from AoI K to
        # 2K at slot 1; that instance's lemma check alone must fail
        import aoisched.cli as cli

        solve, planted = cli.discounted_vi, []

        def planting(space, kern, lam, beta):
            values, policy = solve(space, kern, lam, beta)
            if space.case is Case.DELAYED_SENSING and not planted:
                K = space.frame.K
                a, b = (int(space.locate(1, delta, 1)) for delta in (K, 2 * K))
                values[b] = values[a] - 1.0
                planted.append((a, b))
            return values, policy

        monkeypatch.setattr(cli, "discounted_vi", planting)
        out = tmp_path / "report.json"
        code = main(["properties", "--seed", "1", "--out", str(out)])
        assert code == EXIT_PROPERTY
        instance = "K=2 p11=0.6 p01=0.0 lam=0.0 N=8"
        report = json.loads(out.read_text())
        failed = [(c["name"], c["instance"]) for c in report["checks"] if not c["passed"]]
        assert failed == [("lemma_delayed_monotone_aoi", instance)]
        line = (
            f"[FAIL] lemma_delayed_monotone_aoi ({instance}) :: "
            "1 violations, first: ((1, 2, 1), (1, 4, 1), "
        )
        assert line in capsys.readouterr().out

    def test_dual_above_the_primal_fails_the_dual_gap(self, tmp_path, monkeypatch):
        # 5e-3 above the committed primal 4.138637: inside the gap tolerance,
        # but weak duality puts the dual at or below the primal
        import aoisched.cli as cli

        monkeypatch.setattr(cli, "dual_value_sweep", lambda *args, **kwargs: [(4.35, 4.1436)])
        out = tmp_path / "report.json"
        code = main(["properties", "--seed", "1", "--out", str(out)])
        assert code == EXIT_PROPERTY
        report = json.loads(out.read_text())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == ["dual_gap"]


NS, DS = Case.NO_SENSING, Case.DELAYED_SENSING


def dual_args(case, K, p11, p01, N, e_max):
    return case, FrameSpec(K), ChannelModel(p11, p01), TruncationBound(N), e_max


@pytest.fixture
def dual_grids(monkeypatch):
    """Record every price grid the CLI hands ``dual_value_sweep``."""
    import aoisched.cli as cli

    grids = []
    sweep = cli.dual_value_sweep

    def recording(case, frame, ch, bound, e_max, lam_grid, **kwargs):
        grids.append([float(lam) for lam in lam_grid])
        return sweep(case, frame, ch, bound, e_max, lam_grid, **kwargs)

    monkeypatch.setattr(cli, "dual_value_sweep", recording)
    return grids


class TestDualBracket:
    @pytest.mark.parametrize(
        "instance",
        [
            pytest.param((NS, 2, 0.7, 0.3, 12, 0.4), id="suite"),
            pytest.param((NS, 3, 0.7, 0.3, 12, 0.3), id="ns-K3"),
            pytest.param((NS, 2, 0.9, 0.5, 10, 0.2), id="ns-0.9-0.5"),
            pytest.param((DS, 2, 0.8, 0.2, 10, 0.5), id="ds-K2"),
            pytest.param((DS, 3, 0.9, 0.3, 12, 0.25), id="ds-K3"),
            pytest.param((NS, 2, 0.7, 0.3, 12, 0.15), id="price-past-grid"),
            pytest.param((NS, 2, 0.7, 0.3, 12, 1.0), id="price-zero"),
        ],
    )
    def test_dual_is_the_full_grid_maximum(self, dual_grids, instance):
        args = dual_args(*instance)
        _mix, dual = _primal_and_dual(*args)
        price, full = dual_grid_maximum(*args)
        assert dual == full
        # one sweep of at most three prices, taken from the grid
        [grid] = dual_grids
        assert 1 <= len(grid) <= 3
        assert set(grid) <= set(np.arange(0.0, 12.0001, 0.01).tolist())
        assert price in grid

    def test_suite_instance_solves_the_two_prices_beside_the_bracket(self, dual_grids):
        mix, dual = _primal_and_dual(*dual_args(NS, 2, 0.7, 0.3, 12, 0.4))
        assert 4.34 < mix.lam_minus <= mix.lam_plus < 4.35
        assert [[round(lam, 9) for lam in grid] for grid in dual_grids] == [[4.34, 4.35]]
        assert dual == 4.138599229244382

    def test_critical_price_past_the_grid_solves_its_last_price(self, dual_grids):
        mix, dual = _primal_and_dual(*dual_args(NS, 2, 0.7, 0.3, 12, 0.15))
        assert 23.67 < mix.lam_minus <= mix.lam_plus < 23.68
        assert dual_grids == [[12.0]]
        assert dual == 6.512841671216674

    def test_price_zero_mixture_solves_the_first_two_prices(self, dual_grids):
        mix, _dual = _primal_and_dual(*dual_args(NS, 2, 0.7, 0.3, 12, 1.0))
        assert mix.lam_minus == mix.lam_plus == 0.0
        assert dual_grids == [[0.0, 0.01]]

