"""The boundary between the runtime package and the test oracles."""

import argparse
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aoisched
from aoisched import sim, solver
from aoisched.channel import BeliefTable, ChannelModel
from aoisched.mdp import CompiledKernel, DelayedSpace, FrameSpec, NoSensingSpace, TruncationBound
from aoisched.solver import SolveReport, ThresholdPolicyBelief, discounted_vi, stationary_distribution

TESTS = Path(__file__).resolve().parent
MODULES = ("channel", "mdp", "sim", "solver", "cli")

# reference implementations that live in tests/oracles.py, and wrappers only
# the tests used
MOVED = {
    "CapExceededError", "_reachable_from", "_exact_average_cost", "_OracleEnumeration",
    "enumerate_and_evaluate", "enumerate_threshold_optimum", "kernel_no_sensing",
    "kernel_delayed", "_check_action", "m_step_update", "GreedyPolicy",
}
# oracles the benchmark's tracer still patches in mdp; not exported
UNEXPORTED = {
    "StateNoSensing", "StateDelayed", "enumerate_states_no_sensing", "enumerate_states_delayed",
}


def test_oracles_are_neither_defined_nor_exported():
    for name in MODULES:
        module = importlib.import_module(f"aoisched.{name}")
        assert not set(module.__all__) & (MOVED | UNEXPORTED), name
        assert not [moved for moved in MOVED if hasattr(module, moved)], name
    assert not set(vars(aoisched)) & (MOVED | UNEXPORTED)
    assert not hasattr(TruncationBound, "clamp")
    assert list(inspect.signature(stationary_distribution).parameters) == ["kern", "actions"]
    assert "belief_tol" not in inspect.signature(ThresholdPolicyBelief).parameters


def test_belief_symbols_are_ranks_into_the_table_arrays():
    # a belief symbol is its integer rank in BeliefTable's arrays; the symbol
    # objects, their origin enum and the per-symbol lookups are gone
    gone = {"Belief", "BeliefOrigin", "_suspend_successor", "symbols_up_to", "canonical"}
    for name in MODULES:
        module = importlib.import_module(f"aoisched.{name}")
        assert not set(module.__all__) & gone, name
        assert not [symbol for symbol in gone if hasattr(module, symbol)], name
    assert not set(vars(aoisched)) & gone
    table = BeliefTable(ChannelModel(0.7, 0.3), 4)
    for lookup in ("canonical", "after_observation", "symbols_up_to", "raw_value", "symbols"):
        assert not hasattr(table, lookup)


def test_simulator_returns_only_the_averages_its_callers_read():
    # the per-slot trace, AoI histogram, delivered count, run metadata and
    # stream helpers are gone; tests rebuild slot rows from the walked path
    assert [f.name for f in dataclasses.fields(sim.SimResult)] == ["avg_aoi", "avg_energy", "aoi_se"]
    for run in (sim.simulate, sim.simulate_greedy):
        assert "record_trace" not in inspect.signature(run).parameters
    assert list(inspect.signature(sim.simulate_greedy).parameters) == ["case", "frame", "ch", "e_max", "cfg"]
    for name in ("_metadata", "_histogram", "make_stream", "GENERATOR_NAME", "CHANNEL_STREAM"):
        assert not hasattr(sim, name), name
    assert "n_iters" not in inspect.signature(discounted_vi).parameters
    assert not hasattr(FrameSpec, "next_slot")
    assert not hasattr(NoSensingSpace, "__len__") and not hasattr(DelayedSpace, "__len__")


def test_solver_keeps_one_bellman_expectation_and_one_state_grouping():
    # the textbook expectation lives in tests/oracles.py; the lemma checks
    # read the solver's own runs, and a solve keeps only its last span
    assert not hasattr(CompiledKernel, "expected_bias")
    for name in ("_runs", "_neighbour_violations"):
        assert not hasattr(solver, name), name
    assert "span_history" not in [f.name for f in dataclasses.fields(SolveReport)]


def test_the_space_alone_derives_its_runs_and_the_channel_its_stationary_law():
    # the solver reads the space's layer and slot runs, the kernel's delivery
    # runs are built with it, and the simulator starts from the closed form
    assert not hasattr(solver, "_slot_runs")
    assert "delivery" in [f.name for f in dataclasses.fields(CompiledKernel)]
    for name in ("stationary_belief_value", "_policy_slots", "_check_case", "_last_path"):
        assert not hasattr(sim, name), name
    assert "stationary_belief_value" not in sim.__all__


def test_exact_evaluator_keeps_no_chunked_layout():
    # the evaluator holds the entered states' mass in one array; its chunk
    # size and bin layout are gone
    assert not hasattr(solver, "_CHUNK")


def test_cli_import_loads_nothing_from_tests():
    # tests/ is on the child's path, so an import of the oracles would succeed
    # and show up among the loaded modules
    src = Path(aoisched.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TESTS)]))
    probe = (
        "import sys, aoisched.cli\n"
        "print('\\n'.join(getattr(m, '__file__', None) or '' for m in list(sys.modules.values())))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = [Path(path).resolve() for path in out.splitlines() if path]
    assert any(path.is_relative_to(src) for path in loaded)
    assert not [path for path in loaded if path.is_relative_to(TESTS)]


def test_cli_import_leaves_the_process_pool_unloaded():
    # --workers 1, the default, never starts a pool
    src = Path(aoisched.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, aoisched.cli\nprint(sorted(m for m in sys.modules if m.startswith('concurrent')))\n"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_simulating_sweeps_leave_numpy_random_unloaded(tmp_path):
    # the channel stream is computed in-package; only the property suite
    # draws from numpy.random
    src = Path(aoisched.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    desk = ["--bound-N", "12", "--horizon", "3000", "--warmup", "100"]
    commands = [
        ["greedy-compare", "--frame-K", "2,3", *desk, "--out", str(tmp_path / "greedy.csv")],
        ["tradeoff", "--case", "both", "--emax", "0.3,0.6", *desk, "--out", str(tmp_path / "tradeoff.csv")],
    ]
    probe = (
        "import sys\n"
        "from aoisched.cli import main\n"
        f"print([main(argv) for argv in {commands!r}])\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["[0,", "0]", "False"]


def _subparsers():
    from aoisched import cli

    [action] = [a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_cli_declares_each_flag_and_subcommand_once():
    from aoisched import cli

    assert not hasattr(cli, "_FLAG_DEFAULTS")
    subparsers = _subparsers()
    assert list(subparsers) == list(cli._COMMANDS)
    flags = {row[0] for row in cli._FLAGS}
    extra = {"properties": {"--inject-tie-break-bug"}, "solve": {"--lam"}}
    for name, parser in subparsers.items():
        options = {opt for a in parser._actions for opt in a.option_strings} - {"-h", "--help"}
        assert options == flags | {"--config"} | extra.get(name, set()), name


def test_config_accepts_exactly_the_flag_table_keys(tmp_path):
    from aoisched import cli

    keys = [row[1] for row in cli._FLAGS]
    others = ["config", "lam", "inject_tie_break_bug", "command", "pairs"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = 1\n" for key in keys + others))
    args = cli._build_parser().parse_args(["tradeoff", "--config", str(cfg)])
    with pytest.raises(ValueError) as err:
        cli._build_spec(args)
    assert str(err.value) == f"unknown config keys: {sorted(others)}"
