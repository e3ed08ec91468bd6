"""The boundary between the runtime package and the test oracles."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import aoisched
from aoisched.channel import BeliefTable, ChannelModel
from aoisched.mdp import TruncationBound
from aoisched.solver import ThresholdPolicyBelief, stationary_distribution

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
