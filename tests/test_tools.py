"""Scripts under tools/, run on inputs small enough for the suite."""

import importlib.util
from pathlib import Path

import costate.solver
from costate import random_smooth_problem

REPO = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_block_sweep_times_one_tiny_cell():
    sweep = _load("block_sweep")
    assert list(sweep.cases()) == ["unicycle N_p=10", "unicycle N_p=15",
                                   "unicycle N_p=50", "unicycle N_p=200",
                                   "random(2,4,2,800)"]
    b_max = costate.solver.B_MAX
    table = sweep.sweep({"tiny": random_smooth_problem(2, 3, 2, 9)},
                        b_maxes=(1, 4), rounds=2)
    assert costate.solver.B_MAX == b_max
    assert list(table) == ["tiny"] and list(table["tiny"]) == [1, 4]
    assert all(median > 0 and iqr >= 0
               for median, iqr in table["tiny"].values())
    lines = sweep.render(table, (1, 4)).splitlines()
    assert lines[0] == "| case | B_MAX=1 | B_MAX=4 |"
    assert lines[2].startswith("| tiny | ")
