"""Scripts under tools/, run on inputs small enough for the suite."""

import importlib.util
from pathlib import Path

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
                                   "unicycle N_p=20", "unicycle N_p=30",
                                   "unicycle N_p=50", "unicycle N_p=200",
                                   "random(2,4,2,800)"]
    table = sweep.sweep({"tiny": random_smooth_problem(2, 3, 2, 9)},
                        caps=(1, 4, 8), rounds=2)
    assert list(table) == ["tiny"]
    assert list(table["tiny"]) == ["default", 1, 4, 8]
    assert all(median > 0 and iqr >= 0
               for median, iqr, _ in table["tiny"].values())
    # Each column's workspace was built with its block count: the caps'
    # ceil(10 / B) blocks of ten stages, and the default rule's one block.
    assert {col: cell[2] for col, cell in table["tiny"].items()} == {
        "default": (1, 10), 1: (10, 1), 4: (3, 4), 8: (2, 5)}
    lines = sweep.render(table, (1, 4, 8)).splitlines()
    assert lines[0] == "| case | default | cap 1 | cap 4 | cap 8 |"
    assert lines[2].startswith("| tiny | ")
    assert lines[2].endswith(" nb=2 |")
