"""Mutation matrix: which report rows a deliberate fault fails.

Each mutation patches module-level functions for one run of every
experiment at ``verify-paper --fast`` sizes and seed, in process, and
collects the rows that fail, as ``experiment/label``.  The sets pinned here
are floors: a later change may fail more rows under a mutation, but must
not fail fewer without saying why.  A hit one step late is still a stopping
time, so that control must fail nothing.

Every supremum the lab takes goes through ``running_abs_max`` or, stopped at
a hit, ``_max_to_hit``, so patching those two reaches them all.
"""

import numpy as np
import pytest

from orliczlab import integrate, lab
from orliczlab.cli import paper_configs
from orliczlab.config import DEFAULT_SEED

pytestmark = pytest.mark.slow


def _scaled(f, c=1.05):
    return lambda *args, **kwargs: f(*args, **kwargs) * c


def _hit_shifted(step):
    """``hitting_index`` with every hit moved ``step`` grid steps, within the grid."""
    hitting_index = lab.hitting_index

    def shifted(values, level, mode="weak"):
        idx, hit = hitting_index(values, level, mode)
        return np.where(hit, np.clip(idx + step, 0, np.shape(values)[-1] - 1), idx), hit

    return shifted


def _larger_driver(simulate_batch):
    """``simulate_batch`` of normals 5% larger: every increment and path × 1.05."""

    def larger(normals, grid):
        normals *= 1.05  # a tile's own rows, which simulate_batch scales in place as well
        return simulate_batch(normals, grid)

    return larger


def _isometry(direction, rules, stops, tags):
    return {f"isometry/isometry-{direction}:{rule}:{stop}:atom{a}@{tag}"
            for rule in rules for stop in stops for a in (0, 1) for tag in tags}


_ALL_RULES = ("constant_e1", "sign_of_B1", "B1_times_e1", "two_coord_mix")
_ALL_STOPS = ("horizon", "first_exit", "clock_threshold")

# (name, [(module, attribute, replacement)], rows that fail)
MUTATIONS = [
    # the doob pair's audit fails, so doob_orlicz withholds its 12 conclusion
    # rows: 601 rows are emitted
    ("supremum", [(lab, "running_abs_max", _scaled(lab.running_abs_max)),
                  (lab, "_max_to_hit", _scaled(lab._max_to_hit))],
     {"doob_orlicz/hypothesis:doob:lam6@4n", "doob_orlicz/hypothesis:doob:lam7@4n",
      "doob_orlicz/hypothesis:doob:lam7@n"}),
    ("eta", [(integrate, "eta_paths", _scaled(integrate.eta_paths))],
     _isometry("rev", ["constant_e1"], ["first_exit"], ["4n", "n"])
     | _isometry("rev", ["B1_times_e1"], ["first_exit"], ["n"])),
    ("hit-early", [(lab, "hitting_index", _hit_shifted(-1))],
     _isometry("rev", ["constant_e1", "B1_times_e1"], ["first_exit"], ["4n", "n"])
     | _isometry("rev", ["two_coord_mix"], ["first_exit"], ["n"])),
    ("hit-late", [(lab, "hitting_index", _hit_shifted(1))], set()),
    ("integral", [(integrate, "ito_integral", _scaled(integrate.ito_integral))],
     _isometry("fwd", _ALL_RULES, _ALL_STOPS, ["4n", "n"])),
    # both sides of every modular row scale alike; what fails are the norm
    # agreements (the Luxemburg norm is not patched) and one bitwise scaling row
    ("modular", [(lab, "modular_of_norms", _scaled(lab.modular_of_norms))],
     {"lenglart/scaling-exact:orlicz", "orlicz_bdg/norm-agreement:power_2",
      "orlicz_bdg/norm-agreement:power_1_5"}),
    ("driver", [(lab, "simulate_batch", _larger_driver(lab.simulate_batch))],
     _isometry("fwd", _ALL_RULES, _ALL_STOPS, ["4n", "n"])),
]


def _failing_rows():
    return {f"{cfg.experiment}/{r.label}" for cfg in paper_configs(DEFAULT_SEED, fast=True)
            for r in lab.run_experiment(cfg).reports if not r.passed}


@pytest.mark.parametrize("patches, floor", [pytest.param(p, f, id=n) for n, p, f in MUTATIONS])
def test_mutation_fails_its_rows(monkeypatch, patches, floor):
    for module, attribute, replacement in patches:
        monkeypatch.setattr(module, attribute, replacement)
    failed = _failing_rows()
    assert floor <= failed, sorted(floor - failed)
    if not floor:  # the control
        assert not failed, sorted(failed)
