"""The program names that perfbench calls, wraps or rebinds still resolve.

perfbench/tracer.py wraps every (module, attribute) in SPANNED and patches
ChartFrame.pushforward on the class, and perfbench/workloads.py reads the
fields of a solve_corrections result; a rename there would only show up when
the benchmark runs, so the names are checked here.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import SPANNED  # noqa: E402


@pytest.mark.parametrize("module, attr", SPANNED, ids=[f"{m}.{a}" for m, a in SPANNED])
def test_spanned_names_resolve(module, attr):
    assert callable(getattr(importlib.import_module(f"jetcocycles.{module}"), attr))


def test_pushforward_entry_points_resolve():
    from jetcocycles import charts

    assert callable(charts.ChartFrame.pushforward)
    assert callable(charts.pushforward)
    assert callable(charts.ChartFrame.binding)


def test_correction_result_exposes_what_the_solver_workload_reads():
    import jetcocycles as J

    result = J.solve_corrections(J.det_cochain(1, 2).coeff, weight=1)
    assert result.feasible is True and result.dimension == 1
    assert len(result.ansatz) == 4
    rep = result.representative
    assert J.to_text(rep.coeff) and J.is_global(rep).ok
    assert J.ce_differential(rep).is_zero()
