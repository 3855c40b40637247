"""The program names that perfbench calls, wraps or rebinds still resolve.

perfbench/tracer.py wraps every (module, attribute) in SPANNED and patches
ChartFrame.pushforward on the class, and perfbench/workloads.py reads the
fields of a solve_corrections result; a rename there would only show up when
the benchmark runs, so the names are checked here.  So are the kernel
workload's module-axiom items and one of its lambda items, and the solver
workload's pinned c1, c2 and c5 representatives, through the workload's own
run_item and the harness's own checks.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run as bench_run  # noqa: E402
from tracer import SPANNED  # noqa: E402
from workloads import make_items, post_checks, run_item  # noqa: E402


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


# -- the benchmark's own Laurent and lambda checks, on the program as it is --

_KERNEL_SEEDS = (1, 2, 3)


def _kernel_items(op):
    return [item for seed in _KERNEL_SEEDS for item in make_items("kernel", seed)
            if item["op"] == op]


def test_kernel_axiom_items_pass_the_benchmark_check(tmp_path):
    """Each seeded module-axiom item goes through LaurentDensity.of,
    WittField.of, .bracket and two-argument laurent_action exactly as the
    kernel workload calls them, and must satisfy the axiom and match the
    harness's closed-form L_m z^s (dz)^lam = (s + lam (m+1)) z^(m+s) (dz)^lam."""
    items = _kernel_items("axiom")
    assert len(items) == 48 * len(_KERNEL_SEEDS)
    for item in items:
        got = run_item(item, str(tmp_path))
        assert got["axiom"] is True, item["id"]
        assert got["lx"] == bench_run._laurent_action_reference(item), item["id"]


def test_a_kernel_lambda_combo_matches_the_reference(tmp_path):
    """One seeded two-determinant lambda item, built with Cochain2(...,
    LamPoly.lam()) as the workload does, against perfbench/reference/kernel.json."""
    item = next(it for it in _kernel_items("lambda") if len(it["terms"]) == 2)
    reference = json.loads(Path(bench_run.reference_path(
        str(Path(__file__).resolve().parents[1]), "kernel")).read_text(encoding="utf-8"))
    assert run_item(item, str(tmp_path)) == reference["items"][item["id"]]


# -- the solver workload's pinned representatives ---------------------------

_PINNED_SOLVER_ITEMS = ("solve:det(1,2)@1", "solve:det(1,3)@2", "cli:globalize det(3,4) 5")


def test_pinned_solver_items_match_the_reference(tmp_path):
    """The c1, c2 and c5 representatives as perfbench/reference/solver.json
    pins them.  The catalogue's connection forms come from the solver, so
    post_checks compares the solver with itself; the pinned reps are the
    comparison that can fail."""
    items = {item["id"]: item for item in make_items("solver", 1)}
    reference = json.loads(Path(bench_run.reference_path(
        str(Path(__file__).resolve().parents[1]), "solver")).read_text(encoding="utf-8"))
    verdicts = {}
    for item_id in _PINNED_SOLVER_ITEMS:
        verdicts[item_id] = run_item(items[item_id], str(tmp_path))
        assert verdicts[item_id] == reference["items"][item_id], item_id
    checks = post_checks(verdicts)
    assert len(checks) == 3 and all(checks.values()), checks
