"""Regenerate the reference verdicts in perfbench/reference/.

    python3 perfbench/make_reference.py [--verify-all REPORT.json]

Runs every fixed input and every member of every seeded pool once, in this
process, through the same calls the workers make, and writes one file per
workload.  The files pin the program's verdicts at the commit they were made
from: a later change that alters a verdict or a byte of a report fails the
benchmark's check.  Regenerate them only for a change that is meant to alter
verdicts, and say so.

With ``--verify-all`` (the JSON of ``jetcocycles verify --suite all``), the
verify-cli phase's verdicts are cross-checked against that full report: the
per-suite JSON reports must be its sub-arrays, and the global and covariant
rows run here must have the status it records.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    COEFF_POOL,
    GLOBALIZE_SLOTS,
    LAMBDA_POOL,
    LAMBDA_SLOTS,
    WORKLOADS,
    combo_items,
    make_items,
    post_checks,
    reference_path,
    run_item,
)


def _pool(workload: str):
    """The fixed items of the workload and every member of its seeded pools."""
    items = [it for it in make_items(workload, 0)
             if it["op"] != "axiom" and len(it.get("terms", ())) <= 1]
    if workload == "solver":
        items += combo_items("solve", GLOBALIZE_SLOTS, COEFF_POOL)
    else:
        items += combo_items("lambda", LAMBDA_SLOTS, LAMBDA_POOL)
    return items


def build(workload: str, verify_all) -> dict:
    items = _pool(workload)
    out_root = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as outdir:
        verdicts = {it["id"]: run_item(it, outdir) for it in items}
        files = {}
        for it in items:
            if it.get("json_out"):
                with open(os.path.join(outdir, it["json_out"]), encoding="utf-8") as fh:
                    files[it["json_out"]] = fh.read()
    failed = [name for name, ok in post_checks(verdicts).items() if not ok]
    if failed:
        raise SystemExit(f"{workload}: fixed expectations fail: {failed}")
    if workload == "solver" and verify_all is not None:
        _cross_check(verdicts, files, verify_all)
    out = {"items": verdicts}
    if files:
        out["files"] = files
    return out


def _cross_check(verdicts: dict, files: dict, verify_all: list) -> None:
    by_id = {rec["check_id"]: rec for rec in verify_all}
    for name, text in files.items():
        records = json.loads(text)
        if [by_id.get(r["check_id"]) for r in records] != records:
            raise SystemExit(f"{name} is not a sub-array of the full report")
    for key, verdict in verdicts.items():
        kind, _, name = key.partition(":")
        if kind in ("global", "covariant"):
            if by_id[f"{kind}.{name}"]["status"] != verdict["status"]:
                raise SystemExit(f"{key}: status differs from the full report")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--verify-all", metavar="REPORT.json", default=None)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    verify_all = None
    if args.verify_all:
        with open(args.verify_all, encoding="utf-8") as fh:
            verify_all = json.load(fh)
    for workload in args.workloads:
        ref = build(workload, verify_all)
        path = reference_path(ROOT, workload)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(ref['items'])} verdicts -> {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
