"""Benchmark of the jetcocycles checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Each workload process is a fresh, single-threaded Python
interpreter that handles its items one after another (a closed loop with one
caller).  The parent starts such processes one at a time until the next one
would end after ``--seconds``, checks every verdict against the reference
files and the fixed expectations, and prints a summary on stderr and, as the
last line of stdout, one JSON object.

End-to-end metrics (``--trace 0``), medians over the run's processes:
  wall_s        launch of a workload process to its last verdict, with the
                items' time scaled to a fixed core speed (speedclock.py)
  setup_s       launch to the end of ``import jetcocycles``, scaled to the
                same core speed, from 3 probe processes before each workload
                process, and that process
  peak_rss_mib  peak resident memory of a workload process
``failed_share`` (failed / attempted) is printed in the summary; it is 0 at
a correct commit, so it is reported through ``failed``, not as a metric.

``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics of the traced ones (see tracer.py), plus the tracing
overhead: median traced minus median untraced raw wall time.

Timed processes run with PYTHONHASHSEED=0.  A solver run also reruns
its JSON-writing commands under hash seeds 1 and 2, untimed, and requires
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from speedclock import REFERENCE_S  # noqa: E402
from workloads import (  # noqa: E402
    CLASSICAL_EXPECTED,
    WORKLOADS,
    make_items,
    reference_path,
)

TIMED_HASH_SEED = "0"
CHECK_HASH_SEEDS = ("1", "2")
PROBES_PER_ROUND = 3
RUN_LIMIT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class Proc:
    """Outcome of one child process."""

    def __init__(self, launched: float, status: int, maxrss_kib: int,
                 result: Optional[dict], error: str):
        self.launched = launched
        self.status = status
        self.maxrss_kib = maxrss_kib
        self.result = result
        self.error = error

    @property
    def ok(self) -> bool:
        return self.status == 0 and self.result is not None

    @property
    def wall_s(self) -> float:
        """Launch to last verdict; the items' part at the reference core speed."""
        clock = self.result.get("clock")
        if clock is None:
            return self.raw_wall_s
        return self.setup_s + clock["scaled_s"]

    @property
    def raw_wall_s(self) -> float:
        """Launch to last verdict as the wall clock read it, less the speed samples."""
        clock = self.result.get("clock")
        if clock is None:
            return self.result["t_done"] - self.launched
        return self.raw_setup_s + clock["raw_s"]

    @property
    def setup_s(self) -> float:
        """Launch to the end of the import, at the reference core speed."""
        return self.raw_setup_s * REFERENCE_S / self.result["setup_kernel_s"]

    @property
    def raw_setup_s(self) -> float:
        return self.result["t_import"] - self.launched


def _env(hash_seed: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env.pop("PYTHONPATH", None)
    return env


def _spawn(argv: List[str], hash_seed: str, stdout_path: str, stderr_path: str,
           timeout_s: float) -> Proc:
    """Run one child to completion; reap it with wait4 for its own peak RSS.

    The parent blocks in wait4 (a timer kills a child that overruns), so it
    takes no CPU while the child is measured.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        launched = time.monotonic()
        child = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err,
                                 env=_env(hash_seed), cwd=ROOT)
    timer = threading.Timer(timeout_s, child.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(child.pid, 0)
    except BaseException:
        child.kill()
        child.wait()
        raise
    finally:
        timer.cancel()
    child.returncode = code = os.waitstatus_to_exitcode(status)
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        error = fh.read()
    if code == -signal.SIGKILL:
        error += f"\nkilled after {timeout_s:.0f} s"
    return Proc(launched, code, usage.ru_maxrss, None, error)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.items = make_items(workload, seed)
        with open(reference_path(ROOT, workload), encoding="utf-8") as fh:
            self.reference = json.load(fh)
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
        self.count = 0
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.raw_walls: List[float] = []
        self.raw_setups: List[float] = []
        self.speed_samples = 0

    # -- processes -----------------------------------------------------

    def _timeout(self) -> float:
        """Time a child may take, so that the whole run ends within RUN_LIMIT_S."""
        return max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))

    def _paths(self, tag: str):
        base = os.path.join(self.tmp, f"{self.count:03d}-{tag}")
        self.count += 1
        return base

    def probe(self) -> Proc:
        base = self._paths("probe")
        proc = _spawn([WORKER, "--probe"], TIMED_HASH_SEED, base + ".out", base + ".err",
                      self._timeout())
        if proc.status == 0:
            with open(base + ".out", encoding="utf-8") as fh:
                t_import, kernel_s = fh.read().split()
                proc.result = {"t_import": float(t_import), "setup_kernel_s": float(kernel_s)}
        return proc

    def worker(self, items: List[dict], trace: bool = False,
               hash_seed: str = TIMED_HASH_SEED, checks: bool = True) -> Proc:
        base = self._paths("trace" if trace else "run")
        outdir = base + ".files"
        os.makedirs(outdir)
        spec = {"workload": self.workload, "items": items, "outdir": outdir, "trace": trace,
                "checks": checks,
                "run_id": f"{self.workload}/seed{self.seed}/{os.path.basename(base)}",
                "spans_path": os.path.join(OUT_DIR, f"{self.workload}.spans.tsv")}
        with open(base + ".spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        proc = _spawn([WORKER, base + ".spec.json", base + ".result.json"], hash_seed,
                      base + ".out", base + ".err", self._timeout())
        if proc.status == 0:
            with open(base + ".result.json", encoding="utf-8") as fh:
                proc.result = json.load(fh)
        self._check(proc, items, outdir, label=f"{os.path.basename(base)}")
        return proc

    # -- checks --------------------------------------------------------

    def _fail(self, label: str, what: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(f"{label}: {what}")

    def _check(self, proc: Proc, items: List[dict], outdir: str, label: str) -> None:
        if not proc.ok:
            self.attempted += len(items)
            self._fail(label, f"worker exited with {proc.status}: {proc.error[-2000:]}",
                       len(items))
            return
        verdicts = proc.result["verdicts"]
        expected = self.reference["items"]
        for item in items:
            self.attempted += 1
            key = item["id"]
            got = verdicts.get(key)
            if got is None:
                self._fail(label, f"{key} raised: {proc.result['errors'].get(key, '?')[-1500:]}")
                continue
            why = self._item_problem(item, got, expected.get(key), outdir)
            if why:
                self._fail(label, f"{key}: {why}")
        for name, ok in proc.result["checks"].items():
            self.attempted += 1
            if not ok:
                self._fail(label, f"check failed: {name}")
        if "post_checks" in proc.result["errors"]:
            self.attempted += 1
            self._fail(label, proc.result["errors"]["post_checks"][-1500:])

    def _item_problem(self, item: dict, got: dict, ref: Optional[dict],
                      outdir: str) -> str:
        op = item["op"]
        if op == "axiom":
            if not got["axiom"]:
                return "module axiom L_x L_y - L_y L_x = L_[x,y] fails"
            if got["lx"] != _laurent_action_reference(item):
                return f"L_x a = {got['lx']}, expected {_laurent_action_reference(item)}"
            return ""
        if ref is None:
            return "no reference verdict for this input"
        if got != ref:
            return f"verdict {json.dumps(got)[:300]} differs from reference {json.dumps(ref)[:300]}"
        if item.get("json_out"):
            with open(os.path.join(outdir, item["json_out"]), encoding="utf-8") as fh:
                if fh.read() != self.reference["files"][item["json_out"]]:
                    return "JSON report is not byte-identical to the reference"
        if op == "solve" and got["feasible"] and not (got["global"] and got["closed"]):
            return "feasible representative fails the transform law or the cocycle identity"
        if op in ("global", "covariant") and got["status"] != "PASS":
            return f"status {got['status']}"
        if op == "lambda" and len(item["terms"]) == 1:
            _c, p, q = item["terms"][0]
            want = CLASSICAL_EXPECTED.get((p, q))
            if want and (got["kind"], tuple(got["values"])) != want:
                return f"classical table row det({p},{q}) expects {want}"
        return ""

    # -- the run -------------------------------------------------------

    def execute(self) -> Dict[str, dict]:
        self.probe()  # untimed: compiles bytecode and warms the file cache
        deadline = self.started + self.seconds
        probes: List[Proc] = []
        plain: List[Proc] = []
        traced: List[Proc] = []
        while True:
            round_start = time.monotonic()
            # probes are spread over the run, so set-up is sampled at the
            # same moments as the workload
            probes += [self.probe() for _ in range(PROBES_PER_ROUND)]
            plain.append(self.worker(self.items))
            if self.trace:
                traced.append(self.worker(self.items, trace=True))
            last = time.monotonic() - round_start
            if not plain[-1].ok or time.monotonic() + last > deadline:
                break
        for proc in probes:
            self.attempted += 1
            if proc.status != 0:
                self._fail("probe", f"exited with {proc.status}: {proc.error[-2000:]}")
        if self.workload == "solver":
            for seed in CHECK_HASH_SEEDS:
                reports = [it for it in self.items if it.get("json_out")]
                self.worker(reports, hash_seed=seed, checks=False)

        good = [p for p in plain if p.ok]
        self.raw_walls = [p.raw_wall_s for p in good]
        self.raw_setups = [p.raw_setup_s for p in probes if p.result] + [
            p.raw_setup_s for p in good]
        self.speed_samples = sum(p.result["clock"]["samples"] for p in good)
        setups = [p.setup_s for p in probes if p.result] + [p.setup_s for p in good]
        samples = {
            "wall_s": [p.wall_s for p in good],
            "setup_s": setups,
            "peak_rss_mib": [p.maxrss_kib / 1024 for p in good],
        }
        if not self.trace:
            return {name: _summary(vals, END_TO_END_UNITS[name]) for name, vals in samples.items()}
        return self._layer_metrics([p for p in traced if p.ok], self.raw_walls)

    def _layer_metrics(self, traced: List[Proc], plain_walls: List[float]) -> Dict[str, dict]:
        if not traced:
            self._fail("trace", "no traced process finished")
            return {}
        layers = [p.result["layers"] for p in traced]
        out = {}
        if len(layers) > 1:
            self.attempted += 1
        for name in layers[0]:
            values = [m[name] for m in layers]
            unit = _layer_unit(name)
            if is_count(name) and len(set(values)) > 1:
                self._fail("trace", f"count {name} differs between traced processes: {values}")
            out[name] = _summary(values, unit)
        walls = [p.raw_wall_s for p in traced]
        if plain_walls:
            overhead = [statistics.median(walls) - statistics.median(plain_walls)]
            out["trace.overhead_s"] = _summary(overhead, "s")
        return out

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def is_count(name: str) -> bool:
    """Per-layer metrics that must repeat exactly: counts and ratios of counts."""
    return _layer_unit(name) != "s" and not name.endswith("_share")


def _layer_unit(name: str) -> str:
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def _summary(values: List[float], unit: str) -> dict:
    if not values:
        return {"value": None, "unit": unit, "n": 0, "min": None, "max": None}
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "min": min(values), "max": max(values)}


def _laurent_action_reference(item: dict) -> List[List[str]]:
    """L_x a from L_m z^s (dz)^lam = (s + lam (m+1)) z^(m+s) (dz)^lam."""
    lam = Fraction(item["lam"])
    out: Dict[int, Fraction] = {}
    for m, c in item["x"]:
        for s, a in item["density"]:
            out[m + s] = out.get(m + s, Fraction(0)) + c * Fraction(a) * (s + lam * (m + 1))
    return [[s, str(v)] for s, v in sorted(out.items()) if v]


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    run = Run(workload, seed, seconds, trace)
    try:
        metrics = run.execute()
    finally:
        run.close()
    return run, metrics


def _print_summary(workload: str, run: "Run", metrics: Dict[str, dict]) -> None:
    share = run.failed / run.attempted if run.attempted else 1.0
    print(f"== {workload}  seed {run.seed}  attempted {run.attempted}  failed "
          f"{run.failed}  failed_share {share:.4f} (ratio, n={run.attempted})",
          file=sys.stderr)
    for name, m in metrics.items():
        value = f"{m['value']:.6g}" if m["n"] else "-"
        print(f"   {name:<52} {value:<14} {m['unit']:<6} n={m['n']}"
              + (f"  min={m['min']:.6g} max={m['max']:.6g}" if m["n"] > 1 else ""),
              file=sys.stderr)
    if run.raw_walls:
        print(f"   unscaled: wall_s {statistics.median(run.raw_walls):.6g} s "
              f"(n={len(run.raw_walls)}), setup_s {statistics.median(run.raw_setups):.6g} s "
              f"(n={len(run.raw_setups)}); {run.speed_samples} core-speed samples",
              file=sys.stderr)
    for line in run.failures[:20]:
        print(f"   FAILED {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its current child (see _spawn)
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(ROOT, "src", "jetcocycles", "__init__.py")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'jetcocycles')} is missing",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    total_attempted = total_failed = 0
    combined: Dict[str, dict] = {}
    for workload in workloads:
        run, metrics = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        _print_summary(workload, run, metrics)
        total_attempted += run.attempted
        total_failed += run.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, m in metrics.items():
            combined[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
