"""Round-based benchmark of polyradii, end to end and layer by layer.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it finds ``src/`` next to ``bench/``).
Each run makes its inputs from --seed, computes reference values with scipy
(bench/oracles.py), runs set-up-only workers before and after one measured
worker that repeats the workload's round for S seconds, checks every output,
and prints
one JSON line: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  Per-quantity accounting of attempted and failed calls goes
to stderr and to bench/runs/<run>/accounting.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("planar-reuleaux", "spatial-lp", "cli")
# Set-up-only workers run before and after the measured one; setup_s is the
# median over all of them.  Start-up time drifts by up to 2x over tens of
# seconds on a shared machine, so the samples are spread over the run.
SETUP_WORKERS_BEFORE = 3
SETUP_WORKERS_AFTER = 3
WORKER_TIMEOUT_S = 170
# OpenBLAS's default of one thread per core lets a second thread spin beside
# the library's single-threaded work; any other load on the machine then
# stalls it (one busy process made a planar-reuleaux round 5.8x slower).  One
# thread keeps the figures steady; README.md gives the measurements.
BLAS_THREADS = "1"
# spatial-lp pairs: (label, dimension, vertices per body).  Their shapes are
# drawn once from SPATIAL_BASE_SEED; --seed then rotates each pair (K and C
# by the same rotation).  R, D, omega and the chain are invariant under a
# common linear map and a rotation keeps every program's size, so a round
# does the same work under every seed.  New shapes per seed would vary a
# round's simplex work by about 20% from seed to seed.  Six vertices keep a
# round near 1 s, so a run takes its median over about 30 rounds, and the
# largest tableau near 1 MB.  With eight vertices (2.8 s rounds, 7 MB
# tableaux) runs of the same code spread more: 0.21 against 0.17 over five
# interleaved runs, and 0.25-0.32 against 0.07-0.12 for planar-reuleaux.
SPATIAL_PAIRS = (("3d-6v", 3, 6), ("4d-6v", 4, 6))
SPATIAL_BASE_SEED = 0
DISTORTED = ("scale-1e9", "scale-1e-9", "scale-1e6", "offset-1e7")
TOL = 1e-7
CHAIN = ("a1", "a2", "a3", "a4", "a5")


def close(got: float, want: float, tol: float = TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


class Checker:
    """Collects failed calls and wrong outputs for one run."""

    def __init__(self):
        self.attempted: dict = {}
        self.failed: dict = {}
        self.failures: list[str] = []
        self.problems: list[str] = []

    def count(self, record: dict) -> bool:
        """Count one call; True if it returned (its output is then checked)."""
        quantity = record["q"]
        self.attempted[quantity] = self.attempted.get(quantity, 0) + 1
        if "error" not in record:
            return True
        self.failed[quantity] = self.failed.get(quantity, 0) + 1
        self.failures.append(f"{quantity} {record['input']}: {record['error']}")
        return False

    def expect(self, what: str, got: float, want: float, tol: float = TOL) -> None:
        if not close(got, want, tol):
            self.problems.append(f"{what}: got {got!r}, want {want!r}")

    def holds(self, what: str, condition: bool) -> None:
        if not condition:
            self.problems.append(f"property fails: {what}")

    def properties(self, label: str, v: dict, d_bound: float) -> None:
        """r <= R, omega <= D <= d_bound and a3 <= a4 <= a5, where present."""
        slack = TOL * max(1.0, *(abs(x) for key, x in v.items() if key != "ok"))
        if "R" in v and "r" in v:
            self.holds(f"{label} r <= R", v["r"] <= v["R"] + slack)
        if "D" in v and "omega" in v:
            self.holds(f"{label} omega <= D", v["omega"] <= v["D"] + slack)
        if "D" in v and d_bound is not None:
            self.holds(f"{label} D <= bound {d_bound!r}", v["D"] <= d_bound + slack)
        if "a3" in v:
            self.holds(f"{label} a3 <= a4 <= a5",
                       v["a3"] <= v["a4"] + slack and v["a4"] <= v["a5"] + slack)


def _values(records: list) -> dict:
    """{input label: {quantity or chain member: value}} of the calls that returned."""
    out: dict = {}
    for rec in records:
        values = out.setdefault(rec["input"], {})
        if "value" in rec:
            values[rec["q"]] = rec["value"]
        elif "chain" in rec:
            values.update(zip(CHAIN, rec["chain"]))
            values["ok"] = rec["ok"]
    return out


def check_planar(check: Checker, rounds: list, oracle) -> None:
    unit = oracle.SQUARE_TRIANGLE
    for rnd in rounds:
        returned = [rec for rec in rnd["outcomes"] if check.count(rec)]
        values = _values(returned)
        for label, v in values.items():
            if label.startswith("reuleaux-"):
                # R and r are of K-K here, so D(K, C) = D(K-K, C)/2 <= R(K-K, C).
                for key, want in oracle.REULEAUX.items():
                    if key in v:
                        check.expect(f"{label} {key}", v[key], want)
                if "a4" in v:
                    check.expect(f"{label} a4", v["a4"], oracle.REULEAUX["R"])
                check.properties(label, v, v.get("R"))
            elif label == "square-triangle":
                for key, want in unit.items():
                    if key in v:
                        check.expect(f"{label} {key}", v[key], want)
                for key in ("a1", "a2", "a3"):
                    if key in v:
                        check.expect(f"{label} {key}", v[key], unit["D"])
                check.properties(label, v, 2.0 * v["R"] if "R" in v else None)
            if "ok" in v:
                check.holds(f"{label} ChainReport.ok", v["ok"])
        # All four quantities are invariant under a common scaling and under
        # separate translations, so each distorted copy must repeat the unit pair.
        reference = values.get("square-triangle", {})
        for label in DISTORTED:
            for key, got in values.get(label, {}).items():
                if key == "ok":
                    continue
                if key not in reference:
                    check.problems.append(f"{label} {key}: no unit-scale value to compare")
                else:
                    check.expect(f"{label} {key} vs unit scale", got, reference[key])


def check_spatial(check: Checker, rounds: list, expected: dict) -> None:
    for rnd in rounds:
        returned = [rec for rec in rnd["outcomes"] if check.count(rec)]
        for label, v in _values(returned).items():
            for key, want in expected[label].items():
                if key in v:
                    check.expect(f"{label} {key}", v[key], want)
            check.properties(label, v, 2.0 * v["R"] if "R" in v else None)
            if "ok" in v:
                check.holds(f"{label} ChainReport.ok", v["ok"])


def _report_values(text: str) -> dict:
    report = json.loads(text)
    v = {key: report[key]["value"] for key in ("R", "r", "D", "omega") if key in report}
    chain = report.get("chain", report)
    v.update({key: chain[key] for key in CHAIN if key in chain})
    return v


def check_cli(check: Checker, rounds: list, expected: dict, oracle) -> None:
    # Outputs carry 9 significant digits; 1e-7 leaves room for the rounding.
    for rnd in rounds:
        for rec in rnd["outcomes"]:
            if not check.count(rec):
                continue
            what = f"{rec['q']} {rec['input']}"
            try:
                if rec["q"] == "approx":
                    check_approx(check, rec["stdout"], oracle)
                    continue
                v = _report_values(rec["stdout"])
            except (ValueError, KeyError, TypeError) as exc:
                check.problems.append(f"{what}: unreadable output ({exc})")
                continue
            want = expected[rec["input"]]
            for key, value in want.items():
                if key in v:
                    check.expect(f"{what} {key}", v[key], value)
                elif rec["q"] == "radii" or key in CHAIN:
                    check.problems.append(f"{what}: missing {key}")
            for key in ("a1", "a2", "a3"):
                check.expect(f"{what} {key} = D", v.get(key, math.nan), want["D"])
            check.properties(what, v, 2.0 * v.get("R", math.nan) if rec["q"] == "radii" else None)


def check_approx(check: Checker, text: str, oracle) -> None:
    lines = text.strip().splitlines()
    header = "n,R,r,D,omega,err_R,err_r,err_D,err_omega"
    if lines[0] != header or [row.split(",")[0] for row in lines[1:]] != ["24", "48", "96"]:
        check.problems.append(f"approx: unexpected table {lines!r}")
        return
    for row in lines[1:]:
        cells = row.split(",")
        for i, key in enumerate(("R", "r", "D", "omega")):
            value, err = float(cells[1 + i]), float(cells[5 + i])
            check.expect(f"approx n={cells[0]} {key}", value, oracle.REULEAUX[key])
            check.expect(f"approx n={cells[0]} err_{key}", err,
                         abs(value - oracle.REULEAUX[key]), tol=1e-8)


def check_cli_bodies(check: Checker, rundir: str, oracle) -> None:
    """The set-up's `polyradii body` files must hold the reference bodies."""
    import numpy as np

    for name, want in (("square.json", oracle.SQUARE), ("triangle.json", oracle.TRIANGLE),
                       ("reuleaux48.json", oracle.reuleaux_points(48))):
        with open(os.path.join(rundir, name), encoding="utf-8") as fh:
            got = np.array(json.load(fh)["vertices"])
        dist = np.linalg.norm(got[:, None, :] - want[None, :, :], axis=2)
        if got.shape != want.shape or max(dist.min(0).max(), dist.min(1).max()) > 1e-8:
            check.problems.append(f"body file {name} differs from the reference body")


def run_worker(job: dict, path: str) -> dict:
    job_file = f"{path}.job.json"
    with open(job_file, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    # The worker leads its own process group, so a timeout also ends the
    # `polyradii` child it may be waiting on.
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), job_file, path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS),
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker took longer than {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{stderr}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "polyradii", "__init__.py")):
        print(f"error: no polyradii sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    import numpy as np

    import oracles

    rundir = os.path.join(HERE, "runs",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    job = {"workload": args.workload, "seconds": args.seconds, "trace": bool(args.trace),
           "root": ROOT, "rundir": rundir, "setup_only": False}
    # Inputs and reference values, before any timing.  planar-reuleaux and cli
    # use fixed reference bodies; the seed rotates the spatial-lp pairs.
    expected: dict = {}
    if args.workload == "spatial-lp":
        shapes = np.random.default_rng(SPATIAL_BASE_SEED)
        rng = np.random.default_rng(args.seed)
        job["pairs"] = []
        for label, dim, count in SPATIAL_PAIRS:
            k = oracles.draw_body(shapes, dim, count)
            c = oracles.draw_body(shapes, dim, count)
            rotation = oracles.draw_rotation(rng, dim)
            k, c = k @ rotation.T, c @ rotation.T
            job["pairs"].append({"label": label, "K": k.tolist(), "C": c.tolist()})
            expected[label] = oracles.pair_values(k, c)
    elif args.workload == "cli":
        gauge = oracles.round9(oracles.reuleaux_points(48))
        expected["reuleaux-48"] = oracles.pair_values(-gauge, gauge)
        expected["square-triangle"] = oracles.SQUARE_TRIANGLE

    def setup_only(count: int, first: int) -> list[float]:
        if args.trace:
            return []
        return [run_worker(dict(job, setup_only=True),
                           os.path.join(rundir, f"setup-{first + i}.json"))["setup_s"]
                for i in range(count)]

    setup_s = setup_only(SETUP_WORKERS_BEFORE, 0)
    result = run_worker(job, os.path.join(rundir, "result.json"))
    setup_s += setup_only(SETUP_WORKERS_AFTER, SETUP_WORKERS_BEFORE)
    setup_s.append(result["setup_s"])
    rounds = result["rounds"]

    check = Checker()
    if args.workload == "planar-reuleaux":
        check_planar(check, rounds, oracles)
    elif args.workload == "spatial-lp":
        check_spatial(check, rounds, expected)
    else:
        check_cli_bodies(check, rundir, oracles)
        check_cli(check, rounds, expected, oracles)

    attempted = sum(check.attempted.values())
    failed = sum(check.failed.values())
    accounting = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "attempted": check.attempted, "failed": check.failed,
        "failures_per_round": sorted(set(check.failures)),
        "problems": check.problems,
        "openblas_num_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
    }
    with open(os.path.join(rundir, "accounting.json"), "w", encoding="utf-8") as fh:
        json.dump(accounting, fh, indent=1)
    print(json.dumps(accounting, indent=1), file=sys.stderr)

    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "round_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
            "round_cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    print(json.dumps({
        "correct": not check.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def per_layer(result: dict) -> dict:
    """Per-round medians of the traced layers.

    bodies.make_body.s adds the set-up's make_body time, since the in-process
    workloads build every body during set-up.
    """
    rounds = result["rounds"]
    metrics = {}
    for name in rounds[0]["layers"]:
        value = statistics.median(r["layers"][name] for r in rounds)
        if name == "bodies.make_body.s":
            value += result["setup_layers"][name]
        unit = "s" if name.endswith("_s") or name.endswith(".s") else (
            "cells" if "cells" in name else "count")
        metrics[name] = (value, unit)
    metrics["cli.import_s"] = (result["import_s"], "s")
    for command in ("radii", "verify", "approx"):
        metrics[f"cli.{command}.s"] = (
            statistics.median(r["cli_s"].get(command, 0.0) for r in rounds), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
