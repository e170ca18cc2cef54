"""One benchmark worker: set up a workload, then run it in whole rounds.

Usage: python3 bench/worker.py JOB.json RESULT.json

run.py starts one worker per run (plus set-up-only workers) so that the
worker's clock, CPU time and peak memory belong to the library alone: the
worker never imports scipy and computes no reference values.  A round is a
fixed, ordered list of public calls; its outcomes go to RESULT.json for
run.py to check.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 120


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _outcome(quantity: str, label: str, call) -> dict:
    record = {"q": quantity, "input": label}
    try:
        out = call()
    except Exception as exc:  # a failed call is counted, not fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    if quantity == "chain":
        record["chain"] = [float(out.a1), float(out.a2), float(out.a3),
                           float(out.a4), float(out.a5)]
        record["ok"] = bool(out.ok)
    else:
        record["value"] = float(out.value)
    return record


class InProcess:
    """Workloads that call the library's functions in this process."""

    def __init__(self, job: dict):
        import numpy as np

        from polyradii import bodies, convex_core, radii

        self.radii = radii
        self.calls: list[tuple] = []
        if job["workload"] == "planar-reuleaux":
            spec, make_body = bodies.BodySpec, bodies.make_body
            transform, difference_hull = convex_core.transform, convex_core.difference_hull
            origin = [0.0, 0.0]
            for n in (24, 48, 96, 192):
                c = make_body(spec("reuleaux_triangle", n=n))
                k = transform(c, 1.0, origin, reflect=True)
                self._add_pair(f"reuleaux-{n}", difference_hull(k), k, c)
            square = make_body(spec("centered_square"))
            triangle = make_body(spec("equilateral_triangle"))
            self._add_pair("square-triangle", square, square, triangle)
            for label, scale, k_off, c_off in (
                ("scale-1e9", 1e9, origin, origin),
                ("scale-1e-9", 1e-9, origin, origin),
                ("scale-1e6", 1e6, origin, origin),
                ("offset-1e7", 1.0, [1e7, -1e7], [-1e7, 1e7]),
            ):
                k = transform(square, scale, k_off)
                self._add_pair(label, k, k, transform(triangle, scale, c_off))
        else:
            # No inradius here: its vertex LP fails on some random pairs (see CHANGES.md).
            for pair in job["pairs"]:
                k = convex_core.VPolytope(np.array(pair["K"]))
                c = convex_core.VPolytope(np.array(pair["C"]))
                self._add_pair(pair["label"], k, k, c, skip="r")

    def _add_pair(self, label, radius_body, k, c, skip=None) -> None:
        """R and r of radius_body (K or K-K) in C; D, omega and the chain of K."""
        for quantity, name, args in (
            ("R", "circumradius", (radius_body, c)),
            ("r", "inradius", (radius_body, c)),
            ("D", "diameter", (k, c)),
            ("omega", "min_width", (k, c)),
            ("chain", "verify_chain", (k, c)),
        ):
            if quantity != skip:
                self.calls.append((quantity, label, name, args))

    def round(self) -> tuple[list, dict]:
        radii = self.radii
        outcomes = [
            _outcome(quantity, label, lambda: getattr(radii, name)(*args))
            for quantity, label, name, args in self.calls
        ]
        return outcomes, {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Cli:
    """Runs `polyradii` commands in fresh processes, one at a time."""

    COMMANDS = (
        ("radii", "square-triangle",
         ["radii", "--body", "square.json", "--gauge", "triangle.json"]),
        ("verify", "square-triangle",
         ["verify", "--body", "square.json", "--gauge", "triangle.json"]),
        ("radii", "reuleaux-48",
         ["radii", "--body", "reuleaux48-reflected.json", "--gauge", "reuleaux48.json"]),
        ("approx", "reuleaux-24,48,96",
         ["approx", "--example", "reuleaux", "--n-list", "24,48,96"]),
    )

    def __init__(self, job: dict):
        self.rundir = job["rundir"]
        self.traced = job["trace"]
        self.env = dict(os.environ)
        src = os.path.join(job["root"], "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.child_spans: list[str] = []
        self.spans_written = 0
        for name, argv in (
            ("square.json", ["body", "--kind", "centered_square"]),
            ("triangle.json", ["body", "--kind", "equilateral_triangle"]),
            ("reuleaux48.json", ["body", "--kind", "reuleaux_triangle", "--n", "48"]),
        ):
            proc = self._run(argv)
            if proc.returncode != 0:
                raise RuntimeError(f"`polyradii {' '.join(argv)}` exited "
                                   f"{proc.returncode}: {proc.stderr.strip()}")
            self._write(name, proc.stdout)
        self.setup_spans, self.child_spans = self.child_spans, []
        with open(os.path.join(self.rundir, "reuleaux48.json"), encoding="utf-8") as fh:
            body = json.load(fh)
        body["vertices"] = [[-v for v in row] for row in body["vertices"]]
        self._write("reuleaux48-reflected.json", json.dumps(body) + "\n")

    def _write(self, name: str, text: str) -> None:
        with open(os.path.join(self.rundir, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def _run(self, argv: list) -> subprocess.CompletedProcess:
        if self.traced:
            self.spans_written += 1
            spans_file = os.path.join(self.rundir, f"child-{os.getpid()}-"
                                      f"{self.spans_written}.json")
            self.child_spans.append(spans_file)
            cmd = [sys.executable, os.path.join(HERE, "tracecli.py"), spans_file, *argv]
        else:
            cmd = [sys.executable, "-m", "polyradii.cli", *argv]
        return subprocess.run(cmd, cwd=self.rundir, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, check=False)

    def round(self) -> tuple[list, dict]:
        self.child_spans = []
        outcomes = []
        seconds = {"radii": 0.0, "verify": 0.0, "approx": 0.0}
        for command, label, argv in self.COMMANDS:
            start = time.perf_counter()
            proc = self._run(argv)
            seconds[command] += time.perf_counter() - start
            record = {"q": command, "input": label, "rc": proc.returncode,
                      "stdout": proc.stdout}
            if proc.returncode != 0:
                record["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
            outcomes.append(record)
        return outcomes, seconds

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _child_aggregate(spans_mod, paths: list) -> dict:
    total: dict = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            spans_mod.merge(total, spans_mod.aggregate(json.load(fh)))
    return total


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    tracer = spans = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    kind = Cli if job["workload"] == "cli" else InProcess
    workload = kind(job)
    result = {"setup_s": time.perf_counter() - T0}
    if not job["setup_only"]:
        setup_mark = tracer.mark() if tracer else 0
        rounds = []
        start = time.perf_counter()
        # Whole rounds only, and none that would end past the run length.
        while not rounds or (time.perf_counter() - start
                             + max(r["wall_s"] for r in rounds) <= job["seconds"]):
            mark = tracer.mark() if tracer else 0
            wall0, cpu0 = time.perf_counter(), time.process_time() + _children_cpu()
            outcomes, cli_seconds = workload.round()
            wall = time.perf_counter() - wall0
            cpu = time.process_time() + _children_cpu() - cpu0
            record = {"wall_s": wall, "cpu_s": cpu, "outcomes": outcomes}
            if tracer:
                agg = spans.aggregate(tracer.spans[mark:tracer.mark()], base=mark)
                if kind is Cli:
                    spans.merge(agg, _child_aggregate(spans, workload.child_spans))
                record["layers"] = spans.layer_values(agg)
                record["cli_s"] = cli_seconds
            rounds.append(record)
        result["rounds"] = rounds
        result["peak_rss_mb"] = workload.peak_rss_mb()
        if tracer:
            setup = spans.aggregate(tracer.spans[:setup_mark])
            if kind is Cli:
                spans.merge(setup, _child_aggregate(spans, workload.setup_spans))
            result["setup_layers"] = spans.layer_values(setup)
            env = dict(os.environ, PYTHONPATH=os.path.join(job["root"], "src"))
            times = []
            for _ in range(IMPORT_PROBES):
                t = time.perf_counter()
                subprocess.run([sys.executable, "-c", "import polyradii.cli"], env=env,
                               check=True, timeout=CHILD_TIMEOUT_S)
                times.append(time.perf_counter() - t)
            result["import_s"] = statistics.median(times)
            tracer.dump(os.path.join(job["rundir"], f"spans-{os.getpid()}.json"))
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
