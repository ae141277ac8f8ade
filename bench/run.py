"""metriclift benchmark: drives the public CLI in-process, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  One op is one ``cli.main([...])`` call, manifest read
and JSON write included; its stdout is captured and judged against the
workload's reference outside the timed region.  Ops run in whole cycles of
the workload until ``--seconds`` have passed and the tail percentile has at
least ten ops beyond it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice, without and with the external tracer (``tracer.py``), checks that
both stdouts are byte-identical, and prints the per-layer metrics per op
plus the tracing overhead.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment and run details.
"""

import os

# One BLAS/OpenMP thread: keeps the load within a 2-core box and gives the
# plain single-threaded baseline.  Set before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_IMPORTS = 11  # fresh interpreters timed per run; setup_s is their median
RUN_DEADLINE_S = 150.0  # the measured loop stops here even if short of ops
RESIDUAL_ATOL = 1e-9


def _fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_package():
    if not (SRC / "metriclift" / "cli.py").is_file():
        _fail(f"no metriclift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import metriclift.cli

    if Path(metriclift.__file__).resolve().parent != SRC / "metriclift":
        _fail(f"imported metriclift from {metriclift.__file__}, not from {SRC}")
    return metriclift


def measure_setup(count: int) -> list[float]:
    """Wall time of fresh interpreters that import metriclift.cli."""
    argv = [sys.executable, "-c", "import metriclift.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(argv, env=env, cwd=ROOT, check=True)  # warm the file cache
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        out.append(time.perf_counter() - t0)
    return out


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def judge(op, code, out: str, gallery):
    """Check one op's exit code and stdout against its reference; return
    ``(reason or None, samples_used)``."""
    if code is None:
        return f"raised {out}", 0
    try:
        doc = strict_json(out)
    except ValueError as err:
        return f"stdout is not strict JSON: {err}", 0
    if op.command == "lift":
        if code != 0:
            return f"exit {code}, expected 0", 0
        if doc.get("dimension") != op.dim or "hat_metric" not in doc:
            return f"emitted manifest is not a {op.dim}-dim pair", 0
        return None, 0
    want = 0 if op.verdict == workloads.HARMONIC else 1
    if code != want:
        return f"exit {code}, expected {want}", 0
    if doc.get("verdict") != op.verdict:
        return f"verdict {doc.get('verdict')!r}, expected {op.verdict!r}", 0
    samples = int(doc["samples_used"])
    if op.egorov is not None:
        m, f, fhat = op.egorov
        spec = gallery.EgorovSpec(m, f)
        x = doc["worst_point"][:m]
        ref = op.residual_factor * abs(
            gallery.egorov_residual_closed_form(spec, fhat, x)
        )
        got = doc["max_abs_residual"]
        if not abs(got - ref) <= RESIDUAL_ATOL:
            return f"residual {got!r} vs closed form {ref!r}", samples
    return None, samples


def call(cli, argv):
    """One op: ``cli.main(argv)`` with stdout captured; returns
    ``(seconds, exit code, stdout)``, or ``(seconds, None, error)`` when
    the call raised, which counts as a failed op."""
    buf = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as err:  # a crashing op is a failed op, not a failed run
        return time.perf_counter() - t0, None, f"{type(err).__name__}: {err}"
    return time.perf_counter() - t0, code, buf.getvalue()


def min_ops_for(percentile: float) -> int:
    """Smallest op count that leaves at least ten ops beyond ``percentile``."""
    return int(10 / (1 - percentile / 100)) + 1


class Run:
    def __init__(self, pkg, workload: str, seed: int, run_dir: Path):
        self.cli = pkg.cli
        self.gallery = pkg.gallery
        self.cycle = workloads.build(workload, seed)
        self.run_dir = run_dir
        for name, doc in self.cycle.manifests.items():
            (run_dir / name).write_text(json.dumps(doc, indent=2) + "\n")
        self.failures: list[str] = []
        self.attempted = 0
        self.samples = 0

    def _save(self, op, out):
        if op.emits is not None:
            (self.run_dir / op.emits).write_text(out)

    def _record(self, op, code, out, reason=None):
        self._save(op, out)
        judged, samples = judge(op, code, out, self.gallery)
        reason = reason or judged
        self.attempted += 1
        self.samples += samples
        if reason is not None:
            self.failures.append(f"{op.label}: {reason}")

    def warm_up(self):
        for op in self.cycle.ops:
            _, _, out = call(self.cli, op.argv(self.run_dir))
            self._save(op, out)

    def loop(self, seconds: float, min_ops: int, deadline: float, step):
        """Whole cycles until ``seconds`` elapsed and ``min_ops`` ran."""
        t0 = time.perf_counter()
        cycles = 0
        while True:
            for op in self.cycle.ops:
                step(cycles, op)
            cycles += 1
            now = time.perf_counter()
            if (now - t0 >= seconds and self.attempted >= min_ops) or now >= deadline:
                return cycles, now - t0

    def untraced(self, seconds, min_ops, deadline):
        """The time of every op run, in the order they ran."""
        times = []

        def step(_cycle, op):
            dt, code, out = call(self.cli, op.argv(self.run_dir))
            times.append(dt)
            self._record(op, code, out)

        cycles, wall = self.loop(seconds, min_ops, deadline, step)
        return times, cycles, wall

    def traced(self, tracer, seconds, deadline):
        """Each op untraced and traced, alternating which goes first."""
        plain, traced = [], []

        def step(cycle, op):
            argv = op.argv(self.run_dir)
            outputs = {}
            for with_trace in ((False, True) if cycle % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.op = len(traced)
                    tracer.install()
                    try:
                        dt, code, out = call(self.cli, argv)
                    finally:
                        tracer.uninstall()
                    traced.append(dt)
                else:
                    dt, code, out = call(self.cli, argv)
                    plain.append(dt)
                outputs[with_trace] = (code, out)
            differs = outputs[True] != outputs[False]
            self._record(op, *outputs[True],
                         reason="stdout differs with tracing on" if differs else None)

        cycles, wall = self.loop(seconds, 1, deadline, step)
        return plain, traced, cycles, wall


def end_to_end(times, samples, failed, setup, rss_kb, tail_pct) -> dict:
    """End-to-end metrics from ``times``, every op run's own time.

    Runs go in whole cycles, so every op of the workload weighs the same.
    Throughputs are per second of op time, which leaves out the judging
    and file writes between ops.
    """
    op_s = sum(times)
    tail = statistics.quantiles(times, n=100, method="inclusive")[tail_pct - 1]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (len(times) / op_s, "1/s"),
        "samples_per_s": (samples / op_s, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ok_ops_ratio": (1.0 - failed / len(times), "ratio"),
    }


def per_layer(tracer, plain, traced) -> dict:
    n = len(traced)
    s = tracer.summary()
    c = tracer.counts

    def per_op(value):
        return value / n

    def ratio(a, b):
        return a / b if b else 0.0

    jets = s["metric.metric_jets_at"]
    return {
        "metric.metric_jets_at.s": (per_op(jets["s"]), "s/op"),
        "metric.metric_jets_at.calls": (per_op(jets["calls"]), "calls/op"),
        "metric.metric_jets_at.points": (per_op(c["metric.metric_jets_at.points"]), "points/op"),
        "metric.points_per_jet_call": (
            ratio(c["metric.metric_jets_at.points"], jets["calls"]), "points/call"),
        "lifts.jet_calls_per_sample": (
            ratio(c["lifts.jet_calls"], c["lifts.samples"]), "calls/sample"),
        "lifts.lift_blocks_at.self_s": (per_op(s["lifts.lift_blocks_at"]["self_s"]), "s/op"),
        "lifts.lifted_tension_at.calls": (
            per_op(s["lifts.lifted_tension_at"]["calls"]), "calls/op"),
        "lifts.lifted_tension_at.self_s": (
            per_op(s["lifts.lifted_tension_at"]["self_s"]), "s/op"),
        "metric.christoffel_and_derivative_at.s": (
            per_op(s["metric.christoffel_and_derivative_at"]["s"]), "s/op"),
        "harmonic.tension_identity_at.self_s": (
            per_op(s["harmonic.tension_identity_at"]["self_s"]), "s/op"),
        "harmonic.lattice_points.s": (per_op(s["harmonic.lattice_points"]["s"]), "s/op"),
        "harmonic.candidates_scanned": (per_op(c["harmonic.candidates_scanned"]), "points/op"),
        "harmonic.samples_kept": (per_op(c["harmonic.samples_kept"]), "points/op"),
        "harmonic.kept_ratio": (
            ratio(c["harmonic.samples_kept"], c["harmonic.candidates_scanned"]), "ratio"),
        "metric.metric_at.s": (per_op(s["metric.metric_at"]["s"]), "s/op"),
        "metric.metric_at.points": (per_op(c["metric.metric_at.points"]), "points/op"),
        "exprlang.parse_expression.s": (per_op(s["exprlang.parse_expression"]["s"]), "s/op"),
        "exprlang.parse_expression.calls": (
            per_op(s["exprlang.parse_expression"]["calls"]), "calls/op"),
        "exprlang.parse_expression.source_bytes": (
            per_op(c["exprlang.parse_expression.source_bytes"]), "bytes/op"),
        "exprlang.to_source.s": (per_op(s["exprlang.to_source"]["s"]), "s/op"),
        "exprlang.to_source.bytes": (per_op(c["exprlang.to_source.bytes"]), "bytes/op"),
        "exprlang.differentiate.s": (per_op(s["exprlang.differentiate"]["s"]), "s/op"),
        "exprlang.tree_size.s": (per_op(s["exprlang.tree_size"]["s"]), "s/op"),
        "exprlang.evaluate.s": (per_op(s["exprlang.evaluate"]["s"]), "s/op"),
        "lifts.lift_to_chart.s": (per_op(s["lifts.lift_to_chart"]["s"]), "s/op"),
        "cli.build_metrics.s": (per_op(s["cli.build_metrics"]["s"]), "s/op"),
        "cli.self_s": (
            per_op(sum(row["self_s"] for name, row in s.items() if name.startswith("cli."))),
            "s/op"),
        "trace.untraced_op_s": (sum(plain) / len(plain), "s/op"),
        "trace.overhead_s": ((sum(traced) - sum(plain)) / n, "s/op"),
        "trace.overhead_ratio": (ratio(sum(traced) - sum(plain), sum(plain)), "ratio"),
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    pkg = _import_package()

    OUT_DIR.mkdir(exist_ok=True)
    run_dir = OUT_DIR / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment()}
    try:
        run = Run(pkg, args.workload, args.seed, run_dir)
        deadline = start + RUN_DEADLINE_S
        run.warm_up()
        if args.trace:
            tracer = Tracer()
            plain, traced, cycles, wall = run.traced(tracer, args.seconds, deadline)
            metrics = per_layer(tracer, plain, traced)
            spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write(spans_path)
            info["spans"] = {"count": len(tracer.spans), "file": str(spans_path.relative_to(ROOT))}
        else:
            tail_pct = workloads.TAIL_PERCENTILE[args.workload]
            times, cycles, wall = run.untraced(args.seconds, min_ops_for(tail_pct), deadline)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            setup = measure_setup(SETUP_IMPORTS)
            metrics = end_to_end(times, run.samples, len(run.failures), setup, rss_kb, tail_pct)
            tail = metrics["op_tail_s"][0]
            info["op_tail_percentile"] = tail_pct
            info["ops_beyond_tail"] = sum(x > tail for x in times)
            info["setup_runs_s"] = setup
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len(run.failures)
    info.update({
        "cycle_ops": len(run.cycle.ops),
        "cycles": cycles,
        "measured_s": wall,
        "failed_ops_ratio": failed / run.attempted,
        "failures": run.failures[:10],
    })
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
