"""Self-tests of the benchmark itself.

    python3 bench/selftest.py          # or: python -m pytest bench/selftest.py

They run one traced cycle of each workload (about half a minute in all),
so they are kept out of the repository's own test suite.
"""

import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def _traced_cycle(workload: str):
    """One traced cycle: every op untraced then traced, both judged."""
    pkg = run._import_package()
    run.OUT_DIR.mkdir(exist_ok=True)
    run_dir = run.OUT_DIR / f"selftest-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        r = run.Run(pkg, workload, SEED, run_dir)
        r.warm_up()
        tracer = run.Tracer()
        plain, traced, _, _ = r.traced(tracer, 0.0, float("inf"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return r, run.per_layer(tracer, plain, traced)


def test_generator_is_deterministic_per_seed():
    for name in workloads.BUILDERS:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert a == b, name
        assert a.manifests != workloads.build(name, 8).manifests, name


def test_traced_ops_match_untraced_and_references():
    # Run.traced fails an op whose stdout or exit code differs between the
    # traced and untraced call, or misses its reference.
    for name in workloads.BUILDERS:
        r, _ = _traced_cycle(name)
        assert r.attempted == len(r.cycle.ops), name
        assert r.failures == [], (name, r.failures)


def test_lift_blocks_jet_counts_at_seed():
    _, metrics = _traced_cycle("lift-blocks")
    assert metrics["lifts.jet_calls_per_sample"][0] == 4
    assert metrics["metric.points_per_jet_call"][0] == 1


def test_refuses_to_run_without_sources():
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "lift-blocks",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
