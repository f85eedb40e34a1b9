"""The repository benchmark: one command, two workloads, every output checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-higgs --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/workloads.py`` and ``BENCHMARK.json``):
``mixed-explain`` and ``sim-higgs``.

``--trace 0`` prints the bounded end-to-end metrics.  ``--trace 1`` runs
the workload twice for half the time each, first untraced and then with
timing wrappers bound around the program's public callables, and prints
the per-layer metrics of the traced half, the tracing overhead (traced
minus untraced) and the unbounded end-to-end figures (throughput,
tails, overload throughput) of the untraced half; the spans are written to
``.perfbench-work/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every answer
the program gives is checked against ``Forest.predict`` (and explained
rows against an offline ``NativeEngine.explain`` plus the SHAP
efficiency axiom); a wrong answer, an exception or an unexpected
rejection counts as failed and makes the command exit 1.  The failure
ratio of a run is ``failed / attempted``.

Seeds 1-320 and 1009 were used while the benchmark was built and
checked; seed 4099 was not, so it is the one to confirm a claim on.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("mixed-explain", "sim-higgs")
WORKDIR = ROOT / ".perfbench-work"


def _require_checkout() -> None:
    """Exit 2 unless the program and its bench forests are present."""
    needed = [
        ROOT / "src/repro/__init__.py",
        ROOT / "benchmarks/.cache/Higgs-s7-k300-n6000.json",
        ROOT / "benchmarks/.cache/letter-s7-k150-n6000.json",
    ]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a repository checkout, missing {missing}", file=sys.stderr)
        raise SystemExit(2)


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark invocation; returns the result object."""
    from perfbench import layers, tracing, workloads

    WORKDIR.mkdir(exist_ok=True)
    if not trace:
        ctx = workloads.run_pass(workload, seed, seconds, WORKDIR)
        passes = [ctx]
        metrics = {name: (ctx.facts["e2e"][name], unit)
                   for name, unit in workloads.E2E_UNITS.items()}
    else:
        plain = workloads.run_pass(workload, seed, seconds / 2, WORKDIR)
        log = tracing.SpanLog()
        patches = tracing.install(log)
        try:
            ctx = workloads.run_pass(workload, seed, seconds / 2, WORKDIR, log=log)
        finally:
            patches.restore()
        passes = [plain, ctx]
        values = layers.per_layer(ctx, plain.facts["e2e"])
        metrics = {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
        log.write(WORKDIR / f"trace-{workload}-{seed}.json")
    for one in passes:
        print(f"inputs: workload={workload} seed={seed} digest={one.input_digest}")
        for line in one.phase_lines:
            print(f"  phase {line}")
        for problem in one.problems:
            print(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    attempted = sum(s.attempted for s in passes)
    failed = sum(s.failed for s in passes)
    return {
        "correct": failed == 0 and not any(s.problems for s in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _require_checkout()
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
