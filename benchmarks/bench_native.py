"""Native-backend throughput: the first *wall-clock* numbers in the repo.

Every other benchmark reports simulated GPU seconds; this one measures
how fast :class:`~repro.core.native.NativeEngine` actually evaluates
forests on the host, and how that compares to running the GPU simulator
for serving.  Scenarios:

* ``batch_sweep`` — samples/sec vs batch size (the flush-point curve the
  native serving planner measures).
* ``forest_sweep`` — samples/sec vs forest size (tree-count slices of
  the letter bench forest).
* ``kernels`` — traversal throughput (batch ``kernel_batch`` and batch
  1) of the compiled C kernel vs the numpy kernel (vs the pure-Python
  scalar reference in full mode), and explain throughput of the C vs
  numpy SHAP kernels, each with a bit-identity flag against numpy.  The
  kernel functions are timed directly on the engine's flattened forest
  and path set (the engine itself runs whichever one the environment
  provides); the C library's build status is recorded either way.
* ``coldstart`` — cold engine build (conversion + flatten) vs adopting a
  packed ``.tahoe`` artifact, plus first-predict latency for each.
* ``serving`` — identical open-loop workloads through ``TahoeServer``
  with the simulator pool and the native pool, timed on the *outer* wall
  clock; the native/simulated wall speedup is the acceptance number
  (expected ≥ 10x — predicting beats simulating a GPU predicting).

The whole payload is denominated in wall seconds
(``time_domain: "wall"``), so ``repro bench diff`` refuses to compare it
against any simulated-time artifact.

Usage::

    python benchmarks/bench_native.py            # full mode
    python benchmarks/bench_native.py --quick    # CI mode
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

import common
from repro.core import LayoutCache, TahoeEngine
from repro.core import ckernel
from repro.core.native import NativeEngine, _traverse_numpy, _traverse_scalar
from repro.explain.kernel import _shap_numpy
from repro.explain.paths import path_set_for_layout
from repro.modelstore import load_packed, pack_layout
from repro.serving import SchedulerConfig, TahoeServer, poisson_workload

DATASET = "letter"
GPU = "P100"
#: Rows per timed explain call in the kernel comparison.
EXPLAIN_BATCH = 64


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _pool(X: np.ndarray, n: int) -> np.ndarray:
    """At least ``n`` inference rows, tiling the real split as needed."""
    if X.shape[0] >= n:
        return np.ascontiguousarray(X[:n])
    reps = n // X.shape[0] + 1
    return np.ascontiguousarray(np.tile(X, (reps, 1))[:n])


def bench_batch_sweep(engine, X, batch_sizes, repeats) -> dict:
    out = {}
    for b in batch_sizes:
        batch = _pool(X, b)
        wall = _best_of(lambda: engine.predict(batch), repeats)
        out[str(b)] = {
            "wall_s": wall,
            "samples_per_s": b / wall,
        }
    return out


def bench_forest_sweep(forest, spec, X, tree_counts, batch, repeats) -> dict:
    out = {}
    batch_X = _pool(X, batch)
    for k in tree_counts:
        sub = forest.with_trees(list(forest.trees[:k]))
        engine = NativeEngine(sub, spec)
        wall = _best_of(lambda: engine.predict(batch_X), repeats)
        out[str(k)] = {
            "n_trees": k,
            "wall_s": wall,
            "samples_per_s": batch / wall,
        }
    return out


def bench_kernels(forest, spec, X, batch, repeats, quick) -> dict:
    engine = NativeEngine(forest, spec)
    flat = engine.flat
    groups = flat.n_groups
    # Every traversal kernel yields per-sample float64 leaf sums.
    kernels = {
        "numpy": lambda rows: _traverse_numpy(
            rows, flat, np.empty((rows.shape[0], groups) if groups > 1 else rows.shape[0])
        ),
    }
    if ckernel.available():
        kernels["c"] = lambda rows: ckernel.traverse(flat, rows)
    if not quick:
        kernels["scalar"] = lambda rows: _traverse_scalar(
            rows, flat, np.zeros((rows.shape[0], groups))
        )
    batch_X = _pool(X, batch)
    one = batch_X[:1]
    out = {"kernels_present": list(kernels), "c_status": ckernel.status}
    ref = None
    for kernel, fn in kernels.items():
        fn(batch_X[:64])  # warm
        wall = _best_of(lambda: fn(batch_X), repeats)
        sums = fn(batch_X).reshape(batch, -1)
        if ref is None:
            ref = sums
        out[kernel] = {
            "wall_s": wall,
            "samples_per_s": batch / wall,
            "batch1_wall_s": _best_of(lambda: fn(one), 5 * repeats),
            "bit_identical_to_numpy": bool(np.array_equal(sums, ref)),
        }
    # Explain: the two SHAP kernels on the same path set and rows.
    ps = path_set_for_layout(engine.layout)
    explain_X = _pool(X, EXPLAIN_BATCH)
    shap_kernels = {"numpy": lambda rows: _shap_numpy(ps, rows)}
    if ckernel.available():
        shap_kernels["c"] = lambda rows: ckernel.shap(ps, rows)
    phi_ref = None
    for kernel, fn in shap_kernels.items():
        fn(explain_X[:1])  # warm (binds the path set)
        wall = _best_of(lambda: fn(explain_X), repeats)
        phi = fn(explain_X)
        if phi_ref is None:
            phi_ref = phi
        out[kernel].update(
            explain_wall_s=wall,
            explain_samples_per_s=EXPLAIN_BATCH / wall,
            explain_batch1_wall_s=_best_of(lambda: fn(explain_X[:1]), 5 * repeats),
            explain_bit_identical_to_numpy=bool(np.array_equal(phi, phi_ref)),
        )
    return out


def bench_coldstart(forest, spec, X) -> dict:
    import tempfile

    t0 = time.perf_counter()
    cold = NativeEngine(forest, spec)
    cold_build = time.perf_counter() - t0
    first = _best_of(lambda: cold.predict(X[:256]), 1)

    artifact = Path(tempfile.mkdtemp(prefix="bench_native_")) / "bench.tahoe"
    pack_layout(
        cold.layout,
        artifact,
        engine="tahoe",
        spec_name=spec.name,
        conversion_key=cold.config.conversion_key(),
        source_fingerprint=forest.fingerprint(),
    )
    t0 = time.perf_counter()
    packed_engine = load_packed(artifact).make_engine(spec, backend="native")
    packed_build = time.perf_counter() - t0
    packed_first = _best_of(lambda: packed_engine.predict(X[:256]), 1)
    identical = bool(
        np.array_equal(
            cold.predict(X[:256]).predictions,
            packed_engine.predict(X[:256]).predictions,
        )
    )
    return {
        "cold_build_s": cold_build,
        "cold_first_predict_s": first,
        "packed_build_s": packed_build,
        "packed_first_predict_s": packed_first,
        "build_speedup": cold_build / packed_build if packed_build > 0 else float("inf"),
        "packed_bit_identical": identical,
    }


def bench_serving(forest, spec, X, quick) -> dict:
    """The acceptance comparison: wall time to serve the same workload.

    Both runs use the same scripted arrivals; what differs is what the
    pool *does* per micro-batch — simulate a GPU or actually predict —
    so the outer wall clock around ``run()`` is the honest comparison
    (each backend's own clock is not: one is simulated seconds, the
    other wall seconds).
    """
    # Multi-sample requests keep the comparison about the engines: with
    # 1-sample traffic the Python scheduler dominates the wall clock of
    # both pools and the backends tie, hiding the 17x per-batch kernel
    # gap behind identical per-request bookkeeping.
    qps, duration = (500.0, 0.25) if quick else (1000.0, 1.0)
    out = {}
    for backend in ("tahoe", "native"):
        server = TahoeServer(
            forest,
            spec,
            scheduler=SchedulerConfig(
                n_engines=1, max_batch=1024, backend=backend, request_tracing=False
            ),
            layout_cache=LayoutCache(),
        )
        requests = poisson_workload(
            X, qps=qps, duration=duration, seed=7, max_request_samples=512
        )
        t0 = time.perf_counter()
        result = server.run(requests)
        wall = time.perf_counter() - t0
        s = result.summary
        n_samples = int(
            sum(r.predictions.shape[0] for r in result.responses if r.ok)
        )
        out[backend] = {
            "outer_wall_s": wall,
            "wall_samples_per_s": n_samples / wall if wall > 0 else float("inf"),
            "completed": s["completed"],
            "time_domain": s["time_domain"],
            "target_batch": s["target_batch"],
        }
    out["native_wall_speedup"] = (
        out["native"]["wall_samples_per_s"] / out["tahoe"]["wall_samples_per_s"]
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    args = parser.parse_args(argv)

    spec = common.bench_spec(GPU)
    trained = common.workload(DATASET)
    forest = trained.forest
    X = trained.split.test.X
    repeats = 2 if args.quick else 3
    batch_sizes = [64, 256, 1024] if args.quick else [64, 256, 1024, 4096, 16384]
    tree_counts = [k for k in ([25, 75, 150] if args.quick else [10, 25, 50, 100, 150])
                   if k <= forest.n_trees]
    kernel_batch = 1024 if args.quick else 4096

    engine = NativeEngine(forest, spec)
    print(
        f"native bench: {forest.n_trees} trees on {DATASET}, "
        f"kernel={engine.kernel} (C library: {ckernel.status})"
    )
    payload = {
        "time_domain": "wall",
        "gpu": spec.name,
        "dataset": DATASET,
        "n_trees": forest.n_trees,
        "c_status": ckernel.status,
        "default_kernel": engine.kernel,
        "quick": bool(args.quick),
        "batch_sweep": bench_batch_sweep(engine, X, batch_sizes, repeats),
        "forest_sweep": bench_forest_sweep(
            forest, spec, X, tree_counts, kernel_batch, repeats
        ),
        "kernels": bench_kernels(forest, spec, X, kernel_batch, repeats, args.quick),
        "coldstart": bench_coldstart(forest, spec, X),
        "serving": bench_serving(forest, spec, X, args.quick),
    }
    # Bit-identity gate against the simulator on the bench forest —
    # cheap, and it keeps the headline claim honest in every artifact.
    check_X = _pool(X, 512)
    simulated = TahoeEngine(forest, spec).predict(check_X).predictions
    payload["bit_identical_to_simulator"] = bool(
        np.array_equal(engine.predict(check_X).predictions, simulated)
    )

    scenario = f"native/{DATASET}/{GPU}/{'quick' if args.quick else 'full'}"
    path = common.write_bench_report("native", payload, scenario=scenario)

    sweep = payload["batch_sweep"]
    for b, row in sweep.items():
        print(f"  batch {b:>6}: {row['samples_per_s']:14,.0f} samples/s")
    for kernel, row in payload["kernels"].items():
        if isinstance(row, dict):
            explain = row.get("explain_samples_per_s")
            print(
                f"  {kernel:>6} kernel: traverse {row['samples_per_s']:12,.0f} samples/s"
                + (f", explain {explain:10,.0f} samples/s" if explain else "")
            )
    serving = payload["serving"]
    print(
        f"  serving wall speedup (native vs simulator pool): "
        f"{serving['native_wall_speedup']:.1f}x"
    )
    print(f"  bit-identical to simulator: {payload['bit_identical_to_simulator']}")
    print(f"wrote {path}")
    if not payload["bit_identical_to_simulator"]:
        print("ERROR: native predictions diverge from the simulator", file=sys.stderr)
        return 1
    if serving["native_wall_speedup"] < 10.0:
        print(
            f"WARNING: native serving speedup "
            f"{serving['native_wall_speedup']:.1f}x is below the 10x target",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
