"""Closed-loop benchmark of rkstieltjes as its users call it.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload funv-small-mix --seed 1 --seconds 12 --trace 0

One process sends one request at a time for ``--seconds`` seconds; every
request is checked against an exact oracle.  BLAS runs on one thread, and a
fixed calibration kernel runs before each request so that throughput can be
reported at a fixed host speed.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` wraps the library's layers from here and
prints the per-layer split instead.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  The package is
imported from ``src/`` of the current directory; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

# One BLAS thread, set before numpy loads OpenBLAS.  On a small shared host
# a second BLAS thread waits on a vCPU the host may be lending elsewhere;
# with two threads the many small BLAS calls of the mixes ran slower and
# spread wider from run to run than with one.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MODULES = ("operators", "functions", "poles", "bounds", "rk", "kronfun",
           "experiments")
# numpy and scipy's top level load before the clock starts: only the package
# and the scipy submodules it chooses to load are timed.
IMPORT_PROBE = ("import time, numpy, scipy; t = time.perf_counter(); "
                "import rkstieltjes; print(time.perf_counter() - t)")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def load_library(root: str):
    """Import rkstieltjes from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rkstieltjes", "__init__.py")):
        raise SetupError(f"no rkstieltjes package under {src}")
    sys.path.insert(0, src)
    pkg = importlib.import_module("rkstieltjes")
    if not os.path.abspath(pkg.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SetupError(f"rkstieltjes was imported from {pkg.__file__}, not {src}")
    for name in MODULES:
        importlib.import_module(f"rkstieltjes.{name}")
    return pkg


def time_import(root: str) -> float:
    """Seconds to import the package in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, int | None]:
    """Name and version of numpy's BLAS, and its thread count when the
    loaded OpenBLAS exposes it."""
    cfg = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    name = f"{cfg.get('name', 'unknown')} {cfg.get('version', '')}".strip()
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def _git_commit(root: str) -> str | None:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(root: str, seed: int) -> dict:
    blas, threads = _blas()
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
            "git_commit": _git_commit(root), "seed": seed}


# ---------------------------------------------------------------------------
# the closed loop


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest percentile with at least ten
    requests beyond it; None with fewer than 20 requests."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(latencies, p))
    return None


def calibrate(kernel, reps: int) -> list[float]:
    """Seconds of each of ``reps`` runs of a calibration kernel."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def peak_alloc_mib(wl, harness: dict, rng: np.random.Generator) -> float:
    """Peak memory, in MiB, that a fresh fixture set-up and one round of the
    workload's requests allocate, as tracemalloc counts it (numpy reports
    its buffers to it; memory a C library takes on its own is not
    seen).  The oracles were built before tracing starts
    and are not called, so harness memory stays out."""
    tracemalloc.start()
    try:
        fx = wl.setup()
        stream = wl.requests(fx, harness, rng, tracing.Untraced())
        for _ in range(wl.round_len):
            next(stream).solve()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: str = ".", size: str = "full", repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload and return every number it measured."""
    root = os.path.abspath(root)
    lib = load_library(root)
    workdir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.build(workload, lib, size, workdir)

    import_s = [time_import(root) for _ in range(repeats)]
    tr = tracing.Tracer(lib) if trace else tracing.Untraced()
    if trace:
        tr.install()
    fixture_s = []
    for k in range(repeats):
        tr.request = f"setup-{k}"
        t0 = time.perf_counter()
        fx = wl.setup()
        fixture_s.append(time.perf_counter() - t0)
    with tr.paused():
        harness = wl.prepare(fx)

    rng = np.random.default_rng(seed)
    stream = wl.requests(fx, harness, rng, tr)
    latencies, untraced_s, outcomes, calib_s = [], [], [], []
    failed, wall_s = 0, 0.0
    kernel, reference_s = calibration.KERNELS[wl.calib[0]]
    if not trace:
        calibrate(kernel, 1)  # warm-up, not kept
    start = time.perf_counter()
    while len(outcomes) < wl.prefix or time.perf_counter() - start < seconds:
        tr.request = len(outcomes)
        if not trace:
            calib_s.extend(calibrate(kernel, wl.calib[1]))
        seg = time.perf_counter()
        req = next(stream)
        if trace:
            # Same request untraced first: the difference is the tracing cost.
            tr.uninstall()
            t0 = time.perf_counter()
            try:
                req.solve()
            except Exception:  # the traced solve below raises and records it
                pass
            untraced_s.append(time.perf_counter() - t0)
            tr.install()
            seg += time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            out = req.solve()
            err = None
        except Exception as exc:  # a request that raises is a failed request
            out, err = None, exc
        latencies.append(time.perf_counter() - t0)
        if err is None:
            o = req.check(out)
        else:
            o = workloads.Outcome(False, float("nan"), 0, f"raised {err!r}")
        wall_s += time.perf_counter() - seg
        outcomes.append(o)
        if not o.ok:
            failed += 1
            print(f"FAILED request {len(outcomes) - 1} {req.label}: {o.reason}")

    probe_lines = wl.probe(fx, harness, np.random.default_rng([seed, 1]), tr) \
        if wl.probe else []
    if trace:
        tr.uninstall()
    else:
        peak_mib = peak_alloc_mib(wl, harness, np.random.default_rng([seed, 2]))

    head = outcomes[:wl.prefix]
    finite = [o.rel_error for o in head if np.isfinite(o.rel_error)]
    rel_error_max = max(finite) if finite else float("nan")
    ell_p50 = float(statistics.median(o.ell for o in head))
    solves_per_s = sum(o.ok for o in outcomes) / sum(latencies)
    e2e = {}
    if not trace:
        # The kernel ran between the requests, so it saw the same host: its
        # mean time over the reference time is how much slower the host ran.
        host_slowdown = statistics.fmean(calib_s) / reference_s
        e2e["solves_per_s.norm"] = (solves_per_s * host_slowdown, "1/s")
    e2e.update({
        "digits.min": (-np.log10(rel_error_max), "digits"),
        "setup_s": (statistics.median(import_s) + statistics.median(fixture_s), "s"),
    })
    if not trace:
        e2e["peak_alloc_mib"] = (peak_mib, "MiB")
    summary = {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": len(outcomes), "failed": failed, "end_to_end": e2e,
        "ell.p50": ell_p50, "rel_error.max": rel_error_max,
        "solves_per_s": solves_per_s,
        "calib": (wl.calib[0], statistics.fmean(calib_s) if calib_s else None,
                  reference_s),
        "solve_s.p50": statistics.median(latencies),
        "failed_frac": failed / len(outcomes), "tail": tail(latencies),
        "probe": probe_lines, "env": environment(root, seed),
    }
    if trace:
        layers = tr.layer_metrics(wall_s)
        setup_spans = [[e - s for name, s, e, _, rid in tr.spans
                        if rid == f"setup-{k}" and name == "operators.setup"]
                       for k in range(repeats)]
        layers["operators.setup_s"] = (statistics.median(sum(x) for x in setup_spans), "s")
        layers["ell.p50"] = (ell_p50, "poles")
        layers["trace.overhead_frac"] = (
            sum(latencies) / sum(untraced_s) - 1.0, "ratio")
        summary["per_layer"] = layers
        summary["shares"] = tr.shares(wall_s)
        summary["absent"] = tr.absent
        spans_path = os.path.join(workdir, f"spans-{workload}-seed{seed}.jsonl")
        tr.write(spans_path)
        summary["spans_path"] = spans_path
    return summary


def report(s: dict) -> list[str]:
    """Human-readable lines printed before the JSON result."""
    lines = [f"env {json.dumps(s['env'])}",
             f"workload {s['workload']} seed {s['seed']}: {s['attempted']} requests, "
             f"{s['failed']} failed (failed_frac {s['failed_frac']:.4g})"]
    for name, (value, unit) in s["end_to_end"].items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    lines.append(f"  solves_per_s = {s['solves_per_s']:.6g} 1/s (wall clock, not normalized)")
    name, mean_s, reference_s = s["calib"]
    if mean_s is not None:
        lines.append(f"  calibration kernel {name} = {mean_s:.6g} s mean "
                     f"(reference {reference_s:g} s)")
    lines.append(f"  ell.p50 = {s['ell.p50']:.6g} poles")
    lines.append(f"  rel_error.max = {s['rel_error.max']:.6g} (digits.min = -log10 of it)")
    lines.append(f"  solve_s.p50 = {s['solve_s.p50']:.6g} s")
    if s["tail"] is None:
        lines.append(f"  solve_s.tail: not reported ({s['attempted']} requests < 20)")
    else:
        p, value = s["tail"]
        lines.append(f"  solve_s.tail = {value:.6g} s (p{p:g} of {s['attempted']} requests)")
    lines.extend(s["probe"])
    if s["trace"]:
        for name, (value, unit) in s["per_layer"].items():
            lines.append(f"  {name} = {value:.6g} {unit}")
        lines.append("  shares of traced wall time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in s["shares"]))
        if s["absent"]:
            lines.append("  absent (not in this checkout): " + ", ".join(s["absent"]))
        lines.append(f"  spans written to {s['spans_path']}")
    return lines


def result_json(s: dict) -> str:
    chosen = s["per_layer"] if s["trace"] else s["end_to_end"]
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in chosen.items()}
    return json.dumps({"correct": s["failed"] == 0, "attempted": s["attempted"],
                       "failed": s["failed"], "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        s = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report(s)))
    print(result_json(s), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
