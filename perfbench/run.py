"""fedmarket benchmark: run one seeded workload, print its metrics as one JSON line.

    python3 perfbench/run.py --workload fedcdc-default --seed 7 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured
untraced; ``--trace 1`` prints its per-layer metrics from traced repeats and
writes their spans to .perfbench_out/<workload>-spans.csv. ``--smoke`` runs
the same code at tiny sizes. ``--pin-reference`` rewrites the per-seed
accuracy and output digests in perfbench/reference.json. The library is
imported from src/ of the checkout this file sits in.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    parser.add_argument("--pin-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.pin_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def _import_library() -> None:
    """Import fedmarket from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fedmarket

    if Path(fedmarket.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"fedmarket resolved to {fedmarket.__file__}, not under {src}")


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text(encoding="utf-8").splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _environment(nproc: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "blas_threads": os.environ[THREAD_VARS[0]],
        "loadavg": os.getloadavg(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(nproc)
    try:
        _import_library()
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_ROOT.mkdir(exist_ok=True)
    if args.pin_reference:
        workloads.pin_reference(OUT_ROOT)
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    environment = _environment(nproc)
    traced = bool(args.trace)
    if args.workload == workloads.ALLIANCE_WORKLOAD:
        outcome = workloads.run_alliance(args.seed, args.seconds, traced, args.smoke, OUT_ROOT)
    else:
        outcome = workloads.run_sim(args.workload, args.seed, args.seconds, traced, args.smoke,
                                    OUT_ROOT)
    if not traced and outcome.metrics:
        outcome.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wanted = spec["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if not outcome.metrics:
        print("error: no operation completed; no metrics to report", file=sys.stderr)
        return 1
    if set(outcome.metrics) != set(units):
        print(f"error: metrics {sorted(set(outcome.metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "ops_failed_frac": outcome.failed / outcome.attempted,
        **outcome.info,
        "environment": environment,
    }
    for name in units:
        print(f"{name:<40} {outcome.metrics[name]:>16.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": outcome.metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
