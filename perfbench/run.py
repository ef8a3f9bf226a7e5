"""Host-cost benchmark of the pocket-cloudlet simulator.

Measures what the simulator costs to run, never what the simulated phone
would take: simulated latency, hit rate, sheds and joules are model
outputs, checked for correctness (see ``workloads.py``) and never
reported as performance.

Usage, from the repository root::

    python3 perfbench/run.py [--workload serve_fleet] [--seed 23] \\
        [--seconds 8] [--trace 0]

Without ``--workload`` it runs all four workloads, one after the other.

Every process (``worker.py``) runs after the previous one has ended,
so load comes from one process and one thread at a time.

``--trace 0`` reports the end-to-end metrics.  One process sets up and
runs the workload's fixed number of timed calls (more only if they
measure under ``--seconds``), each in a forked child.  The metrics:

* ``ops_per_s`` - median over the calls of operations resolved per host
  wall second of the timed call (a submitted request, completed or shed, on ``serve_*``; a
  replayed log event on ``replay_daily``);
* ``setup_s`` - host seconds before the timed call: imports plus
  ``generate_logs`` of the seeded log;
* ``peak_rss_mb`` - median over the calls of the peak resident set of
  the process that ran the call.

A run sets up once: ``generate_logs`` is 95% of a set-up and costs the
same again in a process that has already run it, so each further
``setup_s`` sample would cost as much as a timed call (~7 s).

``fail_frac`` (operations neither completed nor shed, or every operation
of a call whose output check failed, over those attempted) is printed
by name and carried by the ``failed`` / ``attempted`` fields.

``--trace 1`` reports the per-layer metrics of ``layers.PER_LAYER`` from
two processes: a traced call (spans, self times, GC pauses; the spans
are written under ``.perfbench_out/``) and an untraced call, which is
the reference for ``trace.ops_ratio`` (the tracing overhead) and is
followed by the memory pass (live bytes by owning ``repro.<layer>`` at
the end of the call, see ``layers.live_by_layer``).  Layers a workload
does not run report 0.

The last line of standard output is the JSON result.  The exit code is
0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

#: Seconds from a run's start by which its worker processes must have
#: ended, or are killed (the whole run must end within 180 s).
DEADLINE_S = 165.0
SPANS_DIR = ROOT / ".perfbench_out"


class WorkerError(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, timeout: float, *args) -> Dict:
    """Run one worker process to completion and return its result."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        # One thread: the benchmark generates all load from one thread.
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed),
           str(SPANS_DIR), *map(str, args)]
    # A session of its own, so that a kill also reaches the worker's
    # forked call child.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise WorkerError(f"{mode} worker exceeded {timeout:.0f} s") from exc
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _ops_per_s(result: Dict) -> float:
    return (result["attempted"] - result["failed"]) / result["call_s"]


def end_to_end(result: Dict) -> Dict[str, tuple]:
    calls = result["calls"]
    return {
        "ops_per_s": (statistics.median(_ops_per_s(c) for c in calls), "1/s"),
        "setup_s": (result["setup_s"], "s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in calls), "MB"),
    }


def per_layer(workload: str, seed: int) -> tuple:
    start = time.monotonic()
    remaining = lambda: start + DEADLINE_S - time.monotonic()  # noqa: E731
    reference = spawn("memory", workload, seed, remaining())
    traced = spawn("traced", workload, seed, remaining())
    ref_call, traced_call = reference["calls"][0], traced["calls"][0]
    values = dict(traced_call["layers"], **ref_call["layers"])
    values["trace.ops_ratio"] = values["trace.ops_per_s"] / _ops_per_s(ref_call)
    metrics = {
        name: (values[name], unit) for name, unit, _better in layers.PER_LAYER
    }
    ranks = {
        name[: -len(".tail_pct")] + ".ms_tail": value
        for name, value in values.items()
        if name.endswith(".tail_pct")
    }
    return [reference, traced], metrics, traced_call["shares"], ranks


def measure(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Run one workload, print its metrics and the JSON result line."""
    try:
        if trace:
            results, metrics, shares, ranks = per_layer(workload, seed)
        else:
            results = [spawn("call", workload, seed, DEADLINE_S, seconds)]
            metrics, shares, ranks = end_to_end(results[0]), [], {}
    except WorkerError as exc:
        print(f"{workload}: {exc}", file=sys.stderr)
        return 2

    calls = [c for r in results for c in r["calls"]]
    attempted = sum(r["attempted"] for r in calls)
    failed = sum(r["failed"] for r in calls)
    errors = [e for r in calls for e in r["errors"]]
    print(f"{workload} seed={seed}: {len(calls)} timed call(s),"
          f" {len(results)} set-up(s), {calls[0]['attempted']} operations"
          " per call")
    for name, (value, unit) in metrics.items():
        rank = f" (p{ranks[name]:.1f})" if ranks.get(name) else ""
        print(f"  {name:34s} {value:14.6g} {unit}{rank}")
    print(f"  {'fail_frac':34s} {failed / attempted:14.6g} ratio"
          f" ({failed} of {attempted})")
    print("  samples: setup_s "
          + " ".join(f"{r['setup_s']:.3f}" for r in results)
          + "; call_s " + " ".join(f"{r['call_s']:.3f}" for r in calls))
    for name, self_s, share in shares:
        print(f"  self time {name:28s} {self_s:10.4f} s {100 * share:6.2f}%")
    for error in errors:
        print(f"  CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if not errors else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=["all", *workloads.WORKLOADS],
        help="one workload, or all four one after the other (default)",
    )
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    return max(measure(name, args.seed, args.seconds, args.trace) for name in names)


if __name__ == "__main__":
    sys.exit(main())
