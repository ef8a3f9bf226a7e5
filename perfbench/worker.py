"""One benchmark process: set up, then optionally run one workload call.

Usage: ``python3 perfbench/worker.py <mode> <workload> <seed> <spans dir>
[<seconds>]``

Every mode first sets up: imports plus ``generate_logs``, timed as
``setup_s``.  Modes:

* ``call`` - setup, then the workload's fixed number of timed calls
  (``Workload.calls``) with tracing off, each in a forked child.  Should
  the program get fast enough that they measure under ``<seconds>``,
  further calls follow until it is reached, up to twice the number;
* ``traced`` - setup, then the call under the span tracer and GC
  accounting; writes the spans under ``<spans dir>``;
* ``memory`` - one call, with what it builds (``layers.RETAINED``) kept
  alive past the timed region; then reports live bytes by layer.
  Keeping them alive only defers their release, so the call's timing is
  that of ``call``.

The last line of standard output is one JSON object with the result.
No process runs two calls: a process that has already run a call has a
larger heap, and later calls in it run measurably slower.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

#: Modules the workloads use, imported during set-up so that no import
#: cost lands inside the timed call.
SETUP_MODULES = (
    "repro.logs.generator",
    "repro.logs.schema",
    "repro.obs.registry",
    "repro.edge.tier",
    "repro.serve",
    "repro.sim.replay",
    "repro.sim.vectorized",
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_call(workload, log, seed: int, tracer=None) -> Dict:
    """Run the workload's call (timed), then check its outputs."""
    t0 = time.perf_counter()
    if tracer is not None:
        output = tracer.root(lambda: workload.entry.call(log, seed))
    else:
        output = workload.entry.call(log, seed)
    call_s = time.perf_counter() - t0
    result = workload.check(log, seed, output)
    return {
        "call_s": call_s,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors,
        "peak_rss_mb": _peak_rss_mb(),
        "counts": result.counts,
        "output": output,
    }


def _in_child(fn: Callable[[], Dict]) -> Dict:
    """Run ``fn`` in a forked child and return its JSON result.

    The child starts from this process's post-setup heap, exactly as a
    fresh process would after the same setup, without paying the setup
    again; its own call's heap never outlives it.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            result = fn()
            result.pop("output")
            payload = json.dumps(result).encode()
            code = 0
        except BaseException:
            traceback.print_exc()
            payload = b""
        finally:
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as inp:
        payload = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"timed call child failed with status {status}")
    return json.loads(payload)


def main(argv) -> int:
    mode, name, seed, spans_dir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if mode == "call":
        seconds = float(argv[4])
    workload = workloads.WORKLOADS[name]
    for module in SETUP_MODULES:
        importlib.import_module(module)
    tracer = None
    if mode == "traced":
        tracer = layers.Tracer()
        tracer.install()
    elif mode == "memory":
        kept = layers.retain_built()
    from repro.logs import generator

    log = generator.generate_logs(config=generator.GeneratorConfig(seed=seed))
    out: Dict[str, Any] = {"setup_s": time.perf_counter() - T_START, "calls": []}
    calls = out["calls"]
    if mode == "call":
        while len(calls) < workload.calls or (
            len(calls) < 2 * workload.calls
            and sum(c["call_s"] for c in calls) < seconds
        ):
            calls.append(_in_child(lambda: _timed_call(workload, log, seed)))
    elif mode in ("traced", "memory"):
        call = _timed_call(workload, log, seed, tracer)
        if tracer is not None:
            call["layers"] = layers.layer_metrics(
                tracer, call["counts"], call["attempted"]
            )
            call["shares"] = layers.shares(tracer)[:12]
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(spans_dir / f"{name}-seed{seed}.spans.jsonl")
        else:
            call["layers"] = layers.live_by_layer()
            del kept
        del call["output"]
        calls.append(call)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
