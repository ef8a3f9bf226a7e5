"""``repro top`` — a live terminal view of the serving telemetry.

Renders one screenful from a telemetry snapshot document (the
``serve`` section of ``/metrics.json``): headline rolling stats,
per-bucket sparklines, SLO burn-rate status, and the window's slowest
requests with their full segment breakdowns.

Two data sources:

* ``--url http://HOST:PORT`` — poll a live
  :class:`~repro.obs.exposition.TelemetryEndpoint` every ``--interval``
  seconds and redraw (the classic ``top`` experience);
* ``--snapshot PATH`` — render a snapshot JSON written by
  ``repro loadtest --snapshot-out`` once (deterministic, CI-friendly).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

__all__ = ["render_top", "top_main"]

_SPARKS = "▁▂▃▄▅▆▇█"


def _spark(values: List[float]) -> str:
    """A unicode sparkline; empty values render as spaces."""
    finite = [v for v in values if v is not None and not math.isnan(v)]
    if not finite:
        return ""
    top = max(finite) or 1.0
    out = []
    for v in values:
        if v is None or math.isnan(v):
            out.append(" ")
        else:
            rank = int(v / top * (len(_SPARKS) - 1)) if top else 0
            out.append(_SPARKS[max(0, min(rank, len(_SPARKS) - 1))])
    return "".join(out)


def _spark_line(label: str, series: List[Any], peak_pattern: str) -> str:
    """``label``, the series' sparkline, and its peak (0 when empty)."""
    values = [None if v is None else float(v) for v in series]
    numeric = [v for v in values if v is not None and not math.isnan(v)]
    peak = max(numeric) if numeric else 0.0
    return f"{label:>10} {_spark(values)}  peak {_fmt(peak, peak_pattern)}"


def _fmt(value: Any, pattern: str = "{:.3f}", missing: str = "-") -> str:
    if value is None:
        return missing
    try:
        number = float(value)
    except (TypeError, ValueError):
        return str(value)
    if math.isnan(number):
        return missing
    return pattern.format(number)


def extract_serve_snapshot(doc: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Find the telemetry snapshot inside a ``/metrics.json`` document
    (or accept a bare snapshot)."""
    if "rolling" in doc:
        return doc
    serve = doc.get("serve")
    if isinstance(serve, dict) and "rolling" in serve:
        return serve
    return None


def render_top(snapshot: Dict[str, Any], buckets_shown: int = 60) -> str:
    """One screenful of dashboard text from a telemetry snapshot."""
    rolling = snapshot.get("rolling", {})
    lines: List[str] = []
    lines.append(
        f"repro top — t={_fmt(snapshot.get('t'), '{:.1f}')}s  "
        f"window={_fmt(snapshot.get('window_s'), '{:.0f}')}s "
        f"({_fmt(snapshot.get('bucket_width_s'), '{:g}')}s buckets)"
    )
    lines.append(
        f"rate {_fmt(rolling.get('request_rate_rps'))} req/s  "
        f"completed {_fmt(rolling.get('completed'), '{:.0f}')}  "
        f"hit {_fmt(rolling.get('hit_rate'), '{:.1%}')}  "
        f"shed {_fmt(rolling.get('shed_rate'), '{:.1%}')}  "
        f"inflight {_fmt(rolling.get('inflight'), '{:.0f}')} "
        f"(hwm {_fmt(rolling.get('inflight_hwm'), '{:.0f}')})"
    )
    lines.append(
        f"sojourn p50 {_fmt(rolling.get('sojourn_p50_s'))}s "
        f"p99 {_fmt(rolling.get('sojourn_p99_s'))}s  "
        f"queue p99 {_fmt(rolling.get('queue_wait_p99_s'))}s  "
        f"batch-wait p99 {_fmt(rolling.get('batch_wait_p99_s'))}s  "
        f"batch eff {_fmt(rolling.get('batch_efficiency'), '{:.2f}')}"
    )
    tiers = rolling.get("tiers") or {}
    if any(name != "device" for name in tiers):
        mix = "  ".join(
            f"{name} {_fmt(count, '{:.0f}')}" for name, count in sorted(tiers.items())
        )
        lines.append(
            f"answered by: {mix}  "
            f"edge-hop p99 {_fmt(rolling.get('edge_hop_p99_s'))}s"
        )

    rows = snapshot.get("per_bucket", [])[-buckets_shown:]
    if rows:
        lines.append("")
        for label, key in (
            ("completed", "completed"),
            ("shed", "shed"),
            ("p99 (s)", "sojourn_p99_s"),
        ):
            lines.append(
                _spark_line(label, [row.get(key) for row in rows], "{:g}")
            )

    energy = snapshot.get("energy")
    if energy:
        erolling = energy.get("rolling", {})
        lines.append("")
        lines.append(
            f"energy {_fmt(erolling.get('energy_j_per_query'))} J/query "
            f"(p50 {_fmt(erolling.get('energy_j_p50'))} "
            f"p99 {_fmt(erolling.get('energy_j_p99'))})  "
            f"hit {_fmt(erolling.get('hit_energy_j'))} J  "
            f"miss {_fmt(erolling.get('miss_energy_j'))} J  "
            f"miss/hit {_fmt(erolling.get('hit_miss_energy_ratio'), '{:.1f}')}x  "
            f"{_fmt(erolling.get('power_w'))} W"
        )
        conservation = erolling.get("conservation", {})
        if conservation.get("requests"):
            lines.append(
                "radio ledger: attributed "
                f"{_fmt(conservation.get('attributed_radio_j'), '{:.3f}')} J"
                " vs timeline "
                f"{_fmt(conservation.get('timeline_radio_j'), '{:.3f}')} J"
                "  (error "
                f"{_fmt(conservation.get('conservation_error_j'), '{:.2e}')} J)"
            )
        erows = energy.get("per_bucket", [])[-buckets_shown:]
        if erows:
            source_names = sorted(
                {name for row in erows for name in row.get("sources", {})}
            )
            for label, series in [
                ("power (W)", [row.get("power_w") for row in erows]),
            ] + [
                (
                    f"{name[:7]} (W)",
                    [row.get("sources", {}).get(name, 0.0) for row in erows],
                )
                for name in source_names
            ]:
                lines.append(_spark_line(label, series, "{:.2f}"))
            width_s = float(snapshot.get("bucket_width_s") or 1.0)
            from repro.sim.powertrace import render_trace, segments_from_buckets

            # One chart column per bucket slot (last 60 buckets of time),
            # so samples land on bucket centers and short bursts show.
            last = float(erows[-1]["t_start"])
            trace_rows = [
                row for row in erows
                if float(row["t_start"]) > last - 60 * width_s
            ]
            segments = segments_from_buckets(trace_rows, width_s)
            if segments and any(s.power_w > 0 for s in segments):
                first = float(trace_rows[0]["t_start"])
                span = int(round((last - first) / width_s)) + 1
                lines.append("")
                lines.append(
                    render_trace(
                        segments,
                        width=max(span, 10),
                        height=5,
                        title="radio power trace (window)",
                    )
                )

    batteries = snapshot.get("batteries")
    if batteries and batteries.get("n_devices"):
        lines.append("")
        lines.append(
            f"batteries: {_fmt(batteries.get('n_devices'), '{:.0f}')} devices"
            f"  min {_fmt(batteries.get('min_level'), '{:.1%}')}"
            f"  mean {_fmt(batteries.get('mean_level'), '{:.1%}')}"
            f"  exhausted {_fmt(batteries.get('exhausted'), '{:.0f}')}"
            f"  burn {_fmt(batteries.get('mean_burn_per_day'), '{:.2%}')}/day"
            f"  {_fmt(batteries.get('queries_per_charge'), '{:.0f}')} "
            "queries/charge"
        )
        worst = batteries.get("worst", [])
        if worst:
            lines.append(
                f"  {'device':>7} {'level':>7} {'drained':>9} {'queries':>8} "
                f"{'burn/day':>9} {'q/charge':>9}"
            )
            for row in worst[:8]:
                lines.append(
                    f"  {_fmt(row.get('device_id'), '{:.0f}'):>7} "
                    f"{_fmt(row.get('level'), '{:.1%}'):>7} "
                    f"{_fmt(row.get('drained_j'), '{:.1f}J'):>9} "
                    f"{_fmt(row.get('queries'), '{:.0f}'):>8} "
                    f"{_fmt(row.get('burn_per_day'), '{:.2%}'):>9} "
                    f"{_fmt(row.get('queries_per_charge'), '{:.0f}'):>9}"
                )

    slo = snapshot.get("slo")
    if slo:
        lines.append("")
        lines.append("SLO rules (burn = budget consumption rate; ! = firing)")
        for rule in slo.get("status", []):
            flag = "!" if rule.get("firing") else " "
            lines.append(
                f" {flag} {rule.get('rule', '?'):<20} "
                f"burn L {_fmt(rule.get('burn_long'), '{:.2f}')} "
                f"S {_fmt(rule.get('burn_short'), '{:.2f}')}  "
                f"bad {_fmt(rule.get('bad_fraction'), '{:.3%}')} "
                f"of {_fmt(rule.get('budget'), '{:.2%}')} budget  "
                f"alerts {_fmt(rule.get('alerts'), '{:.0f}')}"
            )

    flight = snapshot.get("flight")
    if flight:
        retained = flight.get("retained", {})
        dropped = flight.get("dropped", {})
        kept = sum(retained.values()) if retained else 0
        lost = sum(dropped.values()) if dropped else 0
        bundles = flight.get("bundles", [])
        line = (
            f"flight recorder: {kept} records retained "
            f"(req {_fmt(retained.get('request'), '{:.0f}')} "
            f"shed {_fmt(retained.get('shed'), '{:.0f}')} "
            f"bkt {_fmt(retained.get('bucket'), '{:.0f}')}), "
            f"{lost} evicted, {len(bundles)} bundle(s)"
        )
        pending = flight.get("pending_trigger")
        if pending:
            line += (
                f"  TRIGGERED: {pending.get('trigger')} "
                f"at t={_fmt(pending.get('t'), '{:.1f}')}s"
            )
        lines.append("")
        lines.append(line)
        for path in bundles:
            lines.append(f"  bundle: {path}")

    exemplars = snapshot.get("exemplars", [])
    if exemplars:
        lines.append("")
        lines.append("slowest requests in window")
        # Edge hop columns only when an edge tier actually served traffic
        # in the window, so the classic layout stays unchanged without one.
        has_edge = any(
            ex.get("edge_node") is not None
            or ex.get("breakdown", {}).get("edge_hop")
            for ex in exemplars
        )
        header = (
            f"  {'trace':>7} {'latency':>9} {'queue':>8} {'refresh':>8} "
        )
        if has_edge:
            header += f"{'e.hop':>8} {'e.serve':>8} "
        header += f"{'batch':>8} {'service':>8}  "
        if has_edge:
            header += "tier   "
        header += "device key"
        lines.append(header)
        for ex in exemplars[:8]:
            breakdown = ex.get("breakdown", {})
            key = str(ex.get("key", ""))[:24]
            row = (
                f"  {_fmt(ex.get('trace_id'), '{:.0f}'):>7} "
                f"{_fmt(ex.get('latency_s')):>9} "
                f"{_fmt(breakdown.get('queue_wait')):>8} "
                f"{_fmt(breakdown.get('refresh_blocked')):>8} "
            )
            if has_edge:
                row += (
                    f"{_fmt(breakdown.get('edge_hop', 0.0)):>8} "
                    f"{_fmt(breakdown.get('edge_serve', 0.0)):>8} "
                )
            row += (
                f"{_fmt(breakdown.get('batch_wait')):>8} "
                f"{_fmt(breakdown.get('service')):>8}  "
            )
            if has_edge:
                tier = str(ex.get("tier", "-"))
                node = ex.get("edge_node")
                if node is not None:
                    tier += f"/{node}"
                row += f"{tier:<6} "
            row += f"{_fmt(ex.get('device_id'), '{:.0f}')} {key}"
            lines.append(row)
    return "\n".join(lines)


def _fetch_snapshot(url: str) -> Optional[Dict[str, Any]]:
    target = url.rstrip("/") + "/metrics.json"
    with urllib.request.urlopen(target, timeout=5) as response:
        return extract_serve_snapshot(json.loads(response.read()))


def top_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Live (or snapshot) terminal view of serving telemetry.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--url", help="base URL of a running telemetry endpoint"
    )
    source.add_argument(
        "--snapshot", metavar="PATH",
        help="render one frame from a snapshot JSON file",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0,
        help="poll period in seconds with --url (default 2)",
    )
    parser.add_argument(
        "--frames", type=int, default=0, metavar="N",
        help="stop after N frames (default 0 = until interrupted; "
        "--snapshot always renders exactly one)",
    )
    args = parser.parse_args(argv)

    if args.snapshot:
        with open(args.snapshot) as fh:
            snapshot = extract_serve_snapshot(json.load(fh))
        if snapshot is None:
            print(
                f"repro top: {args.snapshot} has no telemetry snapshot",
                file=sys.stderr,
            )
            return 2
        try:
            print(render_top(snapshot))
        except BrokenPipeError:  # e.g. piped into head(1)
            sys.stderr.close()
        return 0

    frame = 0
    try:
        while True:
            try:
                snapshot = _fetch_snapshot(args.url)
            except (urllib.error.URLError, OSError) as exc:
                print(f"repro top: {exc}", file=sys.stderr)
                return 1
            frame += 1
            if snapshot is None:
                print("repro top: endpoint returned no serve telemetry")
            else:
                # Clear screen + home between frames, like top(1).
                if args.frames != 1:
                    sys.stdout.write("\x1b[2J\x1b[H")
                print(render_top(snapshot))
                sys.stdout.flush()
            if args.frames and frame >= args.frames:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(top_main())
