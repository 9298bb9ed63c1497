#!/usr/bin/env python3
"""Render a perf-trajectory dashboard from rlslb results.jsonl runs.

Input is the JSONL stream `rlslb ... --out=results.jsonl` writes (schema
in docs/EXPERIMENTS.md). The dashboard has four sections:

  1. Per-phase timing -- from each scenario's {"type":"metrics"} record:
     the serve loop's phase counters (serve.phase.<phase>_ns) rendered as
     a table plus a stacked ASCII bar, so "where did the epoch go" is one
     glance. Works on any <prefix>.phase.<name>_ns vocabulary, not just
     serve.
  2. Counters / gauges / histograms / sketches -- the rest of the metrics
     record: merged counter values, final gauges, fixed-bucket histograms
     (with explicit underflow/overflow rows) and streaming quantile
     sketches as compact rows.
  3. Conformance -- each scenario's {"type":"conformance"} summary (check
     and anomaly counts, gap/latency sketch quantiles) plus a table of
     the individual {"type":"anomaly"} records.
  4. Capacity frontier -- each scenario's {"type":"frontier"} cells
     (serve_capacity's n x load-factor x trace sweep): a per-cell table
     (gap, events/sec, p99 ns/event, bytes/ball, peak RSS, budget-skip
     status) plus ASCII heatmaps over the (n, load) grid per trace, one
     for final gap and one for bytes/ball, so the frontier shape is
     visible without opening a notebook.
  5. Perf trajectory -- scenario wall-clocks and events/sec for the
     current run, and, when prior runs are passed with --prior (oldest
     first, e.g. the sha-keyed CI artifacts), a per-scenario trend table
     AND an ASCII trend plot across the rolling window with anomaly
     markers (o = clean run, w = warn-level anomalies, E = error-level).

Everything here is presentation: the gating logic lives in
scripts/compare_results.py. Typical use:

    rlslb run serve_poisson --conformance=on --out=results.jsonl
    scripts/perf_report.py results.jsonl

    # CI: current against the last three artifacts
    scripts/perf_report.py results.jsonl \
        --prior run-3.jsonl --prior run-2.jsonl --prior run-1.jsonl
"""

import argparse
import json
import sys

BAR_WIDTH = 40
PLOT_HEIGHT = 7
MAX_ANOMALY_ROWS = 20


def load_run(path):
    """Parse one results.jsonl into {scenario: {...}} plus run-level info."""
    run = {"scenarios": {}, "manifest": None, "path": path}

    def scen(name):
        return run["scenarios"].setdefault(
            name, {"metrics": None, "wall_s": None, "events_per_sec": None,
                   "events": None, "conformance": None, "anomalies": [],
                   "frontier": []})

    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{lineno}: not valid JSON: {e}")
            t = rec.get("type")
            if t == "manifest":
                run["manifest"] = rec
            elif t == "metrics":
                scen(rec["scenario"])["metrics"] = rec
            elif t == "anomaly":
                scen(rec.get("scenario", "?"))["anomalies"].append(rec)
            elif t == "conformance":
                scen(rec["scenario"])["conformance"] = rec
            elif t == "frontier":
                scen(rec["scenario"])["frontier"].append(rec)
            elif t == "scenario_end":
                scen(rec["scenario"])["wall_s"] = float(rec["wall_s"])
            elif t == "throughput":
                s = scen(rec["scenario"])
                s["events_per_sec"] = float(rec["events_per_sec"])
                s["events"] = rec.get("events")
    if not run["scenarios"]:
        sys.exit(f"{path}: no scenario records found")
    return run


def fmt_ns(ns):
    if ns >= 1e9:
        return f"{ns / 1e9:.3f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.3f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.3f} us"
    return f"{ns:.0f} ns"


def fmt_si(v):
    """Compact magnitude label for plot axes (36.8M, 1.2k, 0.43)."""
    for div, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(v) >= div:
            return f"{v / div:.1f}{suffix}"
    return f"{v:.3g}"


def anomaly_marker(scenario_data):
    """One plot marker per run: E > w > o by worst severity present."""
    severities = {a.get("severity") for a in scenario_data.get("anomalies", [])}
    if "error" in severities:
        return "E"
    if "warn" in severities:
        return "w"
    return "o"


def phase_rows(counters):
    """[(phase, ns)] from <prefix>.phase.<name>_ns counters, input order."""
    rows = []
    for name, value in counters.items():
        if ".phase." in name and name.endswith("_ns"):
            phase = name.split(".phase.", 1)[1][:-len("_ns")]
            rows.append((phase, int(value)))
    return rows


def print_phase_timing(scenario, counters):
    rows = phase_rows(counters)
    total = sum(ns for _, ns in rows)
    if total <= 0:
        return
    print(f"\n  per-phase timing -- {scenario} "
          f"(instrumented loop time {fmt_ns(total)})")
    print(f"    {'phase':10} {'time':>12} {'share':>7}  stacked")
    for phase, ns in rows:
        share = ns / total
        bar = "#" * max(1, round(share * BAR_WIDTH)) if ns > 0 else ""
        print(f"    {phase:10} {fmt_ns(ns):>12} {share:7.1%}  {bar}")


def print_sketches(scenario, sketches, title="sketches"):
    live = {k: v for k, v in sketches.items()
            if isinstance(v, dict) and v.get("count", 0) > 0}
    if not live:
        return
    width = max(max(len(k) for k in live), len("sketch"))
    print(f"\n  {title} -- {scenario} (streaming quantiles)")
    print(f"    {'sketch':{width}} {'count':>10} {'min':>10} {'p50':>10}"
          f" {'p90':>10} {'p99':>10} {'p999':>10} {'max':>10}")
    for name, s in live.items():
        print(f"    {name:{width}} {s.get('count', 0):>10,}"
              f" {s.get('min', 0):>10,} {s.get('p50', 0):>10,}"
              f" {s.get('p90', 0):>10,} {s.get('p99', 0):>10,}"
              f" {s.get('p999', 0):>10,} {s.get('max', 0):>10,}")


def print_counters(scenario, metrics):
    counters = {k: v for k, v in metrics.get("counters", {}).items()
                if ".phase." not in k}
    gauges = metrics.get("gauges", {})
    hists = metrics.get("histograms", {})
    if counters:
        print(f"\n  counters -- {scenario}")
        width = max(len(k) for k in counters)
        for name, value in counters.items():
            print(f"    {name:{width}} {value:>14,}")
    if gauges:
        print(f"\n  gauges -- {scenario}")
        width = max(len(k) for k in gauges)
        for name, value in gauges.items():
            print(f"    {name:{width}} {value:>14g}")
    for name, h in hists.items():
        bounds = h.get("bounds", [])
        counts = h.get("counts", [])
        underflow = h.get("underflow", 0)
        overflow = h.get("overflow", 0)
        total = h.get("total", sum(counts) + underflow + overflow)
        if total <= 0:
            continue
        print(f"\n  histogram -- {scenario} {name} (n={total})")
        rows = []
        if bounds and underflow > 0:
            rows.append((f"<{bounds[0]}", underflow))
        rows += [(f"<={b}", c) for b, c in zip(bounds, counts)]
        if overflow > 0:
            rows.append((f">{bounds[-1]}" if bounds else ">all", overflow))
        peak = max((c for _, c in rows), default=0)
        for label, count in rows:
            if count == 0:
                continue
            bar = "#" * max(1, round(count / peak * BAR_WIDTH)) if peak else ""
            print(f"    {label:>8} {count:>10,}  {bar}")
    print_sketches(scenario, metrics.get("sketches", {}))


def print_conformance(scenario, data):
    conf = data.get("conformance")
    anomalies = data.get("anomalies", [])
    if conf is None and not anomalies:
        return
    if conf is not None:
        tallies = conf.get("anomalies", {})
        print(f"\n  conformance -- {scenario}: {conf.get('checks', 0):,} checks"
              f" by {conf.get('monitors', 0)} monitors --"
              f" {tallies.get('warn', 0)} warn, {tallies.get('error', 0)} error"
              + (f", {tallies.get('dropped', 0)} dropped"
                 if tallies.get("dropped", 0) else ""))
        print_sketches(scenario,
                       {k: conf[k] for k in ("gap", "latency_ns_per_event")
                        if isinstance(conf.get(k), dict)},
                       title="conformance sketches")
    if anomalies:
        print(f"\n  anomalies -- {scenario} ({len(anomalies)})")
        print(f"    {'sev':5} {'monitor':17} {'metric':12} {'step':>9}"
              f" {'value':>12} {'bound':>12}  detail")
        for a in anomalies[:MAX_ANOMALY_ROWS]:
            print(f"    {a.get('severity', '?'):5}"
                  f" {a.get('monitor', '?'):17}"
                  f" {a.get('metric', '?'):12}"
                  f" {a.get('step', 0):>9,}"
                  f" {a.get('value', 0):>12g} {a.get('bound', 0):>12g}"
                  f"  {a.get('detail', '')}")
        if len(anomalies) > MAX_ANOMALY_ROWS:
            print(f"    ... and {len(anomalies) - MAX_ANOMALY_ROWS} more")


HEAT_SHADES = " .:-=+*#%@"


def heat_char(value, lo, hi):
    """Shade character for value scaled into [lo, hi]."""
    if value is None:
        return " "
    if hi <= lo:
        return HEAT_SHADES[-1]
    frac = (value - lo) / (hi - lo)
    return HEAT_SHADES[min(len(HEAT_SHADES) - 1, int(frac * len(HEAT_SHADES)))]


def print_frontier_heatmap(title, ns, loads, grid, fmt):
    """Numeric (n x load) grid, each cell suffixed with its heat shade."""
    values = [v for row in grid for v in row if v is not None]
    if not values:
        return
    lo, hi = min(values), max(values)
    cell_w = max([len("load=" + fmt_si(l)) for l in loads]
                 + [len(fmt(v)) + 1 for v in values])
    label_w = max(len("n=" + fmt_si(n)) for n in ns)
    print(f"\n    {title} (heat {HEAT_SHADES[0]!r} low .. '@' high; "
          f"range {fmt(lo)}..{fmt(hi)})")
    header = " " * (4 + label_w)
    for load in loads:
        header += f" {'load=' + fmt_si(load):>{cell_w}}"
    print(header)
    for i, n in enumerate(ns):
        row = f"    {'n=' + fmt_si(n):>{label_w}}"
        for j in range(len(loads)):
            v = grid[i][j]
            cell = fmt(v) + heat_char(v, lo, hi) if v is not None else "-"
            row += f" {cell:>{cell_w}}"
        print(row)


def print_frontier(scenario, cells):
    if not cells:
        return
    print(f"\n  capacity frontier -- {scenario} ({len(cells)} cells)")
    print(f"    {'n':>10} {'load':>5} {'trace':28} {'gap':>4}"
          f" {'ev/s':>8} {'p99/ev':>9} {'B/ball':>7} {'rss':>7}  status")
    for c in sorted(cells, key=lambda c: (c.get("trace", ""),
                                          c.get("n", 0),
                                          c.get("load_factor", 0))):
        if c.get("skipped"):
            status = (f"SKIPPED est {fmt_si(c.get('estimated_bytes', 0))}B >"
                      f" budget {fmt_si(c.get('budget_bytes', 0))}B")
            print(f"    {c.get('n', 0):>10,} {c.get('load_factor', 0):>5g}"
                  f" {c.get('trace', '?')[:28]:28}"
                  f" {'-':>4} {'-':>8} {'-':>9} {'-':>7} {'-':>7}  {status}")
            continue
        print(f"    {c.get('n', 0):>10,} {c.get('load_factor', 0):>5g}"
              f" {c.get('trace', '?')[:28]:28}"
              f" {c.get('final_gap', 0):>4}"
              f" {fmt_si(c.get('events_per_sec', 0)):>8}"
              f" {fmt_ns(c.get('p99_ns_event', 0)):>9}"
              f" {c.get('bytes_per_ball', 0):>7.1f}"
              f" {fmt_si(c.get('peak_rss_bytes', 0)) + 'B':>7}  ok")

    # Heatmaps over the (n, load) grid, one group per trace.
    groups = {}
    for c in cells:
        if c.get("skipped"):
            continue
        groups.setdefault(c.get("trace", "?"), []).append(c)
    for trace, group in sorted(groups.items()):
        ns = sorted({c["n"] for c in group})
        loads = sorted({c["load_factor"] for c in group})
        if len(ns) < 2 and len(loads) < 2:
            continue  # a single cell has no shape to render
        by_cell = {(c["n"], c["load_factor"]): c for c in group}
        for metric, fmt in (("final_gap", lambda v: f"{v:g}"),
                            ("bytes_per_ball", lambda v: f"{v:.1f}")):
            grid = [[by_cell.get((n, l), {}).get(metric) for l in loads]
                    for n in ns]
            print_frontier_heatmap(
                f"{metric} -- trace {trace}",
                ns, loads, grid, fmt)


def print_trend_plot(name, series, markers):
    """ASCII trend plot: one column per run, marker = anomaly severity."""
    values = [v for v in series if v is not None]
    if len(values) < 2:
        return
    lo, hi = min(values), max(values)
    span = hi - lo
    width = 3 * len(series)
    grid = [[" "] * width for _ in range(PLOT_HEIGHT)]
    for i, v in enumerate(series):
        if v is None:
            continue
        frac = (v - lo) / span if span > 0 else 0.5
        row = (PLOT_HEIGHT - 1) - round(frac * (PLOT_HEIGHT - 1))
        grid[row][3 * i + 1] = markers[i]
    label_width = max(len(fmt_si(hi)), len(fmt_si(lo)))
    print(f"\n  trend -- {name} events/s ({len(series)} runs, oldest -> "
          "current; o clean, w warn anomalies, E error anomalies)")
    for r, cells in enumerate(grid):
        if r == 0:
            label = fmt_si(hi)
        elif r == PLOT_HEIGHT - 1:
            label = fmt_si(lo)
        else:
            label = ""
        print(f"    {label:>{label_width}} |{''.join(cells).rstrip()}")
    print(f"    {'':>{label_width}} +{'-' * width}")


def print_trajectory(current, priors):
    """Wall + throughput across the rolling window, oldest -> current."""
    runs = priors + [current]
    names = sorted({n for run in runs for n in run["scenarios"]})
    print("\nperf trajectory (oldest -> current"
          + (f"; {len(priors)} prior runs" if priors else "") + ")")
    header = f"  {'scenario':24} {'metric':>9}"
    for run in runs:
        tag = "current" if run is current else run["path"].rsplit("/", 1)[-1][:12]
        header += f" {tag:>12}"
    print(header + ("   trend" if priors else ""))
    for name in names:
        for metric, key, fmt in (("wall_s", "wall_s", "{:>12.3f}"),
                                 ("events/s", "events_per_sec", "{:>12.0f}")):
            series = [run["scenarios"].get(name, {}).get(key) for run in runs]
            if all(v is None for v in series):
                continue
            row = f"  {name:24} {metric:>9}"
            for v in series:
                row += fmt.format(v) if v is not None else f" {'-':>11}"
            if priors:
                pts = [v for v in series if v is not None]
                if len(pts) >= 2 and pts[0] > 0:
                    change = pts[-1] / pts[0] - 1.0
                    row += f"  {change:+6.1%}"
            print(row)
    if not priors:
        return
    # Rolling-window plots: throughput trend per scenario, each run's
    # column marked by the worst anomaly severity it recorded.
    for name in names:
        series = [run["scenarios"].get(name, {}).get("events_per_sec")
                  for run in runs]
        markers = [anomaly_marker(run["scenarios"].get(name, {}))
                   for run in runs]
        print_trend_plot(name, series, markers)
        for run, marker in zip(runs, markers):
            if marker == "o":
                continue
            data = run["scenarios"].get(name, {})
            errors = sum(1 for a in data.get("anomalies", [])
                         if a.get("severity") == "error")
            warns = sum(1 for a in data.get("anomalies", [])
                        if a.get("severity") == "warn")
            tag = "current" if run is current else run["path"].rsplit("/", 1)[-1]
            print(f"      [{marker}] {tag}: {errors} error, {warns} warn")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("results", help="results.jsonl from an rlslb --out= run")
    ap.add_argument("--prior", metavar="PATH", action="append", default=[],
                    help="prior results.jsonl (repeatable, oldest first) for "
                         "the rolling-window trend section")
    ap.add_argument("--no-metrics", action="store_true",
                    help="skip the per-scenario metrics sections (trajectory only)")
    args = ap.parse_args()

    current = load_run(args.results)
    priors = [load_run(p) for p in args.prior]

    m = current["manifest"]
    if m:
        print(f"run: {args.results} -- {m.get('tool', 'rlslb')} "
              f"{m.get('version', '?')} @ {m.get('git_sha', '?')}, "
              f"{m.get('build_type', '?')}, seed {m.get('seed', '?')}, "
              f"scale {m.get('scale', '?')}, "
              f"threads {m.get('threads_resolved', '?')}, "
              f"host {m.get('host', '?')}")
    else:
        print(f"run: {args.results} (no manifest record)")

    if not args.no_metrics:
        for name in sorted(current["scenarios"]):
            data = current["scenarios"][name]
            if data["metrics"] is not None:
                print_phase_timing(name, data["metrics"].get("counters", {}))
                print_counters(name, data["metrics"])
            print_conformance(name, data)
            print_frontier(name, data.get("frontier", []))

    print_trajectory(current, priors)


if __name__ == "__main__":
    main()
