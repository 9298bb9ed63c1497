#!/usr/bin/env python3
"""Compare a results.jsonl run against the committed perf baseline.

CI runs `rlslb all --scale=small --out=results.jsonl` and calls

    scripts/compare_results.py results.jsonl BENCH_baseline.json

The baseline stores per-scenario wall-clock seconds (the "scenario_end"
records) and, for the serving scenarios, per-scenario events/sec (the
"throughput" records; schema in docs/EXPERIMENTS.md). Because CI machines
and the machine that produced the baseline differ in speed, absolute
numbers are not comparable; instead the check normalizes by the run's
median speed ratio over the wall-clock scenarios:

    ratio_i = current_i / baseline_i          (per scenario)
    speed   = median(ratio_i)                 (machine-speed factor)
    fail if ratio_i > speed * (1 + tolerance) for any scenario

i.e. a scenario fails when it regressed >20% relative to how the rest of
the suite moved. Scenarios faster than --min-wall in the baseline are
skipped for the *wall-clock* gate (too noisy); the serving scenarios are
still gated through their throughput metric, which uses the same machine
normalization inverted and a wider tolerance (the loops measure
sub-second windows):

    slowdown_i = baseline_eps_i / current_eps_i
    fail if slowdown_i > speed * (1 + throughput_tolerance)

Limitation: a *uniform* slowdown across every scenario is
indistinguishable from a slower machine and will not trip either gate;
the uploaded artifact keeps the absolute numbers for human trend review.
To narrow that blind spot, the check also inspects the *absolute*
(un-normalized) ratios: when every gated scenario drifts in the same
direction by more than --trend-threshold, it prints a non-gating
WARNING (a uniform drift is either a machine-speed change or exactly
the regression the normalization hides -- a human should look).

Prior-run trend line: CI uploads every run's results.jsonl as an artifact
keyed by git sha. Passing runs back in, OLDEST FIRST, with

    scripts/compare_results.py results.jsonl BENCH_baseline.json \
        --prior run-3.jsonl --prior run-2.jsonl --prior run-1.jsonl

prints a non-gating current-vs-newest-prior table. Two runs from the same
runner class are far closer in machine speed than either is to the
committed baseline, so this is the sharpest view of what a single commit
changed -- but runners are not identical, so it stays a trend line, never
a gate.

With at least --drift-window priors (default 3) the rolling window is
also scanned for SUSTAINED drift: a scenario that moved in the same
direction across every one of the last --drift-window run-to-run steps
AND by more than --trend-threshold in total is flagged (WARNING when
slower -- a creeping regression the per-commit noise hides; note when
faster). Passing --drift-gate promotes that warning to a gating FAILURE
whenever enough priors are present to make the scan meaningful (fewer
priors leave it a warning: the window cannot be evaluated, and a red CI
on missing artifacts would train people to delete the flag). When every
gated scenario sustains a speedup, the check suggests regenerating the
baseline with --write-baseline, since a stale slow baseline widens every
later gate.

Regenerate the baseline after an intentional perf change:

    scripts/compare_results.py results.jsonl --write-baseline BENCH_baseline.json
"""

import argparse
import json
import statistics
import sys

def load_metrics(jsonl_path):
    """(scenario -> wall seconds, scenario -> events/sec) from the run."""
    walls = {}
    throughput = {}
    with open(jsonl_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{jsonl_path}:{lineno}: not valid JSON: {e}")
            if rec.get("type") == "scenario_end":
                walls[rec["scenario"]] = float(rec["wall_s"])
            elif rec.get("type") == "throughput":
                throughput[rec["scenario"]] = float(rec["events_per_sec"])
    if not walls:
        sys.exit(f"{jsonl_path}: no scenario_end records (was the run aborted?)")
    return walls, throughput


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("results", help="results.jsonl from an `rlslb all --out=` run")
    ap.add_argument("baseline", nargs="?", help="committed BENCH_baseline.json")
    ap.add_argument("--write-baseline", metavar="PATH",
                    help="write PATH from the results instead of comparing")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed relative regression (default 0.20 = 20%%)")
    ap.add_argument("--min-wall", type=float, default=0.7,
                    help="skip scenarios below this baseline wall-clock in "
                         "seconds for the wall-clock gate (default 0.7; "
                         "sub-second scenarios show ~20%% run-to-run spread, "
                         "the same order as the gate itself)")
    ap.add_argument("--throughput-tolerance", type=float, default=0.35,
                    help="allowed machine-normalized events/sec regression "
                         "(default 0.35; wider than --tolerance because the "
                         "serving loops measure sub-second windows)")
    ap.add_argument("--prior", metavar="PATH", action="append", default=[],
                    help="results.jsonl from a prior run (the sha-keyed CI "
                         "artifact); repeatable, pass oldest first. Prints a "
                         "non-gating current-vs-newest-prior trend table and, "
                         "with >= --drift-window priors, scans the rolling "
                         "window for sustained drift")
    ap.add_argument("--drift-window", type=int, default=3,
                    help="number of consecutive run-to-run steps that must "
                         "move the same way (on top of a total change beyond "
                         "--trend-threshold) before drift counts as sustained "
                         "(default 3)")
    ap.add_argument("--drift-gate", action="store_true",
                    help="promote the sustained-drift WARNING to a gating "
                         "failure when >= --drift-window priors are supplied "
                         "(with fewer priors the scan cannot run and the flag "
                         "is a no-op, so CI can always pass it)")
    ap.add_argument("--trend-threshold", type=float, default=0.10,
                    help="non-gating uniform-drift warning: fires when every "
                         "gated scenario's absolute ratio moves the same way "
                         "by more than this (default 0.10 = 10%%)")
    args = ap.parse_args()

    walls, throughput = load_metrics(args.results)

    if args.write_baseline:
        payload = {
            "comment": "per-scenario wall-clock + events/sec baseline for "
                       "scripts/compare_results.py; regenerate with "
                       "--write-baseline after intentional perf changes",
            "flags": "rlslb all --scale=small",
            "scenarios": {name: round(w, 4) for name, w in sorted(walls.items())},
            "throughput": {name: round(eps, 1)
                           for name, eps in sorted(throughput.items())},
        }
        with open(args.write_baseline, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"wrote {args.write_baseline} with {len(walls)} scenarios "
              f"({len(throughput)} with throughput)")
        return

    if not args.baseline:
        sys.exit("either a baseline to compare against or --write-baseline is required")
    with open(args.baseline, encoding="utf-8") as f:
        baseline_doc = json.load(f)
    baseline = baseline_doc["scenarios"]
    baseline_throughput = baseline_doc.get("throughput", {})

    missing = sorted(set(baseline) - set(walls))
    if missing:
        sys.exit(f"FAIL: scenarios in the baseline but absent from the run: {missing}")
    added = sorted(set(walls) - set(baseline))
    if added:
        print(f"note: scenarios not in the baseline (skipped): {added}")

    gated = {n: w for n, w in walls.items()
             if n in baseline and baseline[n] >= args.min_wall}
    skipped = sorted(n for n in walls if n in baseline and baseline[n] < args.min_wall)
    if skipped:
        print(f"note: below --min-wall={args.min_wall}s in the baseline, "
              f"wall-clock not gated: {skipped}")
    if not gated:
        sys.exit("FAIL: no scenario exceeds --min-wall; the baseline is too small to gate on")

    ratios = {n: w / baseline[n] for n, w in gated.items()}
    speed = statistics.median(ratios.values())
    limit = speed * (1.0 + args.tolerance)

    print(f"machine-speed factor (median wall ratio): {speed:.3f}; "
          f"per-scenario limit: {limit:.3f}x baseline")
    print(f"{'scenario':24} {'baseline_s':>10} {'current_s':>10} {'ratio':>7} "
          f"{'vs median':>9}  verdict")
    failures = []
    for name in sorted(ratios):
        ratio = ratios[name]
        rel = ratio / speed
        verdict = "ok"
        if ratio > limit:
            verdict = "REGRESSION"
            failures.append(name)
        print(f"{name:24} {baseline[name]:10.3f} {walls[name]:10.3f} {ratio:7.3f} "
              f"{rel:9.3f}  {verdict}")

    # Throughput gate (serving scenarios): a drop in events/sec beyond what
    # the machine-speed factor explains is a regression, regardless of the
    # scenario's absolute wall-clock.
    throughput_missing = sorted(set(baseline_throughput) - set(throughput))
    if throughput_missing:
        sys.exit("FAIL: scenarios with baseline throughput but no throughput "
                 f"record in the run: {throughput_missing}")
    if baseline_throughput:
        thr_limit = speed * (1.0 + args.throughput_tolerance)
        print(f"throughput limit: {thr_limit:.3f}x baseline slowdown "
              f"(tolerance {args.throughput_tolerance:.0%})")
        print(f"{'scenario':24} {'base_ev/s':>12} {'cur_ev/s':>12} {'slowdown':>9} "
              f"{'vs median':>9}  verdict")
        for name in sorted(baseline_throughput):
            if throughput[name] <= 0:
                failures.append(name)
                print(f"{name:24} {baseline_throughput[name]:12.0f} "
                      f"{throughput[name]:12.0f} {'inf':>9} {'inf':>9}  REGRESSION")
                continue
            slowdown = baseline_throughput[name] / throughput[name]
            rel = slowdown / speed
            verdict = "ok"
            if slowdown > thr_limit:
                verdict = "REGRESSION"
                failures.append(name)
            print(f"{name:24} {baseline_throughput[name]:12.0f} "
                  f"{throughput[name]:12.0f} {slowdown:9.3f} {rel:9.3f}  {verdict}")

    # Non-gating uniform-drift trend warning from the ABSOLUTE ratios: the
    # median normalization above cancels any across-the-board movement, so a
    # uniform slowdown sails through the gates -- surface it loudly instead
    # of silently. Throughput slowdowns join the wall-clock ratios (both are
    # "current is slower when > 1").
    drift = list(ratios.values())
    drift += [baseline_throughput[n] / throughput[n]
              for n in baseline_throughput if throughput.get(n, 0) > 0]
    if len(drift) >= 3:
        up = 1.0 + args.trend_threshold
        down = 1.0 - args.trend_threshold
        if all(r > up for r in drift):
            print(f"WARNING: uniform drift -- every gated scenario is >"
                  f"{args.trend_threshold:.0%} slower than the baseline in "
                  f"absolute numbers (min ratio {min(drift):.3f}). The "
                  f"machine-speed normalization cannot distinguish a slower "
                  f"machine from an across-the-board regression; compare the "
                  f"results.jsonl artifact against a recent run from the "
                  f"same runner class before trusting this pass.")
        elif all(r < down for r in drift):
            print(f"note: uniform speedup -- every gated scenario is >"
                  f"{args.trend_threshold:.0%} faster than the baseline in "
                  f"absolute numbers (max ratio {max(drift):.3f}); likely a "
                  f"faster machine, or the baseline is stale.")

    # Non-gating prior-run trend line: absolute comparison against another
    # run's artifact. Same runner class => machine speed mostly cancels, so
    # this is the sharpest per-commit signal available -- but runners are
    # not identical, so it never gates.
    if args.prior:
        priors = [load_metrics(p) for p in args.prior]  # oldest -> newest
        prior_walls, prior_throughput = priors[-1]
        print(f"trend vs prior run ({args.prior[-1]}; absolute, non-gating):")
        print(f"{'scenario':24} {'prior':>12} {'current':>12} {'change':>8}")
        for name in sorted(set(walls) & set(prior_walls)):
            change = walls[name] / prior_walls[name] - 1.0
            print(f"{name:24} {prior_walls[name]:11.3f}s {walls[name]:11.3f}s "
                  f"{change:+8.1%}")
        for name in sorted(set(throughput) & set(prior_throughput)):
            if prior_throughput[name] <= 0:
                continue
            change = throughput[name] / prior_throughput[name] - 1.0
            print(f"{name:24} {prior_throughput[name]:12.0f} "
                  f"{throughput[name]:12.0f} {change:+8.1%}")
        only = sorted((set(walls) ^ set(prior_walls))
                      | (set(throughput) ^ set(prior_throughput)))
        if only:
            print(f"note: scenarios present in only one run: {only}")

        # Rolling-window sustained-drift scan: chronological series
        # [oldest prior, ..., newest prior, current]; a scenario drifts
        # when ALL of the last --drift-window run-to-run steps move the
        # same way and the total movement exceeds --trend-threshold.
        # Per-commit noise flips direction constantly; a monotone window
        # is exactly the creeping change the single-prior table hides.
        window = args.drift_window
        if len(priors) >= window:
            def sustained(series):
                """+total when monotonically slower, -total when faster."""
                if len(series) < window + 1 or any(v <= 0 for v in series):
                    return None
                tail = series[-(window + 1):]
                steps = [b / a for a, b in zip(tail, tail[1:])]
                total = tail[-1] / tail[0]
                if all(s > 1.0 for s in steps) and total > 1.0 + args.trend_threshold:
                    return total
                if all(s < 1.0 for s in steps) and total < 1.0 - args.trend_threshold:
                    return total
                return None

            slower, faster = [], []
            for name in sorted(walls):
                series = [pw[name] for pw, _ in priors if name in pw] + [walls[name]]
                total = sustained(series)
                if total is not None:
                    (slower if total > 1.0 else faster).append((name, total))
            for name in sorted(throughput):
                # events/sec inverted into "slowdown" so >1 means slower.
                series = [1.0 / pt[name] for _, pt in priors
                          if pt.get(name, 0) > 0] + [1.0 / throughput[name]
                                                     if throughput[name] > 0 else 0]
                total = sustained(series)
                if total is not None:
                    (slower if total > 1.0 else faster).append(
                        (f"{name} (throughput)", total))

            if slower:
                severity = "FAIL" if args.drift_gate else "WARNING"
                for name, total in slower:
                    print(f"{severity}: sustained drift -- {name} got slower "
                          f"in each of the last {window} runs "
                          f"({total - 1.0:+.1%} total); a creeping regression "
                          f"the per-commit noise hides. Bisect the window "
                          f"before it compounds.")
                    if args.drift_gate:
                        failures.append(f"{name} (sustained drift)")
            if faster:
                for name, total in faster:
                    print(f"note: sustained speedup -- {name} got faster in "
                          f"each of the last {window} runs "
                          f"({total - 1.0:+.1%} total)")
                gated_names = set(gated) | set(baseline_throughput)
                fast_names = {n.removesuffix(" (throughput)") for n, _ in faster}
                if gated_names and gated_names <= fast_names:
                    print("suggestion: every gated scenario sustains a "
                          "speedup -- the committed baseline looks stale; "
                          "regenerate it with: scripts/compare_results.py "
                          f"{args.results} --write-baseline {args.baseline}")
            if not slower and not faster:
                print(f"rolling window ({window} runs): no sustained drift")
        elif args.drift_gate:
            print(f"note: --drift-gate inactive -- {len(priors)} prior(s) "
                  f"supplied, the sustained-drift scan needs "
                  f">= --drift-window={window}")
    elif args.drift_gate:
        print("note: --drift-gate inactive -- no --prior runs supplied")

    if failures:
        sys.exit(f"FAIL: regression >{args.tolerance:.0%} vs baseline "
                 f"(machine-normalized) in: {sorted(set(failures))}")
    print("OK: no scenario regressed beyond the tolerance")


if __name__ == "__main__":
    main()
