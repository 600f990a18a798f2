#!/usr/bin/env python3
"""Gate fresh bench reports against committed baselines.

Usage:
    check_perf_regression.py [--fresh DIR] [--baselines DIR]
                             [--threshold FRACTION] [--require-baselines]
                             [--self-test]

Every ``perf_*.json`` in the baselines directory is matched by filename
against the fresh directory, both files are flattened to ``path -> value``
maps (array elements are keyed by their ``name``/``arm`` entry so
reordering arms never breaks the diff), and each numeric metric whose name
declares a direction (see PERF_METRICS) is compared:

* higher-is-better ("up") metrics fail when fresh < baseline*(1-threshold)
* lower-is-better ("down") metrics fail when fresh > baseline*(1+threshold)
* two-sided ("band") metrics fail when fresh deviates from baseline by
  more than the threshold in either direction — for quantities like
  attacked-MAE inflation where drift either way means the experiment
  changed, not just got slower

A baseline file may carry a top-level ``"_directions"`` object mapping a
full flattened path or a bare leaf name to a direction; annotations win
over the global PERF_METRICS table and let one report gate a metric whose
suffix is too generic to gate everywhere. The ``_directions`` block is
metadata: it is never flattened or compared itself. Every annotation must
resolve against the baseline's own metrics — a key that matches no
flattened path and no leaf name fails the gate loudly instead of silently
gating nothing (the typo/renamed-arm failure mode), as does a direction
outside {up, down, band}.

A baseline may also carry a top-level ``"_epsilons"`` object mapping a
full flattened path or a bare leaf name to a positive absolute cap: the
FRESH value's magnitude must satisfy ``|fresh| <= eps``. This is for
metrics whose healthy value hovers around zero — e.g. ``mae_delta_kmh``,
the accuracy cost of a quantized kernel — where a relative comparison
against a near-zero baseline is meaningless but an absolute band is
exactly the contract ("int8 may move MAE by at most 0.5 km/h"). The same
loud validation applies: unresolvable keys and non-positive caps fail the
gate, the block itself is never compared, and a gated metric vanishing
from the fresh report fails.

Everything else — configuration echoes, counters, booleans — is reported
only when it disappears, because a vanished metric usually means a bench
arm silently stopped running. The default threshold is 15%: wide enough
for shared-runner noise on the --quick workloads, narrow enough to catch a
real pessimization (the obs:: layer's own budget is 2%, enforced by
bench/obs_overhead, not here).

``--self-test`` exercises the comparator itself: it builds a synthetic
baseline, verifies an identical report passes, then injects a 20%
throughput regression and a 20% latency regression and asserts both are
caught — plus band deviations in both directions and a ``_directions``
annotation override. CI runs it via ctest so a broken comparator cannot
silently turn the perf gate green.

Exit codes: 0 clean, 1 regression or missing metric, 2 usage/IO error.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

# Suffix -> direction. A metric participates in gating iff its final path
# component (or that component's prefix before a numeric suffix) appears
# here. "up" = higher is better, "down" = lower is better, "band" = any
# deviation beyond the threshold fails (two-sided).
PERF_METRICS = {
    "anchors_per_sec": "up",
    "samples_per_sec": "up",
    "availability": "up",
    "qps": "up",
    "max_sustainable_qps": "up",
    "speedup_batched_vs_per_anchor": "up",
    "speedup_batched_parallel_vs_per_anchor": "up",
    "recovery_ratio": "up",
    "seconds": "down",
    "seconds_per_call": "down",
    "p50_ms": "down",
    "p99_ms": "down",
    "p50_tick_ms": "down",
    "p99_tick_ms": "down",
    "deadline_miss_rate": "down",
    "clean_mae": "down",
    "mae_inflation": "band",
}

# Latency metrics additionally need the absolute delta to clear this floor
# (in the metric's own unit, ms for *_ms) before a relative regression
# counts: a 0.02ms -> 0.03ms tick is +50% but pure scheduler noise.
ABS_SLACK = {
    "p50_ms": 1.0,
    "p99_ms": 1.0,
    "p50_tick_ms": 1.0,
    "p99_tick_ms": 1.0,
}

# NOTE: obs_overhead's metrics_overhead / metrics_trace_overhead are
# deliberately absent — they are signed ratios hovering around zero, where
# relative comparison is meaningless; bench/obs_overhead gates them in
# absolute terms (<2%) itself.


def flatten(node, prefix=""):
    """JSON tree -> {path: leaf}. List elements with a 'name' or 'arm'
    field are keyed by it; bare lists fall back to the index. The
    ``_directions``/``_epsilons`` annotation blocks are metadata, not
    metrics."""
    out = {}
    if isinstance(node, dict):
        for key, value in sorted(node.items()):
            if key in ("_directions", "_epsilons"):
                continue
            out.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            key = str(idx)
            if isinstance(value, dict):
                for tag in ("name", "arm"):
                    if isinstance(value.get(tag), str):
                        key = value[tag]
                        break
            out.update(flatten(value, f"{prefix}{key}."))
    else:
        out[prefix[:-1]] = node
    return out


def direction_for(path, overrides=None):
    """Resolution order: full-path annotation, leaf annotation, global
    suffix table."""
    leaf = path.rsplit(".", 1)[-1]
    if overrides:
        direction = overrides.get(path, overrides.get(leaf))
        if direction is not None:
            return direction if direction in ("up", "down", "band") else None
    return PERF_METRICS.get(leaf)


def directions_of(report):
    """The report's ``_directions`` annotation block, if well-formed."""
    if isinstance(report, dict) and isinstance(
            report.get("_directions"), dict):
        return report["_directions"]
    return None


def epsilons_of(report):
    """The report's ``_epsilons`` annotation block, if well-formed."""
    if isinstance(report, dict) and isinstance(
            report.get("_epsilons"), dict):
        return report["_epsilons"]
    return None


def epsilon_for(path, epsilons):
    """Absolute cap for a metric: full-path annotation wins over leaf."""
    if not epsilons:
        return None
    leaf = path.rsplit(".", 1)[-1]
    return epsilons.get(path, epsilons.get(leaf))


def compare_report(name, baseline, fresh, threshold):
    """Returns a list of failure strings for one report pair."""
    failures = []
    overrides = directions_of(baseline)
    epsilons = epsilons_of(baseline)
    base_flat = flatten(baseline)
    fresh_flat = flatten(fresh)
    if epsilons:
        leaves = {p.rsplit(".", 1)[-1] for p in base_flat}
        for key, eps in sorted(epsilons.items()):
            if not isinstance(eps, (int, float)) or \
                    isinstance(eps, bool) or eps <= 0:
                failures.append(
                    f"{name}: _epsilons[{key!r}] has invalid cap {eps!r} "
                    "(want a positive number)")
            elif key not in base_flat and key not in leaves:
                failures.append(
                    f"{name}: _epsilons[{key!r}] matches no metric in the "
                    "baseline (typo, or the bench arm stopped emitting "
                    "it?) — the annotation would silently gate nothing")
    if overrides:
        # An annotation that resolves to nothing gates nothing: a typo'd
        # key or a renamed bench arm would silently drop the metric from
        # the gate forever. Fail loudly instead.
        leaves = {p.rsplit(".", 1)[-1] for p in base_flat}
        for key, direction in sorted(overrides.items()):
            if direction not in ("up", "down", "band"):
                failures.append(
                    f"{name}: _directions[{key!r}] has unknown direction "
                    f"{direction!r} (want up/down/band)")
            elif key not in base_flat and key not in leaves:
                failures.append(
                    f"{name}: _directions[{key!r}] matches no metric in "
                    "the baseline (typo, or the bench arm stopped emitting "
                    "it?) — the annotation would silently gate nothing")
    for path, base_value in sorted(base_flat.items()):
        direction = direction_for(path, overrides)
        eps = epsilon_for(path, epsilons)
        if not isinstance(eps, (int, float)) or isinstance(eps, bool) or \
                eps <= 0:
            eps = None  # invalid caps were already reported above
        if direction is None and eps is None:
            continue
        if path not in fresh_flat:
            failures.append(f"{name}: metric {path} vanished from the "
                            "fresh report (bench arm not running?)")
            continue
        fresh_value = fresh_flat[path]
        if not isinstance(base_value, (int, float)) or \
                not isinstance(fresh_value, (int, float)):
            continue
        # Absolute cap: |fresh| <= eps regardless of the baseline value
        # (the baseline of a delta metric is itself near zero).
        if eps is not None and abs(fresh_value) > eps:
            failures.append(
                f"{name}: {path} = {fresh_value:.6g} exceeds the absolute "
                f"cap |x| <= {eps:.6g}")
        if direction is None:
            continue
        if base_value == 0:
            continue  # ratio undefined; overhead metrics near 0 are noise
        if direction == "up" and fresh_value < base_value * (1 - threshold):
            failures.append(
                f"{name}: {path} regressed {base_value:.6g} -> "
                f"{fresh_value:.6g} "
                f"({100 * (fresh_value / base_value - 1):+.1f}%, "
                f"allowed -{threshold:.0%})")
        elif direction == "down" and \
                fresh_value > base_value * (1 + threshold) and \
                fresh_value - base_value > \
                ABS_SLACK.get(path.rsplit(".", 1)[-1], 0.0):
            failures.append(
                f"{name}: {path} regressed {base_value:.6g} -> "
                f"{fresh_value:.6g} "
                f"({100 * (fresh_value / base_value - 1):+.1f}%, "
                f"allowed +{threshold:.0%})")
        elif direction == "band" and \
                abs(fresh_value - base_value) > abs(base_value) * threshold:
            failures.append(
                f"{name}: {path} drifted {base_value:.6g} -> "
                f"{fresh_value:.6g} "
                f"({100 * (fresh_value / base_value - 1):+.1f}%, "
                f"allowed ±{threshold:.0%})")
    return failures


def run(fresh_dir, baseline_dir, threshold, require_baselines=False):
    baseline_paths = sorted(Path(baseline_dir).glob("perf_*.json"))
    if not baseline_paths:
        # In CI the baselines are committed, so an empty directory means
        # the checkout (or the gate's wiring) is broken — a silent pass
        # here would disable the whole perf gate without anyone noticing.
        if require_baselines:
            print(f"FAIL no baselines under {baseline_dir}; the perf gate "
                  "requires committed baselines (git add -f "
                  "bench_out/baselines/*.json)", file=sys.stderr)
            return 1
        print(f"no baselines under {baseline_dir}; nothing to gate",
              file=sys.stderr)
        return 0
    rc = 0
    compared = 0
    for baseline_path in baseline_paths:
        try:
            baseline = json.loads(baseline_path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"FAIL {baseline_path.name}: {err}", file=sys.stderr)
            return 2
        fresh_path = Path(fresh_dir) / baseline_path.name
        if not fresh_path.exists():
            print(f"FAIL {baseline_path.name}: no fresh report at "
                  f"{fresh_path}", file=sys.stderr)
            rc = 1
            continue
        try:
            fresh = json.loads(fresh_path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"FAIL {baseline_path.name}: {err}", file=sys.stderr)
            return 2
        failures = compare_report(baseline_path.name, baseline, fresh,
                                  threshold)
        gated = sum(1 for p in flatten(baseline)
                    if direction_for(p, directions_of(baseline)) or
                    epsilon_for(p, epsilons_of(baseline)) is not None)
        compared += gated
        if failures:
            rc = 1
            for failure in failures:
                print(f"FAIL {failure}", file=sys.stderr)
        else:
            print(f"OK   {baseline_path.name}: {gated} metrics within "
                  f"{threshold:.0%}")
    print(f"checked {compared} gated metrics across "
          f"{len(baseline_paths)} reports -> "
          f"{'FAIL' if rc else 'PASS'}")
    return rc


def self_test(threshold):
    """The comparator must pass an identical report and fail a 20%
    regression in either direction."""
    baseline = {
        "bench": "self_test",
        "arms": [
            {"name": "batched", "anchors_per_sec": 1000.0, "p99_ms": 10.0},
            {"name": "per_anchor", "anchors_per_sec": 100.0,
             "p99_ms": 80.0},
        ],
        "storm": {"availability": 0.9995, "deadline_miss_rate": 0.01},
        "attack": {"mae_inflation": 2.4, "recovery_ratio": 0.55},
    }
    identical = json.loads(json.dumps(baseline))
    if compare_report("identical", baseline, identical, threshold):
        print("self-test FAIL: identical report flagged", file=sys.stderr)
        return 1

    throughput_hit = json.loads(json.dumps(baseline))
    throughput_hit["arms"][0]["anchors_per_sec"] = 800.0  # -20%
    failures = compare_report("throughput", baseline, throughput_hit,
                              threshold)
    if not any("arms.batched.anchors_per_sec" in f for f in failures):
        print("self-test FAIL: -20% throughput not caught",
              file=sys.stderr)
        return 1

    latency_hit = json.loads(json.dumps(baseline))
    latency_hit["arms"][1]["p99_ms"] = 96.0  # +20%
    failures = compare_report("latency", baseline, latency_hit, threshold)
    if not any("arms.per_anchor.p99_ms" in f for f in failures):
        print("self-test FAIL: +20% latency not caught", file=sys.stderr)
        return 1

    # A band metric must fail on a 20% drift in EITHER direction and
    # tolerate drift inside the threshold.
    for factor, tag in ((1.2, "upward"), (0.8, "downward")):
        drifted = json.loads(json.dumps(baseline))
        drifted["attack"]["mae_inflation"] = 2.4 * factor
        failures = compare_report("band", baseline, drifted, threshold)
        if not any("attack.mae_inflation" in f for f in failures):
            print(f"self-test FAIL: {tag} band drift not caught",
                  file=sys.stderr)
            return 1
    within = json.loads(json.dumps(baseline))
    within["attack"]["mae_inflation"] = 2.4 * 1.05
    if compare_report("band-ok", baseline, within, threshold):
        print("self-test FAIL: in-band drift flagged", file=sys.stderr)
        return 1

    # A _directions annotation must gate an otherwise-ungated leaf, win
    # over the global table (up -> band here), and never be compared as a
    # metric itself.
    annotated = json.loads(json.dumps(baseline))
    annotated["_directions"] = {"queries_per_plan": "down",
                                "storm.availability": "band"}
    annotated["attack"]["queries_per_plan"] = 128.0
    worse = json.loads(json.dumps(annotated))
    worse["attack"]["queries_per_plan"] = 200.0
    worse["storm"]["availability"] = 0.9995 * 1.3
    failures = compare_report("annotated", annotated, worse, threshold)
    if not any("attack.queries_per_plan" in f for f in failures):
        print("self-test FAIL: _directions leaf annotation not applied",
              file=sys.stderr)
        return 1
    if not any("storm.availability" in f and "drifted" in f
               for f in failures):
        print("self-test FAIL: _directions path override did not beat the "
              "global table", file=sys.stderr)
        return 1
    if any("_directions" in f for f in failures):
        print("self-test FAIL: _directions block compared as a metric",
              file=sys.stderr)
        return 1

    # An annotation whose key matches nothing in the baseline must fail
    # loudly — both when the metric never existed and when the bench arm
    # that emitted it was dropped — instead of silently gating nothing.
    ghost = json.loads(json.dumps(baseline))
    ghost["_directions"] = {"open_loop.max_sustainable_qps": "up"}
    failures = compare_report("ghost", ghost,
                              json.loads(json.dumps(ghost)), threshold)
    if not any("matches no metric" in f and "max_sustainable_qps" in f
               for f in failures):
        print("self-test FAIL: _directions key absent from the baseline "
              "not caught", file=sys.stderr)
        return 1
    orphaned = json.loads(json.dumps(baseline))
    orphaned["_directions"] = {"storm.availability": "band"}
    del orphaned["storm"]
    failures = compare_report("orphaned", orphaned,
                              json.loads(json.dumps(orphaned)), threshold)
    if not any("matches no metric" in f for f in failures):
        print("self-test FAIL: annotation orphaned by a dropped arm not "
              "caught", file=sys.stderr)
        return 1
    bad_direction = json.loads(json.dumps(baseline))
    bad_direction["_directions"] = {"storm.availability": "sideways"}
    failures = compare_report("bad-direction", bad_direction,
                              json.loads(json.dumps(bad_direction)),
                              threshold)
    if not any("unknown direction" in f for f in failures):
        print("self-test FAIL: unknown _directions value not caught",
              file=sys.stderr)
        return 1

    # _epsilons: an absolute cap must pass in-band fresh values (either
    # sign), fail out-of-band ones (either sign), never compare the block
    # itself, and validate its keys/caps loudly.
    capped = json.loads(json.dumps(baseline))
    capped["arms"][0]["mae_delta_kmh"] = 0.02
    capped["_epsilons"] = {"mae_delta_kmh": 0.5}
    for fresh_delta in (0.3, -0.3):
        ok = json.loads(json.dumps(capped))
        ok["arms"][0]["mae_delta_kmh"] = fresh_delta
        if compare_report("eps-ok", capped, ok, threshold):
            print(f"self-test FAIL: in-cap delta {fresh_delta} flagged",
                  file=sys.stderr)
            return 1
    for fresh_delta in (0.8, -0.8):
        bad = json.loads(json.dumps(capped))
        bad["arms"][0]["mae_delta_kmh"] = fresh_delta
        failures = compare_report("eps-bad", capped, bad, threshold)
        if not any("absolute cap" in f and "mae_delta_kmh" in f
                   for f in failures):
            print(f"self-test FAIL: out-of-cap delta {fresh_delta} not "
                  "caught", file=sys.stderr)
            return 1
        if any("_epsilons" in f and "absolute cap" in f for f in failures):
            print("self-test FAIL: _epsilons block compared as a metric",
                  file=sys.stderr)
            return 1
    ghost_eps = json.loads(json.dumps(baseline))
    ghost_eps["_epsilons"] = {"no_such_metric": 0.5}
    failures = compare_report("eps-ghost", ghost_eps,
                              json.loads(json.dumps(ghost_eps)), threshold)
    if not any("matches no metric" in f and "no_such_metric" in f
               for f in failures):
        print("self-test FAIL: _epsilons ghost key not caught",
              file=sys.stderr)
        return 1
    for bad_cap in (0, -0.5, "0.5", True):
        invalid = json.loads(json.dumps(capped))
        invalid["_epsilons"] = {"mae_delta_kmh": bad_cap}
        failures = compare_report("eps-invalid", invalid,
                                  json.loads(json.dumps(invalid)),
                                  threshold)
        if not any("invalid cap" in f for f in failures):
            print(f"self-test FAIL: invalid epsilon cap {bad_cap!r} not "
                  "caught", file=sys.stderr)
            return 1
    vanished_eps = json.loads(json.dumps(capped))
    del vanished_eps["arms"][0]["mae_delta_kmh"]
    failures = compare_report("eps-vanished", capped, vanished_eps,
                              threshold)
    if not any("vanished" in f and "mae_delta_kmh" in f for f in failures):
        print("self-test FAIL: epsilon-gated metric vanishing not caught",
              file=sys.stderr)
        return 1

    # Arm order must not matter, and a vanished arm must fail.
    reordered = json.loads(json.dumps(baseline))
    reordered["arms"].reverse()
    if compare_report("reordered", baseline, reordered, threshold):
        print("self-test FAIL: reordered arms flagged", file=sys.stderr)
        return 1
    dropped = json.loads(json.dumps(baseline))
    dropped["arms"] = dropped["arms"][:1]
    if not compare_report("dropped", baseline, dropped, threshold):
        print("self-test FAIL: vanished arm not caught", file=sys.stderr)
        return 1

    # --require-baselines must turn "no baselines" from a silent pass
    # into a failure (the CI gate relies on this to detect a broken
    # checkout), while the default stays permissive for local runs.
    with tempfile.TemporaryDirectory() as tmp:
        missing = Path(tmp) / "baselines"
        if run(tmp, missing, threshold) != 0:
            print("self-test FAIL: missing baselines dir failed without "
                  "--require-baselines", file=sys.stderr)
            return 1
        if run(tmp, missing, threshold, require_baselines=True) != 1:
            print("self-test FAIL: --require-baselines passed with no "
                  "baselines dir", file=sys.stderr)
            return 1

    # A malformed (unparseable) baseline must fail loudly with the
    # distinct exit code 2 — never be skipped as "nothing to gate" —
    # whether the rot is in the committed baseline or the fresh report.
    with tempfile.TemporaryDirectory() as tmp:
        fresh_dir = Path(tmp) / "fresh"
        baseline_dir = Path(tmp) / "baselines"
        fresh_dir.mkdir()
        baseline_dir.mkdir()
        (baseline_dir / "perf_broken.json").write_text("{not json",
                                                       encoding="utf-8")
        (fresh_dir / "perf_broken.json").write_text(
            json.dumps(baseline), encoding="utf-8")
        if run(fresh_dir, baseline_dir, threshold) != 2:
            print("self-test FAIL: malformed baseline JSON did not exit 2",
                  file=sys.stderr)
            return 1
        (baseline_dir / "perf_broken.json").write_text(
            json.dumps(baseline), encoding="utf-8")
        (fresh_dir / "perf_broken.json").write_text("[truncated",
                                                    encoding="utf-8")
        if run(fresh_dir, baseline_dir, threshold) != 2:
            print("self-test FAIL: malformed fresh JSON did not exit 2",
                  file=sys.stderr)
            return 1

    print("self-test PASS: identical ok, -20% throughput and +20% latency "
          "caught, band drift caught both ways, _directions annotations "
          "honored and validated (ghost keys and unknown directions fail "
          "loudly), _epsilons absolute caps enforced both ways and "
          "validated, arm order ignored, vanished arm caught, missing baselines fail "
          "under --require-baselines, malformed baseline/fresh JSON exits 2")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", default="bench_out",
                        help="directory with freshly produced perf_*.json")
    parser.add_argument("--baselines", default="bench_out/baselines",
                        help="directory with committed baseline perf_*.json")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed relative regression (default 0.15)")
    parser.add_argument("--require-baselines", action="store_true",
                        help="fail (exit 1) when the baselines directory "
                             "is empty or missing instead of passing; CI "
                             "uses this so a bad checkout cannot silently "
                             "disable the gate")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the comparator catches a synthetic "
                             "20%% regression, then exit")
    args = parser.parse_args()
    if not 0 < args.threshold < 1:
        parser.error("--threshold must be in (0, 1)")
    if args.self_test:
        return self_test(args.threshold)
    return run(args.fresh, args.baselines, args.threshold,
               args.require_baselines)


if __name__ == "__main__":
    sys.exit(main())
