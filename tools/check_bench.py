#!/usr/bin/env python3
"""Bench-regression gate for BENCH_routing.json.

Compares a fresh smoke run against the committed baseline file and fails
(exit 1) on a regression beyond the tolerance, replacing the eyeball-only
`cat` the CI bench step used to end with.

Two metric families are gated independently:
  - calls/sec (throughput, higher is better)
  - visits/connect (search work per request, LOWER is better; a silent
    visit blow-up precedes a throughput loss on bigger networks)

Series keyed so runs with different sweeps still match up:
  - the aggregate "calls_per_sec"
  - per-network churn points        (networks[].name)
  - the thread-scaling curve        (thread_scaling.points[].threads)
  - the batched-admission series    (batched_admission.points[].batch)
  - the deep-network batched point  (batched_admission_k7.points[].batch)
  - the degraded-mode series        (degraded_mode.points[].eps)
  - the affinity sweep              (affinity_scaling.points[].policy —
                                     keyed by the REQUESTED policy, so
                                     baselines from hosts that degraded to
                                     "none" still line up)
  - the admission-policy series     (admission_policy.points[].policy —
                                     the static window under the bursty
                                     fault storm)
  - the hitless-growth series       (growth.points[].phase — churn rate
                                     before/during/after doubling the
                                     exchange live; `during` also carries
                                     the structural gate below)

The growth series additionally gets an absolute structural gate: the
`during` point's calls_killed must be EXACTLY 0 (the hitless contract,
measured — not copied from the report), its quiesce_ms non-negative, and
a growth that remapped no calls while churn was up is suspicious enough
to fail.

Runner noise policy: individual points on shared CI boxes are noisy, so the
gate trips on the GEOMETRIC MEAN of the matched improvement ratios dropping
below (1 - tolerance); any single point falling below half its baseline
(throughput) or doubling its baseline (visits) trips it too — that is never
noise at 30% tolerance. Points present in only one file are reported and
skipped, so adding a series stays backward-compatible.

When BOTH files were recorded with --repeat >= 3 (the bench stamps the
"repeats" key), each point is already a median-of-K and most run-to-run
noise is gone, so the tolerance tightens to 2/3 of the requested value
(default 0.30 -> 0.20).

Usage:
  tools/check_bench.py --baseline BENCH_committed.json \
      --current BENCH_routing.json [--tolerance 0.30]
  tools/check_bench.py --self-test
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def series_points(doc: dict, metric: str) -> dict[str, float]:
    """Flattens every `metric` measurement into {key: value}.

    Schema drift is warned about and skipped, never fatal: a row missing
    its key field (a series recorded by a newer/older bench than the one
    that wrote the other file) must not KeyError the whole gate — the
    remaining series still deserve their comparison.
    """
    points: dict[str, float] = {}
    if metric == "calls_per_sec" and "calls_per_sec" in doc:
        points["aggregate"] = float(doc["calls_per_sec"])

    def take(key: str, row: dict) -> None:
        if metric in row:
            points[key] = float(row[metric])

    def keyed(rows: list, family: str, key_fn) -> None:
        for row in rows:
            try:
                key = key_fn(row)
            except KeyError as exc:
                print(f"check_bench: warn: a '{family}' row is missing its "
                      f"{exc} key; row skipped")
                continue
            take(key, row)

    keyed(doc.get("networks", []), "networks",
          lambda r: f"churn/{r['name']}")
    keyed(doc.get("thread_scaling", {}).get("points", []), "thread_scaling",
          lambda p: f"threads/{p['threads']}")
    keyed(doc.get("batched_admission", {}).get("points", []),
          "batched_admission", lambda p: f"batch/{p['batch']}")
    keyed(doc.get("batched_admission_k7", {}).get("points", []),
          "batched_admission_k7", lambda p: f"batch_k7/{p['batch']}")
    keyed(doc.get("degraded_mode", {}).get("points", []), "degraded_mode",
          lambda p: f"faults/eps={p['eps']:g}")
    keyed(doc.get("affinity_scaling", {}).get("points", []),
          "affinity_scaling", lambda p: f"affinity/{p['policy']}")
    keyed(doc.get("admission_policy", {}).get("points", []),
          "admission_policy", lambda p: f"policy/{p['policy']}")
    keyed(doc.get("growth", {}).get("points", []), "growth",
          lambda p: f"growth/{p['phase']}")
    keyed(doc.get("federation_scaling", {}).get("points", []),
          "federation_scaling",
          lambda p: (f"federation/{p['part']}/{p['topology']}/"
                     f"{p['shards']}x{p['member']}/f={p['inter_fraction']:g}"))
    return points


def gate(label: str, base: dict[str, float], cur: dict[str, float],
         floor: float, lower_is_better: bool, required: bool) -> bool:
    """Prints the comparison table; returns False on a gate trip."""
    shared = sorted(k for k in base if k in cur and base[k] > 0 and cur[k] > 0)
    for key in sorted(set(base) ^ set(cur)):
        side = "baseline" if key in base else "current"
        print(f"check_bench: note: {label} '{key}' only in the {side} file; "
              "skipped")
    if not shared:
        if required:
            print(f"check_bench: no comparable {label} points between the "
                  "baseline and current files", file=sys.stderr)
            return False
        # visits/connect is absent from older baselines: skipping the
        # whole family keeps old baselines comparable.
        print(f"check_bench: no comparable {label} points; family skipped")
        return True

    worst_key, worst_ratio = None, math.inf
    log_sum = 0.0
    print(f"[{label}]")
    print(f"{'series':<24} {'baseline':>12} {'current':>12} {'ratio':>7}")
    for key in shared:
        # Normalized so ratio > 1 is always an improvement.
        ratio = (base[key] / cur[key]) if lower_is_better \
            else (cur[key] / base[key])
        log_sum += math.log(ratio)
        if ratio < worst_ratio:
            worst_key, worst_ratio = key, ratio
        print(f"{key:<24} {base[key]:>12.1f} {cur[key]:>12.1f} {ratio:>7.2f}")
    geomean = math.exp(log_sum / len(shared))
    print(f"geometric mean ratio over {len(shared)} points: {geomean:.3f} "
          f"(gate: >= {floor:.2f}); worst: {worst_key} at {worst_ratio:.2f}")

    if geomean < floor:
        print(f"check_bench: FAIL — {label} regressed "
              f"{(1.0 - geomean) * 100:.0f}% overall", file=sys.stderr)
        return False
    if worst_ratio < 0.5:
        print(f"check_bench: FAIL — {label} '{worst_key}' fell to "
              f"{worst_ratio * 100:.0f}% of its baseline", file=sys.stderr)
        return False
    return True


def check_federation(doc: dict) -> bool:
    """Structural acceptance of the federation series in the CURRENT run.

    Two properties are absolute, not baseline-relative, so they get their
    own gate: the fixed-plant shard sweep must show aggregate calls/sec
    rising monotonically from 1 exchange to 8 with at least 3x total (the
    recursion's algorithmic win), and the 1-shard federation must price the
    intra-shard fast path at noise level against a raw Exchange.
    """
    fed = doc.get("federation_scaling")
    if not fed:
        return True  # pre-federation file: nothing to check
    sweep = sorted((p for p in fed.get("points", [])
                    if p.get("part") == "sweep"),
                   key=lambda p: int(p["shards"]))
    ok = True
    if sweep:
        rates = [(int(p["shards"]), float(p["calls_per_sec"])) for p in sweep]
        for (s0, r0), (s1, r1) in zip(rates, rates[1:]):
            if r1 <= r0:
                print(f"check_bench: FAIL — federation sweep not monotone: "
                      f"{s1} shards ({r1:.0f}/s) <= {s0} shards ({r0:.0f}/s)",
                      file=sys.stderr)
                ok = False
        speedup = rates[-1][1] / rates[0][1] if rates[0][1] > 0 else 0.0
        print(f"federation sweep: {rates[0][0]} -> {rates[-1][0]} shards, "
              f"{speedup:.2f}x aggregate calls/sec")
        if rates[-1][0] >= 8 and speedup < 3.0:
            print(f"check_bench: FAIL — federation sweep reached only "
                  f"{speedup:.2f}x at {rates[-1][0]} shards (need >= 3x)",
                  file=sys.stderr)
            ok = False
    gate_row = fed.get("intra_gate", {})
    if gate_row:
        ratio = float(gate_row.get("ratio", 0.0))
        print(f"federation intra gate: ratio {ratio:.3f}")
        if ratio < 0.8:
            print(f"check_bench: FAIL — federated intra path at "
                  f"{ratio:.2f}x of the raw exchange (need >= 0.8)",
                  file=sys.stderr)
            ok = False
    return ok


def check_growth(doc: dict) -> bool:
    """Structural acceptance of the hitless-growth series in the CURRENT run.

    The hitless contract is absolute, not baseline-relative: the `during`
    window — which brackets the live Exchange::grow merge — must record
    calls_killed == 0 (a MEASURED active-call delta across the merge, so a
    nonzero value means real dropped calls), a non-negative quiesce pause,
    and at least one live call actually remapped (a growth that found no
    calls to carry over proves nothing about hitlessness).
    """
    growth = doc.get("growth")
    if not growth:
        return True  # pre-growth file: nothing to check
    during = [p for p in growth.get("points", [])
              if p.get("phase") == "during"]
    if not during:
        print("check_bench: FAIL — growth series has no 'during' point",
              file=sys.stderr)
        return False
    ok = True
    for p in during:
        killed = int(p.get("calls_killed", -1))
        quiesce = float(p.get("quiesce_ms", -1.0))
        remapped = int(p.get("calls_remapped", 0))
        print(f"growth gate: {growth.get('network', '?')} -> "
              f"{growth.get('grown', '?')}: killed={killed} "
              f"remapped={remapped} quiesce={quiesce:.3f} ms")
        if killed != 0:
            print(f"check_bench: FAIL — growth killed {killed} live calls "
                  "(the hitless contract requires exactly 0)",
                  file=sys.stderr)
            ok = False
        if quiesce < 0.0:
            print("check_bench: FAIL — growth quiesce_ms missing or "
                  "negative", file=sys.stderr)
            ok = False
        if remapped <= 0:
            print("check_bench: FAIL — growth remapped no live calls; the "
                  "series did not exercise the hitless path",
                  file=sys.stderr)
            ok = False
    return ok


def effective_tolerance(tolerance: float, base_doc: dict,
                        cur_doc: dict) -> float:
    """Tightens the tolerance to 2/3 when both runs are median-of-K, K>=3."""
    base_reps = int(base_doc.get("repeats", 1))
    cur_reps = int(cur_doc.get("repeats", 1))
    if base_reps >= 3 and cur_reps >= 3:
        tightened = tolerance * 2.0 / 3.0
        print(f"check_bench: both runs are median-of-{min(base_reps, cur_reps)}"
              f"+; tolerance tightened {tolerance:.2f} -> {tightened:.2f}")
        return tightened
    return tolerance


def self_test() -> int:
    """Pure-python pins of the gate arithmetic (run by CI before gating)."""
    doc = {
        "calls_per_sec": 1000,
        "repeats": 3,
        "networks": [
            {"name": "n1", "calls_per_sec": 100, "visits_per_connect": 10.0},
        ],
        "thread_scaling": {"points": [
            {"threads": 2, "calls_per_sec": 150, "visits_per_connect": 9.0},
        ]},
        "affinity_scaling": {"points": [
            {"policy": "spread", "effective": "none", "calls_per_sec": 120,
             "visits_per_connect": 8.0},
        ]},
        "admission_policy": {"points": [
            {"policy": "static", "calls_per_sec": 90, "hard_rejects": 50},
            {"policy": "overlay", "calls_per_sec": 95, "hard_rejects": 12},
            # Schema drift: no "policy" key — must warn and skip, not raise.
            {"calls_per_sec": 77},
        ]},
        "growth": {"network": "cantor-32-m5", "grown": "cantor-64-m6",
                   "points": [
            {"phase": "before", "calls_per_sec": 200},
            {"phase": "during", "calls_per_sec": 110, "quiesce_ms": 0.05,
             "calls_remapped": 18, "calls_killed": 0,
             "switches_added": 6784},
            {"phase": "after", "calls_per_sec": 120},
        ]},
        "federation_scaling": {"points": [
            # Nested shard/trunk keys: the key must carry part, topology,
            # shard count, member network, and the inter-traffic fraction.
            {"part": "sweep", "topology": "mesh", "shards": 1,
             "member": "cantor-k8", "inter_fraction": 0.1,
             "calls_per_sec": 100, "visits_per_connect": 2400.0},
            {"part": "sweep", "topology": "mesh", "shards": 8,
             "member": "cantor-k5", "inter_fraction": 0.1,
             "calls_per_sec": 400, "visits_per_connect": 200.0},
            {"part": "scaleout", "topology": "ring", "shards": 4096,
             "member": "cantor-k5", "inter_fraction": 0.1,
             "calls_per_sec": 220, "visits_per_connect": 250.0},
        ], "intra_gate": {"ratio": 0.95}},
    }
    pts = series_points(doc, "calls_per_sec")
    expect = {"aggregate": 1000.0, "churn/n1": 100.0, "threads/2": 150.0,
              "affinity/spread": 120.0, "policy/static": 90.0,
              "policy/overlay": 95.0,
              "growth/before": 200.0, "growth/during": 110.0,
              "growth/after": 120.0,
              "federation/sweep/mesh/1xcantor-k8/f=0.1": 100.0,
              "federation/sweep/mesh/8xcantor-k5/f=0.1": 400.0,
              "federation/scaleout/ring/4096xcantor-k5/f=0.1": 220.0}
    assert pts == expect, f"series_points mismatch: {pts}"

    # Federation structural gate: the pinned doc passes (4x at 8 shards,
    # gate ratio 0.95); a sagging middle point breaks monotonicity; a weak
    # 8-shard speedup or a slow intra path each trip their own check.
    assert check_federation(doc)
    assert check_federation({})  # pre-federation files are fine
    import copy
    bad = copy.deepcopy(doc)
    bad["federation_scaling"]["points"][1]["calls_per_sec"] = 90
    assert not check_federation(bad)
    weak = copy.deepcopy(doc)
    weak["federation_scaling"]["points"][1]["calls_per_sec"] = 250
    assert not check_federation(weak)
    slow_gate = copy.deepcopy(doc)
    slow_gate["federation_scaling"]["intra_gate"]["ratio"] = 0.5
    assert not check_federation(slow_gate)

    # Growth structural gate: the pinned doc passes; a single killed call
    # fails absolutely; a growth that remapped nothing fails; a growth
    # series with no `during` point fails; pre-growth files pass.
    assert check_growth(doc)
    assert check_growth({})
    killer = copy.deepcopy(doc)
    killer["growth"]["points"][1]["calls_killed"] = 1
    assert not check_growth(killer)
    idle = copy.deepcopy(doc)
    idle["growth"]["points"][1]["calls_remapped"] = 0
    assert not check_growth(idle)
    headless = copy.deepcopy(doc)
    headless["growth"]["points"] = [p for p in headless["growth"]["points"]
                                    if p["phase"] != "during"]
    assert not check_growth(headless)

    # Identical files pass at any tolerance; a uniform 40% loss trips the
    # 30% geomean gate; a single halved point trips the worst-point gate
    # even when the geomean survives.
    assert gate("t", pts, dict(pts), 0.70, False, True)
    lost = {k: v * 0.6 for k, v in pts.items()}
    assert not gate("t", pts, lost, 0.70, False, True)
    one_bad = dict(pts)
    one_bad["churn/n1"] = pts["churn/n1"] * 0.49
    assert not gate("t", pts, one_bad, 0.70, False, True)
    # visits: LOWER is better — a uniform drop is an improvement.
    better = {k: v * 0.5 for k, v in pts.items()}
    assert gate("t", pts, better, 0.70, True, False)

    # Repeat-aware tightening: on at both >=3, off when either side is a
    # single run.
    assert abs(effective_tolerance(0.30, doc, doc) - 0.20) < 1e-9
    assert effective_tolerance(0.30, doc, {"repeats": 1}) == 0.30
    assert effective_tolerance(0.30, {}, doc) == 0.30

    print("check_bench: self-test OK")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", help="committed BENCH_routing.json")
    ap.add_argument("--current", help="the smoke run's BENCH_routing.json")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional regression of the geometric "
                         "mean, per metric family (default 0.30; tightened "
                         "to 2/3 when both runs record repeats >= 3)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the gate's own arithmetic pins and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        ap.error("--baseline and --current are required (or use --self-test)")

    try:
        base_doc = load(args.baseline)
        cur_doc = load(args.current)
    except (OSError, ValueError) as exc:
        print(f"check_bench: cannot parse inputs: {exc}", file=sys.stderr)
        return 1

    floor = 1.0 - effective_tolerance(args.tolerance, base_doc, cur_doc)
    try:
        ok = gate("calls/sec",
                  series_points(base_doc, "calls_per_sec"),
                  series_points(cur_doc, "calls_per_sec"),
                  floor, lower_is_better=False, required=True)
        ok &= gate("visits/connect",
                   series_points(base_doc, "visits_per_connect"),
                   series_points(cur_doc, "visits_per_connect"),
                   floor, lower_is_better=True, required=False)
        ok &= check_federation(cur_doc)
        ok &= check_growth(cur_doc)
    except (ValueError, KeyError) as exc:
        print(f"check_bench: cannot parse inputs: {exc}", file=sys.stderr)
        return 1
    if not ok:
        return 1
    print("check_bench: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
