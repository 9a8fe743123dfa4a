#!/usr/bin/env python3
"""Validates the ops::MetricsRegistry exports captured from a daemon session.

The telephone_exchange --daemon REPL prints metric snapshots between marker
lines; this gate extracts the LAST Prometheus block and the LAST JSON block
from a captured session log (or treats the whole input as raw Prometheus
text when no markers are present) and checks both against the contracts the
scrapers rely on:

Prometheus text exposition (0.0.4):
  - every sample belongs to a family declared by a preceding `# TYPE` line
    (histogram _bucket/_sum/_count samples map to their base family)
  - every value parses as a finite number
  - per histogram labelset: `le` ascending, bucket counts cumulative
    (non-decreasing), `+Inf` present and last, equal to the _count sample,
    with a _sum sample alongside
  - the required families for the control-plane dashboards are present

JSON snapshot:
  - parses, carries instance/scrape_seq/gauges/total/delta/classes, and the
    per-class book has one entry per QoS class with consistent quantiles

Across the two formats (both blocks present):
  - every key of the JSON `total` has a `# TYPE ftcs_<key>` family in the
    Prometheus block; a `rejects_<reason>` key maps to a
    ftcs_rejects_total{reason="<reason>"} sample instead
  - the `delta` keys equal the `total` keys, in the top-level sections and
    in the `federation` section alike

Usage:
  tools/check_metrics.py SESSION_LOG [--require-json]
  tools/check_metrics.py --self-test
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

PROM_BEGIN = "=== metrics prometheus begin ==="
PROM_END = "=== metrics prometheus end ==="
JSON_BEGIN = "=== metrics json begin ==="
JSON_END = "=== metrics json end ==="

REQUIRED_FAMILIES = [
    "ftcs_calls_submitted_total",
    "ftcs_calls_admitted_total",
    "ftcs_rejects_total",
    "ftcs_scrape_delta",
    "ftcs_active_calls",
    "ftcs_pending_requests",
    "ftcs_failed_switches",
    "ftcs_stuck_switches",
    "ftcs_shorted",
    "ftcs_scrape_seq",
    "ftcs_shorts_raised_total",
    "ftcs_class_served_total",
    "ftcs_class_sla_violations_total",
    "ftcs_setup_latency_seconds",
    "ftcs_setup_latency_p50_seconds",
    "ftcs_setup_latency_p99_seconds",
    # Hitless-growth families: growths applied, live calls remapped through
    # the old->new id map, and calls killed by growth (0 by design — the
    # counter exists so the invariant is observable on every scrape).
    "ftcs_growths_total",
    "ftcs_growth_calls_remapped_total",
    "ftcs_growth_calls_killed_total",
]

# Federation families: the default daemon serves a multi-exchange
# federation, so trunk books and half-call gauges must be on every scrape.
# A solo (single-exchange) daemon legitimately has none of these —
# --solo drops them from the requirement.
FEDERATION_FAMILIES = [
    "ftcs_intra_calls_total",
    "ftcs_inter_calls_total",
    "ftcs_half_calls_routed_total",
    "ftcs_trunk_claims_total",
    "ftcs_trunk_rejects_total",
    "ftcs_trunk_faults_total",
    "ftcs_shards",
    "ftcs_half_calls_active",
    "ftcs_trunk_group_capacity",
    "ftcs_trunk_group_usable",
    "ftcs_trunk_group_occupancy",
    "ftcs_trunk_group_claims_total",
]
REQUIRED_FAMILIES += FEDERATION_FAMILIES

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$")
LABEL_RE = re.compile(r'(?P<k>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<v>[^"]*)"')


def extract_block(text: str, begin: str, end: str) -> str | None:
    """Returns the LAST begin/end-delimited block, or None."""
    start = text.rfind(begin)
    if start < 0:
        return None
    start += len(begin)
    stop = text.find(end, start)
    if stop < 0:
        return None
    return text[start:stop].strip("\n")


def base_family(name: str) -> str:
    """Histogram samples belong to the family their # TYPE line declares."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def check_prometheus(text: str,
                     required: list[str] | None = None) -> list[str]:
    """Returns a list of violations (empty = clean)."""
    if required is None:
        required = REQUIRED_FAMILIES
    errors: list[str] = []
    declared: dict[str, str] = {}  # family -> kind
    # histogram series: (family, labels-minus-le) -> [(le, count)]
    buckets: dict[tuple[str, tuple], list[tuple[float, float]]] = {}
    sums: set[tuple[str, tuple]] = set()
    counts: dict[tuple[str, tuple], float] = {}
    seen_families: set[str] = set()

    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                errors.append(f"line {lineno}: malformed TYPE line: {line}")
                continue
            declared[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: unparseable sample: {line}")
            continue
        name = m.group("name")
        family = base_family(name)
        if family not in declared and name not in declared:
            errors.append(f"line {lineno}: sample '{name}' has no # TYPE "
                          "declaration")
            continue
        # A family whose TYPE is not histogram keeps its full sample name
        # (ftcs_shorts_raised_total is a counter, not ftcs_shorts_raised's
        # _total sample).
        if name in declared:
            family = name
        seen_families.add(family)
        labels = dict(LABEL_RE.findall(m.group("labels") or ""))
        raw = m.group("value")
        try:
            value = float("inf") if raw == "+Inf" else float(raw)
        except ValueError:
            errors.append(f"line {lineno}: non-numeric value '{raw}'")
            continue
        if not math.isfinite(value) and raw != "+Inf":
            errors.append(f"line {lineno}: non-finite value '{raw}'")
            continue

        if declared.get(family) == "histogram":
            key = (family,
                   tuple(sorted((k, v) for k, v in labels.items()
                                if k != "le")))
            if name.endswith("_bucket"):
                le_raw = labels.get("le")
                if le_raw is None:
                    errors.append(f"line {lineno}: histogram bucket without "
                                  "an 'le' label")
                    continue
                le = float("inf") if le_raw == "+Inf" else float(le_raw)
                buckets.setdefault(key, []).append((le, value))
            elif name.endswith("_sum"):
                sums.add(key)
            elif name.endswith("_count"):
                counts[key] = value

    for key, series in buckets.items():
        family, labels = key
        tag = f"{family}{dict(labels)}"
        les = [le for le, _ in series]
        if les != sorted(les):
            errors.append(f"{tag}: 'le' bounds not ascending")
        if not les or not math.isinf(les[-1]):
            errors.append(f"{tag}: no trailing +Inf bucket")
        vals = [v for _, v in series]
        if any(b > a for a, b in zip(vals[1:], vals[:-1])):
            errors.append(f"{tag}: bucket counts not cumulative")
        if key not in sums:
            errors.append(f"{tag}: missing _sum sample")
        if key not in counts:
            errors.append(f"{tag}: missing _count sample")
        elif vals and math.isinf(les[-1]) and vals[-1] != counts[key]:
            errors.append(f"{tag}: +Inf bucket {vals[-1]:g} != _count "
                          f"{counts[key]:g}")

    for family in required:
        if family not in seen_families:
            errors.append(f"required family '{family}' absent")
    return errors


def check_json(text: str) -> list[str]:
    errors: list[str] = []
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"JSON snapshot does not parse: {exc}"]
    for key in ("instance", "scrape_seq", "gauges", "total", "delta",
                "classes"):
        if key not in doc:
            errors.append(f"JSON snapshot missing '{key}'")
    for cls in doc.get("classes", []):
        if cls.get("count", 0) > 0 and \
                cls.get("p50_seconds", 0) > cls.get("p99_seconds", 0):
            errors.append(f"class {cls.get('class')}: p50 > p99")
    gauges = doc.get("gauges", {})
    for g in ("active_calls", "pending", "failed_switches", "stuck_switches",
              "shorted"):
        if g not in gauges:
            errors.append(f"JSON gauges missing '{g}'")
    return errors


def check_cross(prom: str, text: str) -> list[str]:
    """Checks that the JSON counter sections and the Prometheus block export
    the same counters (the library generates both from one field table)."""
    try:
        doc = json.loads(text)
    except ValueError:
        return []  # check_json reports it
    families = {line.split()[2] for line in prom.splitlines()
                if line.startswith("# TYPE ") and len(line.split()) == 4}
    reasons = set()
    for line in prom.splitlines():
        m = SAMPLE_RE.match(line.strip())
        if m and m.group("name") == "ftcs_rejects_total":
            reasons.update(v for k, v in LABEL_RE.findall(
                m.group("labels") or "") if k == "reason")
    errors: list[str] = []
    sections = [("", doc)]
    if isinstance(doc.get("federation"), dict):
        sections.append(("federation.", doc["federation"]))
    for where, sec in sections:
        total = sec.get("total", {})
        delta = sec.get("delta", {})
        for key in total:
            if key.startswith("rejects_"):
                if key[len("rejects_"):] not in reasons:
                    errors.append(f"JSON {where}total key '{key}' has no "
                                  "ftcs_rejects_total{reason} sample")
            elif f"ftcs_{key}" not in families:
                errors.append(f"JSON {where}total key '{key}' has no "
                              f"'# TYPE ftcs_{key}' family")
        if set(delta) != set(total):
            diff = sorted(set(delta) ^ set(total))
            errors.append(f"JSON {where}delta keys differ from {where}total "
                          f"keys: {diff}")
    return errors


def self_test() -> int:
    # A minimal exposition carrying every required family, plus one
    # histogram with a well-formed bucket ladder.
    good = ""
    for fam in REQUIRED_FAMILIES:
        if fam == "ftcs_setup_latency_seconds":
            good += "# TYPE ftcs_setup_latency_seconds histogram\n"
            good += ('ftcs_setup_latency_seconds_bucket{class="0",le="0.5"}'
                     ' 1\n')
            good += ('ftcs_setup_latency_seconds_bucket{class="0",le="+Inf"}'
                     ' 2\n')
            good += 'ftcs_setup_latency_seconds_sum{class="0"} 0.25\n'
            good += 'ftcs_setup_latency_seconds_count{class="0"} 2\n'
        elif fam == "ftcs_rejects_total":
            good += "# TYPE ftcs_rejects_total counter\n"
            good += 'ftcs_rejects_total{reason="rejected_no_path"} 3\n'
        else:
            kind = "gauge" if "latency_p" in fam or fam in (
                "ftcs_active_calls", "ftcs_pending_requests",
                "ftcs_failed_switches", "ftcs_stuck_switches", "ftcs_shorted",
                "ftcs_scrape_delta", "ftcs_shards", "ftcs_half_calls_active",
                "ftcs_trunk_group_capacity", "ftcs_trunk_group_usable",
                "ftcs_trunk_group_occupancy") else "counter"
            good += f"# TYPE {fam} {kind}\n{fam}{{exchange=\"t\"}} 4\n"
    assert check_prometheus(good) == [], check_prometheus(good)

    # A scrape without the federation trunk book is rejected — unless the
    # requirement is the --solo set, which still demands the growth
    # families (hitlessness must be observable on a lone exchange too).
    no_trunks = good
    for fam in FEDERATION_FAMILIES:
        kind = "gauge" if fam in (
            "ftcs_shards", "ftcs_half_calls_active",
            "ftcs_trunk_group_capacity", "ftcs_trunk_group_usable",
            "ftcs_trunk_group_occupancy") else "counter"
        no_trunks = no_trunks.replace(
            f"# TYPE {fam} {kind}\n{fam}{{exchange=\"t\"}} 4\n", "")
    assert any("ftcs_trunk_group_occupancy" in e
               for e in check_prometheus(no_trunks))
    solo_required = [f for f in REQUIRED_FAMILIES
                     if f not in FEDERATION_FAMILIES]
    assert check_prometheus(no_trunks, solo_required) == [], \
        check_prometheus(no_trunks, solo_required)
    no_growth = no_trunks.replace(
        "# TYPE ftcs_growths_total counter\n"
        'ftcs_growths_total{exchange="t"} 4\n', "")
    assert any("ftcs_growths_total" in e
               for e in check_prometheus(no_growth, solo_required))

    # Each corruption is caught: undeclared family, non-cumulative buckets,
    # missing +Inf, count mismatch, descending le.
    assert any("no # TYPE" in e
               for e in check_prometheus(good + "ftcs_rogue_total 1\n"))
    bad_cum = good.replace(
        'ftcs_setup_latency_seconds_bucket{class="0",le="0.5"} 1',
        'ftcs_setup_latency_seconds_bucket{class="0",le="0.5"} 5')
    assert any("not cumulative" in e for e in check_prometheus(bad_cum))
    bad_inf = good.replace(
        'ftcs_setup_latency_seconds_bucket{class="0",le="+Inf"} 2\n', "")
    assert any("+Inf" in e for e in check_prometheus(bad_inf))
    bad_count = good.replace(
        'ftcs_setup_latency_seconds_count{class="0"} 2',
        'ftcs_setup_latency_seconds_count{class="0"} 7')
    assert any("!= _count" in e for e in check_prometheus(bad_count))

    good_json = json.dumps({
        "instance": "t", "scrape_seq": 1,
        "gauges": {"active_calls": 0, "pending": 0, "failed_switches": 0,
                   "stuck_switches": 0, "shorted": False},
        "total": {}, "delta": {},
        "classes": [{"class": 0, "count": 2, "p50_seconds": 0.1,
                     "p99_seconds": 0.2}],
    })
    assert check_json(good_json) == [], check_json(good_json)
    assert any("missing 'classes'" in e for e in check_json("{}"))
    assert any("does not parse" in e for e in check_json("nope"))
    no_stuck = json.loads(good_json)
    del no_stuck["gauges"]["stuck_switches"]
    assert any("'stuck_switches'" in e
               for e in check_json(json.dumps(no_stuck)))

    # Cross-format: JSON counter keys must name Prometheus families (or
    # reject reasons), and every delta section mirrors its total.
    counters = {"calls_submitted_total": 1, "rejects_rejected_no_path": 3}
    fed_counters = {"intra_calls_total": 2}
    cross = {"total": dict(counters), "delta": dict(counters),
             "federation": {"total": dict(fed_counters),
                            "delta": dict(fed_counters)}}
    assert check_cross(good, json.dumps(cross)) == [], \
        check_cross(good, json.dumps(cross))
    rogue = json.loads(json.dumps(cross))
    rogue["total"]["rogue_total"] = rogue["delta"]["rogue_total"] = 1
    assert any("'rogue_total'" in e
               for e in check_cross(good, json.dumps(rogue)))
    bad_reason = json.loads(json.dumps(cross))
    bad_reason["total"]["rejects_bogus"] = 1
    bad_reason["delta"]["rejects_bogus"] = 1
    assert any("'rejects_bogus'" in e
               for e in check_cross(good, json.dumps(bad_reason)))
    short_delta = json.loads(json.dumps(cross))
    del short_delta["delta"]["calls_submitted_total"]
    assert any("delta keys differ" in e
               for e in check_cross(good, json.dumps(short_delta)))
    fed_rogue = json.loads(json.dumps(cross))
    fed_rogue["federation"]["total"]["fed_rogue_total"] = 1
    errs = check_cross(good, json.dumps(fed_rogue))
    assert any("federation.total key 'fed_rogue_total'" in e for e in errs)
    assert any("federation.delta keys differ" in e for e in errs)

    # Marker extraction returns the LAST block.
    log = (f"noise\n{PROM_BEGIN}\nold\n{PROM_END}\n"
           f"{PROM_BEGIN}\n{good}\n{PROM_END}\ntrailing")
    assert extract_block(log, PROM_BEGIN, PROM_END) == good.strip("\n")

    print("check_metrics: self-test OK")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("log", nargs="?", help="captured daemon session log "
                    "(or raw Prometheus text)")
    ap.add_argument("--require-json", action="store_true",
                    help="also require a JSON snapshot block in the log")
    ap.add_argument("--solo", action="store_true",
                    help="single-exchange session: do not require the "
                         "federation/trunk families")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.log:
        ap.error("a session log is required (or use --self-test)")

    with open(args.log, "r", encoding="utf-8") as fh:
        text = fh.read()

    prom = extract_block(text, PROM_BEGIN, PROM_END)
    if prom is None:
        prom = text  # raw exposition file
    required = [f for f in REQUIRED_FAMILIES
                if f not in FEDERATION_FAMILIES] if args.solo \
        else REQUIRED_FAMILIES
    errors = check_prometheus(prom, required)

    js = extract_block(text, JSON_BEGIN, JSON_END)
    if js is not None:
        errors += check_json(js)
        errors += check_cross(prom, js)
    elif args.require_json:
        errors.append("no JSON snapshot block found in the session log")

    for e in errors:
        print(f"check_metrics: FAIL — {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_metrics: OK (prometheus"
          f"{' + json' if js is not None else ''})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
