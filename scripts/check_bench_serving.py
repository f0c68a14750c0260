#!/usr/bin/env python3
"""Sanity-check a BENCH_serving.json produced by serving_bench.

Asserts the document parses as JSON, carries the serving bench's meta
fields, and contains every expected measurement row with the keys the
perf-trajectory tooling reads (median_ns with its min_ns / max_ns
spread, iterations / repetitions, plus the row's derived metric).  Run from CI right after the bench:

    ./build/bench/serving_bench --quick --repeats 1 --out BENCH_serving.json
    ./scripts/check_bench_serving.py BENCH_serving.json

Exits non-zero with a message naming the first problem found.
"""

import json
import sys

EXPECTED_META = ["bench", "cpu", "cores", "threads", "requests",
                 "deadline_expired", "quarantined"]

# row name -> extra keys that must ride along with the standard triple.
EXPECTED_ROWS = {
    "hit_rate_0": ["requests_per_s", "hit_rate"],
    "hit_rate_50": ["requests_per_s", "hit_rate"],
    "hit_rate_95": ["requests_per_s", "hit_rate"],
    "sync_baseline": ["requests_per_s", "speedup_service_vs_sync"],
    "hit_rate_0_deadline": ["requests_per_s", "overhead_vs_plain"],
    "hit_rate_0_tracing": ["requests_per_s", "overhead_vs_plain"],
    "hit_rate_0_ragged": ["requests_per_s", "simd_pair_fraction",
                          "ragged_pair_fraction"],
    "cache_lookup_hit": ["ns_per_lookup", "min_ns_per_lookup",
                         "max_ns_per_lookup", "hot_set"],
    "submit_get_hit_1": ["ns_per_request", "min_ns_per_request",
                         "max_ns_per_request", "producers", "hot_set"],
    "submit_get_hit_2": ["ns_per_request", "min_ns_per_request",
                         "max_ns_per_request", "producers", "hot_set"],
    "shards_1": ["requests_per_s", "shards", "scaling_vs_1"],
    "shards_2": ["requests_per_s", "shards", "scaling_vs_1"],
    "shards_4": ["requests_per_s", "shards", "scaling_vs_1"],
    "short_reads_48": ["requests_per_s", "batch_occupancy"],
    "small_batches_150": ["requests_per_s", "batch_occupancy"],
    "linger_fixed": ["interactive_p99_us"],
    "linger_adaptive": ["interactive_p99_us"],
}

STANDARD_KEYS = ["median_ns", "min_ns", "max_ns", "iterations",
                 "repetitions"]


def fail(msg):
    print(f"check_bench_serving: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} BENCH_serving.json")
    path = sys.argv[1]
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    for key in EXPECTED_META:
        if key not in doc:
            fail(f"missing meta key {key!r}")
    if doc["bench"] != "serving":
        fail(f"bench is {doc['bench']!r}, expected 'serving'")

    if not 1 <= doc["threads"] <= doc["cores"]:
        fail(f"threads {doc['threads']!r} not in [1, cores={doc['cores']}]")

    rows = {r.get("name"): r for r in doc.get("runs", [])}
    for name, extra in EXPECTED_ROWS.items():
        if name not in rows:
            fail(f"missing row {name!r} (have: {sorted(rows)})")
        row = rows[name]
        for key in STANDARD_KEYS + extra:
            if key not in row:
                fail(f"row {name!r} missing key {key!r}")
            if not isinstance(row[key], (int, float)):
                fail(f"row {name!r} key {key!r} is not numeric: {row[key]!r}")
        if row["median_ns"] <= 0:
            fail(f"row {name!r} has non-positive median_ns")
        if not row["min_ns"] <= row["median_ns"] <= row["max_ns"]:
            fail(f"row {name!r}: median_ns {row['median_ns']} outside "
                 f"[min_ns {row['min_ns']}, max_ns {row['max_ns']}]")

    hits = [rows[f"hit_rate_{p}"]["hit_rate"] for p in (0, 50, 95)]
    if not (hits[0] <= hits[1] <= hits[2]):
        fail(f"hit rates not monotone across the sweep: {hits}")

    # Lifecycle tracing must stay cheap: overhead_vs_plain is the ratio
    # of untraced to traced throughput on the same stream.  The release
    # target is <= 1.05; the CI bound is generous because shared runners
    # are noisy, but a ratio past 1.5 means recording stopped being a
    # clock read plus a ring store.
    tracing = rows["hit_rate_0_tracing"]["overhead_vs_plain"]
    if not 0.5 <= tracing <= 1.5:
        fail(f"tracing overhead_vs_plain out of bounds: {tracing}")

    # Mixed-length (ragged) cache-cold traffic must stay on SIMD lanes.
    # Fractions are of pairs routed through the batch score engine; on a
    # vector target the lane-padding kernel must have fired (ragged > 0)
    # and carried a healthy share of pairs.  The fraction is bounded by
    # batch occupancy (tails shorter than a vector go scalar), which on
    # a loaded single-core runner can sit near ~0.5, so the CI floor is
    # deliberately loose — 0 is the regression this guards against.  A
    # scalar-only host has one lane per vector, so padding never applies
    # and both checks relax.
    ragged = rows["hit_rate_0_ragged"]
    for key in ("simd_pair_fraction", "ragged_pair_fraction"):
        if not 0.0 <= ragged[key] <= 1.0:
            fail(f"hit_rate_0_ragged {key} out of [0, 1]: {ragged[key]}")
    if doc.get("dispatched") != "scalar":
        if ragged["ragged_pair_fraction"] <= 0.0:
            fail("hit_rate_0_ragged: lane-padding kernel never fired on a "
                 f"vector target ({doc.get('dispatched')})")
        if ragged["simd_pair_fraction"] < 0.25:
            fail("hit_rate_0_ragged: simd_pair_fraction "
                 f"{ragged['simd_pair_fraction']} < 0.25 on a vector target")

    # The robustness counters were exercised by the bench: both paths
    # must have fired at least once for the meta to mean anything.
    for key in ("deadline_expired", "quarantined"):
        if not isinstance(doc[key], int) or doc[key] <= 0:
            fail(f"meta {key!r} should be a positive count, got {doc[key]!r}")

    print(f"check_bench_serving: OK ({len(rows)} rows, "
          f"{doc['cores']} cores, {doc['requests']} requests)")


if __name__ == "__main__":
    main()
