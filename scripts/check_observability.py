#!/usr/bin/env python3
"""Validate the serving tier's observability artifacts.

Two checks, each against the external format's actual grammar:

  * A trace dump must be a valid Chrome trace-event JSON document (the
    format Perfetto and chrome://tracing load): a ``traceEvents`` array
    of complete ("X") and instant ("i") events with the required keys,
    numeric non-negative timestamps, and span names from the documented
    taxonomy (docs/OBSERVABILITY.md).
  * A metrics dump must parse as Prometheus text exposition: every line
    a comment or a ``name{labels} value`` sample, every sample preceded
    by matching # HELP/# TYPE lines, histogram ``_bucket`` series
    cumulative with the ``+Inf`` bucket equal to ``_count``.  The
    latency quantile gauges must agree with the latency histogram:
    per class they rise from 0.5 to 0.999, and each value v at quantile
    q sits at the right octave edge — the cumulative count at the
    smallest ``le`` >= v reaches ceil(q * count) and the edge below
    stays under it (``class="all"`` against the sum of the classes).
    The batch score-path pair counters carry every path, and their
    ragged and striped subsets never exceed the SIMD pairs.  The
    batches the batcher ran inline are a subset of all batches.  The
    band-doubling counters carry both counts, and no more pairs are
    certified than band passes ran.

Usage:

    ./scripts/check_observability.py --trace trace.json --metrics m.prom
    ./scripts/check_observability.py --run ./build/examples/alignment_server

--run executes the given alignment_server binary with a small workload,
pointing --metrics-out/--trace-out at a temp directory, then validates
what it wrote (this is the CI mode).  Exits non-zero naming the first
problem found.
"""

import argparse
import json
import math
from fractions import Fraction
import os
import re
import subprocess
import sys
import tempfile

SPAN_NAMES = {
    "submit", "cache_probe", "ring_wait", "batch_collect",
    "workspace_wait", "kernel_execute", "exec_batch", "exec_solo",
    "complete",
}
INSTANT_NAMES = {
    "linger_adapt", "deadline_shed", "shed", "quarantine",
}

# Prometheus text exposition grammar (the subset the exporter emits:
# no timestamps, no escaped label values beyond what we never produce).
METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"'
SAMPLE_RE = re.compile(
    rf"^({METRIC_NAME})(?:\{{({LABEL}(?:,{LABEL})*)\}})? "
    r"(-?(?:[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|\+?Inf|NaN))$")
HELP_RE = re.compile(rf"^# HELP ({METRIC_NAME}) .+$")
TYPE_RE = re.compile(
    rf"^# TYPE ({METRIC_NAME}) (counter|gauge|histogram|summary|untyped)$")


def fail(msg):
    print(f"check_observability: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not valid JSON: {e}")

    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    other = doc.get("otherData")
    if not isinstance(other, dict) or "dropped" not in other:
        fail(f"{path}: missing otherData.dropped")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: traceEvents must be an array")

    enabled = other.get("enabled", 1)
    if enabled and not events:
        fail(f"{path}: tracing enabled but no events captured")

    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(f"{where}: not an object")
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            if key not in ev:
                fail(f"{where}: missing key {key!r}")
        ph = ev["ph"]
        if ph == "X":
            if ev["name"] not in SPAN_NAMES:
                fail(f"{where}: unknown span name {ev['name']!r}")
            if "dur" not in ev:
                fail(f"{where}: complete event missing 'dur'")
            if not isinstance(ev["dur"], (int, float)) or ev["dur"] < 0:
                fail(f"{where}: bad dur {ev['dur']!r}")
        elif ph == "i":
            if ev["name"] not in INSTANT_NAMES:
                fail(f"{where}: unknown instant name {ev['name']!r}")
            if ev.get("s") not in ("g", "p", "t"):
                fail(f"{where}: instant missing scope 's'")
        else:
            fail(f"{where}: unexpected phase {ph!r}")
        if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
            fail(f"{where}: bad ts {ev['ts']!r}")

    print(f"check_observability: trace OK "
          f"({len(events)} events, {other['dropped']} dropped, {path})")


def parse_value(s):
    if s in ("Inf", "+Inf"):
        return math.inf
    if s == "NaN":
        return math.nan
    return float(s)


def check_metrics(path):
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"{path}: {e}")

    helped, typed = set(), {}
    # (metric, labels-sans-le) -> list of (le, value) in emission order.
    buckets = {}
    samples = {}  # full sample line key -> value
    n_samples = 0

    for ln, line in enumerate(lines, 1):
        where = f"{path}:{ln}"
        if line == "":
            continue
        if line.startswith("#"):
            if m := HELP_RE.match(line):
                helped.add(m.group(1))
            elif m := TYPE_RE.match(line):
                typed[m.group(1)] = m.group(2)
            else:
                fail(f"{where}: malformed comment line: {line!r}")
            continue
        m = SAMPLE_RE.match(line)
        if m is None:
            fail(f"{where}: not a valid sample line: {line!r}")
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        n_samples += 1

        # Every sample's family must have been declared.  Histogram
        # child series (_bucket/_sum/_count) belong to the base family.
        family = re.sub(r"_(bucket|sum|count)$", "", name) \
            if typed.get(re.sub(r"_(bucket|sum|count)$", "", name)) \
            == "histogram" else name
        if family not in helped or family not in typed:
            fail(f"{where}: sample for undeclared family {family!r}")

        if name.endswith("_bucket") and typed.get(family) == "histogram":
            pairs = [p for p in labels.split(",") if p]
            le = [p for p in pairs if p.startswith('le="')]
            if len(le) != 1:
                fail(f"{where}: histogram bucket without exactly one le")
            rest = ",".join(p for p in pairs if not p.startswith('le="'))
            buckets.setdefault((family, rest), []).append(
                (parse_value(le[0][4:-1]), parse_value(value)))
        else:
            samples[(name, labels)] = parse_value(value)

    if n_samples == 0:
        fail(f"{path}: no samples at all")
    if not any(k[0].startswith("anyseq_") for k in samples):
        fail(f"{path}: no anyseq_ metrics present")

    for (family, labels), series in buckets.items():
        where = f"{path}: {family}{{{labels}}}"
        les = [le for le, _ in series]
        if les != sorted(les):
            fail(f"{where}: bucket le edges not increasing")
        if les[-1] != math.inf:
            fail(f"{where}: missing +Inf bucket")
        counts = [v for _, v in series]
        if counts != sorted(counts):
            fail(f"{where}: bucket counts not cumulative")
        count_key = (f"{family}_count", labels)
        if count_key not in samples:
            fail(f"{where}: missing {family}_count")
        if counts[-1] != samples[count_key]:
            fail(f"{where}: +Inf bucket {counts[-1]} != _count "
                 f"{samples[count_key]}")
        if (f"{family}_sum", labels) not in samples:
            fail(f"{where}: missing {family}_sum")

    check_quantiles(path, buckets, samples)
    check_batch_paths(path, samples)
    check_inline_batches(path, samples)
    check_band_counts(path, samples)

    print(f"check_observability: metrics OK "
          f"({n_samples} samples, {len(buckets)} histogram series, {path})")


def check_batch_paths(path, samples):
    """The batch score-path counters partition the batch-scored pairs:
    every path is present, and the ragged and striped subsets each fit
    inside the SIMD pairs."""
    family = "anyseq_batch_pairs_total"
    paths = {labels.split("=", 1)[1].strip('"'): v
             for (name, labels), v in samples.items() if name == family}
    want = {"simd", "scalar", "ragged", "striped"}
    if set(paths) != want:
        fail(f"{path}: {family} paths {sorted(paths)} != {sorted(want)}")
    for sub in ("ragged", "striped"):
        if paths[sub] > paths["simd"]:
            fail(f"{path}: {family}{{path={sub!r}}} {paths[sub]} exceeds "
                 f"the simd pairs {paths['simd']}")


def check_inline_batches(path, samples):
    """Batches run on the batcher thread are a subset of all batches."""
    total = samples.get(("anyseq_batches_total", ""))
    inline = samples.get(("anyseq_batches_inline_total", ""))
    if total is None or inline is None:
        fail(f"{path}: anyseq_batches_total and anyseq_batches_inline_total "
             f"must both be present")
    if inline > total:
        fail(f"{path}: anyseq_batches_inline_total {inline} exceeds "
             f"anyseq_batches_total {total}")


def check_band_counts(path, samples):
    """Every certified traceback pair ran at least one band pass."""
    family = "anyseq_batch_traceback_band_total"
    counts = {labels.split("=", 1)[1].strip('"'): v
              for (name, labels), v in samples.items() if name == family}
    want = {"banded_pairs", "band_passes"}
    if set(counts) != want:
        fail(f"{path}: {family} counts {sorted(counts)} != {sorted(want)}")
    if counts["banded_pairs"] > counts["band_passes"]:
        fail(f"{path}: {family} banded_pairs {counts['banded_pairs']} "
             f"exceeds band_passes {counts['band_passes']}")


def check_quantiles(path, buckets, samples):
    """Cross-check the quantile gauges against the latency histogram.

    A quantile is the upper edge of the log-linear bucket holding the
    nearest-rank sample, and those buckets nest inside the exposition's
    octaves, so for rank = ceil(q * count) the octave edge at or above
    the value must have reached the rank and the edge below must not.
    """
    family = "anyseq_request_latency_seconds"
    series = {labels: s for (fam, labels), s in buckets.items()
              if fam == family}
    gauges = {}  # class -> [(q as Fraction, value in ns)]
    for (name, labels), value in samples.items():
        if name != "anyseq_request_latency_quantile_seconds":
            continue
        kv = dict(p.split("=", 1) for p in labels.split(","))
        gauges.setdefault(kv["class"].strip('"'), []).append(
            (Fraction(kv["quantile"].strip('"')), round(value * 1e9)))
    if not gauges:
        fail(f"{path}: no anyseq_request_latency_quantile_seconds gauges")

    def ns_edges(s):  # [(le in ns, cumulative count)], +Inf dropped
        return [(round(le * 1e9), c) for le, c in s if le != math.inf]

    classes = [c for c in gauges if c != "all"]
    for cls, qs in sorted(gauges.items()):
        where = f"{path}: quantiles{{class={cls!r}}}"
        if cls == "all":
            parts = []
            for c in classes:
                if f'class="{c}"' not in series:
                    fail(f"{where}: no histogram for class {c!r}")
                parts.append(series[f'class="{c}"'])
            counts = [sum(p[i][1] for p in parts)
                      for i in range(len(parts[0]))]
            merged = [(le, n) for (le, _), n in zip(parts[0], counts)]
        elif f'class="{cls}"' in series:
            merged = series[f'class="{cls}"']
        else:
            fail(f"{where}: no matching histogram series")
        total = merged[-1][1]
        edges = ns_edges(merged)
        qs.sort()
        values = [v for _, v in qs]
        if values != sorted(values):
            fail(f"{where}: not monotone in q: {values}")
        for q, v in qs:
            rank = math.ceil(q * int(total))
            if total == 0:
                if v != 0:
                    fail(f"{where}: q={q} is {v} ns with no completions")
                continue
            at = next((i for i, (le, _) in enumerate(edges) if le >= v),
                      None)
            if at is None:
                fail(f"{where}: q={q} value {v} ns beyond the last edge")
            if edges[at][1] < rank:
                fail(f"{where}: q={q} value {v} ns: count {edges[at][1]} "
                     f"at le={edges[at][0]} ns < rank {rank}")
            if at > 0 and edges[at - 1][1] >= rank:
                fail(f"{where}: q={q} value {v} ns: rank {rank} already "
                     f"reached at le={edges[at - 1][0]} ns")


def run_server(binary):
    tmp = tempfile.mkdtemp(prefix="anyseq_obs_")
    metrics = os.path.join(tmp, "metrics.prom")
    trace = os.path.join(tmp, "trace.json")
    cmd = [binary, "400", "2", "2",
           "--metrics-out", metrics, "--trace-out", trace]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(cmd)}: {e}")
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr}")
    sys.stdout.write(proc.stdout)
    return metrics, trace


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", help="Chrome trace-event JSON to validate")
    ap.add_argument("--metrics", help="Prometheus exposition to validate")
    ap.add_argument("--run", metavar="ALIGNMENT_SERVER",
                    help="run this binary and validate what it dumps")
    args = ap.parse_args()
    if args.run:
        metrics, trace = run_server(args.run)
        check_metrics(metrics)
        check_trace(trace)
    elif args.trace or args.metrics:
        if args.metrics:
            check_metrics(args.metrics)
        if args.trace:
            check_trace(args.trace)
    else:
        ap.error("nothing to do: pass --run, --trace, or --metrics")
    print("check_observability: OK")


if __name__ == "__main__":
    main()
