#!/usr/bin/env python3
"""Soft throughput-regression guard for the R-F19..R-F25 benchmarks.

Reads a freshly produced benchmark CSV (f19_disorder.csv,
f20_degradation.csv, f21_runtime.csv, f23_amend.csv, f24_scheduler.csv or
f25_resilience.csv, auto-detected from the header)
plus the committed baseline and applies per-suite checks:

R-F19 (disorder-stage layout):
  1. Equivalence (hard): in the buffer section `checksum` must agree
     between the ring and the reference heap rows of every size --
     identical released-event sequences. Every config needs a ring row;
     the keyed section has no heap rows (handlers always run the ring), so
     there each per-event row's checksum must instead equal its
     batch256 partner's (KEYED_CHECKSUM_PAIRS).
  2. Ring win (hard): in the buffer section at occupancies >= 1e4 the ring
     must beat the heap by RING_BUFFER_BOUND in the same run (real ratios
     are 6-36x; the heap's per-tuple cost is O(log n) there).
  3. Batch win (hard): on the deep keyed rows, the run-segmented OnBatch
     row must not be slower than the per-event row. The full >= 1.3x
     target is a soft warning (the margin is real but modest, and shared
     runners are noisy).

R-F20 (bounded-memory degradation):
  1. Memory bound (hard): every capped row's max_buffer must be <= cap.
     The cap is the PR's contract; exceeding it means shedding leaks.
  2. Cap overhead (hard): in the overhead section the never-binding cap
     must cost <= OVERHEAD_BOUND x the uncapped run measured in the SAME
     run (interleaved min-of-N, so the pair is machine-comparable), with
     identical checksums (a non-binding cap must not change output).
  3. Shed accounting (hard): in the shed section every capped policy row
     must actually shed (shed + forced > 0 -- the config is built so the
     cap binds; zero means the cap silently stopped applying), and the
     uncapped reference must shed nothing.

R-F21 (runtime batch memory):
  1. Equivalence (hard): within every feed arena/malloc pair (one per
     batch size) `checksum` must be identical. The arena pool is a
     performance switch, never a semantic one. The single pipeline row
     has nothing to pair with; its throughput is baseline drift only.
  2. Arena win (hard): on the smallest-batch feed row the arena must be
     >= F21_ARENA_TARGET x the malloc path in the same run (per-batch
     allocation dominates there); larger batches must never invert beyond
     F21_NO_INVERSION.

R-F23 (amend engine + speculative emit-then-amend):
  1. Final-answer identity (hard): `final_checksum` must agree across all
     three modes (hot-buffered, amend-buffered, amend-speculative) of
     every (workload, kind) group -- the last revision per window is the
     PR's correctness contract, however many provisional emissions the
     speculative run published on the way.
  2. Latency win (hard): on speculative rows where >= F23_LATE_GATE of
     tuples arrived behind the output watermark, first-emission p50 must
     be <= F23_LATENCY_BOUND x the hot-buffered settle p50 in the SAME
     run. Emitting provisionally then amending must actually buy latency,
     or the mode has no reason to exist.
  3. Store overhead (soft): amend-buffered exceeding F23_STORE_TAX x
     hot-buffered ns/tuple on the in-order path prints a warning -- the
     B-tree's amend capability should be close to free when unused.
  4. Revision cost (hard): on median rows, amend-speculative ns/tuple
     must be <= F23_MEDIAN_COST x hot-buffered ns/tuple in the SAME run.
     A revision re-reads an incrementally sorted quantile state and
     firing skips the fired windows kept for allowed lateness, so
     amending costs about what changed, not what is kept.

R-F24 (pull-based scheduler):
  1. Equivalence (hard): within every section all modes -- steal
     static/steal, the fixed-batch sweep -- must produce identical
     `checksum`s. Placement and batch size are performance switches,
     never semantic ones.
  2. Steal win (hard): on the sink-latency colocated-skew config the
     static placement must cost >= F24_STEAL_TARGET x the stealing run in
     the same run, and the stealing run must report steals > 0.

R-F25 (resilience: chaos transport, idempotent replay, admission control):
  1. Exactly-once under faults (hard): the combined per-tenant result
     checksum must be identical across EVERY row -- fault-free, 1% and 5%
     chaos, throttled, and chaos-plus-throttled runs all converge to
     byte-identical results -- with errors zero, accounting identities
     holding and delivery exact in every row. Every row must also report
     replayed == deduped: a retransmit the server applied instead of
     suppressing would break checksum identity silently on some future
     workload even if it happened to be harmless here.
  2. Chaos is real (hard): every row with fault_pct > 0 must report
     faults > 0 (the seeded schedule actually fired), the 5% chaos row
     must inject more faults than the 1% row, and the 5% rows must
     report replayed > 0 -- ack-side faults force genuine retransmits, so
     a zero means the dedup path silently stopped being exercised.
  3. Quotas hold exactly (hard): a token bucket admitting at rate R with
     burst B cannot accept N events per tenant in less than (N - B) / R
     seconds, so every quota row must satisfy wall >= F25_QUOTA_SLACK x
     that bound and report throttled > 0: admission control genuinely
     stretched the run.

All suites: baseline drift (soft) -- ns/tuple (f21, f24: keps)
beyond DRIFT_FACTOR x the committed baseline prints a GitHub warning
annotation but does not fail the job; absolute timings are
machine-dependent.

Exit status: 1 on a hard-check failure, 0 otherwise.

Usage: check_bench_regression.py --current CSV [--baseline CSV]
"""

import argparse
import csv
import sys

DRIFT_FACTOR = 1.5    # soft warning threshold vs. committed baseline.

# f19: ring must be <= heap/1.5 on deep buffers, and batch ingestion should
# be >= 1.3x per-event on the deep keyed rows (soft).
RING_BUFFER_BOUND = 1.0 / 1.5
RING_BUFFER_GATED_SIZES = {"size=1e4", "size=1e5", "size=1e6"}
KEYED_BATCH_TARGET = 1.3
KEYED_DEEP_PAIR = ("bursty16-deep-perevent", "bursty16-deep-batch256")
# Keyed rows that feed the same stream through the same handler: OnBatch
# must release exactly what per-event OnEvent does.
KEYED_CHECKSUM_PAIRS = (
    ("bursty16-perevent", "bursty16-batch256"),
    ("random16-perevent", "random16-batch256"),
    ("bursty16-deep-perevent", "bursty16-deep-batch256"),
)

# f20: a never-binding cap may cost at most 2% over the uncapped hot path.
OVERHEAD_BOUND = 1.02

# f21: same-run relative targets (machine-independent). The arena target is
# gated on the smallest feed batch (observed ~1.5x). The no-inversion bound
# leaves noise headroom.
F21_ARENA_TARGET = 1.3
F21_NO_INVERSION = 0.95   # arena >= 0.95x malloc on non-gated batches.

# f24: same-run relative target. Stealing must cut the colocated-hot-shard
# wall clock by 1.2x (observed ~1.7-2.1x).
F24_STEAL_TARGET = 1.2

# f23: the speculative mode's first emission must halve the buffered
# settle latency wherever disorder is material (>= 10% of tuples arrive
# behind the speculative watermark); observed ratios are 0.01-0.15x. The
# amend store costing more than 1.5x the flat store on the in-order path
# is a soft warning (observed ~1x either way).
F23_LATENCY_BOUND = 0.5
F23_LATE_GATE = 0.10
F23_STORE_TAX = 1.5
# A median run with per-tuple revisions may cost at most 3x the buffered
# run (observed ~1.3-1.5x; a full re-sort per revision measured 7-24x).
F23_MEDIAN_COST = 3.0

# f25: the wall-clock floor a correct token bucket imposes is exact
# ((events/tenant - burst) / rate); the slack only absorbs timer
# granularity, since the measured wall starts before the first send.
F25_QUOTA_SLACK = 0.95


def load(path, key_cols):
    rows = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            rows[tuple(row[c] for c in key_cols)] = row
    return rows


def sniff_suite(path):
    with open(path, newline="") as f:
        header = next(csv.reader(f))
    if "amend_rate" in header:
        return "f23"
    if "fault_pct" in header:
        return "f25"
    if "steals" in header:  # before f21: both carry vshards.
        return "f24"
    if "vshards" in header:
        return "f21"
    if "policy" in header:
        return "f20"
    if "section" in header:
        return "f19"
    sys.exit(f"{path}: unrecognized benchmark CSV header {header}")


def check_f19(args):
    key_cols = ("section", "config", "engine")
    current = load(args.current, key_cols)
    configs = sorted({k[:2] for k in current})
    failures = []
    warnings = []

    for section, config in configs:
        ring = current.get((section, config, "ring"))
        if ring is None:
            failures.append(f"{section}/{config}: missing ring row")
            continue
        if section != "buffer":
            continue
        heap = current.get((section, config, "heap"))
        if heap is None:
            failures.append(f"{section}/{config}: missing heap row")
            continue

        # 1. Identical released-event sequences, ring against reference.
        if heap["checksum"] != ring["checksum"]:
            failures.append(
                f"{section}/{config}: checksum mismatch "
                f"heap={heap['checksum']} ring={ring['checksum']}")

        # 2. Ring wins on deep buffers, same machine same run.
        if section == "buffer" and config in RING_BUFFER_GATED_SIZES:
            h_ns = float(heap["ns_per_tuple"])
            r_ns = float(ring["ns_per_tuple"])
            if r_ns > h_ns * RING_BUFFER_BOUND:
                failures.append(
                    f"{section}/{config}: ring {r_ns:.2f} ns/tuple vs heap "
                    f"{h_ns:.2f} (bound {RING_BUFFER_BOUND:.3f}x)")

    # 1b. Keyed rows: OnBatch releases what per-event OnEvent releases.
    for per_event_cfg, batched_cfg in KEYED_CHECKSUM_PAIRS:
        per_event = current.get(("keyed", per_event_cfg, "ring"))
        batched = current.get(("keyed", batched_cfg, "ring"))
        if per_event is None or batched is None:
            failures.append(
                f"keyed/{per_event_cfg}: missing row for checksum pairing")
        elif per_event["checksum"] != batched["checksum"]:
            failures.append(
                f"keyed/{batched_cfg}: checksum mismatch vs "
                f"{per_event_cfg} {batched['checksum']} != "
                f"{per_event['checksum']}")

    # 3. Batched keyed ingestion on the deep rows: inversion is a hard
    # failure, missing the full target a soft warning.
    per_event = current.get(("keyed", KEYED_DEEP_PAIR[0], "ring"))
    batched = current.get(("keyed", KEYED_DEEP_PAIR[1], "ring"))
    if per_event is not None and batched is not None:
        pe_ns = float(per_event["ns_per_tuple"])
        b_ns = float(batched["ns_per_tuple"])
        if b_ns > pe_ns:
            failures.append(
                f"keyed deep: OnBatch {b_ns:.2f} ns/tuple slower than "
                f"per-event {pe_ns:.2f}")
        elif pe_ns < b_ns * KEYED_BATCH_TARGET:
            warnings.append(
                f"keyed deep: OnBatch speedup {pe_ns / b_ns:.2f}x below the "
                f"{KEYED_BATCH_TARGET}x target")

    # 4. Soft drift vs. committed baseline on ring rows.
    if args.baseline:
        baseline = load(args.baseline, key_cols)
        for key, row in current.items():
            if key[2] != "ring":
                continue
            base = baseline.get(key)
            if base is None:
                continue
            cur_ns = float(row["ns_per_tuple"])
            base_ns = float(base["ns_per_tuple"])
            if cur_ns > base_ns * DRIFT_FACTOR:
                warnings.append(
                    f"{'/'.join(key[:2])}: ring {cur_ns:.2f} ns/tuple vs "
                    f"baseline {base_ns:.2f} ({cur_ns / base_ns:.2f}x)")

    return "f19", configs, failures, warnings


def check_f20(args):
    key_cols = ("section", "config", "policy")
    current = load(args.current, key_cols)
    configs = sorted({k[:2] for k in current})
    failures = []
    warnings = []

    # 1. The memory bound holds on every capped row.
    for key, row in current.items():
        cap = int(row["cap"])
        if cap > 0 and int(row["max_buffer"]) > cap:
            failures.append(
                f"{'/'.join(key)}: max_buffer {row['max_buffer']} exceeds "
                f"cap {cap}")

    # 2. Overhead pair: same output, <= OVERHEAD_BOUND x cost, same run.
    for section, config in configs:
        if section != "overhead":
            continue
        uncapped = current.get((section, config, "uncapped"))
        capped = current.get((section, config, "emit-early"))
        if uncapped is None or capped is None:
            failures.append(f"{section}/{config}: missing overhead row")
            continue
        if uncapped["checksum"] != capped["checksum"]:
            failures.append(
                f"{section}/{config}: non-binding cap changed output "
                f"(checksum {capped['checksum']} vs {uncapped['checksum']})")
        u_ns = float(uncapped["ns_per_tuple"])
        c_ns = float(capped["ns_per_tuple"])
        if c_ns > u_ns * OVERHEAD_BOUND:
            failures.append(
                f"{section}/{config}: capped {c_ns:.2f} ns/tuple vs uncapped "
                f"{u_ns:.2f} ({c_ns / u_ns:.3f}x, bound {OVERHEAD_BOUND}x)")

    # 3. Shed accounting: capped policies must bind, uncapped must not.
    for key, row in current.items():
        if key[0] != "shed":
            continue
        lost = int(row["shed"]) + int(row["forced"])
        if key[2] == "uncapped" and lost != 0:
            failures.append(f"{'/'.join(key)}: uncapped run shed {lost} tuples")
        if key[2] != "uncapped" and lost == 0:
            failures.append(
                f"{'/'.join(key)}: cap {row['cap']} never bound "
                f"(shed+forced == 0)")

    # 4. Soft drift vs. committed baseline.
    if args.baseline:
        baseline = load(args.baseline, key_cols)
        for key, row in current.items():
            base = baseline.get(key)
            if base is None:
                continue
            cur_ns = float(row["ns_per_tuple"])
            base_ns = float(base["ns_per_tuple"])
            if cur_ns > base_ns * DRIFT_FACTOR:
                warnings.append(
                    f"{'/'.join(key)}: {cur_ns:.2f} ns/tuple vs baseline "
                    f"{base_ns:.2f} ({cur_ns / base_ns:.2f}x)")

    return "f20", configs, failures, warnings


def check_f21(args):
    key_cols = ("section", "config", "mode")
    current = load(args.current, key_cols)
    configs = sorted({k[:2] for k in current})
    failures = []
    warnings = []

    def pair(section, config, mode_a, mode_b):
        a = current.get((section, config, mode_a))
        b = current.get((section, config, mode_b))
        if a is None or b is None:
            failures.append(f"{section}/{config}: missing {mode_a}/{mode_b} row")
            return None
        # 1. Equivalence: every compared pair produced identical output.
        if a["checksum"] != b["checksum"]:
            failures.append(
                f"{section}/{config}: checksum mismatch "
                f"{mode_a}={a['checksum']} {mode_b}={b['checksum']}")
        return a, b

    # 2. Arena win on the feed rows: hard target on the smallest batch
    # (where per-batch allocation dominates), no inversion on the rest.
    feed_batches = sorted(
        (int(c.split("=")[1]), c) for s, c in configs if s == "feed")
    for i, (_, config) in enumerate(feed_batches):
        rows = pair("feed", config, "arena", "malloc")
        if rows is None:
            continue
        arena_keps = float(rows[0]["keps"])
        malloc_keps = float(rows[1]["keps"])
        bound = F21_ARENA_TARGET if i == 0 else F21_NO_INVERSION
        if arena_keps < malloc_keps * bound:
            failures.append(
                f"feed/{config}: arena {arena_keps:.1f} keps vs malloc "
                f"{malloc_keps:.1f} ({arena_keps / malloc_keps:.2f}x, "
                f"bound {bound}x)")

    # 3. Soft drift vs. committed baseline on throughput.
    if args.baseline:
        baseline = load(args.baseline, key_cols)
        for key, row in current.items():
            base = baseline.get(key)
            if base is None:
                continue
            cur_keps = float(row["keps"])
            base_keps = float(base["keps"])
            if cur_keps * DRIFT_FACTOR < base_keps:
                warnings.append(
                    f"{'/'.join(key)}: {cur_keps:.1f} keps vs baseline "
                    f"{base_keps:.1f} ({base_keps / cur_keps:.2f}x slower)")

    return "f21", configs, failures, warnings


def check_f24(args):
    key_cols = ("section", "config", "mode")
    current = load(args.current, key_cols)
    configs = sorted({k[:2] for k in current})
    failures = []
    warnings = []

    def rows_in(section):
        return {k[2]: current[k] for k in current if k[0] == section}

    # 1. Equivalence (hard): within every section all modes produced
    # identical merged output — steal schedule and batch size are
    # performance switches, never semantic ones.
    for section, _ in configs:
        modes = rows_in(section)
        checksums = {row["checksum"] for row in modes.values()}
        if len(checksums) > 1:
            failures.append(
                f"{section}: checksum differs across modes "
                f"{sorted(checksums)}")

    # 2. Steal win (hard): under per-tuple sink latency the colocated
    # static placement must cost >= F24_STEAL_TARGET x the stealing run,
    # and the stealing run must actually steal.
    steal_rows = rows_in("steal")
    static = steal_rows.get("static")
    steal = steal_rows.get("steal")
    if static is None or steal is None:
        failures.append("steal: missing static/steal row")
    else:
        static_ms = float(static["wall_ms"])
        steal_ms = float(steal["wall_ms"])
        if static_ms < steal_ms * F24_STEAL_TARGET:
            failures.append(
                f"steal/sink-latency: static {static_ms:.2f} ms vs steal "
                f"{steal_ms:.2f} ({static_ms / steal_ms:.2f}x, target "
                f"{F24_STEAL_TARGET}x)")
        if int(steal["steals"]) <= 0:
            failures.append(
                "steal/sink-latency: stealing run performed no steals")

    # 3. Soft drift vs. committed baseline on throughput.
    if args.baseline:
        baseline = load(args.baseline, key_cols)
        for key, row in current.items():
            base = baseline.get(key)
            if base is None:
                continue
            cur_keps = float(row["keps"])
            base_keps = float(base["keps"])
            if cur_keps * DRIFT_FACTOR < base_keps:
                warnings.append(
                    f"{'/'.join(key)}: {cur_keps:.1f} keps vs baseline "
                    f"{base_keps:.1f} ({base_keps / cur_keps:.2f}x slower)")

    return "f24", configs, failures, warnings


def check_f25(args):
    key_cols = ("section", "fault_pct")
    current = load(args.current, key_cols)
    configs = sorted(current)
    failures = []
    warnings = []

    # 1. Exactly-once under faults: every row — clean, chaotic, throttled,
    # both — must land on the same combined result checksum, with clean
    # accounting and every server-side replay absorbed by dedup.
    checksums = {current[k]["checksum"] for k in configs}
    if len(checksums) > 1:
        failures.append(
            f"checksum differs across fault/quota rows: {sorted(checksums)}")
    for key in configs:
        row = current[key]
        label = f"{key[0]}/fault={key[1]}"
        if int(row["errors"]) != 0:
            failures.append(f"{label}: {row['errors']} error(s)")
        if row["identities"] != "1":
            failures.append(f"{label}: accounting identity violated")
        if row["deliveries"] != "1":
            failures.append(f"{label}: incomplete delivery")
        if int(row["replayed"]) != int(row["deduped"]):
            failures.append(
                f"{label}: replayed {row['replayed']} != deduped "
                f"{row['deduped']} — a retransmit was applied twice")

    # 2. Chaos is real: faulted rows must actually inject, more chaos must
    # inject more, and ack-side faults must force genuine retransmits.
    for key in configs:
        row = current[key]
        pct = float(key[1])
        faults = int(row["faults"])
        if pct > 0 and faults == 0:
            failures.append(
                f"{key[0]}/fault={key[1]}: fault schedule never fired")
        if pct >= 5.0 and int(row["replayed"]) == 0:
            failures.append(
                f"{key[0]}/fault={key[1]}: replayed == 0 — the dedup path "
                "was not exercised")
    low = current.get(("chaos", "1.0"))
    high = current.get(("chaos", "5.0"))
    if low is None or high is None:
        failures.append("missing chaos 1% or 5% row")
    elif int(high["faults"]) <= int(low["faults"]):
        failures.append(
            f"5% chaos injected {high['faults']} faults vs {low['faults']} "
            "at 1% — the fault-rate knob is not scaling")

    # 3. Quotas hold exactly: the bucket's wall-clock floor is arithmetic,
    # not a tuning target — a quota row finishing faster than the bucket
    # allows means admitted events were never debited.
    for key in configs:
        row = current[key]
        rate = float(row["quota_eps"])
        if rate <= 0:
            continue
        if int(row["throttled"]) == 0:
            failures.append(
                f"{key[0]}/fault={key[1]}: quota set but nothing throttled")
        per_tenant = float(row["events"]) / float(row["tenants"])
        floor_s = (per_tenant - float(row["burst"])) / rate
        wall_s = float(row["wall_ms"]) / 1000.0
        if wall_s < floor_s * F25_QUOTA_SLACK:
            failures.append(
                f"{key[0]}/fault={key[1]}: wall {wall_s:.3f}s beat the "
                f"token-bucket floor {floor_s:.3f}s — quota not enforced")

    # 4. Soft drift vs. committed baseline on the fault-free goodput row.
    if args.baseline:
        baseline = load(args.baseline, key_cols)
        for key in (("chaos", "0.0"), ("overload", "0.0")):
            row, base = current.get(key), baseline.get(key)
            if row is None or base is None:
                continue
            cur_keps = float(row["keps"])
            base_keps = float(base["keps"])
            if cur_keps * DRIFT_FACTOR < base_keps:
                warnings.append(
                    f"{key[0]}/fault={key[1]}: {cur_keps:.1f} keps vs "
                    f"baseline {base_keps:.1f} "
                    f"({base_keps / cur_keps:.2f}x slower)")

    return "f25", configs, failures, warnings


def check_f23(args):
    key_cols = ("workload", "kind", "mode")
    current = load(args.current, key_cols)
    configs = sorted({k[:2] for k in current})
    failures = []
    warnings = []

    for workload, kind in configs:
        hot = current.get((workload, kind, "hot-buffered"))
        amend = current.get((workload, kind, "amend-buffered"))
        spec = current.get((workload, kind, "amend-speculative"))
        if hot is None or amend is None or spec is None:
            failures.append(f"{workload}/{kind}: missing mode row")
            continue

        # 1. Final-answer identity across all three modes: the speculative
        # run's last revision per window must equal the fully-buffered
        # reference bit for bit (as printed).
        for row, mode in ((amend, "amend-buffered"),
                          (spec, "amend-speculative")):
            if row["final_checksum"] != hot["final_checksum"]:
                failures.append(
                    f"{workload}/{kind}: final_checksum mismatch "
                    f"{mode}={row['final_checksum']} "
                    f"hot-buffered={hot['final_checksum']}")

        # 2. Latency win where disorder is material, same machine same run.
        if float(spec["late_frac"]) >= F23_LATE_GATE:
            first = float(spec["first_p50_us"])
            settle = float(hot["settle_p50_us"])
            if first > settle * F23_LATENCY_BOUND:
                failures.append(
                    f"{workload}/{kind}: speculative first p50 {first:.0f} us "
                    f"vs buffered settle p50 {settle:.0f} "
                    f"({first / settle:.2f}x, bound {F23_LATENCY_BOUND}x)")

        h_ns = float(hot["ns_per_tuple"])

        # 4. Median revisions cost about what changed.
        s_ns = float(spec["ns_per_tuple"])
        if kind == "median" and s_ns > h_ns * F23_MEDIAN_COST:
            failures.append(
                f"{workload}/{kind}: amend-speculative {s_ns:.2f} ns/tuple "
                f"vs hot-buffered {h_ns:.2f} ({s_ns / h_ns:.2f}x, bound "
                f"{F23_MEDIAN_COST}x)")

        # 3. Amend-store tax on the in-order path (soft; noisy).
        a_ns = float(amend["ns_per_tuple"])
        if a_ns > h_ns * F23_STORE_TAX:
            warnings.append(
                f"{workload}/{kind}: amend-buffered {a_ns:.2f} ns/tuple vs "
                f"hot-buffered {h_ns:.2f} ({a_ns / h_ns:.2f}x, soft bound "
                f"{F23_STORE_TAX}x)")

    # 4. Soft drift vs. committed baseline on the speculative rows.
    if args.baseline:
        baseline = load(args.baseline, key_cols)
        for key, row in current.items():
            if key[2] != "amend-speculative":
                continue
            base = baseline.get(key)
            if base is None:
                continue
            cur_ns = float(row["ns_per_tuple"])
            base_ns = float(base["ns_per_tuple"])
            if cur_ns > base_ns * DRIFT_FACTOR:
                warnings.append(
                    f"{'/'.join(key[:2])}: speculative {cur_ns:.2f} ns/tuple "
                    f"vs baseline {base_ns:.2f} ({cur_ns / base_ns:.2f}x)")

    return "f23", configs, failures, warnings


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--current", required=True)
    parser.add_argument("--baseline")
    args = parser.parse_args()

    suite = sniff_suite(args.current)
    if suite == "f25":
        suite, configs, failures, warnings = check_f25(args)
    elif suite == "f24":
        suite, configs, failures, warnings = check_f24(args)
    elif suite == "f23":
        suite, configs, failures, warnings = check_f23(args)
    elif suite == "f21":
        suite, configs, failures, warnings = check_f21(args)
    elif suite == "f20":
        suite, configs, failures, warnings = check_f20(args)
    else:
        suite, configs, failures, warnings = check_f19(args)

    for w in warnings:
        print(f"::warning title=bench_{suite} drift::{w}")
    for f in failures:
        print(f"::error title=bench_{suite} regression::{f}")
    print(f"[{suite}] checked {len(configs)} configurations: "
          f"{len(failures)} hard failure(s), {len(warnings)} warning(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
