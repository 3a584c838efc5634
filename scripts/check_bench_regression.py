#!/usr/bin/env python3
"""Perf-regression guard for the cold bench run.

Compares a freshly generated BENCH_eval.json against the committed
baseline: total_wall_s and every stages.*_busy_s present in both files
must not regress by more than the tolerance (generous by default, since
CI hosts are noisy). Each file's wall times are divided by its own
host_factor first: the bench process times a fixed calibration slice
before and after the run (bench/calib.ml), so a host that runs 30%
slower reads a factor 1.3 times larger and the same code compares
equal. A file without host_factor (an older baseline) is compared raw.
Stages below a small time floor are ignored — a few hundredths of a
second of jitter is not a regression signal.

With --check-summary, the in-order evaluation matrix itself is also
guarded: the fresh summary speedup quantities and cell count must match
the baseline exactly. Those numbers are deterministic for any worker
count, so any drift is a correctness bug (e.g. a machine-model change
leaking into the default in-order configuration), not host noise. The
same mode requires every deterministic work counter in the baseline's
metrics.counters (cse.*, dce.worklist_pushes, regalloc.nodes/edges,
pass.*, pipe.*) to match the fresh run exactly: an
algorithmic change in the transformation or allocation work fails here
whatever the host speed, while wall times keep their tolerance.

With --serve, the files are BENCH_serve.json summaries (loadgen.py
output) instead: client p99 latency must not grow past (1+tolerance)x
the baseline, and client throughput must not fall below
1/(1+tolerance) of it (symmetric in ratio space, so one knob covers
both directions). Serve numbers are far noisier than wall-clock stage
times, so pair this mode with a generous tolerance — the guard is
there to catch order-of-magnitude regressions (a reintroduced
thread-per-connection design, a Nagle stall), not percent-level
drift. Both runs must also have measured the same thing: the guard
fails when the `serve` flags differ (compared as a set, ignoring the
binary prefix and the --access-log path) or when the load's clients,
pipeline depth or request mix differ.

With --oracle, the files are BENCH_oracle.json certification reports
(schema impact-bench-oracle/1) instead, and the comparison is exact,
not tolerance-based — certified optimality is deterministic. Both
files are schema-validated first. Then, per loop (keyed by
subject/machine/lid): a proved verdict may not regress to unproved, a
certified gap may not widen, the known-feasible upper bound may not
grow, no loop may disappear or turn skip-missed, and each loop's
search node count must match exactly (the branch-and-bound search is
deterministic, so a different count means its work changed). Every
loop that is not ineligible must also keep its res_mii, rec_mii, mii,
heur_ii and list_ci exactly. New loops (a grown corpus) are fine;
silently widening a certified gap is not.

With --ooo, the files are BENCH_ooo.json reports (schema
impact-bench-ooo/1) and the comparison is exact: the fresh report must
equal the baseline in every field except generated_at_unix and
workers. Both cores are deterministic and the report's numbers are
independent of the worker count, so any difference means the machine
models' cycle counts changed.

Usage:
  check_bench_regression.py --baseline OLD.json --fresh NEW.json \
      [--tolerance 0.25] [--min-seconds 0.05] [--check-summary] [--serve] \
      [--oracle] [--ooo]

Exit status 1 if any compared metric regresses past tolerance.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def serve_flags(server_cmd):
    """The flags after `serve` in a loadgen server_cmd, as a set of
    (flag, value) pairs; --access-log names only where records go."""
    words = server_cmd.split()
    if "serve" not in words:
        return None
    words = words[words.index("serve") + 1:]
    flags = set()
    i = 0
    while i < len(words):
        flag, eq, value = words[i].partition("=")
        i += 1
        if not eq and i < len(words) and not words[i].startswith("-"):
            value = words[i]
            i += 1
        if flag != "--access-log":
            flags.add((flag, value))
    return flags


def check_serve(base, fresh, tolerance):
    """Guard the serve-tier load numbers: client p99 may not grow past
    (1+tolerance)x the baseline, and throughput may not fall below
    1/(1+tolerance) of it. Runs of different server flags or load
    shapes are not comparable and fail outright."""
    failures = []

    b_cfg = base.get("config", {})
    f_cfg = fresh.get("config", {})
    b_flags = serve_flags(b_cfg.get("server_cmd", ""))
    f_flags = serve_flags(f_cfg.get("server_cmd", ""))
    if b_flags is None or b_flags != f_flags:
        print(f"  config.server_cmd: serve flags differ: "
              f"{b_cfg.get('server_cmd')!r} vs {f_cfg.get('server_cmd')!r} "
              f"MISMATCH")
        failures.append("config.server_cmd")
    for key in ("clients", "pipeline", "mix"):
        if b_cfg.get(key) is None or b_cfg.get(key) != f_cfg.get(key):
            print(f"  config.{key}: {b_cfg.get(key)!r} vs {f_cfg.get(key)!r} "
                  f"MISMATCH")
            failures.append(f"config.{key}")

    b_rps = base.get("client", {}).get("throughput_rps")
    f_rps = fresh.get("client", {}).get("throughput_rps")
    if b_rps and f_rps:
        ratio = f_rps / b_rps
        flag = "REGRESSION" if ratio < 1.0 / (1.0 + tolerance) else "ok"
        print(f"  client.throughput_rps: {b_rps:.1f} -> {f_rps:.1f} "
              f"({ratio:.2f}x) {flag}")
        if flag == "REGRESSION":
            failures.append("client.throughput_rps")
    else:
        print("  skip client.throughput_rps: missing in one file")

    b_p99 = base.get("client", {}).get("latency_ms", {}).get("p99")
    f_p99 = fresh.get("client", {}).get("latency_ms", {}).get("p99")
    if b_p99 and f_p99:
        ratio = f_p99 / b_p99
        flag = "REGRESSION" if ratio > 1.0 + tolerance else "ok"
        print(f"  client.latency_ms.p99: {b_p99:.2f}ms -> {f_p99:.2f}ms "
              f"({ratio:.2f}x) {flag}")
        if flag == "REGRESSION":
            failures.append("client.latency_ms.p99")
    else:
        print("  skip client.latency_ms.p99: missing in one file")

    if failures:
        print(f"serve perf guard failed (tolerance {tolerance:.0%}): "
              f"{', '.join(failures)}")
        return 1
    print("serve perf guard ok")
    return 0


ORACLE_SCHEMA = "impact-bench-oracle/1"
ORACLE_STATUSES = {"optimal", "suboptimal", "bounded", "skip-confirmed",
                   "skip-missed", "skip-open", "ineligible"}
ORACLE_SUMMARY_KEYS = {"loops", "optimal", "suboptimal", "bounded",
                       "skip_confirmed", "skip_missed", "skip_open",
                       "ineligible", "gap_cycles", "gap_bound_cycles",
                       "nodes"}


# Per-loop bounds and heuristic results of every analyzable loop: pure
# functions of the dependence graph and the pipeliner, so any change is
# an algorithmic change, never noise.
EXACT_LOOP_FIELDS = ("res_mii", "rec_mii", "mii", "heur_ii", "list_ci")


def validate_oracle_schema(doc, label):
    """Structural validation of an impact-bench-oracle/1 document."""
    problems = []
    if doc.get("schema") != ORACLE_SCHEMA:
        problems.append(f"schema: want {ORACLE_SCHEMA!r}, got {doc.get('schema')!r}")
    if not isinstance(doc.get("budget"), int) or doc.get("budget", -1) < 0:
        problems.append("budget: missing or not a non-negative int")
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        problems.append("summary: missing")
    else:
        for key in sorted(ORACLE_SUMMARY_KEYS - set(summary)):
            problems.append(f"summary.{key}: missing")
    loops = doc.get("loops")
    if not isinstance(loops, list) or not loops:
        problems.append("loops: missing or empty")
        loops = []
    seen = set()
    for i, loop in enumerate(loops):
        where = f"loops[{i}]"
        for key in ("subject", "machine"):
            if not isinstance(loop.get(key), str):
                problems.append(f"{where}.{key}: missing")
        if not isinstance(loop.get("lid"), int):
            problems.append(f"{where}.lid: missing")
        if loop.get("status") not in ORACLE_STATUSES:
            problems.append(f"{where}.status: bad value {loop.get('status')!r}")
        if not isinstance(loop.get("nodes"), int) or loop.get("nodes", -1) < 0:
            problems.append(f"{where}.nodes: missing or negative")
        if loop.get("status") != "ineligible":
            for key in ("mii", "lb"):
                if not isinstance(loop.get(key), int):
                    problems.append(f"{where}.{key}: missing for {loop.get('status')}")
            if not isinstance(loop.get("proved"), bool):
                problems.append(f"{where}.proved: missing")
        key = (loop.get("subject"), loop.get("machine"), loop.get("lid"))
        if key in seen:
            problems.append(f"{where}: duplicate loop key {key}")
        seen.add(key)
    if isinstance(summary, dict) and summary.get("loops") not in (None, len(loops)):
        problems.append(f"summary.loops {summary.get('loops')} != "
                        f"{len(loops)} loop records")
    if problems:
        print(f"{label}: schema validation failed:")
        for p in problems:
            print(f"  {p}")
        return False
    print(f"{label}: schema ok ({len(loops)} loops)")
    return True


def check_oracle(base, fresh):
    """Exact per-loop guard: a future PR cannot silently widen a
    certified gap, lose a proof, or start skipping a loop the oracle
    proved schedulable."""
    if not (validate_oracle_schema(base, "baseline")
            and validate_oracle_schema(fresh, "fresh")):
        return 1

    def by_key(doc):
        return {(l["subject"], l["machine"], l["lid"]): l
                for l in doc["loops"]}

    bmap, fmap = by_key(base), by_key(fresh)
    failures = []
    for key in sorted(bmap):
        b = bmap[key]
        f = fmap.get(key)
        name = "/".join(map(str, key))
        if f is None:
            failures.append(f"{name}: loop disappeared from the report")
            continue
        if f["status"] == "skip-missed":
            failures.append(f"{name}: oracle proves a schedule exists below "
                            f"the list bound but the pipeliner skips it")
        if b.get("proved") and not f.get("proved"):
            failures.append(f"{name}: proved verdict regressed to unproved")
        bg, fg = b.get("gap"), f.get("gap")
        if bg is not None and fg is not None and fg > bg:
            failures.append(f"{name}: certified gap widened {bg} -> {fg}")
        bu, fu = b.get("ub"), f.get("ub")
        if bu is not None and (fu is None or fu > bu):
            failures.append(f"{name}: known-feasible II regressed {bu} -> {fu}")
        if f["nodes"] != b["nodes"]:
            failures.append(f"{name}: search nodes changed "
                            f"{b['nodes']} -> {f['nodes']}")
        if b["status"] != "ineligible":
            for field in EXACT_LOOP_FIELDS:
                if f.get(field) != b.get(field):
                    failures.append(f"{name}: {field} changed "
                                    f"{b.get(field)} -> {f.get(field)}")
    for key in sorted(set(fmap) - set(bmap)):
        print(f"  new loop {'/'.join(map(str, key))}: "
              f"{fmap[key]['status']} (ok)")

    if failures:
        print("oracle certification regression:")
        for f in failures:
            print(f"  {f}")
        return 1
    bs, fs = base["summary"], fresh["summary"]
    print(f"oracle guard ok: {fs['optimal']} optimal "
          f"(baseline {bs['optimal']}), gap {fs['gap_cycles']} cycles "
          f"(baseline {bs['gap_cycles']}), "
          f"{len(fmap)} loops certified")
    return 0


# Fields of a BENCH_ooo.json report that describe the run, not the
# models: everything else must match exactly.
OOO_RUN_FIELDS = ("generated_at_unix", "workers")


def json_diff(a, b, path, out):
    """Append one line per leaf where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            where = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                out.append(f"{where}: {a.get(key)!r} -> {b.get(key)!r}")
            else:
                json_diff(a[key], b[key], where, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            json_diff(x, y, f"{path}[{i}]", out)
    elif a != b:
        out.append(f"{path}: {a!r} -> {b!r}")


def check_ooo(base, fresh):
    """Exact guard on the out-of-order evaluation report."""
    def strip(doc):
        return {k: v for k, v in doc.items() if k not in OOO_RUN_FIELDS}

    diffs = []
    json_diff(strip(base), strip(fresh), "", diffs)
    if diffs:
        print("OOO report drift (these numbers must be exact):")
        for d in diffs[:50]:
            print(f"  {d}")
        if len(diffs) > 50:
            print(f"  ... and {len(diffs) - 50} more")
        return 1
    print(f"ooo guard ok ({len(base.get('configs', []))} configs, "
          f"{len(base.get('collapse', []))} collapse rows, mode "
          f"{base.get('mode')})")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--fresh", required=True)
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed relative slowdown (0.25 = +25%%)")
    ap.add_argument("--min-seconds", type=float, default=0.05,
                    help="ignore metrics whose baseline is below this")
    ap.add_argument("--check-summary", action="store_true",
                    help="also require the fresh summary speedups, cell "
                         "count and metrics.counters to match the baseline "
                         "exactly")
    ap.add_argument("--serve", action="store_true",
                    help="compare BENCH_serve.json summaries (throughput and "
                         "client p99) instead of eval stage times")
    ap.add_argument("--oracle", action="store_true",
                    help="compare BENCH_oracle.json certification reports "
                         "(exact: schema, no lost proofs, no widened gaps, "
                         "equal per-loop nodes and MII bounds)")
    ap.add_argument("--ooo", action="store_true",
                    help="compare BENCH_ooo.json reports (exact, except "
                         "generated_at_unix and workers)")
    args = ap.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)

    if args.ooo:
        return check_ooo(base, fresh)

    if args.oracle:
        return check_oracle(base, fresh)

    if args.serve:
        return check_serve(base, fresh, args.tolerance)

    if args.check_summary:
        drift = []
        if base.get("cells") != fresh.get("cells"):
            drift.append(f"cells: {base.get('cells')} -> {fresh.get('cells')}")
        bs, fs = base.get("summary", {}), fresh.get("summary", {})
        for name in sorted(bs):
            if name not in fs or bs[name] != fs[name]:
                drift.append(f"summary.{name}: {bs[name]} -> {fs.get(name)}")
        bc = base.get("metrics", {}).get("counters", {})
        fc = fresh.get("metrics", {}).get("counters", {})
        for name in sorted(bc):
            if name not in fc or bc[name] != fc[name]:
                drift.append(f"metrics.counters.{name}: {bc[name]} -> {fc.get(name)}")
        if drift:
            print("in-order matrix drift (these numbers must be exact):")
            for d in drift:
                print(f"  {d}")
            return 1
        print(f"summary guard ok ({len(bs)} quantities, {len(bc)} counters, "
              f"{base.get('cells')} cells)")

    # Divide every wall time by its own file's host factor, when both
    # files carry one: the gate then compares the code, not the host.
    b_factor, f_factor = base.get("host_factor"), fresh.get("host_factor")
    if b_factor and f_factor:
        print(f"  host factor {b_factor:.3f} -> {f_factor:.3f}: "
              f"wall times divided by it")
    else:
        print("  host factor missing in one file: raw wall times")
        b_factor = f_factor = 1.0

    metrics = [("total_wall_s", base.get("total_wall_s"), fresh.get("total_wall_s"))]
    for name, old in sorted(base.get("stages", {}).items()):
        if not name.endswith("_busy_s"):
            continue
        metrics.append((f"stages.{name}", old, fresh.get("stages", {}).get(name)))

    failures = []
    for name, old, new in metrics:
        if old is None or new is None:
            print(f"  skip {name}: missing in one file")
            continue
        if old < args.min_seconds:
            print(f"  skip {name}: baseline {old:.3f}s below floor")
            continue
        old, new = old / b_factor, new / f_factor
        ratio = new / old
        flag = "REGRESSION" if ratio > 1.0 + args.tolerance else "ok"
        print(f"  {name}: {old:.3f}s -> {new:.3f}s ({ratio:.2f}x) {flag}")
        if ratio > 1.0 + args.tolerance:
            failures.append(name)

    if failures:
        print(f"perf regression (> +{args.tolerance:.0%}): {', '.join(failures)}")
        return 1
    print("perf guard ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
