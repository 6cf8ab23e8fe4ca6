#!/usr/bin/env python3
"""Maintain and gate the committed BENCH_buddy.json snapshot.

The repo commits a merged buddy-bench-v1 snapshot at the root so
downstream tooling (and reviewers) can diff bench behaviour without
building. Its `sim/` and `shard/` metric subtrees are simulated-time
totals, which the determinism contract pins bit-for-bit run-to-run
(`shard/` ones at a fixed shard count, which every smoke bench fixes) —
so a divergence between the committed snapshot and a fresh run means
the snapshot is stale (someone changed timing behaviour without
refreshing it), and CI should fail rather than let the artifact rot.

    refresh  re-run the smoke benches and fold their reports into
             BENCH_buddy.json in place; an entry whose deterministic
             metrics and shape match the fresh report is kept verbatim
             (as are non-smoke entries), so its wall times do not churn;
             print each entry replaced, with each deterministic `sim/`
             or `shard/` metric and each shape difference that made it
    check    re-run the smoke benches and compare every deterministic
             `sim/` and `shard/` metric of the committed snapshot
             against the fresh reports, and each entry's shape: its
             table headers and the key set of its values (not the
             values, which hold wall times); exit 1 on any divergence

Both modes run the same bench commands, so `check` failing is always
fixable by `refresh` + commit.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

# The smoke benches CI regenerates: deterministic, seconds to run, and
# the only snapshot entries that carry attached metric registries.
SMOKE_BENCHES = [
    ("engine_scaling", ["--smoke"]),
    ("service_load", ["--smoke"]),
    ("fig10_sim_speed", ["--smoke"]),
    ("fig12_um_oversubscription", ["--smoke"]),
    ("ablation_codec_timing", []),
]

METRIC_KINDS = ("counters", "gauges", "histograms")

# Deterministic subtrees: `sim/` is sharding-invariant, `shard/` is
# reproducible at a fixed shard count. `wall/` holds host timings.
DETERMINISTIC_PREFIXES = ("sim/", "shard/")


def run_smoke_benches(build_dir: Path, out_dir: Path) -> dict:
    """Run each smoke bench with --json; return {bench: report}."""
    reports = {}
    for name, flags in SMOKE_BENCHES:
        exe = build_dir / f"bench_{name}"
        if not exe.exists():
            sys.exit(f"error: {exe} not built (build the bench targets "
                     "first)")
        out = out_dir / f"{name}.json"
        cmd = [str(exe), *flags, "--json", str(out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.exit(f"error: {' '.join(cmd)} failed:\n{proc.stdout}")
        report = json.loads(out.read_text())
        reports[report["bench"]] = report
    return reports


def deterministic_subtrees(report: dict) -> dict:
    """The sim/ and shard/ metrics of one report, flattened."""
    flat = {}
    for kind, metrics in report.get("metrics", {}).items():
        if kind not in METRIC_KINDS:
            continue
        for name, value in metrics.items():
            if name.startswith(DETERMINISTIC_PREFIXES):
                flat[f"{kind}:{name}"] = value
    return flat


def diff_subtrees(bench: str, committed: dict, fresh: dict) -> list:
    """Human-readable divergences between two flattened subtrees."""
    problems = []
    for key in sorted(committed.keys() | fresh.keys()):
        if key not in fresh:
            problems.append(f"{bench}: {key} committed but gone fresh")
        elif key not in committed:
            problems.append(f"{bench}: {key} fresh but not committed")
        elif committed[key] != fresh[key]:
            problems.append(f"{bench}: {key} committed "
                            f"{committed[key]!r} != fresh {fresh[key]!r}")
    return problems


def shape_problems(bench: str, committed: dict, fresh: dict) -> list:
    """Divergences in table headers or in the set of value keys."""
    problems = []
    headers = [[t["headers"] for t in r.get("tables", [])]
               for r in (committed, fresh)]
    if headers[0] != headers[1]:
        problems.append(f"{bench}: table headers committed {headers[0]!r} "
                        f"!= fresh {headers[1]!r}")
    keys = [set(r.get("values", {})) for r in (committed, fresh)]
    for key in sorted(keys[0] - keys[1]):
        problems.append(f"{bench}: value {key} committed but gone fresh")
    for key in sorted(keys[1] - keys[0]):
        problems.append(f"{bench}: value {key} fresh but not committed")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=["refresh", "check"])
    ap.add_argument("--build-dir", default="build", type=Path)
    ap.add_argument("--snapshot", default=Path(__file__).parent.parent /
                    "BENCH_buddy.json", type=Path)
    args = ap.parse_args()

    snapshot = json.loads(args.snapshot.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        fresh = run_smoke_benches(args.build_dir, Path(tmp))

    if args.mode == "refresh":
        replaced = 0
        for bench, report in fresh.items():
            committed = snapshot["benches"].get(bench, {})
            changes = diff_subtrees(bench, deterministic_subtrees(committed),
                                    deterministic_subtrees(report))
            changes += shape_problems(bench, committed, report)
            if bench in snapshot["benches"] and not changes:
                continue
            print(f"{'replaced' if committed else 'added'} {bench}")
            for change in changes:
                print(f"  {change}")
            snapshot["benches"][bench] = report
            replaced += 1
        snapshot["benches"] = dict(sorted(snapshot["benches"].items()))
        args.snapshot.write_text(
            json.dumps(snapshot, indent=1, sort_keys=False) + "\n")
        print(f"replaced {replaced} of {len(fresh)} smoke bench entries in "
              f"{args.snapshot}; kept the others verbatim")
        return 0

    problems = []
    for bench, report in fresh.items():
        committed = snapshot["benches"].get(bench)
        if committed is None:
            problems.append(f"{bench}: missing from the committed "
                            "snapshot")
            continue
        problems += diff_subtrees(bench, deterministic_subtrees(committed),
                                  deterministic_subtrees(report))
        problems += shape_problems(bench, committed, report)
    if problems:
        print("committed BENCH_buddy.json is stale — its deterministic "
              "sim/ or shard/ metrics or its table shapes diverge from a "
              "fresh run:")
        for p in problems:
            print(f"  {p}")
        print("fix: python3 tools/bench_snapshot.py refresh "
              "--build-dir <build> and commit the result")
        return 1
    print(f"snapshot sim/ and shard/ subtrees and table shapes match a "
          f"fresh run ({len(fresh)} benches checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
