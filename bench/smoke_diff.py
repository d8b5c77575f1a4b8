#!/usr/bin/env python3
"""List the deterministic end-to-end metrics that differ between two runs.

    python3 bench/smoke_diff.py parent.txt change.txt

Each argument is the standard output of `ldlp_e2e --smoke` (or of
`bench/e2e/run.py`), or a file holding just its JSON result line. Every
metric whose value depends on wall-clock time is skipped: the `ns_per_op`
families, `ops_per_s`, `p50_us`, `lat.*`, `setup_s`, `peak_rss_mb` and
`trace.overhead`. What is left (paper_stall_cycles_per_op, sim.*, batch
sizes, per-op counts, ratios) is fixed by the seed, so any line printed is
a change in what the stack did, not in how fast it ran.

Prints one line per differing metric, `<name> <first> -> <second>`, with
`missing` for a metric only one run has, then a count. Exits 0 when
nothing differs, 1 when something does, 2 on an unreadable input.
"""
import argparse
import json
import sys

TIMING_PREFIXES = ("ops_per_s", "p50_us", "lat.", "setup_s", "peak_rss_mb",
                   "trace.overhead")


def is_timing(name):
    """True for a metric (workload prefix stripped) measured in wall time."""
    return "ns_per_op" in name or name.startswith(TIMING_PREFIXES)


def load_metrics(path):
    """The deterministic metrics of the last JSON line in `path`."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f if line.lstrip().startswith("{")]
    if not lines:
        raise ValueError(f"no JSON result line in {path}")
    result = json.loads(lines[-1])  # JSONDecodeError is a ValueError
    metrics = {}
    for key, entry in result.get("metrics", {}).items():
        _, _, name = key.partition(".")
        if not is_timing(name):
            metrics[key] = entry["value"]
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("first", help="ldlp_e2e --smoke output, e.g. the parent's")
    p.add_argument("second", help="ldlp_e2e --smoke output, e.g. the change's")
    args = p.parse_args()
    try:
        a = load_metrics(args.first)
        b = load_metrics(args.second)
    except (OSError, ValueError) as e:
        print(f"smoke_diff: {e}", file=sys.stderr)
        return 2
    differ = 0
    for key in sorted(a.keys() | b.keys()):
        va = a.get(key, "missing")
        vb = b.get(key, "missing")
        if va != vb:
            print(f"{key} {va} -> {vb}")
            differ += 1
    print(f"{differ} of {len(a.keys() | b.keys())} deterministic metrics "
          "differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
