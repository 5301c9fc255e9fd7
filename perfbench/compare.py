#!/usr/bin/env python3
"""Compare two saved perfbench results (.bench_out/<workload>-seed<n>-
trace<t>.json): print each metric's base value, new value and ratio.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) to compare results of different workloads or an
instrumented result with a clean one: tracing roughly doubles host time,
so such a ratio measures the instrumentation, not the change. A
different host or build is reported but not refused, since an A/B
comparison may rebuild on purpose; a delta across hosts is a statement
about the machines as much as about the code.
"""

import json
import sys
from pathlib import Path

HOST_KEYS = ("cpu_model", "nproc", "build_type", "compiler")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv[1:])
    if base["workload"] != new["workload"]:
        print(f"refused: workloads differ ({base['workload']} vs "
              f"{new['workload']})", file=sys.stderr)
        return 2
    bi = base["context"]["instrumentation"]
    ni = new["context"]["instrumentation"]
    if bi != ni:
        print(f"refused: instrumentation differs ({bi} vs {ni})",
              file=sys.stderr)
        return 2
    for k in HOST_KEYS:
        if base["context"][k] != new["context"][k]:
            print(f"warning: {k} differs: {base['context'][k]!r} vs "
                  f"{new['context'][k]!r}")
    print(f"{base['workload']}: {base['context']['commit'][:12]} "
          f"seed {base['seed']} -> {new['context']['commit'][:12]} "
          f"seed {new['seed']}")
    for name, bm in base["metrics"].items():
        nm = new["metrics"].get(name)
        if nm is None:
            print(f"  {name:32s} missing in {argv[2]}")
            continue
        b, n = bm["value"], nm["value"]
        r = f"{n / b:8.4f}x" if b else "     n/a"
        print(f"  {name:32s} {b:14.6g} -> {n:14.6g} {bm['unit']:6s} {r}")
    for label, rec in (("base", base), ("new", new)):
        if rec["failed"]:
            print(f"  {label}: {rec['failed']}/{rec['attempted']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
