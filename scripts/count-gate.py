#!/usr/bin/env python3
"""The counted gate (ROADMAP item 1).

Runs every workload of the repository benchmark for one second at full
scale (`bash bench/run.sh -workload W -seed 1 -seconds 1`) and compares
its deterministic counts -- attempted, virt_ns_per_op, pm_bytes_per_op,
space_amp -- with testdata/bench_counts.golden. The counts are simulated
quantities, bit-identical run to run and host to host on get_uniform,
wire_pipe64 and wire_rtt, so those compare exactly; mix_zipf interleaves
two writers in real time and gets 1 % (runs at this scale usually spread
0.05 %, but a descheduled writer was seen to move virt_ns_per_op 1.08 %
once in a dozen runs, so that workload is tried up to three times and
must land inside the tolerance once: a real shift misses every time).
failed must be 0 everywhere. Wall-clock metrics are not looked at: they
do not hold still on a shared runner.

  count-gate.py           check against the golden, exit 1 on a difference
  count-gate.py -update   rewrite the golden (say why in CHANGES.md), printing
                          every field of every row as old -> new, or unchanged
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "testdata", "bench_counts.golden")
COUNTS = ("virt_ns_per_op", "pm_bytes_per_op", "space_amp")
TOLERANCE = {"get_uniform": 0.0, "mix_zipf": 0.01, "wire_pipe64": 0.0, "wire_rtt": 0.0}


def run(workload):
    out = subprocess.run(
        ["bash", "bench/run.sh", "-workload", workload, "-seed", "1", "-seconds", "1"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    r = json.loads(out.strip().splitlines()[-1])
    if r["failed"] != 0 or r["correct"] is not True:
        sys.exit(f"count-gate: {workload}: failed={r['failed']} correct={r['correct']}")
    row = {"workload": workload, "attempted": r["attempted"]}
    row.update((c, r["metrics"][c]["value"]) for c in COUNTS)
    return row


def differences(row, want, tol):
    """The counts of row outside tol of want, as printable lines; every line says ok or FAIL."""
    lines, bad = [], 0
    for k in ("attempted",) + COUNTS:
        ok = row[k] == want[k] if tol == 0 else abs(row[k] - want[k]) <= tol * abs(want[k])
        bad += not ok
        lines.append(f"{'ok  ' if ok else 'FAIL'} {row['workload']:12} {k:16} {row[k]!r:>20}  "
                     f"golden {want[k]!r} (tolerance {tol:.0%})")
    return lines, bad


def read_golden():
    with open(GOLDEN) as f:
        return {row["workload"]: row for row in map(json.loads, f)}


def moves(row, old):
    """Every field of row against the old golden row, as printable lines."""
    return [f"{row['workload']:12} {k:16} " +
            ("unchanged" if old is not None and old.get(k) == v else
             f"{(old or {}).get(k)!r} -> {v!r}")
            for k, v in row.items() if k != "workload"]


def main():
    if sys.argv[1:] == ["-update"]:
        old = read_golden() if os.path.exists(GOLDEN) else {}
        rows = [run(w) for w in TOLERANCE]
        with open(GOLDEN, "w") as f:
            f.writelines(json.dumps(row) + "\n" for row in rows)
        for row in rows:
            print("\n".join(moves(row, old.get(row["workload"]))))
        print(f"count-gate: wrote {os.path.relpath(GOLDEN, ROOT)}")
        return
    golden = read_golden()
    failed = 0
    for w, tol in TOLERANCE.items():
        for attempt in range(3 if tol else 1):
            lines, bad = differences(run(w), golden[w], tol)
            if not bad:
                break
        print("\n".join(lines))
        failed += bad
    if failed:
        sys.exit(f"count-gate: {failed} count(s) differ from {os.path.relpath(GOLDEN, ROOT)}; "
                 "if the change means to move them, run `make count-gate-update` and say why in CHANGES.md")
    print("count-gate: every count matches the golden")


if __name__ == "__main__":
    main()
