#!/usr/bin/env python3
"""Wall-clock evidence as one command (ROADMAP item 1, standing pair rule).

This class of box has no wall-clock baseline that holds for an hour, so a
difference between two revisions is only resolved by running them in
alternating pairs. This script does what every perf PR since 15 scripted
by hand:

  bench-pairs.py -against <rev> -workload <w>|all -pairs N [-seed S] [-seconds T]

It exports <rev> into .bench_build/pairs/<commit>/ (git archive: a plain
copy of the committed files, nothing registered in .git), builds that copy
and this checkout with the unchanged bench/run.sh, and runs the workload N
times on each, alternating which side goes first; "all" runs every
workload of BENCHMARK.json in turn. For every end-to-end metric it prints
each side's median and quartiles, the pairs this checkout won (ties count
for neither) and two verdicts:

  pair rule   the gain half: at least 10 pairs, at least nine tenths of
              them won, and the medians apart by more than the
              interquartile range of <rev>'s own runs;
  bound       the no-regression half: whether this checkout's median is
              worse than <rev>'s by no more than the metric's bound in
              BENCHMARK.json. When <rev>'s own IQR is wider than the bound
              a median inside it proves nothing and reads "unresolved",
              unless every run here beat every run of <rev>.

Every run's values are printed as they arrive. It edits nothing under
bench/ and nothing in either tree but .bench_build/.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sh(*cmd, cwd=ROOT):
    return subprocess.run(cmd, cwd=cwd, check=True, stdout=subprocess.PIPE, text=True).stdout


def export(rev):
    """The committed files of rev under .bench_build/pairs/, and its short name."""
    commit = sh("git", "rev-parse", "--verify", rev + "^{commit}").strip()
    pairs = os.path.join(ROOT, ".bench_build", "pairs")
    tree = os.path.join(pairs, commit[:12])
    if not os.path.isdir(tree):
        # Extract beside it and rename into place: an interrupted export
        # leaves a stray temporary directory, never a half tree that a
        # later run would take for a whole one.
        os.makedirs(pairs, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=commit[:12] + ".", dir=pairs)
        try:
            archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
            subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout, check=True)
            if archive.wait() != 0:
                sys.exit(f"bench-pairs: git archive {commit} failed")
            os.rename(tmp, tree)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return tree, commit[:7]


def run(tree, args):
    """One run of the benchmark in tree: its end-to-end values, by metric name."""
    out = sh("bash", "bench/run.sh", *args, cwd=tree)
    r = json.loads(out.strip().splitlines()[-1])
    if r["failed"] != 0 or r["correct"] is not True:
        sys.exit(f"bench-pairs: {tree}: failed={r['failed']} correct={r['correct']}")
    return {name: m["value"] for name, m in r["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def compare(workload, sides, name, a, seconds, contract):
    """N alternating pairs of workload on both sides, then one row per end-to-end metric."""
    args = ["-workload", workload, "-seed", str(a.seed), "-seconds", str(seconds), "-trace", "0"]
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]]
    print(f"bench-pairs: {workload} seed {a.seed} seconds {seconds}: {a.pairs} pairs, {name} vs here")
    runs = {side: [] for side in sides}
    for i in range(a.pairs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(run(sides[side], args))
        print(f"pair {i + 1:2} ({order[0]} first): " + "  ".join(
            f"{m} {runs[name][i][m]:.6g} -> {runs['here'][i][m]:.6g}" for m, _, _, _ in metrics), flush=True)
    print(f"\n{'metric':18} {'unit':5} {name + ' median [q1-q3]':>34} {'here median [q1-q3]':>34} "
          f"{'change':>8}  won  {'pair rule':26}  bound")
    for m, unit, better, bound in metrics:
        base, here = [r[m] for r in runs[name]], [r[m] for r in runs["here"]]
        sign = 1 if better == "higher" else -1
        won = sum(sign * (h - b) > 0 for b, h in zip(base, here))
        lost = sum(sign * (h - b) < 0 for b, h in zip(base, here))
        (bq1, bmed, bq3), (hq1, hmed, hq3) = quartiles(base), quartiles(here)
        gap, iqr = sign * (hmed - bmed), bq3 - bq1
        if gap == 0 and won == lost == 0:
            verdict = "identical"
        elif a.pairs >= 10 and 10 * won >= 9 * a.pairs and gap > iqr:
            verdict = "GAIN by the pair rule"
        elif a.pairs >= 10 and 10 * lost >= 9 * a.pairs and -gap > iqr:
            verdict = "LOSS by the pair rule"
        else:
            verdict = "unresolved" if a.pairs >= 10 else "too few pairs for the rule"
        scale = abs(bmed) or 1
        every_run_better = min(sign * h for h in here) > max(sign * b for b in base)
        if -gap / scale > bound:
            held = f"WORSE than the {bound:.0%} bound"
        elif iqr / scale > bound and not every_run_better:
            held = f"unresolved ({name} IQR {iqr / scale:.1%} > {bound:.0%})"
        else:
            held = f"within {bound:.0%}"
        change = f"{(hmed - bmed) / bmed:+.1%}" if bmed else "n/a"
        print(f"{m:18} {unit:5} {f'{bmed:.6g} [{bq1:.6g}-{bq3:.6g}]':>34} "
              f"{f'{hmed:.6g} [{hq1:.6g}-{hq3:.6g}]':>34} {change:>8}  {won}/{a.pairs}  {verdict:26}  {held}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-against", required=True, metavar="REV", help="the revision to compare this checkout with")
    ap.add_argument("-workload", required=True, help='a workload of BENCHMARK.json, or "all"')
    ap.add_argument("-pairs", type=int, default=10)
    ap.add_argument("-seed", type=int, default=1)
    ap.add_argument("-seconds", type=int, help="run length (default: BENCHMARK.json's run_seconds)")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    names = [w["name"] for w in contract["workloads"]]
    workloads = names if a.workload == "all" else [a.workload]
    if not set(workloads) <= set(names) or a.pairs < 1:
        ap.error(f"unknown workload {a.workload!r} or no pairs")
    seconds = a.seconds or contract["run_seconds"]
    other, name = export(a.against)
    sides = {name: other, "here": ROOT}
    for tree in sides.values():  # build both before the first timed run
        sh("bash", "bench/run.sh", "-describe", cwd=tree)
    for i, workload in enumerate(workloads):
        if i:
            print()
        compare(workload, sides, name, a, seconds, contract)


if __name__ == "__main__":
    main()
