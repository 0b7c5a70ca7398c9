#!/usr/bin/env python3
"""Compare a change against its parent with alternating benchmark pairs.

    python3 tools/bench_pairs.py --out BENCH_pr<N>.json [--parent REV]
        [--pairs 5] [--seconds 10] [--workloads W ...] [--traced W ...]

Run from the repository root. The change is the working tree; the parent
is REV (default HEAD~1), exported with `git archive` into a fresh
directory under --scratch, or an existing checkout of it given with
--parent-dir (a `git worktree` works). Each side builds `rbbench/` from its
own sources into a CARGO_TARGET_DIR under --scratch tied to that checkout,
so neither reuses the other's objects, and a later run with the same
--scratch builds its own export afresh. An export and its build are
removed when the script ends.

The pairs protocol:
  * Each side first runs once untimed per workload (build and warm-up);
    that run is not recorded.
  * Pair i runs `python3 rbbench/run.py --workload W --seed <seed-base + i>
    --seconds S --trace 0` on both sides, the same seed on each. Even pairs
    run the parent first, odd pairs the change first, so drift over the
    session falls on both sides alike.
  * Every run must print `"correct": true` and `"failed": 0`; a run that
    does not is recorded and makes the script exit 1.
  * For each workload and each end-to-end metric BENCHMARK.json lists,
    the report gives each side's min, Q1, median, Q3 and max, and how many
    pairs the change won (better in the metric's direction).
  * No regression: on every workload no end-to-end metric's median is
    worse than the parent's by more than its BENCHMARK.json bound. Each
    metric's `verdict` says so: `within_bound`, `worse`, or `unresolved`
    when the parent's own spread, (Q3 - Q1) / median, is wider than the
    bound and the change does not beat every parent run (see verdict()).
    The older boolean `within_bound` field is kept beside it.
  * Claiming a gain needs at least 10 pairs on the claimed workload and 5
    on every other: the change must win at least 9 of 10 pairs, and its
    median must beat the parent's by more than the parent's Q3 - Q1.
--traced W runs one `--trace 1` run per side for each listed workload,
the parent first, and records both per-layer splits as
traced[W] = {"parent": ..., "change": ...}. A traced run that fails on
either side (its replay mismatches included) counts as a failure.

The report also records the seeds, `nproc` and the CPU model. It is a
report, not a gate: numbers from different machines do not compare.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

WORKLOADS = ("sweep-cold", "sweep-warm", "serve-open-loop", "forge")


def log(message):
    print(f"[bench_pairs] {message}", file=sys.stderr, flush=True)


def export_parent(rev, scratch):
    """Extracts `rev`'s tracked files into a fresh directory under scratch."""
    target = tempfile.mkdtemp(prefix="parent-", dir=scratch)
    archive = os.path.join(scratch, "parent.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, rev],
                   check=True)
    with tarfile.open(archive) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(target, filter="data")
        else:
            tar.extractall(target)
    os.remove(archive)
    return target


def target_dir_for(scratch, checkout):
    """The CARGO_TARGET_DIR of `checkout`: one per checkout path, since a
    CMake build directory only builds the sources it was configured with."""
    digest = hashlib.sha1(os.path.abspath(checkout).encode()).hexdigest()
    return os.path.join(scratch,
                        f"target-{os.path.basename(checkout)}-{digest[:12]}")


def run_bench(checkout, target_dir, workload, seed, seconds, trace):
    """One rbbench run; returns its JSON result, or None when it failed."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    command = [sys.executable, "rbbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    result = subprocess.run(command, cwd=checkout, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def healthy(result):
    return (result is not None and result.get("correct") is True
            and result.get("failed") == 0)


def summarize(values):
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = median = q3 = ordered[0]
    return {"min": ordered[0], "q1": q1, "median": median, "q3": q3,
            "max": ordered[-1], "runs": ordered}


def median_worse_by(parent, change, lower):
    """How much worse the change's median is than the parent's, as a share
    of the parent's median; negative when it is better."""
    delta = change["median"] - parent["median"]
    return (delta if lower else -delta) / parent["median"]


def verdict(parent_runs, change_runs, bound, lower):
    """`within_bound`, `worse` or `unresolved` for one metric.

    When the parent's (Q3 - Q1) / median is wider than `bound`, a median
    shift inside that spread says nothing, so the verdict is `unresolved`
    unless every change run beats every parent run. Otherwise the median
    decides. `lower` is True when lower values are better.

    >>> verdict([10, 10, 10, 10, 10], [12, 12, 12, 12, 12], 0.25, lower=True)
    'within_bound'
    >>> verdict([10, 10, 10, 10, 10], [13, 13, 13, 13, 13], 0.25, lower=True)
    'worse'
    >>> verdict([100, 100, 100, 100, 100], [70, 70, 70, 70, 70], 0.25,
    ...         lower=False)
    'worse'

    A parent spread of (12 - 8) / 10 = 0.4 is wider than a 0.25 bound:
    neither a better nor a worse median resolves it,

    >>> verdict([6, 8, 10, 12, 14], [9, 9, 9, 9, 9], 0.25, lower=True)
    'unresolved'
    >>> verdict([6, 8, 10, 12, 14], [13, 13, 13, 13, 13], 0.25, lower=True)
    'unresolved'

    but a change that beats every parent run does.

    >>> verdict([6, 8, 10, 12, 14], [5, 5, 5, 5, 5], 0.25, lower=True)
    'within_bound'
    """
    parent, change = summarize(parent_runs), summarize(change_runs)
    beats_every_run = (max(change_runs) < min(parent_runs) if lower
                       else min(change_runs) > max(parent_runs))
    spread = (parent["q3"] - parent["q1"]) / parent["median"]
    if spread > bound and not beats_every_run:
        return "unresolved"
    if median_worse_by(parent, change, lower) > bound:
        return "worse"
    return "within_bound"


def revision(checkout, rev=None):
    """`rev` resolved in the git checkout; with no `rev`, the checkout's
    working tree: its HEAD, marked dirty when its tracked files differ from
    it. None when `checkout` is no git checkout or `rev` is unknown."""
    if not os.path.exists(os.path.join(checkout, ".git")):
        return None
    def git(*command):
        return subprocess.run(["git", "-C", checkout, *command], text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
    head = git("rev-parse", rev or "HEAD")
    if head.returncode != 0:
        return None
    if rev is not None:
        return head.stdout.strip()
    dirty = git("diff", "--quiet", "HEAD").returncode != 0
    return head.stdout.strip() + ("+dirty" if dirty else "")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="report path (JSON)")
    parser.add_argument("--parent", default="HEAD~1", help="parent revision")
    parser.add_argument("--parent-dir",
                        help="existing checkout of the parent (skips export)")
    parser.add_argument("--scratch", default=".bench_pairs",
                        help="directory for the parent export and builds")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--traced", nargs="*", choices=WORKLOADS, default=[],
                        help="workloads to run once traced on each side, "
                             "parent first; a failure on either side counts")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be >= 1")

    change_dir = os.getcwd()
    with open(os.path.join(change_dir, "BENCHMARK.json")) as spec_file:
        end_to_end = json.load(spec_file)["end_to_end"]
    scratch = os.path.abspath(args.scratch)
    os.makedirs(scratch, exist_ok=True)
    parent_dir = (os.path.abspath(args.parent_dir) if args.parent_dir
                  else export_parent(args.parent, scratch))
    sides = {side: (checkout, target_dir_for(scratch, checkout))
             for side, checkout in (("parent", parent_dir),
                                    ("change", change_dir))}
    try:
        return compare(args, sides, end_to_end)
    finally:
        if not args.parent_dir:
            shutil.rmtree(parent_dir, ignore_errors=True)
            shutil.rmtree(sides["parent"][1], ignore_errors=True)


def compare(args, sides, end_to_end):
    """Runs the pairs and traced runs, writes the report; the exit code."""
    parent_dir, change_dir = sides["parent"][0], sides["change"][0]
    seeds = [args.seed_base + i for i in range(args.pairs)]
    failures = []
    report = {
        "protocol": "alternating parent/change pairs, same seed per pair; "
                    "see tools/bench_pairs.py --help",
        "parent": (revision(parent_dir) if args.parent_dir
                   else revision(change_dir, args.parent)) or args.parent,
        "change": revision(change_dir),
        "seconds": args.seconds,
        "seeds": seeds,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workloads": {},
        "traced": {},
    }

    for workload in args.workloads:
        for side, (checkout, target) in sides.items():
            log(f"{workload}: warm-up on {side}")
            if not healthy(run_bench(checkout, target, workload,
                                     args.seed_base, 1, 0)):
                failures.append(f"{workload} warm-up on {side}")
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout, target = sides[side]
                result = run_bench(checkout, target, workload, seed,
                                   args.seconds, 0)
                if not healthy(result):
                    failures.append(f"{workload} seed {seed} on {side}")
                    result = None
                runs[side].append(result)
            log(f"{workload}: pair {i + 1}/{args.pairs} done")

        entry = {}
        for metric in end_to_end:
            name = metric["name"]
            lower = metric["better"] == "lower"
            values = {side: [r["metrics"][name]["value"] if r else None
                             for r in runs[side]] for side in runs}
            pairs = [(p, c) for p, c in zip(values["parent"], values["change"])
                     if p is not None and c is not None]
            if not pairs:
                continue
            wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
            parent_runs = [p for p, _ in pairs]
            change_runs = [c for _, c in pairs]
            parent = summarize(parent_runs)
            change = summarize(change_runs)
            worse = median_worse_by(parent, change, lower)
            entry[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "parent": parent, "change": change,
                "change_wins": wins, "pairs": len(pairs),
                "median_worse_by": worse,
                "within_bound": worse <= metric["bound"],
                "verdict": verdict(parent_runs, change_runs, metric["bound"],
                                   lower),
            }
        report["workloads"][workload] = entry

    for workload in args.traced:
        traced = {}
        for side in ("parent", "change"):
            checkout, target = sides[side]
            log(f"{workload}: traced run on {side}")
            result = run_bench(checkout, target, workload, args.seed_base,
                               args.seconds, 1)
            if not healthy(result):
                failures.append(f"{workload} traced on {side}")
            traced[side] = result
        report["traced"][workload] = traced

    report["failures"] = failures
    with open(args.out, "w") as out:
        json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
    log(f"wrote {args.out}")
    if failures:
        log("failed runs: " + ", ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
