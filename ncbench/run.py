#!/usr/bin/env python3
"""ncspectrum benchmark: time to verdict on two pinned workloads.

    python3 ncbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ncbench/run.py --workload all

Run from the root of a checkout; the package is imported from ./src and
nowhere else.  One workload runs per process.  With --trace 0 the run
repeats whole passes over the workload's cases while another pass as
fast as the fastest so far ends within --seconds (at least one pass),
and reports the end-to-end metrics from each case's fastest time.  With
--trace 1 it runs each case once untraced and once traced, right after
each other, and reports the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload in its own process, one after
another, and prints a table.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  attempted counts the distinct
cases and failed those whose verdict the oracle rejects, that raised or
that exited non-zero; correct is false when a case reported success
with a wrong result, failed outside the pinned baseline (see
workloads.KNOWN_FAILURES) or changed its verdict between passes.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "ncspectrum")

# setup_s is the median of the run's own cold setup and SETUP_PROBES more
# in fresh processes, half before the passes and half after them
SETUP_PROBES = 10
DEFAULT_SECONDS = 60

# the end-to-end metrics of BENCHMARK.json.  verdict_p50_s and fail_ratio
# are reported in the "#" lines only: fail_ratio is 0 on one-algebra, and
# naturality's median case is whichever ~0.1 s case lands in the middle.
END_TO_END_UNITS = {
    "wall_s": "s",
    "verdict_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
UNITS = dict(END_TO_END_UNITS, verdict_p50_s="s")

TRACE_UNITS = {
    "trace.overhead_ratio": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
}

# The CPUs this process may run on.  On a shared host one vCPU at a time
# runs 1.4 to 1.6 times slower than the other for seconds to minutes
# (probably a busy neighbour on its physical core), so before each case
# the process moves to whichever CPU runs a short probe fastest.  The
# probe chooses where a case runs; it never scales a time.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else []
PROBE_TERMS = 1000
cpu_choices = collections.Counter()

# spans whose inclusive share the traced report prints
INCLUSIVE = ("ktheory.spec_default", "ktheory.build_subdiagram",
             "ideals.enumerate_partial_ideals", "ktheory.naturality")


class MissingPackage(RuntimeError):
    pass


def calibrate(terms=6000):
    """A fixed stdlib loop, timed: the calibration diagnostic at its
    default size, the CPU probe at PROBE_TERMS; never used to scale."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, terms):
        total += Fraction(1, i)
    return time.perf_counter() - t0


def move_to_fastest_cpu():
    """Pin this process to the CPU of CPUS that runs the probe fastest."""
    if len(CPUS) < 2:
        return
    timed = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        timed.append((min(calibrate(PROBE_TERMS) for _ in range(3)), cpu))
    cpu = min(timed)[1]
    os.sched_setaffinity(0, {cpu})
    cpu_choices[cpu] += 1


def load_package():
    """Import ncspectrum from ./src; returns its modules."""
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        raise MissingPackage(f"no ncspectrum package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("ncspectrum")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != PACKAGE_DIR:
        raise MissingPackage(f"ncspectrum was imported from {pkg.__file__}")
    importlib.import_module("ncspectrum.cli")
    return types.SimpleNamespace(
        cli=sys.modules["ncspectrum.cli"],
        ktheory=sys.modules["ncspectrum.ktheory"],
        algebra=sys.modules["ncspectrum.algebra"],
        serialize=sys.modules["ncspectrum.serialize"])


def setup(workload, seed):
    """Import ncspectrum and generate the workload's inputs, timed.  In a
    fresh process the import is a cold one.  Returns (modules, cases,
    seconds)."""
    t0 = time.perf_counter()
    ns = load_package()
    cases = workloads.build_cases(ns, workload, seed)
    return ns, cases, time.perf_counter() - t0


def probe_setup(workload, seed, count):
    """setup() in count fresh processes, one after another; their times."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


class Pass:
    """One pass over every case: per-case times and outcomes."""

    def __init__(self):
        self.times = {}
        self.outcomes = {}   # case id -> (status, reason); ok, failed, wrong

    @property
    def wall_s(self):
        return sum(self.times.values())


def run_one(ns, case, result, tracer=None):
    """Run a case and record its time and outcome in result.  A garbage
    collection before it, outside the timed region, keeps one case's
    garbage out of the next case's time and memory, whatever the order."""
    gc.collect()
    move_to_fastest_cpu()
    if tracer is not None:
        tracer.begin_case(case.case_id)
    t0 = time.perf_counter()
    try:
        code, output = workloads.run_case(ns, case)
        raised = None
    except Exception as exc:  # a failure is recorded and the run goes on
        raised = f"raised {type(exc).__name__}: {exc}"
    result.times[case.case_id] = time.perf_counter() - t0
    if tracer is not None:
        tracer.begin_case(None)
    if raised is not None:
        result.outcomes[case.case_id] = ("failed", raised)
        return
    verdict = workloads.check(case, code, output)
    if verdict is None:
        result.outcomes[case.case_id] = ("ok", "")
    else:
        wrong, reason = verdict
        result.outcomes[case.case_id] = ("wrong" if wrong else "failed",
                                        reason)


def run_pass(ns, cases, tracer=None):
    """Every case once."""
    result = Pass()
    for case in cases:
        run_one(ns, case, result, tracer)
    return result


def tail(values):
    """(value, percentile) at the highest percentile that has at least
    ten values beyond it; the maximum with fewer than 11 values."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 10 if n >= 11 else n
    return ordered[rank - 1], 100.0 * rank / n


def verdicts(cases, passes):
    """(attempted, failed, correct, failure reasons by case id).

    correct is false when a case reported success with a wrong result,
    failed in a way the pinned baseline does not allow (a raise, any
    failure of a case not known to fail, an unknown reason), or changed
    its verdict between passes.  A known failing case that now passes
    the oracle is correct."""
    failures = {}
    correct = True
    for case in cases:
        seen = {p.outcomes[case.case_id] for p in passes}
        if len(seen) > 1:
            correct = False
            failures[case.case_id] = "verdict changed between passes"
            continue
        status, reason = seen.pop()
        if status == "ok":
            continue
        failures[case.case_id] = reason
        if status == "wrong" or not workloads.expected_failure(case, reason):
            correct = False
    return len(cases), len(failures), correct, failures


def reason_counts(failures):
    return dict(sorted(collections.Counter(failures.values()).items()))


def end_to_end(cases, passes, setup_times):
    """Each case's fastest time over the passes: the host's speed swings
    by up to a factor of two for tens of seconds at a time, and the
    fastest of several passes spread over the run is the figure that
    such a phase moves least."""
    per_case = [min(p.times[c.case_id] for p in passes) for c in cases]
    tail_s, tail_pct = tail(per_case)
    metrics = {
        "wall_s": sum(per_case),
        "verdict_p50_s": statistics.median(per_case),
        "verdict_tail_s": tail_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, tail_pct


def measure(workload, seed, seconds):
    calibration = [calibrate()]
    move_to_fastest_cpu()
    ns, cases, own_setup = setup(workload, seed)
    half = SETUP_PROBES // 2
    move_to_fastest_cpu()
    setup_times = [own_setup] + probe_setup(workload, seed, half)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ns, cases))
        # start another pass only if one as fast as the fastest so far
        # still ends within the run
        left = seconds - (time.perf_counter() - start)
        if left < min(p.wall_s for p in passes):
            break
    move_to_fastest_cpu()
    setup_times += probe_setup(workload, seed, SETUP_PROBES - half)
    calibration.append(calibrate())
    metrics, tail_pct = end_to_end(cases, passes, setup_times)
    attempted, failed, correct, failures = verdicts(cases, passes)

    print(f"# workload {workload} seed {seed}: {len(passes)} pass(es), "
          f"{attempted} cases, tail at p{tail_pct:.1f}")
    for case in cases:
        times = [p.times[case.case_id] for p in passes]
        status = failures.get(case.case_id, "ok")
        print(f"#   {case.case_id:<40} {min(times):9.4f} s  {status}")
    for name, value in metrics.items():
        print(f"# {name:<16} {value:12.6f} {UNITS[name]}")
    print(f"# fail_ratio {failed}/{attempted}")
    detail = {
        "workload": workload, "seed": seed, "passes": len(passes),
        "cases": attempted, "tail_percentile": tail_pct,
        "fail_ratio": failed / attempted,
        "verdict_p50_s": metrics["verdict_p50_s"],
        "failures_by_reason": reason_counts(failures),
        "failed_cases": dict(sorted(failures.items())),
        "setup_s_all": setup_times,
        "pass_wall_s": [p.wall_s for p in passes],
        "calibration_s": calibration,
        "cases_by_cpu": dict(sorted(cpu_choices.items())),
    }
    print("# detail " + json.dumps(detail, sort_keys=True))
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in END_TO_END_UNITS.items()},
    }


def trace(workload, seed):
    calibration = [calibrate()]
    ns, cases, _ = setup(workload, seed)
    # each case untraced and then traced right after it, so that the two
    # sides of trace.overhead_ratio run in the same phase of the host
    plain, traced = Pass(), Pass()
    tracer = tracing.Tracer()
    for case in cases:
        run_one(ns, case, plain)
        with tracer.installed():
            run_one(ns, case, traced, tracer)
    calibration.append(calibrate())
    attempted, failed, correct, failures = verdicts(cases, [plain, traced])

    counts, self_s = tracer.totals()
    layer = tracing.layer_metrics(counts, self_s)
    for name, value in (("trace.overhead_ratio",
                         traced.wall_s / plain.wall_s - 1.0),
                        ("trace.untraced_wall_s", plain.wall_s),
                        ("trace.traced_wall_s", traced.wall_s)):
        layer[name] = (value, TRACE_UNITS[name])

    print(f"# workload {workload} seed {seed}: traced, {attempted} cases, "
          f"{len(tracer.spans)} spans")
    print(f"#   {'case':<40} {'untraced':>9} {'traced':>9} {'nodes':>6} "
          f"{'edges':>6} {'gens':>6} {'rels':>6} {'build_s':>8} "
          f"{'lattice_s':>9} {'invf_s':>7} {'snf_s':>7}  verdict")
    for case in cases:
        c = tracer.cases[case.case_id].counts
        snf_s = sum(v for k, v in tracer.cases[case.case_id].self_s.items()
                    if k.startswith("snf."))
        build_s, lattice_s, invf_s = (
            tracer.inclusive_s(name, case.case_id) for name in
            ("ktheory.build_subdiagram", "abgroup.lattice",
             "abgroup.invariant_factors"))
        print(f"#   {case.case_id:<40} {plain.times[case.case_id]:9.4f} "
              f"{traced.times[case.case_id]:9.4f} "
              f"{c['ktheory.subdiagram.nodes']:6d} "
              f"{c['ktheory.subdiagram.edges']:6d} "
              f"{c['abgroup.colimit.gens']:6d} "
              f"{c['abgroup.colimit.relations']:6d} {build_s:8.3f} "
              f"{lattice_s:9.3f} {invf_s:7.3f} {snf_s:7.3f}  "
              f"{failures.get(case.case_id, 'ok')}")
    print(f"# layer self time, share of the traced wall "
          f"{traced.wall_s:.3f} s:")
    for name in tracing.LAYERS:
        value = layer[f"layer.{name}.self_s"][0]
        print(f"#   {name:<11} {value:9.4f} s  "
              f"{100 * value / traced.wall_s:5.1f}%")
    for name in INCLUSIVE:
        value = tracer.inclusive_s(name)
        print(f"#   inclusive {name:<32} {value:9.4f} s  "
              f"{100 * value / traced.wall_s:5.1f}%")
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:8]
    print("# top self times: " + ", ".join(f"{k} {v:.3f}s" for k, v in top))
    print("# detail " + json.dumps({
        "workload": workload, "seed": seed,
        "failures_by_reason": reason_counts(failures),
        "calibration_s": calibration}, sort_keys=True))
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
    }


def run_all(args):
    """Every workload in its own process, one after another."""
    results, details = {}, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        details[name] = json.loads(next(
            line[len("# detail "):] for line in lines
            if line.startswith("# detail ")))
    print(f"# {'workload':<14} {'metric':<40} {'value':>14} unit")
    for name, res in results.items():
        for metric, mv in res["metrics"].items():
            print(f"# {name:<14} {metric:<40} {mv['value']:14.6f} "
                  f"{mv['unit']}")
        if "verdict_p50_s" in details[name]:
            print(f"# {name:<14} {'verdict_p50_s':<40} "
                  f"{details[name]['verdict_p50_s']:14.6f} s")
        print(f"# {name:<14} {'fail_ratio':<40} "
              f"{res['failed'] / res['attempted']:14.6f} "
              f"{res['failed']}/{res['attempted']}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": mv for name, r in results.items()
                    for metric, mv in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one timed setup() in this process, printed alone: a setup_s probe
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_only:
            print(repr(setup(args.workload, args.seed)[2]))
            return 0
        if args.trace:
            result = trace(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
