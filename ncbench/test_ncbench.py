"""Self-tests of the benchmark.

    python3 -m unittest discover -s ncbench -p 'test_*.py'

They use small cases, so they finish in well under a minute.
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from unittest import mock

import run
import tracer as tracing
import workloads

NS = run.load_package()


def small_cases():
    """Cheap cases that touch every layer the big workloads touch."""
    cases = [workloads._theorem1([1, 1], 2), workloads._ideals([1, 1])]
    nat = workloads.build_cases(NS, "naturality", workloads.ACCEPTANCE_SEED)
    wanted = {"hom#02", "hom#05", "hom#09"}
    cases += [c for c in nat if c.case_id.split()[0] in wanted]
    cases += [c for c in nat if c.case_id.startswith("nonunital [2, 3]")]
    return cases


def traced_pass(cases):
    tracer = tracing.Tracer()
    with tracer.installed():
        result = run.run_pass(NS, cases, tracer)
    return tracer, result


class TestInputs(unittest.TestCase):

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            a = workloads.build_cases(NS, name, 7)
            b = workloads.build_cases(NS, name, 7)
            self.assertEqual([(c.case_id, c.argv) for c in a],
                             [(c.case_id, c.argv) for c in b])

    def test_seed_orders_a_pinned_case_set(self):
        a = workloads.build_cases(NS, "naturality", 1)
        b = workloads.build_cases(NS, "naturality", 2)
        self.assertEqual(len(a), workloads.NATURALITY_HOMS
                         + len(workloads.NONUNITAL_BLOCKS))
        self.assertEqual(sorted(c.case_id for c in a),
                         sorted(c.case_id for c in b))
        self.assertNotEqual([c.case_id for c in a], [c.case_id for c in b])


class TestOracle(unittest.TestCase):

    def test_right_verdicts_pass(self):
        result = run.run_pass(NS, [workloads._theorem1([1, 1], 1),
                                   workloads._ideals([1, 1])])
        self.assertEqual({s for s, _ in result.outcomes.values()}, {"ok"})

    def test_planted_wrong_verdict_raises_fail_ratio(self):
        case = workloads._theorem1([1, 1], 1)
        honest = NS.cli.verify_theorem1

        def planted(*args, **kwargs):
            report = honest(*args, **kwargs)
            report.ktilde_factors = (1, ())
            return report

        with mock.patch.object(NS.cli, "verify_theorem1", planted):
            result = run.run_pass(NS, [case])
        attempted, failed, correct, failures = run.verdicts([case], [result])
        self.assertEqual((attempted, failed, correct), (1, 1, False))
        self.assertIn("ktilde", failures[case.case_id])

    def test_planted_raise_on_the_bell_cliff_is_not_correct(self):
        cases = [c for c in workloads.build_cases(NS, "one-algebra", 1)
                 if c.kind == "theorem1" and c.m < 4]

        def broken(*args, **kwargs):
            raise TypeError("planted")

        with mock.patch.object(NS.cli, "verify_theorem1", broken):
            result = run.run_pass(NS, cases)
        attempted, failed, correct, failures = run.verdicts(cases, [result])
        self.assertEqual((attempted, failed, correct), (2, 2, False))
        self.assertEqual(run.reason_counts(failures),
                         {"raised TypeError: planted": 2})

    def test_baseline_failures_are_pinned_by_case(self):
        nat = workloads.build_cases(NS, "naturality", 1)
        known, other = ([c for c in nat if c.case_id.startswith(h)]
                        for h in ("hom#02", "hom#05"))
        ktheory = sys.modules["ncspectrum.ktheory"]
        errors = sys.modules["ncspectrum.errors"]

        def broken(*args, **kwargs):
            raise errors.VerificationError(workloads.ROTATION_EDGE_MISSING)

        with mock.patch.object(ktheory, "diagram_morphism_of_hom", broken):
            for cases, allowed in ((known, True), (other, False)):
                result = run.run_pass(NS, cases)
                attempted, failed, correct, failures = run.verdicts(
                    cases, [result])
                self.assertEqual((attempted, failed, correct),
                                 (1, 1, allowed))
                self.assertEqual(list(failures.values()),
                                 [workloads.ROTATION_EDGE_MISSING])

    def test_known_naturality_defect_is_counted_by_reason(self):
        nat = workloads.build_cases(NS, "naturality", 1)
        cases = [c for c in nat
                 if c.case_id.split()[0] in ("hom#02", "hom#06")]
        tracer, result = traced_pass(cases)
        attempted, failed, correct, failures = run.verdicts(cases, [result])
        self.assertEqual((attempted, failed, correct), (2, 2, True))
        self.assertEqual(run.reason_counts(failures),
                         {workloads.IMAGE_NODE_MISSING: 2})
        counts, _ = tracer.totals()
        self.assertEqual(counts["ktheory.naturality.missing_image_node"], 2)


class TestTrace(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.cases = small_cases()
        cls.first = traced_pass(cls.cases)
        cls.second = traced_pass(cls.cases)

    def test_traced_verdicts_match_untraced(self):
        plain = run.run_pass(NS, self.cases)
        self.assertEqual(plain.outcomes, self.first[1].outcomes)

    def test_counts_repeat_exactly(self):
        self.assertEqual(self.first[0].totals()[0], self.second[0].totals()[0])
        for case in self.cases:
            self.assertEqual(self.first[0].cases[case.case_id].counts,
                             self.second[0].cases[case.case_id].counts)

    def test_self_times_nonnegative_and_within_wall(self):
        tracer, result = self.first
        _, self_s = tracer.totals()
        for name, value in self_s.items():
            self.assertGreaterEqual(value, -1e-9, name)
        self.assertLessEqual(sum(self_s.values()), result.wall_s)

    def test_spans_nest(self):
        tracer, _ = self.first
        by_id = {s[0]: s for s in tracer.spans}
        for span_id, name, start, end, parent, case in tracer.spans:
            self.assertLessEqual(start, end)
            if parent is not None:
                p = by_id[parent]
                self.assertLessEqual(p[2], start)
                self.assertGreaterEqual(p[3], end)
                self.assertEqual(p[5], case)

    def test_originals_restored(self):
        ideals = sys.modules["ncspectrum.ideals"]
        exact = sys.modules["ncspectrum.exact"]
        for fn in (NS.cli.main, NS.ktheory.build_subdiagram,
                   ideals.build_subdiagram, exact.ExactMatrix.__mul__):
            self.assertFalse(hasattr(fn, "__wrapped__"), fn)

    def test_every_layer_metric_is_reported(self):
        counts, self_s = self.first[0].totals()
        metrics = tracing.layer_metrics(counts, self_s)
        self.assertGreater(metrics["ktheory.build_subdiagram.calls"][0], 0)
        self.assertGreater(metrics["abgroup.kernel.self_s"][0], 0)
        self.assertGreater(metrics["ideals.partial_ideal.built"][0], 0)
        self.assertGreater(metrics["lattices.limit.families"][0], 0)


class TestDriver(unittest.TestCase):

    def test_tail_percentile(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        values = list(range(1, 58))
        value, pct = run.tail(values)
        self.assertEqual(value, 47)
        self.assertAlmostEqual(pct, 100 * 47 / 57)

    def test_benchmark_json_names_the_reported_metrics(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        tracer, _ = traced_pass([workloads._theorem1([1], 1)])
        counts, self_s = tracer.totals()
        reported = {k: u for k, (_, u) in
                    tracing.layer_metrics(counts, self_s).items()}
        reported.update(run.TRACE_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         reported)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))

    @unittest.skipUnless(len(run.CPUS) > 1, "needs two CPUs")
    def test_a_case_runs_pinned_to_one_of_the_cpus(self):
        saved = os.sched_getaffinity(0)
        try:
            run.run_pass(NS, [workloads._theorem1([1], 1)])
            pinned = os.sched_getaffinity(0)
            self.assertEqual(len(pinned), 1)
            self.assertLessEqual(pinned, set(run.CPUS))
        finally:
            os.sched_setaffinity(0, saved)

    def test_setup_probe_runs_in_a_fresh_process(self):
        times = run.probe_setup("one-algebra", 1, 1)
        self.assertEqual(len(times), 1)
        self.assertGreater(times[0], 0.0)

    def test_missing_package_exits_nonzero_without_a_result(self):
        missing = os.path.join(run.HERE, "no-such-package")
        with mock.patch.object(run, "PACKAGE_DIR", missing), \
                mock.patch("builtins.print") as printed:
            code = run.main(["--workload", "one-algebra", "--seconds", "0"])
        self.assertNotEqual(code, 0)
        for call in printed.call_args_list:
            self.assertNotIn('"correct"', str(call))


if __name__ == "__main__":
    unittest.main()
