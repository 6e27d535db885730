"""The two pinned workloads, their inputs and the verdict oracle.

A case runs through a public entry point: ``ncspectrum.cli.main`` in
process with ``--format json``, or ``k_tilde_f_nonunital``, which has no
CLI command.  Entry points are looked up on the module at call time, so
a traced run goes through the tracer's wrappers.

The oracle does not use the library: a multi-matrix algebra with k
blocks has K0 = Z^k and 2^k two-sided ideals, so every expected value
follows from the block list.
"""

from __future__ import annotations

import io
import json
import random

ACCEPTANCE_SEED = 20260811
# a prefix of the acceptance suite's 50 draws, so that a 60 s run makes
# four or more passes; see README.md, "Workloads"
NATURALITY_HOMS = 20
# tests/test_acceptance.py: THEOREM1_BLOCKS, the non-unital kernel catalog
NONUNITAL_BLOCKS = ([1], [2], [3], [1, 1], [2, 3], [1, 2, 2], [1, 1, 1, 1])

# the two VerificationError messages of diagram_morphism_of_hom that the
# known m=2 naturality defect raises
ROTATION_EDGE_MISSING = "rotation image edge missing"
IMAGE_NODE_MISSING = "image subalgebra is not a node of the codomain diagram"
KNOWN_REASONS = (ROTATION_EDGE_MISSING, IMAGE_NODE_MISSING)
# the pinned baseline: the 50 acceptance homs that fail at m=2, indices
# 2, 6, 25 and 33 with IMAGE_NODE_MISSING and the other 11 with
# ROTATION_EDGE_MISSING; the workload's prefix holds 0, 2, 6, 8 and 10
KNOWN_FAILURES = frozenset(
    {0, 2, 6, 8, 10, 20, 23, 25, 29, 33, 40, 41, 42, 46, 48})

# why each was chosen: BENCHMARK.json and README.md
WORKLOADS = ("one-algebra", "naturality")


class Case:
    """One verdict: an id, how to run it, and what the oracle expects."""

    __slots__ = ("case_id", "kind", "blocks", "m", "argv", "algebra",
                 "may_fail")

    def __init__(self, case_id, kind, blocks, m, argv=None, algebra=None,
                 may_fail=False):
        self.case_id = case_id
        self.kind = kind
        self.blocks = tuple(blocks)
        self.m = m
        self.argv = tuple(argv) if argv is not None else None
        self.algebra = algebra
        # a pinned baseline failure: it may exit with a known reason
        self.may_fail = may_fail


def _algebra_json(blocks):
    return json.dumps({"blocks": list(blocks)})


def _theorem1(blocks, m):
    return Case(f"theorem1 {list(blocks)} m={m}", "theorem1", blocks, m,
                argv=("--format", "json", "verify", "theorem1", "--algebra",
                      _algebra_json(blocks), "--stabilize", str(m)))


def _ideals(blocks):
    return Case(f"ideals {list(blocks)}", "ideals", blocks, None,
                argv=("--format", "json", "ideals", "--algebra",
                      _algebra_json(blocks)))


def naturality_homs(ns):
    """The acceptance suite's seeded draws, a prefix of one stream."""
    rng = random.Random(ACCEPTANCE_SEED)
    return [ns.algebra.sample_unital_hom(rng, max_total_dim=6)
            for _ in range(NATURALITY_HOMS)]


def build_cases(ns, workload, seed):
    """The cases of a workload, in a fixed order or the seed's.

    The case sets are pinned; the seed only orders the naturality cases.
    Hom draws stay on the acceptance stream because their cost differs
    between streams by more than the benchmark's bounds (26 to 67 s for
    50 draws).
    """
    if workload == "one-algebra":
        # the Bell-number cliff, one algebra past the partition limit and a
        # heavy ideal lattice, in a fixed order: the peak RSS of a process
        # depends on the order of its cases by up to 16%
        return [_theorem1([3], 2), _theorem1([1, 2, 3], 1),
                _theorem1([4], 4), _ideals([2, 3])]
    if workload == "naturality":
        cases = []
        for k, hom in enumerate(naturality_homs(ns)):
            blocks = hom.domain.blocks
            hom_json = json.dumps(ns.serialize.jsonable(
                ns.serialize.dump_hom(hom)))
            cases.append(Case(
                f"hom#{k:02d} {list(blocks)}->{list(hom.codomain.blocks)} m=2",
                "naturality", blocks, 2,
                argv=("--format", "json", "verify", "theorem1", "--algebra",
                      _algebra_json(blocks), "--hom", hom_json,
                      "--stabilize", "2"), may_fail=k in KNOWN_FAILURES))
        for blocks in NONUNITAL_BLOCKS:
            algebra = ns.algebra.MultiMatrixAlgebra(blocks)
            cases.append(Case(f"nonunital {blocks} m=2", "nonunital", blocks,
                              2, algebra=algebra))
        random.Random(seed).shuffle(cases)
        return cases
    raise KeyError(workload)


def run_case(ns, case):
    """Run a case to its verdict; returns (exit code, output).

    The exit code is the CLI's; a non-unital case returns 0 and its
    invariant factors.  Exceptions propagate to the caller.
    """
    if case.kind == "nonunital":
        group = ns.ktheory.k_tilde_f_nonunital(case.algebra, m=case.m)
        return 0, group.invariant_factors()
    out = io.StringIO()
    code = ns.cli.main(list(case.argv), out=out)
    return code, out.getvalue()


def failure_reason(text):
    """Short reason of a non-zero exit, from the CLI's output."""
    for line in text.splitlines():
        if line.startswith("verification failed: "):
            message = line[len("verification failed: "):]
            for reason in KNOWN_REASONS:
                if message.startswith(reason):
                    return reason
            return message
        if line.startswith("error: "):
            return line
    return "non-zero exit"


def expected_failure(case, reason):
    """True for a failure of the pinned baseline: a known hom that exits
    with one of the two known reasons.  Any other failure is wrong."""
    return case.may_fail and reason in KNOWN_REASONS


def check(case, code, output):
    """Oracle: None when the verdict is right, else what is wrong.

    Returns (wrong, reason).  wrong is True when the program reported
    success with a wrong result; a non-zero exit is a failure with
    wrong False, since the program did not claim a verdict it could not
    support; expected_failure says whether the baseline allows it.
    """
    k = len(case.blocks)
    if case.kind == "nonunital":
        factors = (output[0], tuple(output[1]))
        if factors != (k, ()):
            return True, f"invariant factors {factors} != {(k, ())}"
        return None
    if code != 0:
        return False, failure_reason(output)
    try:
        data = json.loads(output)
    except ValueError:
        return True, "output is not JSON"
    if case.kind == "theorem1":
        rep = data.get("theorem1") or {}
        want = [k, []]
        if rep.get("ok") is not True:
            return True, "theorem1 ok is not true"
        if rep.get("ktilde") != want or rep.get("k0") != want:
            return True, (f"ktilde {rep.get('ktilde')} / k0 {rep.get('k0')} "
                          f"!= {want}")
        return None
    if case.kind == "ideals":
        want = 2 ** k
        problems = []
        if data.get("lattice_iso") is not True:
            problems.append("lattice_iso")
        if data.get("round_trip") is not True:
            problems.append("round_trip")
        for key in ("t_tilde_size", "ideal_count", "partial_ideal_count"):
            if data.get(key) != want:
                problems.append(f"{key}={data.get(key)}")
        if problems:
            return True, "ideals: " + ", ".join(problems) + f" (want {want})"
        return None
    if case.kind == "naturality":
        if (data.get("naturality") or {}).get("ok") is not True:
            return True, "naturality ok is not true"
        return None
    raise KeyError(case.kind)
