"""Command-line front door.

Subcommands: k0, verify theorem1, colimit, limit, ideals,
partial-ideal check, snf.  Output is deterministic: the same config
produces the same bytes.  Exit codes: 0 success, 1 validation failure
or bad usage (with an error: line) or a reader that closed stdout
(silently), 2 verification failure (with a witness).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import serialize
from .abgroup import colimit
from .algebra import sample_unital_hom, stabilize
from .errors import ValidationError, VerificationError
from .ideals import reconstruct_total, verify_conjecture1
from .ktheory import (k0_standard, k_tilde_f, verify_naturality_square,
                      verify_theorem1)
from .lattices import limit_semilattice
from .snf import integer_matmul, smith_normal_form

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2


def _emit(result: dict, fmt: str, out):
    if fmt == "json":
        out.write(json.dumps(serialize.jsonable(result), sort_keys=True,
                             indent=2))
        out.write("\n")
    else:
        for line in result["text"]:
            out.write(line + "\n")


def _word_json(word):
    return {str(k): c for k, c in sorted(word.items())}


def _load_algebra_arg(arg: str):
    return serialize.load_algebra(serialize.load_json_argument(arg))


def _load_spec_arg(arg, algebra):
    data = serialize.load_json_argument(arg) if arg else None
    return serialize.load_spec(data, algebra)


def cmd_k0(args, out) -> int:
    algebra = _load_algebra_arg(args.algebra)
    if args.method == "standard":
        if args.spec:
            raise ValidationError("--spec needs --method diagram")
        group = k0_standard(algebra)
    else:
        stabilized, _ = stabilize(algebra, args.stabilize)
        spec = _load_spec_arg(args.spec, stabilized)
        group = k_tilde_f(stabilized, spec)
    gstr = group.canonical_str()
    table = [{"block": i, "class": _word_json(word)}
             for i, word in enumerate(group.block_words)]
    text = [gstr]
    for row in table:
        text.append(f"block {row['block']}: class {row['class']}")
    _emit({"group": gstr, "classes": table, "text": text}, args.format, out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    if args.what != "theorem1":
        raise ValidationError(f"unknown verification target {args.what!r}")
    algebra = _load_algebra_arg(args.algebra)
    result = {"algebra": serialize.dump_algebra(algebra)}
    text = []
    status = EXIT_OK

    if args.hom:
        hom = serialize.load_hom(serialize.load_json_argument(args.hom))
        if hom.domain != algebra:
            raise ValidationError(
                f"the hom's domain has blocks {list(hom.domain.blocks)}, "
                f"--algebra has blocks {list(algebra.blocks)}")
        m = args.stabilize or 1
        spec = _load_spec_arg(args.spec, stabilize(algebra, m)[0])
        report = verify_naturality_square(hom, spec, m=m)
        result["naturality"] = {"ok": report.ok, "witness": report.witness}
        text.append(f"naturality square: {'PASS' if report.ok else 'FAIL'}")
        if not report.ok:
            text.append(f"witness: {report.witness}")
            status = EXIT_VERIFICATION
    else:
        m = args.stabilize or 2
        spec = None
        if args.spec:
            stabilized, _ = stabilize(algebra, m)
            spec = _load_spec_arg(args.spec, stabilized)
        report = verify_theorem1(algebra, spec, m=m)
        result["theorem1"] = {
            "ok": report.ok,
            "m": report.m,
            "ktilde": list(report.ktilde_factors),
            "k0": list(report.k0_factors),
            "error": report.error,
            "witness": report.witness,
        }
        text.append(f"theorem1 (m={report.m}): "
                    f"{'PASS' if report.ok else 'FAIL'}")
        if not report.ok:
            text.append(f"witness: {report.error or report.witness}")
            status = EXIT_VERIFICATION

    if args.random_homs:
        rng = random.Random(args.seed)
        failures = []
        for k in range(args.random_homs):
            hom = sample_unital_hom(rng)
            rep = verify_naturality_square(hom, m=1)
            if not rep.ok:
                failures.append({"index": k,
                                 "hom": serialize.dump_hom(hom),
                                 "witness": rep.witness})
        result["random_naturality"] = {
            "count": args.random_homs, "seed": args.seed,
            "failures": failures,
        }
        text.append(f"random naturality ({args.random_homs} homs, "
                    f"seed {args.seed}): "
                    f"{'PASS' if not failures else 'FAIL'}")
        if failures:
            text.append(f"witness: {failures[0]}")
            status = EXIT_VERIFICATION

    result["text"] = text
    _emit(result, args.format, out)
    return status


def cmd_colimit(args, out) -> int:
    diagram = serialize.load_ab_diagram(
        serialize.load_json_argument(args.diagram))
    result = colimit(diagram)
    gstr = result.group.canonical_str()
    text = [gstr]
    injections = {}
    for nid in diagram.shape.nodes:
        rows = [_word_json(w) for w in result.injections[nid].words]
        injections[nid] = rows
        text.append(f"node {nid}: injections {rows}")
    _emit({"group": gstr, "injections": injections, "text": text},
          args.format, out)
    return EXIT_OK


def cmd_limit(args, out) -> int:
    diagram = serialize.load_space_diagram(
        serialize.load_json_argument(args.diagram))
    lattice = limit_semilattice(diagram)
    families = []
    for family in lattice.elements:
        families.append({nid: sorted(part) for nid, part in
                         zip(diagram.shape.nodes, family)})
    text = [f"limit lattice: {lattice.size} elements"]
    for fam in families:
        text.append(str(fam))
    _emit({"size": lattice.size, "families": families, "text": text},
          args.format, out)
    return EXIT_OK


def cmd_ideals(args, out) -> int:
    algebra = _load_algebra_arg(args.algebra)
    spec = _load_spec_arg(args.spec, algebra)
    report = verify_conjecture1(algebra, spec)
    text = [
        f"total ideals: {report.ideal_count}",
        f"t_tilde lattice: {report.t_tilde_size} elements",
        f"lattice isomorphism: {'PASS' if report.lattice_iso_ok else 'FAIL'}",
        f"partial-ideal round trip: "
        f"{'PASS' if report.round_trip_ok else 'FAIL'}",
        f"spec: {report.spec_used}",
    ]
    status = EXIT_OK if report.ok else EXIT_VERIFICATION
    if not report.ok:
        text.append(f"witness: {report.witness}")
    _emit({
        "ideal_count": report.ideal_count,
        "t_tilde_size": report.t_tilde_size,
        "lattice_iso": report.lattice_iso_ok,
        "round_trip": report.round_trip_ok,
        "partial_ideal_count": report.partial_ideal_count,
        "spec": report.spec_used,
        "witness": report.witness,
        "text": text,
    }, args.format, out)
    return status


def cmd_partial_ideal(args, out) -> int:
    if args.what != "check":
        raise ValidationError(f"unknown partial-ideal action {args.what!r}")
    partial, _diagram = serialize.load_partial_ideal(
        serialize.load_json_argument(args.file))
    compat = partial.compatibility_failure()
    fixed = partial.rotation_failure()
    rec = reconstruct_total(partial) if compat is None else None
    text = [
        f"compatible: {'yes' if compat is None else 'no'}",
        f"rotation-fixed: {'yes' if fixed is None else 'no'}",
    ]
    result = {
        "compatible": compat is None,
        "rotation_fixed": fixed is None,
    }
    status = EXIT_OK
    if compat is not None:
        result["compatibility_witness"] = {
            "edge": compat[0], "expected": sorted(compat[1])}
        text.append(f"witness edge: {compat[0]}")
        status = EXIT_VERIFICATION
    if fixed is not None:
        result["rotation_witness"] = {
            "edge": fixed[0], "expected": sorted(fixed[1])}
        text.append(f"witness rotation edge: {fixed[0]}")
        status = EXIT_VERIFICATION
    if rec is not None:
        if rec.ok:
            result["total_ideal"] = sorted(rec.ideal.blocks)
            text.append(f"reconstructed total ideal: blocks "
                        f"{sorted(rec.ideal.blocks)}")
        else:
            result["reconstruction_failure"] = {
                "node": rec.failing_node, "detail": rec.detail}
            text.append(f"reconstruction failed at node {rec.failing_node}: "
                        f"{rec.detail}")
            status = EXIT_VERIFICATION
    result["text"] = text
    _emit(result, args.format, out)
    return status


def cmd_snf(args, out) -> int:
    matrix = serialize.load_integer_matrix(
        serialize.load_json_argument(args.matrix))
    res = smith_normal_form(matrix)
    check = integer_matmul(integer_matmul(res.U, matrix), res.V)
    if check != res.D:
        raise VerificationError("internal error: U*M*V != D")
    text = ["D = " + json.dumps(res.D),
            "U = " + json.dumps(res.U),
            "V = " + json.dumps(res.V)]
    _emit({"D": res.D, "U": res.U, "V": res.V,
           "diagonal": res.diagonal, "text": text}, args.format, out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as invalid input: exit 1 with an error line."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _at_least(minimum):
    """argparse type: an integer no smaller than minimum."""
    def count(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return count


@functools.cache  # parse_args leaves the parser as it is, so calls share it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ncspectrum",
        description="Exact K-theory and ideal lattices of multi-matrix "
                    "algebras via diagrams of commutative subalgebra spectra.")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized verification runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("k0", help="K0 group of a multi-matrix algebra")
    p.add_argument("--algebra", required=True,
                   help="algebra JSON (inline or file)")
    p.add_argument("--method", choices=("standard", "diagram"),
                   default="standard")
    p.add_argument("--stabilize", type=_at_least(1), default=1, metavar="M",
                   help="matrix tower level for the diagram method")
    p.add_argument("--spec", help="subdiagram spec JSON (inline or file)")
    p.set_defaults(func=cmd_k0)

    p = sub.add_parser("verify", help="verify the K0 comparison theorem")
    p.add_argument("what", choices=("theorem1",))
    p.add_argument("--algebra", required=True)
    p.add_argument("--hom", help="check the naturality square of this hom")
    p.add_argument("--stabilize", type=_at_least(1), default=None,
                   metavar="M")
    p.add_argument("--spec")
    p.add_argument("--random-homs", type=_at_least(0), default=0, metavar="N",
                   help="also check N seeded random unital homs")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("colimit", help="colimit of a diagram of groups")
    p.add_argument("--diagram", required=True)
    p.set_defaults(func=cmd_colimit)

    p = sub.add_parser("limit", help="closed-set limit of a space diagram")
    p.add_argument("--diagram", required=True)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("ideals", help="ideal lattice vs the closed-set limit")
    p.add_argument("--algebra", required=True)
    p.add_argument("--spec")
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser("partial-ideal", help="check a partial ideal file")
    p.add_argument("what", choices=("check",))
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_partial_ideal)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_snf)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, out)
    except BrokenPipeError:
        # the reader closed stdout: write nothing more, and point stdout
        # at devnull so that the interpreter's last flush does not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VALIDATION
    except ValidationError as exc:
        out.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except MemoryError:
        out.write("error: out of memory: the input is too large\n")
        return EXIT_VALIDATION
    except VerificationError as exc:
        out.write(f"verification failed: {exc}\n")
        if exc.witness is not None:
            out.write(f"witness: {exc.witness}\n")
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
