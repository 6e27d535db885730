"""In-memory spans and counters around the public functions of ncspectrum.

The library is not changed.  A Tracer replaces, for the length of a
``with tracer.installed():`` block, each function and method
named in PLAN by a wrapper, in every ncspectrum module namespace that
holds it (``ncspectrum.ktheory.build_subdiagram`` and
``ncspectrum.ideals.build_subdiagram`` alike), so that calls from one
module into another pass through the wrapper.  Methods are replaced on
their class, which every caller shares.

Three kinds of wrapper:

- SPAN records a span (id, name, start, end, parent span id, case id)
  and the calls count.  Used at layer boundaries.
- TIMED measures the call and subtracts it from the enclosing span, but
  records no span.  Used for hot leaves whose self time is a metric.
- COUNT only counts.  Used for the hottest leaves (exact matrix
  products, constructors, hashes), where a clock read per call would
  distort the run.

A name's self time is the time inside its calls minus the time covered
by the SPAN and TIMED calls nested in them.  Counters are kept per
case; the counts of one case repeat exactly from run to run because the
library is deterministic.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import sys
import time
from typing import Callable, NamedTuple

from workloads import IMAGE_NODE_MISSING, ROTATION_EDGE_MISSING

SPAN, TIMED, COUNT = "span", "timed", "count"

ENUMERATE = "ideals.enumerate_partial_ideals"


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "parent_id")

    def __init__(self, name, start, span_id, parent_id):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.parent_id = parent_id


class CaseTrace:
    """Counters and self times of one case."""

    __slots__ = ("counts", "self_s")

    def __init__(self):
        self.counts = collections.Counter()
        self.self_s = collections.defaultdict(float)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, case id)
        self.cases = {}          # case id -> CaseTrace
        self.case_id = None
        self._stack = []
        self._next_id = 0
        self._current = None
        self.begin_case(None)

    def begin_case(self, case_id):
        """Attribute what follows to case_id."""
        self.case_id = case_id
        self._current = self.cases.setdefault(case_id, CaseTrace())

    def _enter(self, name, record):
        parent = None
        if self._stack:
            top = self._stack[-1]
            parent = top.span_id if top.span_id is not None else top.parent_id
        span_id = None
        if record:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, time.perf_counter(), span_id, parent)
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        self._current.self_s[frame.name] += duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        if frame.span_id is not None:
            self.spans.append((frame.span_id, frame.name, frame.start, end,
                               frame.parent_id, self.case_id))

    # -- wrappers -------------------------------------------------------

    def wrap(self, fn, entry):
        name, kind = entry.name, entry.kind
        calls = entry.calls or name + ".calls"
        before, after, on_error, only_if = (entry.before, entry.after,
                                            entry.on_error, entry.only_if)
        tracer = self

        if kind == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts = tracer._current.counts
                counts[calls] += 1
                if before is not None:
                    before(tracer, counts, args)
                return fn(*args, **kwargs)
            return counted

        record = kind == SPAN

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if only_if is not None and not only_if(args):
                return fn(*args, **kwargs)
            counts = tracer._current.counts
            counts[calls] += 1
            if before is not None:
                before(tracer, counts, args)
            frame = tracer._enter(name, record)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer._current.counts, exc)
                raise
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer._current.counts, args, result)
            return result
        return timed

    @contextlib.contextmanager
    def installed(self):
        """Wrap every PLAN entry; restore the originals on exit."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ncspectrum"
                                         or n.startswith("ncspectrum."))]
        restore = []
        try:
            for entry in PLAN:
                owner = sys.modules[f"ncspectrum.{entry.module}"]
                path = entry.attr.split(".")
                if len(path) == 1:
                    original = getattr(owner, path[0])
                    wrapper = self.wrap(original, entry)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapper)
                                restore.append((mod, key, original))
                    continue
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, entry))
                elif isinstance(raw, property):
                    new = property(self.wrap(raw.fget, entry), raw.fset,
                                   raw.fdel, raw.__doc__)
                else:
                    new = self.wrap(raw, entry)
                setattr(cls, path[1], new)
                restore.append((cls, path[1], raw))
            yield self
        finally:
            for target, key, original in reversed(restore):
                setattr(target, key, original)

    # -- results ----------------------------------------------------------

    def inclusive_s(self, name, case_id=None):
        """Total duration of the spans called name, of one case or all,
        counting a span nested in another of the same name once."""
        by_id = {span[0]: span for span in self.spans}
        total = 0.0
        for span_id, span_name, start, end, parent, case in self.spans:
            if span_name != name or case_id not in (None, case):
                continue
            while parent is not None and by_id[parent][1] != name:
                parent = by_id[parent][4]
            if parent is None:
                total += end - start
        return total

    def totals(self):
        """(counts, self_s) summed over cases."""
        counts = collections.Counter()
        self_s = collections.defaultdict(float)
        for case in self.cases.values():
            counts.update(case.counts)
            for name, value in case.self_s.items():
                self_s[name] += value
        return counts, self_s


class Entry(NamedTuple):
    """One wrapped name: where it lives, its metric prefix and hooks.

    before(tracer, counts, args) runs before the call, with the same
    arguments; after(counts, args, result) and on_error(counts, exc) run
    after it.  only_if(args) limits SPAN and TIMED wrappers to the calls
    that do the work, such as the first access of a cached property.
    Hooks only read what the wrapped code reads itself.
    """

    module: str
    attr: str
    name: str
    kind: str
    calls: str | None = None
    before: Callable | None = None
    after: Callable | None = None
    on_error: Callable | None = None
    only_if: Callable | None = None


# -- hooks: ops and entries are computed from argument shapes ------------

def _matmul_ops(tracer, counts, args):
    a, b = args
    counts["exact.matmul.ops"] += a.rows * a.cols * b.cols


def _matrix_entries(tracer, counts, args):
    counts["exact.entries_built"] += args[1] * args[2]


def _hash_entries(tracer, counts, args):
    m = args[0]
    if m._hash is None:
        counts["exact.hash.entries"] += m.rows * m.cols


def _conjugate_path(tracer, counts, args):
    alpha, a = args
    # the same short-circuit the method takes before its permutation path
    if alpha.coord_perm is not None and a.diag_mask is not None:
        counts["algebra.conjugate.perm"] += 1


def _leq_path(tracer, counts, args):
    q, p = args
    if q.diag_mask is not None and p.diag_mask is not None:
        counts["algebra.projection_leq.mask"] += 1


def _partial_built(tracer, counts, args):
    if any(frame.name == ENUMERATE for frame in tracer._stack):
        counts["ideals.partial_ideal.built"] += 1


def _rows_nnz(tracer, counts, args):
    rows = args[0]
    if isinstance(rows, (list, tuple)):
        counts["snf.invariant_factors_of_rows.nnz"] += sum(
            len(r) if isinstance(r, dict) else sum(1 for x in r if x)
            for r in rows)


def _snf_cells(tracer, counts, args):
    matrix = args[0]
    if isinstance(matrix, (list, tuple)) and matrix:
        counts["snf.smith_normal_form.cells"] += len(matrix) * len(matrix[0])


def _spec_rotations(counts, args, result):
    counts["ktheory.spec_default.rotations"] += len(result.rotations)


def _subdiagram_size(counts, args, result):
    counts["ktheory.subdiagram.nodes"] += len(result.shape.nodes)
    counts["ktheory.subdiagram.edges"] += len(result.shape.edges)


def _colimit_size(counts, args, result):
    counts["abgroup.colimit.gens"] += result.group.ngens
    counts["abgroup.colimit.relations"] += len(result.group.rows)


def _limit_families(counts, args, result):
    counts["lattices.limit.families"] += result.size


def _order_pairs(counts, args, result):
    size = len(args[0].elements)
    counts["lattices.meet_semilattice.order_pairs"] += size * size


def _accepted(counts, args, result):
    counts["ideals.partial_ideal.accepted"] += len(result)


def _naturality_failure(counts, exc):
    message = str(exc)
    if message.startswith(ROTATION_EDGE_MISSING):
        counts["ktheory.naturality.missing_rotation_edge"] += 1
    elif message.startswith(IMAGE_NODE_MISSING):
        counts["ktheory.naturality.missing_image_node"] += 1


def _lattice_uncached(args):
    return args[0]._lattice is None


def _invariants_uncached(args):
    return args[0]._invariants is None


PLAN = (
    Entry("cli", "main", "cli.main", SPAN),
    # ktheory
    Entry("ktheory", "SubdiagramSpec.default", "ktheory.spec_default", SPAN,
          after=_spec_rotations),
    Entry("ktheory", "build_subdiagram", "ktheory.build_subdiagram", SPAN,
          after=_subdiagram_size),
    Entry("ktheory", "verify_theorem1", "ktheory.verify_theorem1", SPAN),
    Entry("ktheory", "eta", "ktheory.eta", SPAN),
    Entry("ktheory", "k_tilde_f", "ktheory.k_tilde_f", SPAN),
    Entry("ktheory", "k0_standard", "ktheory.k0_standard", SPAN),
    Entry("ktheory", "k0_standard_hom", "ktheory.k0_standard_hom", SPAN),
    Entry("ktheory", "verify_naturality_square", "ktheory.naturality", SPAN),
    Entry("ktheory", "diagram_morphism_of_hom",
          "ktheory.diagram_morphism_of_hom", SPAN,
          on_error=_naturality_failure),
    Entry("ktheory", "k_tilde_f_nonunital", "ktheory.k_tilde_f_nonunital",
          SPAN),
    # algebra
    Entry("algebra", "InnerAutomorphism.conjugate", "algebra.conjugate",
          TIMED, before=_conjugate_path),
    Entry("algebra", "projection_leq", "algebra.projection_leq", COUNT,
          before=_leq_path),
    Entry("algebra", "diagonal_projection", "algebra.diagonal_projection",
          TIMED),
    Entry("algebra", "AlgebraElement.is_unitary", "algebra.is_unitary", TIMED),
    Entry("algebra", "StarHom.apply", "algebra.star_hom_apply", TIMED),
    # exact
    Entry("exact", "ExactMatrix.__mul__", "exact.matmul", COUNT,
          before=_matmul_ops),
    Entry("exact", "ExactMatrix.__init__", "exact.matrix", COUNT,
          calls="exact.matrices_built", before=_matrix_entries),
    Entry("exact", "ExactMatrix.__hash__", "exact.hash", COUNT,
          before=_hash_entries),
    # subalgebra
    Entry("subalgebra", "SubalgebraArrow.spectrum_map",
          "subalgebra.spectrum_map", SPAN),
    Entry("subalgebra", "partition_subalgebra",
          "subalgebra.partition_subalgebra", COUNT),
    # diagram
    Entry("diagram", "postcompose", "diagram.postcompose", SPAN),
    Entry("diagram", "find_path", "diagram.find_path", COUNT),
    Entry("diagram", "find_naturality_failure", "diagram.naturality_check",
          SPAN),
    # abgroup
    Entry("abgroup", "colimit", "abgroup.colimit", SPAN, after=_colimit_size),
    Entry("abgroup", "AbHom.__init__", "abgroup.abhom", SPAN),
    Entry("abgroup", "colimit_induced", "abgroup.colimit_induced", SPAN),
    Entry("abgroup", "kernel", "abgroup.kernel", SPAN),
    Entry("abgroup", "PresentedAbGroup.lattice", "abgroup.lattice", SPAN,
          only_if=_lattice_uncached),
    Entry("abgroup", "PresentedAbGroup.invariant_factors",
          "abgroup.invariant_factors", SPAN, only_if=_invariants_uncached),
    # snf
    Entry("snf", "IntegerRowLattice.insert", "snf.lattice_insert", TIMED),
    Entry("snf", "IntegerRowLattice.contains", "snf.lattice_contains", TIMED),
    Entry("snf", "IntegerRowLattice.coordinates", "snf.lattice_coordinates",
          TIMED),
    Entry("snf", "invariant_factors_of_rows", "snf.invariant_factors_of_rows",
          SPAN, before=_rows_nnz),
    Entry("snf", "smith_normal_form", "snf.smith_normal_form", SPAN,
          before=_snf_cells),
    Entry("snf", "preimage_row_lattice", "snf.preimage_row_lattice", SPAN),
    # lattices
    Entry("lattices", "limit_semilattice", "lattices.limit_semilattice", SPAN,
          after=_limit_families),
    Entry("lattices", "MeetSemilattice.__init__", "lattices.meet_semilattice",
          SPAN, after=_order_pairs),
    # ideals
    Entry("ideals", "verify_conjecture1", "ideals.verify_conjecture1", SPAN),
    Entry("ideals", "t_tilde", "ideals.t_tilde", SPAN),
    Entry("ideals", "enumerate_partial_ideals", ENUMERATE, SPAN,
          after=_accepted),
    Entry("ideals", "PartialIdeal.__init__", "ideals.partial_ideal", COUNT,
          before=_partial_built),
    Entry("ideals", "PartialIdeal.compatibility_failure",
          "ideals.compatibility_failure", TIMED),
    Entry("ideals", "reconstruct_total", "ideals.reconstruct_total", COUNT),
)

# per-layer metrics: NAME.self_s is the self time of NAME, a count is the
# counter of the same name, a ratio is part / whole (0 without calls)
SELF_TIMES = (
    "ktheory.spec_default", "ktheory.build_subdiagram", "ktheory.eta",
    "ktheory.diagram_morphism_of_hom",
    "subalgebra.spectrum_map",
    "diagram.postcompose", "diagram.naturality_check",
    "abgroup.colimit", "abgroup.abhom", "abgroup.colimit_induced",
    "abgroup.kernel", "abgroup.lattice", "abgroup.invariant_factors",
    "snf.lattice_insert", "snf.lattice_contains",
    "snf.invariant_factors_of_rows", "snf.smith_normal_form",
    "lattices.limit_semilattice", "lattices.meet_semilattice",
    ENUMERATE, "ideals.compatibility_failure",
    "cli.main",
)
COUNTS = (
    "ktheory.spec_default.rotations", "ktheory.build_subdiagram.calls",
    "ktheory.subdiagram.nodes", "ktheory.subdiagram.edges",
    "ktheory.naturality.missing_rotation_edge",
    "ktheory.naturality.missing_image_node",
    "algebra.conjugate.calls", "algebra.projection_leq.calls",
    "algebra.diagonal_projection.calls", "algebra.is_unitary.calls",
    "algebra.star_hom_apply.calls",
    "exact.matmul.calls", "exact.matmul.ops", "exact.matrices_built",
    "exact.entries_built", "exact.hash.calls", "exact.hash.entries",
    "subalgebra.spectrum_map.calls", "subalgebra.partition_subalgebra.calls",
    "diagram.find_path.calls",
    "abgroup.colimit.gens", "abgroup.colimit.relations", "abgroup.abhom.calls",
    "snf.lattice_insert.calls", "snf.lattice_contains.calls",
    "snf.invariant_factors_of_rows.nnz", "snf.smith_normal_form.calls",
    "snf.smith_normal_form.cells",
    "lattices.limit.families", "lattices.meet_semilattice.order_pairs",
    "ideals.partial_ideal.built", "ideals.compatibility_failure.calls",
    "ideals.reconstruct_total.calls",
)
RATIOS = (
    ("algebra.conjugate.perm_ratio", "algebra.conjugate.perm",
     "algebra.conjugate.calls"),
    ("algebra.projection_leq.mask_ratio", "algebra.projection_leq.mask",
     "algebra.projection_leq.calls"),
    ("ideals.partial_ideal.accepted_ratio", "ideals.partial_ideal.accepted",
     "ideals.partial_ideal.built"),
)

# exact is counted only: its time falls in the self time of its callers
LAYERS = ("algebra", "subalgebra", "diagram", "ktheory", "abgroup",
          "snf", "lattices", "ideals", "cli")


def layer_metrics(counts, self_s):
    """The per-layer metrics, by name: (value, unit)."""
    out = {f"{name}.self_s": (self_s[name], "s") for name in SELF_TIMES}
    out.update((name, (counts[name], "count")) for name in COUNTS)
    for name, part, whole in RATIOS:
        out[name] = (counts[part] / counts[whole] if counts[whole] else 0.0,
                     "ratio")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (
            sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer),
            "s")
    return out
