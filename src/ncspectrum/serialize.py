"""JSON loading and dumping for the file formats the CLI speaks.

All payloads are small exact matrices and integer data, so JSON is the
single interchange format.  Loaders validate invariants and raise
ValidationError with a location hint.
"""

from __future__ import annotations

import json
import os

from .abgroup import AbHom, PresentedAbGroup
from .algebra import (AlgebraElement, InnerAutomorphism, MultiMatrixAlgebra,
                      StarHom)
from .diagram import CONTRAVARIANT, COVARIANT, Shape, ShapedDiagram
from .errors import ValidationError, is_int
from .exact import ExactMatrix
from .ktheory import SubdiagramSpec, build_subdiagram
from .ideals import PartialIdeal
from .subalgebra import FiniteSpace, SpaceMap


def load_json_argument(text_or_path: str):
    """Parse an argument as inline JSON, else read it as a file path."""
    text = text_or_path.strip()
    where = "invalid inline JSON"
    if not text.startswith(("{", "[")):
        if not os.path.exists(text_or_path):
            raise ValidationError(f"no such file: {text_or_path}")
        try:
            with open(text_or_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{text_or_path}: cannot read: {exc}") from exc
        where = f"{text_or_path}: invalid JSON"
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # too deep, too many digits
        raise ValidationError(f"{where}: {exc}") from exc


def load_algebra(data) -> MultiMatrixAlgebra:
    if not isinstance(data, dict) or "blocks" not in data:
        raise ValidationError('algebra JSON must look like {"blocks": [2, 3]}')
    blocks = data["blocks"]
    if not isinstance(blocks, list) or not all(is_int(b) for b in blocks):
        raise ValidationError(f"algebra blocks must be a list of positive "
                              f"integers, got {blocks!r}")
    return MultiMatrixAlgebra(blocks)


def dump_algebra(algebra: MultiMatrixAlgebra):
    return {"blocks": list(algebra.blocks)}


def load_matrix(data) -> ExactMatrix:
    return ExactMatrix.from_json(data)


def load_element(data, algebra: MultiMatrixAlgebra) -> AlgebraElement:
    if isinstance(data, dict) and "parts" in data:
        data = data["parts"]
    if not isinstance(data, list):
        raise ValidationError('element JSON must be {"parts": [matrix, ...]}')
    parts = [load_matrix(m) for m in data]
    return AlgebraElement(algebra, parts)


def _is_int_rows(value, width=None) -> bool:
    """Whether value is a list of lists of integers (no bools), each of
    length width when one is given."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(is_int(x) for x in row)
        and (width is None or len(row) == width) for row in value)


def load_hom(data) -> StarHom:
    if not isinstance(data, dict):
        raise ValidationError("hom JSON must be an object")
    for field in ("domain", "codomain", "multiplicity"):
        if field not in data:
            raise ValidationError(f"hom JSON is missing {field!r}")
    domain = load_algebra(data["domain"])
    codomain = load_algebra(data["codomain"])
    multiplicity = data["multiplicity"]
    if not _is_int_rows(multiplicity):
        raise ValidationError(f"hom multiplicity must be a list of rows of "
                              f"integers, got {multiplicity!r}")
    assignment = data.get("assignment")
    if assignment is not None:
        if not isinstance(assignment, list) or not all(
                _is_int_rows(row, width=2) for row in assignment):
            raise ValidationError(
                f"hom assignment must list, per codomain block, [block, "
                f"copy] pairs of integers, got {assignment!r}")
        assignment = [[tuple(slot) for slot in row] for row in assignment]
    unital = data.get("unital", True)
    if not isinstance(unital, bool):
        raise ValidationError(f"hom unital must be true or false, "
                              f"got {unital!r}")
    return StarHom(domain, codomain, multiplicity, unital=unital,
                   assignment=assignment)


def dump_hom(hom: StarHom):
    """The hom's JSON; "assignment" is written only when it differs from
    the default slot order."""
    data = {
        "domain": dump_algebra(hom.domain),
        "codomain": dump_algebra(hom.codomain),
        "multiplicity": [list(r) for r in hom.multiplicity],
        "unital": hom.unital,
    }
    default = StarHom(hom.domain, hom.codomain, hom.multiplicity, hom.unital)
    if hom.assignment != default.assignment:
        data["assignment"] = [[list(slot) for slot in row]
                              for row in hom.assignment]
    return data


SPEC_KEYS = ("rotations", "partitions", "label")


def load_spec(data, algebra: MultiMatrixAlgebra) -> SubdiagramSpec:
    """{"rotations": "default" | [element, ...], "partitions": [[[0, 1],
    [2]], ...], "label": str}, every key optional."""
    if data is None:
        return SubdiagramSpec.default(algebra)
    if not isinstance(data, dict):
        raise ValidationError("spec JSON must be an object")
    # a key the spec does not know, such as the partition limit or the
    # rotation edge budget of the retired partition enumeration, would
    # silently change what the file means
    for key in data:
        if key not in SPEC_KEYS:
            raise ValidationError(
                f"unknown spec key {key!r} (known: {', '.join(SPEC_KEYS)}); "
                f"the subdiagram is a generating set, list extra base "
                f"partitions under 'partitions'")
    rotations = data.get("rotations", "default")
    if rotations == "default":
        rotations = SubdiagramSpec.default(algebra).rotations
    elif not isinstance(rotations, list):
        raise ValidationError('spec rotations must be "default" or a list '
                              'of unitary elements')
    else:
        rotations = tuple(
            InnerAutomorphism(load_element(u, algebra), name=f"u{i}")
            for i, u in enumerate(rotations))
    partitions = data.get("partitions", [])
    if not isinstance(partitions, list) or not all(
            isinstance(parts, list) and all(
                isinstance(part, list) and all(is_int(c) for c in part)
                for part in parts)
            for parts in partitions):
        raise ValidationError("spec partitions must be a list of partitions, "
                              "each a list of coordinate lists")
    # the label is printed on the one-line spec: output
    label = data.get("label", "file")
    if not isinstance(label, str) or not label.isprintable():
        raise ValidationError(
            f"spec label must be a string of printable characters, "
            f"got {label!r}")
    return SubdiagramSpec(rotations=rotations, partitions=partitions,
                          label=label)


def _diagram_json(data, node_field, edge_field):
    """(node list, node ids, edges) of diagram JSON, each edge as (id,
    source, target, edge_field value).  Every node needs "id" and
    node_field, every edge "source", "target" and edge_field, and both
    endpoints of an edge must be nodes."""
    if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
        raise ValidationError('diagram JSON needs "nodes" and "edges"')
    nodes, edges = data["nodes"], data["edges"]
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise ValidationError('diagram "nodes" and "edges" must be lists')
    node_ids = []
    for k, node in enumerate(nodes):
        if not isinstance(node, dict) or "id" not in node \
                or node_field not in node:
            raise ValidationError(
                f'diagram node {k} needs "id" and "{node_field}"')
        node_ids.append(str(node["id"]))
    known = set(node_ids)
    out = []
    for k, edge in enumerate(edges):
        if not isinstance(edge, dict):
            raise ValidationError(f"diagram edge e{k} must be an object")
        eid = str(edge.get("id", f"e{k}"))
        for field in ("source", "target", edge_field):
            if field not in edge:
                raise ValidationError(
                    f'diagram edge {eid!r} needs "{field}"')
        src, dst = str(edge["source"]), str(edge["target"])
        for end, nid in (("source", src), ("target", dst)):
            if nid not in known:
                raise ValidationError(
                    f"diagram edge {eid!r}: {end} {nid!r} is not a node")
        out.append((eid, src, dst, edge[edge_field]))
    return nodes, node_ids, out


def load_ab_diagram(data) -> ShapedDiagram:
    """Diagram of presented abelian groups: nodes carry ngens/relations,
    edges carry generator-image matrices."""
    nodes, node_ids, edge_list = _diagram_json(data, "ngens", "images")
    variance = data.get("variance", COVARIANT)
    node_data = {}
    for nid, node in zip(node_ids, nodes):
        ngens, relations = node["ngens"], node.get("relations", [])
        if not is_int(ngens) or ngens < 0:
            raise ValidationError(f"diagram node {nid!r}: ngens must be a "
                                  f"nonnegative integer, got {ngens!r}")
        if not _is_int_rows(relations):
            raise ValidationError(f"diagram node {nid!r}: relations must be "
                                  f"rows of integers, got {relations!r}")
        node_data[nid] = PresentedAbGroup(ngens, relations)
    edges = []
    edge_data = {}
    for eid, src, dst, images in edge_list:
        if not _is_int_rows(images):
            raise ValidationError(
                f"diagram edge {eid!r}: images must be rows of integers")
        edges.append((eid, src, dst))
        if variance == COVARIANT:
            dom, cod = node_data[src], node_data[dst]
        else:
            dom, cod = node_data[dst], node_data[src]
        edge_data[eid] = AbHom(dom, cod, images)
    shape = Shape(node_ids, edges)
    return ShapedDiagram(shape, node_data, edge_data, variance)


def load_space_diagram(data) -> ShapedDiagram:
    """Diagram of finite spaces; edge assignments map the morphism's
    domain points per the declared variance (for the contravariant
    diagrams used by the limit command, that is the target node's
    points)."""
    nodes, node_ids, edge_list = _diagram_json(data, "points", "assignment")
    variance = data.get("variance", CONTRAVARIANT)
    node_data = {}
    for nid, node in zip(node_ids, nodes):
        points = node["points"]
        if not isinstance(points, list):
            raise ValidationError(f"diagram node {nid!r}: points must be a "
                                  f"list, got {points!r}")
        node_data[nid] = FiniteSpace(tuple(str(p) for p in points))
    edges = []
    edge_data = {}
    for eid, src, dst, assignment in edge_list:
        if not isinstance(assignment, dict):
            raise ValidationError(
                f"diagram edge {eid!r}: assignment must be an object")
        edges.append((eid, src, dst))
        if variance == COVARIANT:
            dom, cod = node_data[src], node_data[dst]
        else:
            dom, cod = node_data[dst], node_data[src]
        edge_data[eid] = SpaceMap(dom, cod, {str(a): str(b) for a, b in
                                             assignment.items()})
    shape = Shape(node_ids, edges)
    return ShapedDiagram(shape, node_data, edge_data, variance)


def load_integer_matrix(data):
    if not data or not _is_int_rows(data):
        raise ValidationError(f"integer matrix JSON must be a nonempty list "
                              f"of rows of integers, got {data!r}")
    return data


def load_partial_ideal(data):
    """{"algebra": ..., "spec": optional, "choice": {node id: [indices]}}.

    Returns (PartialIdeal, diagram)."""
    if not isinstance(data, dict) or "algebra" not in data \
            or "choice" not in data:
        raise ValidationError('partial ideal JSON needs "algebra" and "choice"')
    if not isinstance(data["choice"], dict):
        raise ValidationError(f"partial ideal choice must map node ids to "
                              f"atom index lists, got {data['choice']!r}")
    algebra = load_algebra(data["algebra"])
    spec = load_spec(data.get("spec"), algebra)
    diagram = build_subdiagram(algebra, spec)
    choice = {}
    for nid, indices in data["choice"].items():
        if nid not in diagram.node_data:
            raise ValidationError(f"unknown node {nid!r} in choice "
                                  f"(known: {sorted(diagram.node_data)})")
        if not isinstance(indices, list) or not all(map(is_int, indices)):
            raise ValidationError(f"choice at node {nid!r} must be a list of "
                                  f"atom indices, got {indices!r}")
        choice[nid] = frozenset(indices)
    for nid in diagram.shape.nodes:
        choice.setdefault(nid, frozenset())
    return PartialIdeal(diagram, choice), diagram


def jsonable(value):
    """Recursively convert report payloads to JSON-friendly structures."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    if isinstance(value, MultiMatrixAlgebra):
        return dump_algebra(value)
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)
