"""JSON documents for factorizations, morphisms, and fans.

Every document carries ``schema_version`` (currently 1) and a ``kind``
used by the sniffing loader.  Polynomial entries are strings in the
shared grammar (``x^2*y - 3/2*z + 1``); matrices are arrays of arrays
of such strings.  Morphism documents point at their two factorization
files with paths resolved relative to the morphism file, or at built-in
preset names such as ``An:3:1``.
"""

from __future__ import annotations

import json
import os

from .poly import (RingContext, QQ, field_from_spec, parse_polynomial,
                   parse_coefficient, PolyError)
from .matrix import PolyMatrix
from . import mf as mfmod
from . import corpus
from .mirror import ToricSpec


SCHEMA_VERSION = 1


class SchemaError(PolyError):
    pass


def _require(doc, key, kinds, what):
    if key not in doc:
        raise SchemaError("%s document is missing %r" % (what, key))
    value = doc[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise SchemaError("%s field %r has the wrong type" % (what, key))
    return value


def _integers(values, name, what):
    """A JSON array of integers; booleans and non-integral numbers are refused."""
    if not isinstance(values, list) or any(type(x) is not int for x in values):
        raise SchemaError("%s field %r must be an array of integers" % (what, name))
    return tuple(values)


def _check_version(doc, what):
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError("%s document has schema_version %r, expected %d"
                          % (what, version, SCHEMA_VERSION))


def _matrix_from_doc(ring, data, name, what):
    if not isinstance(data, list) or any(not isinstance(row, list) for row in data):
        raise SchemaError("%s field %r must be an array of arrays" % (what, name))
    if not data:
        return PolyMatrix.zeros(ring, 0, 0)
    width = len(data[0])
    if any(len(row) != width for row in data):
        raise SchemaError("%s field %r has ragged rows" % (what, name))
    rows = []
    for row in data:
        parsed = []
        for cell in row:
            if not isinstance(cell, str):
                raise SchemaError("%s field %r must contain polynomial strings" % (what, name))
            parsed.append(parse_polynomial(ring, cell))
        rows.append(parsed)
    return PolyMatrix.from_rows(ring, rows)


def _matrix_to_doc(matrix):
    return [[str(matrix.get(i, j)) for j in range(matrix.cols)]
            for i in range(matrix.rows)]


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------

def factorization_to_doc(obj) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "factorization",
        "field": repr(obj.ring.field),
        "vars": list(obj.ring.variables),
        "W": str(obj.w),
        "lambda": obj.ring.field.format(obj.lam),
        "e1": _matrix_to_doc(obj.e1),
        "e0": _matrix_to_doc(obj.e0),
    }


def factorization_from_doc(doc, field_override=None):
    _check_version(doc, "factorization")
    field_spec = _require(doc, "field", str, "factorization")
    field = field_override or field_from_spec(field_spec)
    variables = _require(doc, "vars", list, "factorization")
    if not variables or any(not isinstance(v, str) for v in variables):
        raise SchemaError("factorization field 'vars' must be a non-empty list of names")
    ring = RingContext(tuple(variables), field, "grevlex")
    w = parse_polynomial(ring, _require(doc, "W", str, "factorization"))
    lam = parse_coefficient(field, _require(doc, "lambda", str, "factorization"))
    e1 = _matrix_from_doc(ring, _require(doc, "e1", list, "factorization"), "e1", "factorization")
    e0 = _matrix_from_doc(ring, _require(doc, "e0", list, "factorization"), "e0", "factorization")
    return mfmod.MatrixFactorization(ring, w, lam, e1, e0)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def morphism_to_doc(morphism, source_ref: str, target_ref: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "morphism",
        "source": source_ref,
        "target": target_ref,
        "p1": _matrix_to_doc(morphism.p1),
        "p0": _matrix_to_doc(morphism.p0),
    }


def resolve_factorization_ref(ref: str, base_dir: str, field_override=None):
    """A reference is a built-in preset name or a path to a factorization file."""
    try:
        return corpus.lookup(ref, field_override or QQ)
    except KeyError:
        pass
    path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
    loaded = load(path, field_override)
    if not isinstance(loaded, mfmod.MatrixFactorization):
        raise SchemaError("%r does not hold a factorization" % ref)
    return loaded


def morphism_from_doc(doc, base_dir: str, field_override=None):
    _check_version(doc, "morphism")
    src_ref = _require(doc, "source", str, "morphism")
    tgt_ref = _require(doc, "target", str, "morphism")
    source = resolve_factorization_ref(src_ref, base_dir, field_override)
    target = resolve_factorization_ref(tgt_ref, base_dir, field_override)
    p1 = _matrix_from_doc(source.ring, _require(doc, "p1", list, "morphism"), "p1", "morphism")
    p0 = _matrix_from_doc(source.ring, _require(doc, "p0", list, "morphism"), "p0", "morphism")
    return mfmod.MFMorphism(source, target, p1, p0)


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------

def toric_to_doc(spec: ToricSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "toric",
        "dimension": spec.dimension,
        "rays": [list(ray) for ray in spec.rays],
        "relations": [{"coeffs": list(coeffs), "parameter": name}
                      for coeffs, name in spec.relations],
        "basis": list(spec.basis),
    }


def toric_from_doc(doc) -> ToricSpec:
    _check_version(doc, "toric")
    dimension = _require(doc, "dimension", int, "toric")
    rays = [_integers(ray, "rays", "toric")
            for ray in _require(doc, "rays", list, "toric")]
    basis = _integers(_require(doc, "basis", list, "toric"), "basis", "toric")
    raw_relations = _require(doc, "relations", list, "toric")
    relations = []
    for entry in raw_relations:
        if not isinstance(entry, dict):
            raise SchemaError("toric relations must be objects")
        coeffs = _integers(_require(entry, "coeffs", list, "toric relation"),
                           "coeffs", "toric relation")
        name = entry.get("parameter")
        if name is not None and not isinstance(name, str):
            raise SchemaError("toric relation parameter must be a string or null")
        relations.append((coeffs, name))
    try:
        return ToricSpec(dimension, rays, relations, basis)
    except (TypeError, ValueError) as exc:
        raise SchemaError("invalid fan: %s" % exc) from None


# ---------------------------------------------------------------------------
# generic load/save
# ---------------------------------------------------------------------------

_KINDS = {
    "factorization": lambda doc, base, field: factorization_from_doc(doc, field),
    "morphism": morphism_from_doc,
    "toric": lambda doc, base, field: toric_from_doc(doc),
}


def document_to_object(doc, base_dir=".", field_override=None):
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    kind = _require(doc, "kind", str, "input")
    if kind not in _KINDS:
        raise SchemaError("unknown document kind %r" % kind)
    return _KINDS[kind](doc, base_dir, field_override)


def object_to_document(obj, source_ref=None, target_ref=None):
    if isinstance(obj, mfmod.MatrixFactorization):
        return factorization_to_doc(obj)
    if isinstance(obj, mfmod.MFMorphism):
        if source_ref is None or target_ref is None:
            raise ValueError("morphism documents need source and target references")
        return morphism_to_doc(obj, source_ref, target_ref)
    if isinstance(obj, ToricSpec):
        return toric_to_doc(obj)
    raise TypeError("cannot serialize %r" % type(obj).__name__)


def dumps(doc) -> str:
    """Canonical byte-deterministic rendering."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def load(path: str, field_override=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError("cannot read %s: %s" % (path, exc.strerror or exc)) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("%s is not valid JSON: %s" % (path, exc)) from None
    return document_to_object(doc, os.path.dirname(os.path.abspath(path)), field_override)
