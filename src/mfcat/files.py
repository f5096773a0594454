"""JSON documents for factorizations, morphisms, and fans.

Every document carries ``schema_version`` (the int 1) and a ``kind``:
``load`` sniffs it, ``read`` refuses any kind its caller did not name
before anything is built.  Polynomial entries are strings in the shared
grammar (``x^2*y - 3/2*z + 1``); matrices are arrays of arrays of such
strings.  A morphism names its two factorizations through ``read``, by
preset name (``An:3:1``) or by a path relative to the morphism file, so
a reference never leads to another reference.
"""

from __future__ import annotations

import json
import os
import sys

from .poly import (RingContext, QQ, field_from_spec, parse_polynomial,
                   parse_coefficient, PolyError, quoted, shortened)
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
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError("%s document has schema_version %s, expected %d"
                          % (what, quoted(version), SCHEMA_VERSION))


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


def morphism_from_doc(doc, base_dir: str, field_override=None):
    _check_version(doc, "morphism")
    src_ref = _require(doc, "source", str, "morphism")
    tgt_ref = _require(doc, "target", str, "morphism")
    source = read(src_ref, "factorization", field_override=field_override, base_dir=base_dir)
    target = read(tgt_ref, "factorization", field_override=field_override, base_dir=base_dir)
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

# kind -> (what a document of that kind holds, reader)
_KINDS = {
    "factorization": ("a factorization",
                      lambda doc, base, field: factorization_from_doc(doc, field)),
    "morphism": ("a morphism", morphism_from_doc),
    "toric": ("a fan", lambda doc, base, field: toric_from_doc(doc)),
}


def document_to_object(doc, base_dir=".", field_override=None):
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    kind = _require(doc, "kind", str, "input")
    if kind not in _KINDS:
        raise SchemaError("unknown document kind %s" % quoted(kind))
    return _KINDS[kind][1](doc, base_dir, field_override)


def object_to_document(obj):
    """The document of a factorization or fan.  A morphism document names
    its ends by reference, so it is built by morphism_to_doc."""
    if isinstance(obj, mfmod.MatrixFactorization):
        return factorization_to_doc(obj)
    if isinstance(obj, ToricSpec):
        return toric_to_doc(obj)
    raise TypeError("cannot serialize %r" % type(obj).__name__)


def dumps(doc) -> str:
    """Canonical byte-deterministic rendering."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def _parse(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        # up to 120 characters, as a temporary path often passes 40
        raise SchemaError("cannot read %s: %s"
                          % (shortened(path, 120), exc.strerror or exc)) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("%s is not valid JSON: %s" % (path, exc)) from None
    except ValueError:  # the one other refusal: an integer too long for int()
        raise SchemaError("%s holds an integer of more than %d digits"
                          % (path, sys.get_int_max_str_digits())) from None
    except RecursionError:
        raise SchemaError("%s nests too deeply to parse" % path) from None


def load(path: str, field_override=None):
    """The object in the document at path, of whichever kind it holds."""
    return document_to_object(_parse(path), os.path.dirname(os.path.abspath(path)),
                               field_override)


def read(ref: str, *kinds, field_override=None, base_dir=""):
    """The object that ref names, of one of the given document kinds.

    Where kinds include "factorization", ref may be a built-in preset
    name; otherwise it is a path, taken relative to base_dir unless it
    is absolute.  A document of any other kind is refused before
    anything in it is built.
    """
    if "factorization" in kinds:
        try:
            return corpus.lookup(ref, field_override or QQ)
        except KeyError:
            pass
    path = os.path.join(base_dir, ref)
    doc = _parse(path)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in kinds:
        raise SchemaError("%s does not hold %s"
                          % (ref, " or ".join(_KINDS[k][0] for k in kinds)))
    return _KINDS[kind][1](doc, os.path.dirname(os.path.abspath(path)), field_override)
