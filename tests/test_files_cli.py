import json
import random
import signal
import sys
import time

import pytest
from click.testing import CliRunner

from mfcat.poly import QQ, PrimeField, RingContext
from mfcat import mf, files, corpus, groebner, oracle
from mfcat.cli import main
from mfcat.mirror import preset


def a1():
    R = RingContext(("x",), QQ)
    x = R.variable("x")
    return mf.rank_one(R, x**2, 0, x, x)


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def test_factorization_round_trip(tmp_path):
    E = corpus.power_factorization(3, 2)
    path = tmp_path / "a3.json"
    files.save(str(path), files.factorization_to_doc(E))
    back = files.load(str(path))
    assert back == E
    # canonical emit is a fixed point
    again = tmp_path / "again.json"
    files.save(str(again), files.factorization_to_doc(back))
    assert path.read_bytes() == again.read_bytes()


def test_equal_lambdas_give_identical_documents():
    # over F_7, lambda = 8 is lambda = 1; it was stored and emitted as "8"
    R = RingContext(("x",), PrimeField(7))
    x = R.variable("x")
    docs = [files.dumps(files.object_to_document(mf.rank_one(R, x**2 + 1, lam, x, x)))
            for lam in (8, 1)]
    assert docs[0] == docs[1]
    assert json.loads(docs[0])["lambda"] == "1"


def test_field_override_on_load(tmp_path):
    E = a1()
    path = tmp_path / "a1.json"
    files.save(str(path), files.factorization_to_doc(E))
    over = files.load(str(path), PrimeField(7))
    assert over.ring.field == PrimeField(7)
    assert mf.validate(over).ok


def test_morphism_documents_resolve_relative_paths(tmp_path):
    E = a1()
    files.save(str(tmp_path / "a1.json"), files.factorization_to_doc(E))
    ident = mf.identity_morphism(E)
    doc = files.morphism_to_doc(ident, "a1.json", "a1.json")
    mpath = tmp_path / "sub" / "id.json"
    mpath.parent.mkdir()
    files.save(str(tmp_path / "sub" / "a1.json"), files.factorization_to_doc(E))
    files.save(str(mpath), doc)
    loaded = files.load(str(mpath))
    assert loaded.source == E and loaded.target == E


def test_morphism_documents_accept_presets(tmp_path):
    doc = {
        "schema_version": 1, "kind": "morphism",
        "source": "An:1:1", "target": "An:1:1",
        "p1": [["x"]], "p0": [["x"]],
    }
    path = tmp_path / "m.json"
    path.write_text(files.dumps(doc))
    loaded = files.load(str(path))
    assert loaded.source == a1()


def test_toric_round_trip(tmp_path):
    spec = preset("dP6")
    path = tmp_path / "dp6.json"
    files.save(str(path), files.toric_to_doc(spec))
    back = files.load(str(path))
    assert back.rays == spec.rays
    assert back.relations == spec.relations
    assert back.basis == spec.basis


def test_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(files.SchemaError):
        files.load(str(bad))
    for doc in [
        {"kind": "factorization"},                                     # no version
        {"schema_version": 2, "kind": "factorization"},                # wrong version
        {"schema_version": 1, "kind": "mystery"},                      # unknown kind
        {"schema_version": 1, "kind": "factorization", "field": "Q",
         "vars": ["x"], "W": "x^2", "lambda": "0",
         "e1": [["x"], ["x", "x"]], "e0": [["x"]]},                    # ragged matrix
        {"schema_version": 1, "kind": "factorization", "field": "Q",
         "vars": ["x"], "W": "x^2", "lambda": "0",
         "e1": [[7]], "e0": [["x"]]},                                  # non-string cell
    ]:
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(files.SchemaError):
            files.load(str(p))
    with pytest.raises(files.SchemaError):
        files.load(str(tmp_path / "absent.json"))


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_validate_ok_and_machine_schema():
    res = run("validate", "An:2:1")
    assert res.exit_code == 0
    assert "valid:  yes" in res.output
    res = run("--format", "machine", "validate", "An:2:1")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["schema_version"] == 1
    assert doc["status"] == "ok"
    assert doc["verb"] == "validate"
    assert doc["W"] == "x^3"


def test_validate_rejects_broken_file(tmp_path):
    doc = {
        "schema_version": 1, "kind": "factorization", "field": "Q",
        "vars": ["x", "y"], "W": "x^2", "lambda": "0",
        "e1": [["x"]], "e0": [["y"]],
    }
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    res = run("validate", str(p))
    assert res.exit_code == 1
    assert res.stdout == ""  # failures never touch the output stream
    assert "expected x^2" in res.stderr


def test_failing_cells_are_reported_on_one_line(tmp_path):
    # a report's cells once went to stderr on lines of their own
    fac = _write(tmp_path / "bad.json", {
        "schema_version": 1, "kind": "factorization", "field": "Q", "vars": ["x"],
        "W": "x^2", "lambda": "0", "e1": [["x"]], "e0": [["x + 1"]]})
    for args in (["validate", fac], ["shift", fac], ["knorrer", fac], ["hom", fac, "An:1:1"]):
        res = run(*args)
        _one_line_error(res)
        assert res.stderr == "error: 1 failing cell(s): e0*e1[0,0] = x^2 + x, expected x^2\n"
    morphism = dict(_morphism_doc(), p0=[["x"]])
    res = run("cone", _write(tmp_path / "open.json", morphism))
    _one_line_error(res)
    assert res.stderr.startswith("error: 1 failing cell(s): p1*e0 - f0*p0[0,0] = ")


def test_tensor_of_opposite_constant_potentials_fails_on_one_line(tmp_path):
    # both documents load, but the sum of their W - lambda is 0
    one = {"schema_version": 1, "kind": "factorization", "field": "Q", "vars": ["x"],
           "W": "1", "lambda": "0", "e1": [["1"]], "e0": [["1"]]}
    minus_one = dict(one, vars=["y"], W="0", **{"lambda": "1"}, e0=[["-1"]])
    res = run("tensor", _write(tmp_path / "a.json", one), _write(tmp_path / "b.json", minus_one))
    _one_line_error(res)
    assert res.stderr == "error: 1 failing cell(s): W - lambda[0,0] = 0, expected a nonzero polynomial\n"


@pytest.mark.parametrize("field, override, w, lam", [
    ("Q", None, "x^2 + 1/0*x", "0"),
    ("Fp:7", None, "x^2 + 1/7*x", "0"),
    ("Fp:7", None, "x^2", "1/7"),
    ("Q", "Fp:7", "x^2 + 1/7*x", "0"),
    ("Q", "Fp:7", "x^2", "1/7"),
    # each lambda once read as W - x^2, which made these documents valid
    ("Q", None, "x^2 + 3", "--3"),
    ("Q", None, "x^2 - 3", "+-3"),
    ("Q", None, "x^2 - 3/2", "3/-2"),
    # int() read this modulus as 32749
    ("Fp:32_749", None, "x^2", "0"),
])
def test_bad_coefficients_are_one_line_errors(tmp_path, field, override, w, lam):
    doc = {
        "schema_version": 1, "kind": "factorization", "field": field,
        "vars": ["x"], "W": w, "lambda": lam, "e1": [["x"]], "e0": [["x"]],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    res = run(*(("--field", override) if override else ()), "validate", str(p))
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr


def test_shift_twice_is_byte_identical(tmp_path):
    base = tmp_path / "e.json"
    once = tmp_path / "once.json"
    twice = tmp_path / "twice.json"
    assert run("shift", "An:3:1", "-o", str(base)).exit_code == 0
    assert run("shift", str(base), "-o", str(once)).exit_code == 0
    assert run("shift", str(once), "--twice", "-o", str(twice)).exit_code == 0
    assert once.read_bytes() == twice.read_bytes() or base.read_bytes() != once.read_bytes()
    # E[2] equals E exactly
    assert run("shift", str(base), "--twice", "-o", str(twice)).exit_code == 0
    assert base.read_bytes() == twice.read_bytes()


def test_sum_cone_tensor_knorrer_cok(tmp_path):
    out = tmp_path / "out.json"
    assert run("sum", "An:2:1", "An:2:2", "-o", str(out)).exit_code == 0
    assert run("validate", str(out)).exit_code == 0

    morph = tmp_path / "m.json"
    morph.write_text(files.dumps({
        "schema_version": 1, "kind": "morphism",
        "source": "An:1:1", "target": "An:1:1",
        "p1": [["1"]], "p0": [["1"]],
    }))
    assert run("cone", str(morph), "-o", str(out)).exit_code == 0
    assert run("validate", str(out)).exit_code == 0

    assert run("tensor", "An:1:1", "pair:uv", "-o", str(out)).exit_code == 0
    assert run("validate", str(out)).exit_code == 0

    assert run("knorrer", "An:2:1", "--vars", "s,t", "-o", str(out)).exit_code == 0
    res = run("--format", "machine", "validate", str(out))
    assert json.loads(res.output)["W"] == "x^3 + s*t"

    res = run("--format", "machine", "cok", "An:3:2")
    doc = json.loads(res.output)
    assert doc["dimension"] == 2
    assert doc["hilbert"][:3] == [1, 1, 0]

    res = run("--format", "machine", "cok", "pair:uv")
    assert json.loads(res.output)["dimension"] == "INFINITE"


def test_hom_verbs_and_oracle_flag():
    res = run("--format", "machine", "hom", "An:1:1", "An:1:1")
    assert json.loads(res.output) == {
        "schema_version": 1, "verb": "hom", "status": "ok", "h0": 1, "h1": 1}
    res = run("hom", "An:1:1", "An:1:1", "--oracle")
    assert res.exit_code == 0
    assert "oracle: agrees" in res.output
    res = run("hom", "An:1:1", "pair:uv")
    assert res.exit_code == 1


def test_nullhomotopic_and_equiv(tmp_path):
    xmorph = tmp_path / "x.json"
    xmorph.write_text(files.dumps({
        "schema_version": 1, "kind": "morphism",
        "source": "An:1:1", "target": "An:1:1",
        "p1": [["x"]], "p0": [["x"]],
    }))
    res = run("--format", "machine", "nullhomotopic", str(xmorph))
    doc = json.loads(res.output)
    assert doc["null_homotopic"] is True
    assert doc["s0"] == [["1"]] and doc["s1"] == [["0"]]

    ident = tmp_path / "id.json"
    ident.write_text(files.dumps({
        "schema_version": 1, "kind": "morphism",
        "source": "An:1:1", "target": "An:1:1",
        "p1": [["1"]], "p0": [["1"]],
    }))
    res = run("--format", "machine", "nullhomotopic", str(ident))
    assert json.loads(res.output)["null_homotopic"] is False
    res = run("equiv", str(ident))
    assert res.exit_code == 0 and "yes" in res.output


def test_totalize_single_and_chain(tmp_path):
    out = tmp_path / "t.json"
    assert run("totalize", "An:2:1", "-o", str(out)).exit_code == 0
    assert files.load(str(out)) == corpus.power_factorization(2, 1)

    m = tmp_path / "m.json"
    m.write_text(files.dumps({
        "schema_version": 1, "kind": "morphism",
        "source": "An:1:1", "target": "An:1:1",
        "p1": [["1"]], "p0": [["1"]],
    }))
    assert run("totalize", str(m), "-o", str(out)).exit_code == 0
    assert files.load(str(out)).rank == 2


def test_mirror_cli(tmp_path):
    res = run("--format", "machine", "mirror-count", "--preset", "P2",
              "--param", "q=1")
    assert json.loads(res.output)["count"] == 3

    res = run("--format", "machine", "mirror-values", "--preset", "P1",
              "--param", "q=1")
    doc = json.loads(res.output)
    assert doc["count"] == 2
    assert doc["value_polynomial"] == "w^2 - 4"
    assert doc["distinct_values"] is True

    res = run("--format", "machine", "mirror-fiber", "--preset", "P1",
              "--param", "q=1", "--at", "0")
    assert json.loads(res.output)["cardinality"] == 2
    res = run("mirror-fiber", "--preset", "P1", "--param", "q=1/2", "--at", "-3/2")
    assert res.exit_code == 0 and res.output == "fiber cardinality: 2\n"

    fan = tmp_path / "f1.json"
    assert run("mirror-build", "--preset", "F1", "-o", str(fan)).exit_code == 0
    res = run("--format", "machine", "mirror-count", str(fan),
              "--param", "t=3/2", "--param", "s=2")
    assert json.loads(res.output)["count"] == 4

    res = run("mirror-count", "--preset", "P1", "--param", "q=-1")
    assert res.exit_code == 1
    res = run("mirror-count", "--preset", "P1")
    assert res.exit_code == 1  # q missing


@pytest.mark.parametrize("option, value", [
    ("--at", "1_0"), ("--at", "1e2"), ("--at", "abc"), ("--at", "3/-2"), ("--param", "q=0.5"),
])
def test_mirror_values_use_the_coefficient_grammar(option, value):
    params = ["--param", "q=1"] if option == "--at" else []
    res = run("mirror-fiber", "--preset", "P1", *params, option, value)
    _one_line_error(res)
    assert res.stderr.startswith("error: %s " % option)


@pytest.mark.parametrize("option", ["--param", "--at"])
def test_a_refused_option_value_is_named_by_its_length(option):
    # the line names the option and the value's length; 5,000 digits are not echoed
    if option == "--param":
        args, name = ["--param", "q=" + "9" * 5000], "--param q"
    else:
        args, name = ["--param", "q=1", "--at", "9" * 5000], "--at"
    res = run("mirror-fiber", "--preset", "P1", *args)
    _one_line_error(res)
    assert res.stderr == ("error: %s (5000 characters): integer of 5000 digits, more than the "
                          "4300 allowed (line 1, column 0)\n" % name)


LONG_NAME = "'aaaaaaaaaaaa'... (5000 characters)"


@pytest.mark.parametrize("where, value, message", [
    ("--at", "1_" + "0" * 5000, "--at (5002 characters): expected '+' or '-' near "
     "'_00000000000'... (5001 characters) (line 1, column 1)"),
    ("--at", "a" * 5000, "--at (5000 characters): unknown variable %s near %s "
     "(line 1, column 0)" % (LONG_NAME, LONG_NAME)),
    ("field", "x" * 5000, "bad field spec 'xxxxxxxxxxxx'... (5000 characters) "
     "(expected Q or Fp:<p>) (line 1, column 0)"),
    ("W", "a" * 5000, "unknown variable %s near %s (line 1, column 0)" % (LONG_NAME, LONG_NAME)),
    ("schema_version", "s" * 5000, "factorization document has schema_version "
     "'ssssssssssss'... (5000 characters), expected 1"),
    ("vars", ["1" + "a" * 5000], "bad variable name '1aaaaaaaaaaa'... (5001 characters)"),
], ids=["--at token", "--at variable", "document field", "document W", "document version",
        "document vars"])
def test_over_long_text_in_a_parse_error_is_named_by_its_length(tmp_path, where, value, message):
    # a 5,000-character token, field spec, variable name or schema version
    # is named by its first 12 characters and its length, not echoed
    if where == "--at":
        res = run("mirror-fiber", "--preset", "P1", "--param", "q=1", "--at", value)
    else:
        doc = files.factorization_to_doc(a1())
        doc[where] = value
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        res = run("validate", str(path))
    _one_line_error(res)
    assert res.stderr == "error: %s\n" % message


@pytest.mark.parametrize("args", [
    ["mirror-count", "--preset", "P" * 5000],
    ["mirror-count", "--preset", "P1", "--param", "q=1", "--param", "q" * 5000 + "=2"],
    ["mirror-count", "--preset", "P1", "--param", "q" * 5000 + "=x"],
    ["hom", "A" * 5000, "An:1:1"],
], ids=["preset", "unknown parameter", "refused parameter", "unreadable path"])
def test_over_long_option_values_are_named_by_their_length(args):
    # a 5,000-character preset name, parameter name or path is not echoed
    res = run(*args)
    _one_line_error(res)
    assert len(res.stderr) < 200 and "(500" in res.stderr


@pytest.mark.parametrize("verb", ["mirror-count", "mirror-values", "mirror-fiber"])
def test_repeated_parameters_are_refused(verb):
    res = run(verb, "--preset", "P1", "--param", "q=1", "--param", "q=2")
    _one_line_error(res)
    assert res.stderr == "error: --param q is given more than once\n"


# each verb with the extra arguments it needs after its first input
VERBS = [
    ("validate", []), ("shift", []), ("sum", ["An:1:1"]), ("cone", []),
    ("tensor", ["An:1:1"]), ("knorrer", []), ("cok", []), ("hom", ["An:1:1"]),
    ("nullhomotopic", []), ("equiv", []), ("totalize", []), ("mirror-build", []),
    ("mirror-count", []), ("mirror-values", []), ("mirror-fiber", []),
]


@pytest.mark.parametrize("verb, extra", VERBS)
def test_every_verb_reports_a_missing_file_on_one_line(tmp_path, verb, extra):
    missing = str(tmp_path / "missing.json")
    for fmt in ("human", "machine"):
        res = run("--format", fmt, verb, missing, *extra)
        _one_line_error(res)
        assert res.stderr == "error: cannot read %s: No such file or directory\n" % missing


def test_usage_errors_exit_two():
    assert run("frobnicate").exit_code == 2
    assert run("shift").exit_code == 2
    assert run("mirror-count").exit_code == 2  # neither file nor preset
    assert run("--field", "R7", "validate", "An:1:1").exit_code == 2
    assert run("--field", "Fp:6", "validate", "An:1:1").exit_code == 2  # composite modulus


def test_field_override_via_cli():
    res = run("--format", "machine", "--field", "Fp:32749", "validate", "An:3:1")
    doc = json.loads(res.output)
    assert doc["field"] == "Fp:32749"
    res = run("--field", "Fp:7", "hom", "An:1:1", "An:1:1")
    assert res.exit_code == 0


def test_reports_are_deterministic():
    a = run("--format", "machine", "hom", "An:2:1", "An:2:2").output
    b = run("--format", "machine", "hom", "An:2:1", "An:2:2").output
    assert a == b
    c = run("--format", "machine", "mirror-values", "--preset", "dP6",
            "--param", "r=1", "--param", "s=1", "--param", "t=1").output
    d = run("--format", "machine", "mirror-values", "--preset", "dP6",
            "--param", "r=1", "--param", "s=1", "--param", "t=1").output
    assert c == d


def _one_line_error(res):
    assert res.exit_code == 1
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _p1_fan(**changes):
    doc = {"schema_version": 1, "kind": "toric", "dimension": 1,
           "rays": [[1], [-1]], "basis": [0],
           "relations": [{"coeffs": [1, 1], "parameter": "q"}]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("changes", [
    {"rays": [[1], [-1.7]]},                                    # non-integral ray
    {"dimension": True},                                        # boolean dimension
    {"rays": [[True], [-1]]},                                   # boolean ray entry
    {"basis": [0.0]},                                           # float basis index
    {"relations": [{"coeffs": [1, 1.5], "parameter": "q"}]},    # non-integral coeff
])
def test_fan_documents_take_strict_integers(tmp_path, changes):
    fan = tmp_path / "p1.json"
    fan.write_text(json.dumps(_p1_fan()))
    assert json.loads(run("--format", "machine", "mirror-count", str(fan),
                          "--param", "q=1").output)["count"] == 2
    fan.write_text(json.dumps(_p1_fan(**changes)))
    _one_line_error(run("mirror-count", str(fan), "--param", "q=1"))


def test_negative_hilbert_range_is_refused():
    _one_line_error(run("cok", "An:3:2", "--upto", "-1"))
    assert run("cok", "An:3:2", "--upto", "0").exit_code == 0


def test_huge_hilbert_range_is_refused_before_enumerating():
    start = time.perf_counter()
    for upto in ("1000000", "10" * 20):
        _one_line_error(run("cok", "pair:uv", "--upto", upto))
    assert time.perf_counter() - start < 10
    # the limit counts the monomials of degree <= upto: one a degree in x
    limit = groebner.HILBERT_MONOMIAL_LIMIT
    groebner.check_hilbert_range(1, limit - 1)
    with pytest.raises(ValueError):
        groebner.check_hilbert_range(1, limit)
    E = corpus.power_factorization(3, 2)
    with pytest.raises(ValueError):
        mf.cokernel_presentation(E, hilbert_upto=limit)
    with pytest.raises(ValueError):
        groebner.hilbert_slices(groebner.buchberger([E.w]), limit)


def test_enumerations_are_refused_by_their_count(tmp_path, monkeypatch):
    # Counts read Hilbert numerators and have no limit.  Enumerating a
    # quotient, its standard monomials or subquotient representatives, is
    # refused by its whole count, at all positions together, before it walks.
    limit = 40
    monkeypatch.setattr(groebner, "HILBERT_MONOMIAL_LIMIT", limit)
    R = RingContext(("x", "y"), QQ)
    x, y = R.gens()
    assert len(groebner.standard_monomials(groebner.buchberger([x ** limit, y]))) == limit
    G = groebner.buchberger([x ** (limit + 1), y])
    assert groebner.quotient_dim(G) == limit + 1
    with pytest.raises(ValueError, match="more than 40 standard monomials"):
        groebner.standard_monomials(G)
    one = R.one()
    assert groebner.quotient_module_dim([(one,)], [(x ** (limit + 1),), (y,)], R, 1) == limit + 1
    with pytest.raises(ValueError, match="more than 40 standard monomials"):
        groebner.subquotient_basis([(one,)], [(x ** (limit + 1),), (y,)], R, 1)
    zero = R.zero()
    both = groebner.module_groebner([(x ** limit, zero), (y, zero), (zero, y ** limit), (zero, x)],
                                    2, R)
    assert groebner.quotient_dim(both) == 2 * limit
    with pytest.raises(ValueError, match="more than 40 standard monomials"):
        groebner.standard_monomials(both)
    # cok of the rank-one factorization (x^e, x) of x^(e+1) counts e monomials
    S = RingContext(("x",), QQ)
    t = S.variable("x")
    for e in (limit, limit + 1):
        path = tmp_path / ("power%d.json" % e)
        files.save(str(path), files.factorization_to_doc(mf.rank_one(S, t ** (e + 1), 0, t ** e, t)))
        res = run("--format", "machine", "cok", str(path))
        assert res.exit_code == 0 and json.loads(res.output)["dimension"] == e


def test_cokernel_of_a_huge_power_is_counted_or_refused_fast(tmp_path):
    # cok of (x^e, x) of x^(e+1) has e standard monomials, counted from the
    # Hilbert numerator 1 - q^e for e = 10^5 and 10^9 alike, as the README
    # promises; enumerating the 10^9 of them is refused before any walk.
    S = RingContext(("x",), QQ)
    t = S.variable("x")
    for e in (10 ** 5, 10 ** 9):
        path = tmp_path / ("power%d.json" % e)
        files.save(str(path), files.factorization_to_doc(mf.rank_one(S, t ** (e + 1), 0, t ** e, t)))
        start = time.perf_counter()
        res = run("--format", "machine", "cok", str(path))
        assert res.exit_code == 0 and json.loads(res.output)["dimension"] == e
        assert time.perf_counter() - start < 5
    start = time.perf_counter()
    with pytest.raises(ValueError, match="more than %d standard monomials"
                       % groebner.HILBERT_MONOMIAL_LIMIT):
        groebner.standard_monomials(groebner.buchberger([t ** e]))
    assert time.perf_counter() - start < 5


DEEP_JSON = "[" * 200000 + "]" * 200000


def _fan_doc():
    return files.toric_to_doc(preset("P1"))


def _morphism_doc(source="An:1:1", target="An:1:1"):
    return {"schema_version": 1, "kind": "morphism", "source": source,
            "target": target, "p1": [["1"]], "p0": [["1"]]}


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("verb, extra", VERBS)
def test_documents_that_cannot_be_read_fail_on_one_line_for_every_verb(tmp_path, verb, extra):
    # a morphism whose source is itself, a two-document morphism cycle,
    # JSON nested 200,000 deep and schema_version true in each kind: each
    # once recursed or was accepted
    cycle = tmp_path / "a.json"
    _write(tmp_path / "b.json", _morphism_doc(source="a.json"))
    _write(cycle, _morphism_doc(source="b.json"))
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    paths = [_write(tmp_path / "self.json", _morphism_doc(source="self.json")), str(cycle),
             str(deep)]
    for kind, doc in (("factorization", files.factorization_to_doc(a1())),
                      ("morphism", _morphism_doc()), ("toric", _fan_doc())):
        doc["schema_version"] = True
        paths.append(_write(tmp_path / ("true-%s.json" % kind), doc))
    for path in paths:
        for fmt in ("human", "machine"):
            _one_line_error(run("--format", fmt, verb, path, *extra))


def test_documents_name_only_factorizations_and_carry_the_int_version(tmp_path):
    me = _write(tmp_path / "self.json", _morphism_doc(source="self.json"))
    with pytest.raises(files.SchemaError, match="self.json does not hold a factorization"):
        files.load(me)
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    with pytest.raises(files.SchemaError, match="nests too deeply"):
        files.load(str(deep))
    doc = files.factorization_to_doc(a1())
    assert files.load(_write(tmp_path / "one.json", doc)) == a1()
    doc["schema_version"] = True
    with pytest.raises(files.SchemaError, match="schema_version True, expected 1"):
        files.load(_write(tmp_path / "true.json", doc))


@pytest.mark.parametrize("verb, extra, holds", [
    ("validate", [], "a factorization"), ("sum", ["An:1:1"], "a factorization"),
    ("hom", ["An:1:1"], "a factorization"), ("cone", [], "a morphism"),
    ("nullhomotopic", [], "a morphism"), ("mirror-count", ["--param", "q=1"], "a fan"),
    ("totalize", [], "a factorization or a morphism"),
])
def test_each_reader_refuses_a_document_of_another_kind(tmp_path, verb, extra, holds):
    docs = [files.factorization_to_doc(a1()), _morphism_doc(), _fan_doc()]
    refused = 0
    for i, doc in enumerate(docs):
        path = _write(tmp_path / ("doc%d.json" % i), doc)
        for fmt in ("human", "machine"):
            res = run("--format", fmt, verb, path, *extra)
            if res.exit_code == 0:
                continue
            _one_line_error(res)
            assert res.stderr == "error: %s does not hold %s\n" % (path, holds)
            refused += 1
    assert refused == (2 if verb == "totalize" else 4)


def test_totalize_of_two_morphisms_reads_no_factorization(tmp_path):
    out = tmp_path / "t.json"
    ident = _write(tmp_path / "id.json", _morphism_doc())
    fac = _write(tmp_path / "a1.json", files.factorization_to_doc(a1()))
    assert run("totalize", ident, fac).stderr == "error: %s does not hold a morphism\n" % fac
    assert run("totalize", fac, "-o", str(out)).exit_code == 0
    assert files.load(str(out)) == a1()


def test_hom_oracle_is_skipped_on_infinite_dimensions(tmp_path):
    # W = x^2 y is not an isolated singularity: Hom((x, xy), (x, xy)) is infinite
    R = RingContext(("x", "y"), QQ)
    x, y = R.gens()
    path = tmp_path / "line.json"
    files.save(str(path), files.factorization_to_doc(mf.rank_one(R, x**2 * y, 0, x, x * y)))
    res = run("hom", str(path), str(path), "--oracle")
    assert res.exit_code == 0
    assert res.output == "h0: INFINITE\nh1: INFINITE\noracle: skipped (infinite dimensions)\n"
    res = run("--format", "machine", "hom", str(path), str(path), "--oracle")
    assert res.exit_code == 0
    assert json.loads(res.output) == {
        "schema_version": 1, "verb": "hom", "status": "ok", "h0": "INFINITE",
        "h1": "INFINITE", "oracle": "skipped (infinite dimensions)"}


def test_hom_oracle_above_its_cap_is_skipped(tmp_path):
    # the oracle's scan would start at deg W, above its cap of 24; a degree
    # past 40 digits or 10,000 bits is named by its length
    R = RingContext(("x",), QQ)
    x = R.variable("x")
    for a, b, named in [(7, 23, "30"), (10**49, 9 * 10**49, "'100000000000'... (51 characters)"),
                        (2**10000, 2**10000, "an int of 10002 bits")]:
        path = tmp_path / "e.json"
        files.save(str(path), files.factorization_to_doc(mf.rank_one(R, x**(a + b), 0, x**a, x**b)))
        skipped = "skipped (deg W = %s is above the truncation cap of 24)" % named
        res = run("hom", str(path), str(path), "--oracle")
        assert res.exit_code == 0 and res.stderr == ""
        assert res.output == "h0: %d\nh1: %d\noracle: %s\n" % (min(a, b), min(a, b), skipped)
        res = run("--format", "machine", "hom", str(path), str(path), "--oracle")
        assert res.exit_code == 0
        assert json.loads(res.output) == {
            "schema_version": 1, "verb": "hom", "status": "ok", "h0": min(a, b),
            "h1": min(a, b), "oracle": skipped}
    with pytest.raises(oracle.OracleDiverged, match="no degree was read"):
        oracle.hom_dims_truncated(*[mf.rank_one(R, x**30, 0, x**7, x**23)] * 2)


def test_hom_oracle_checks_a_potential_without_a_degree(tmp_path):
    # W = 0 with lambda = 1: the scan starts at degree 1
    R = RingContext(("x",), QQ)
    path = tmp_path / "e.json"
    files.save(str(path), files.factorization_to_doc(mf.rank_one(R, R.zero(), 1, -R.one(), R.one())))
    res = run("hom", str(path), str(path), "--oracle")
    assert (res.exit_code, res.output) == (0, "h0: 0\nh1: 0\noracle: agrees\n")


@pytest.mark.parametrize("verb, args", [
    ("shift", ["An:1:1"]), ("sum", ["An:1:1", "An:1:1"]), ("tensor", ["An:1:1", "pair:uv"]),
    ("knorrer", ["An:1:1"]), ("totalize", ["An:1:1"]),
])
def test_object_verbs_print_the_document_without_an_output_file(verb, args):
    human = run(verb, *args)
    assert human.exit_code == 0 and human.stderr == ""
    doc = json.loads(human.output)
    assert human.output == files.dumps(doc) and doc["kind"] == "factorization"
    machine = run("--format", "machine", verb, *args)
    assert machine.exit_code == 0
    assert json.loads(machine.output) == {
        "schema_version": 1, "verb": verb, "status": "ok", "result": doc}


def test_malformed_options_are_usage_errors():
    assert run("knorrer", "An:1:1", "--vars", "a").exit_code == 2
    assert run("knorrer", "An:1:1", "--vars", "a,").exit_code == 2
    assert run("mirror-count", "--preset", "P1", "--param", "q").exit_code == 2


def test_cokernel_of_a_rank_zero_factorization(tmp_path):
    # the cone of an identity reduces to rank 0: its cokernel is 0
    zero = mf.minimal_model(mf.cone(mf.identity_morphism(corpus.power_factorization(2, 1))))
    assert zero.rank == 0
    pres = mf.cokernel_presentation(zero, hilbert_upto=5)
    assert (pres.dimension, pres.hilbert) == (0, (0,) * 6)
    assert (pres.presentation.rows, pres.presentation.cols) == (0, 0)
    assert str(pres.fiber_relation) == "x^3"
    path = tmp_path / "zero.json"
    files.save(str(path), files.factorization_to_doc(zero))
    res = run("cok", str(path), "--upto", "5")
    assert res.exit_code == 0
    assert res.output == "fiber relation: x^3\ndimension:      0\nhilbert:        0 0 0 0 0 0\n"
    res = run("--format", "machine", "cok", str(path), "--upto", "5")
    assert json.loads(res.output) == {
        "schema_version": 1, "verb": "cok", "status": "ok", "fiber_relation": "x^3",
        "dimension": 0, "hilbert": [0] * 6, "presentation": []}


def test_object_to_document_round_trips_fans_and_refuses_morphisms():
    for name in ("P1", "F1", "dP6"):
        text = files.dumps(files.object_to_document(preset(name)))
        back = files.document_to_object(json.loads(text))
        assert files.dumps(files.object_to_document(back)) == text
    # a morphism document names its ends, so only morphism_to_doc builds it
    with pytest.raises(TypeError, match="cannot serialize 'MFMorphism'"):
        files.object_to_document(mf.identity_morphism(a1()))


def _a1_doc(**changes):
    doc = files.factorization_to_doc(a1())
    doc.update(changes)
    return {key: value for key, value in doc.items() if value is not None}


@pytest.mark.parametrize("verb, doc, message", [
    ("validate", _a1_doc(W=None), "factorization document is missing 'W'"),
    ("validate", _a1_doc(e1=["x"]), "factorization field 'e1' must be an array of arrays"),
    ("validate", _a1_doc(vars=[]), "factorization field 'vars' must be a non-empty list of names"),
    ("validate", _a1_doc(W="x^2 +"), "dangling sign at end of input (line 1, column 5)"),
    ("validate", _a1_doc(e0=[["x*"]]),
     "expected a variable name at end of input (line 1, column 2)"),
    ("validate", _a1_doc(W="x^2 +\n  x*"),
     "expected a variable name at end of input (line 2, column 4)"),
    ("mirror-count", _p1_fan(relations=["q"]), "toric relations must be objects"),
    ("mirror-count", _p1_fan(relations=[{"coeffs": [1, 1], "parameter": 7}]),
     "toric relation parameter must be a string or null"),
    ("mirror-count", _p1_fan(rays=[[1], [1]]), "invalid fan: duplicate rays"),
])
def test_malformed_documents_fail_on_one_line(tmp_path, verb, doc, message):
    extra = ["--param", "q=1"] if verb == "mirror-count" else []
    res = run(verb, _write(tmp_path / "doc.json", doc), *extra)
    _one_line_error(res)
    assert res.stderr == "error: %s\n" % message


def test_integers_too_long_for_int_fail_on_one_line_that_names_them(tmp_path):
    # a fan ray as a JSON number and a coefficient of W or e0 as a polynomial
    # string, each of more digits than int() converts: the line was Python's
    # own advice to raise sys.set_int_max_str_digits()
    limit = sys.get_int_max_str_digits()
    nines = "9" * (limit + 1)
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps(_p1_fan()).replace('"rays": [[1], [-1]]',
                                                 '"rays": [[%s], [-1]]' % nines))
    message = "%s holds an integer of more than %d digits" % (fan, limit)
    with pytest.raises(files.SchemaError) as info:
        files.load(str(fan))
    assert str(info.value) == message
    res = run("mirror-count", str(fan), "--param", "q=1")
    _one_line_error(res)
    assert res.stderr == "error: %s\n" % message
    for doc, column in ((_a1_doc(W="x^2 + %s" % nines), 6), (_a1_doc(e0=[["%s*x" % nines]]), 0)):
        res = run("validate", _write(tmp_path / "a1.json", doc))
        _one_line_error(res)
        assert res.stderr == "error: integer of %d digits, more than the %d allowed (line 1, column %d)\n" % (
            limit + 1, limit, column)


def test_a_document_root_must_be_an_object(tmp_path):
    with pytest.raises(files.SchemaError, match="document root must be an object"):
        files.document_to_object([_a1_doc()])
    with pytest.raises(files.SchemaError, match="document root must be an object"):
        files.load(_write(tmp_path / "list.json", [_a1_doc()]))


@pytest.mark.parametrize("args, message", [
    (["mirror-count", "--preset", "P9", "--param", "q=1"],
     "unknown preset 'P9' (have: F1, P1, P2, P3, dP6)"),
    (["mirror-fiber", "--preset", "P2", "--param", "q=1"],
     "fiber counting is implemented for one variable only"),
])
def test_fan_verbs_refuse_unknown_presets_and_fibers_of_surfaces(args, message):
    res = run(*args)
    _one_line_error(res)
    assert res.stderr == "error: %s\n" % message


# ---------------------------------------------------------------------------
# a seeded structural fuzzer: canonical documents with one or two leaves or
# subtrees replaced, or a key deleted, each sent to one verb of its kind
# ---------------------------------------------------------------------------

# raw JSON text, so that numbers too long for json.dumps and NaN go in as written
FUZZ_VALUES = ['""', '"x^99999999999"', '"1/0"', "1" + "0" * 400, "NaN", "[[[]]]", '"Fp:4"',
               "9" * 5000, '"%s"' % ("a" * 5000), "-1", "0", "2", "3", '"x"', '"x^2 - 1"',
               "null", "true", "0.5", "{}"]
FUZZ_RUNS = 200
FUZZ_ALARM_S = 2
FUZZ_LINE_BOUND = 500  # no error: line echoes a long value whole


class _Alarm(BaseException):
    pass


def _slots(node):
    """(container, key) of every value below node, subtrees included."""
    keys = list(node) if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


def _mutated(doc, rng):
    doc = json.loads(json.dumps(doc))
    raw = []
    for _ in range(rng.randint(1, 2)):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = rng.choice(slots)
        value = container[key]
        if isinstance(value, int) and not isinstance(value, bool) and rng.random() < 0.5:
            container[key] = value + rng.choice((-2, -1, 1, 2))
        elif isinstance(container, dict) and rng.random() < 0.2:
            del container[key]
        else:
            container[key] = "@%d@" % len(raw)
            raw.append(rng.choice(FUZZ_VALUES))
    text = json.dumps(doc)
    for i, value in enumerate(raw):
        text = text.replace('"@%d@"' % i, value)
    return text


def _fan_verbs(name):
    params = [a for p in preset(name).parameter_names for a in ("--param", "%s=1" % p)]
    return [lambda f: ["mirror-build", f], lambda f: ["mirror-count", f, *params],
            lambda f: ["mirror-values", f, *params], lambda f: ["mirror-fiber", f, *params]]


def test_cli_contract_under_a_seeded_structural_fuzzer(tmp_path):
    # exit 0, 1 or 2; exit 1 prints exactly one error: line, shorter than
    # FUZZ_LINE_BOUND; nothing escapes and no run passes the alarm
    factorization_verbs = [lambda f: ["validate", f], lambda f: ["shift", f],
                           lambda f: ["cok", f], lambda f: ["knorrer", f],
                           lambda f: ["hom", f, f]]
    morphism_verbs = [lambda f: ["cone", f], lambda f: ["nullhomotopic", f],
                      lambda f: ["equiv", f]]
    cases = [(files.factorization_to_doc(E), factorization_verbs)
             for E in (a1(), corpus.power_factorization(3, 2), corpus.product_factorization(),
                       corpus.power_factorization(2, 1, field=PrimeField(7)))]
    cases.append((_morphism_doc(), morphism_verbs))
    cases += [(files.toric_to_doc(preset(name)), _fan_verbs(name)) for name in ("P1", "P2", "F1")]

    def ring(signum, frame):
        raise _Alarm()
    rng = random.Random(67)
    previous = signal.signal(signal.SIGALRM, ring)
    try:
        for i in range(FUZZ_RUNS):
            doc, verbs = rng.choice(cases)
            text = _mutated(doc, rng)
            path = tmp_path / ("doc%d.json" % i)
            path.write_text(text)
            args = ["--format", rng.choice(("human", "machine"))] + rng.choice(verbs)(str(path))
            signal.setitimer(signal.ITIMER_REAL, FUZZ_ALARM_S)
            try:
                res = run(*args, catch_exceptions=False)
            except (Exception, _Alarm) as exc:
                pytest.fail("%s on %.300s: %r" % (args[2], text, exc))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert res.exit_code in (0, 1, 2), (args[2], text[:300], res.output)
            if res.exit_code == 1:
                lines = res.stderr.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (args[2], text[:300])
                assert len(lines[0]) < FUZZ_LINE_BOUND, (args[2], lines[0][:300])
    finally:
        signal.signal(signal.SIGALRM, previous)
