import json

import pytest
from click.testing import CliRunner

from mfcat.poly import QQ, PrimeField, RingContext
from mfcat import mf, files, corpus
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

    fan = tmp_path / "f1.json"
    assert run("mirror-build", "--preset", "F1", "-o", str(fan)).exit_code == 0
    res = run("--format", "machine", "mirror-count", str(fan),
              "--param", "t=3/2", "--param", "s=2")
    assert json.loads(res.output)["count"] == 4

    res = run("mirror-count", "--preset", "P1", "--param", "q=-1")
    assert res.exit_code == 1
    res = run("mirror-count", "--preset", "P1")
    assert res.exit_code == 1  # q missing


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
