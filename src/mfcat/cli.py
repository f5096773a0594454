"""Command-line front end.

One binary, subcommand style.  Inputs are JSON documents (factorization,
morphism, fan) or built-in preset names (``An:<n>:<a>``, ``pair:uv``,
fans ``P1 P2 P3 F1 dP6``).  ``--format machine`` wraps every report in a
versioned JSON envelope; errors go to stderr with exit code 1 (domain)
or 2 (usage).
"""

from __future__ import annotations

import functools
import sys

import click

from .poly import QQ, PolyError, field_from_spec, parse_coefficient, quoted, shortened
from . import mf as mfmod
from . import hom as hommod
from . import files
from . import mirror as mirrormod
from . import oracle
from .groebner import INFINITE

SCHEMA_VERSION = files.SCHEMA_VERSION


class _Settings:
    def __init__(self):
        self.format = "human"
        self.field = None


pass_settings = click.make_pass_decorator(_Settings, ensure=True)


def _fail(message: str):
    """One ``error:`` line, exit 1; a report's cells join its header's line."""
    head, *cells = message.split("\n")
    if cells:
        head += " " + "; ".join(c.strip() for c in cells)
    click.echo("error: %s" % head, err=True)
    sys.exit(1)


def _read(settings, ref, *kinds):
    return files.read(ref, *kinds, field_override=settings.field)


def _load_fan(path_or_preset, preset):
    """The superpotential built from a fan file or a preset."""
    if (path_or_preset is None) == (preset is None):
        raise click.UsageError("give exactly one fan: a file argument or --preset")
    if preset is not None:
        try:
            spec = mirrormod.preset(preset)
        except KeyError as exc:
            raise files.SchemaError(str(exc.args[0])) from None
    else:
        spec = files.read(path_or_preset, "toric")
    return mirrormod.build_superpotential(spec)


def _dim_value(d):
    return "INFINITE" if d is INFINITE else d


def _emit_report(settings, verb, payload, human_lines):
    if settings.format == "machine":
        doc = {"schema_version": SCHEMA_VERSION, "verb": verb, "status": "ok"}
        doc.update(payload)
        click.echo(files.dumps(doc), nl=False)
    else:
        for line in human_lines:
            click.echo(line)


def _emit_object(settings, verb, obj, out):
    doc = files.object_to_document(obj)
    if out is not None:
        files.save(out, doc)
        _emit_report(settings, verb, {"written": out}, ["wrote %s" % out])
        return
    if settings.format == "machine":
        envelope = {"schema_version": SCHEMA_VERSION, "verb": verb,
                    "status": "ok", "result": doc}
        click.echo(files.dumps(envelope), nl=False)
    else:
        click.echo(files.dumps(doc), nl=False)


def _rational(option, text):
    """A rational in the coefficient grammar of W and matrix entries."""
    try:
        return parse_coefficient(QQ, text)
    except PolyError as exc:
        raise PolyError("%s (%d characters): %s" % (option, len(text), exc)) from None


def _parse_params(pairs):
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise click.UsageError("--param expects name=value, got %s" % quoted(pair))
        name, _, raw = pair.partition("=")
        name = name.strip()
        option = "--param %s" % shortened(name)
        if name in params:
            raise ValueError("%s is given more than once" % option)
        params[name] = _rational(option, raw)
    return params


@click.group()
@click.option("--format", "fmt", type=click.Choice(["human", "machine"]),
              default="human", show_default=True, help="report style")
@click.option("--field", "field_spec", default=None, metavar="Q|Fp:<p>",
              help="override the coefficient field of file inputs")
@pass_settings
def main(settings, fmt, field_spec):
    """Exact computations with matrix factorizations and mirror superpotentials."""
    settings.format = fmt
    if field_spec is not None:
        try:
            settings.field = field_from_spec(field_spec)
        except (PolyError, ValueError) as exc:
            raise click.UsageError(str(exc))


def _command(name=None):
    """A subcommand of main that takes the settings first and reports a
    domain error (PolyError, ValueError) as one ``error:`` line, exit 1."""
    def decorate(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except (PolyError, ValueError) as exc:
                _fail(str(exc))
        return main.command(name=name)(pass_settings(run))
    return decorate


@_command()
@click.argument("factorization")
def validate(settings, factorization):
    """Check the defining identities of a factorization (reading it does)."""
    obj = _read(settings, factorization, "factorization")
    payload = {
        "valid": True,
        "rank": obj.rank,
        "field": repr(obj.ring.field),
        "vars": list(obj.ring.variables),
        "W": str(obj.w),
        "lambda": obj.ring.field.format(obj.lam),
    }
    _emit_report(settings, "validate", payload, [
        "valid:  yes",
        "rank:   %d" % obj.rank,
        "W:      %s" % obj.w,
        "lambda: %s" % obj.ring.field.format(obj.lam),
        "field:  %s" % repr(obj.ring.field),
    ])


@_command()
@click.argument("factorization")
@click.option("--twice", is_flag=True, help="apply the shift twice")
@click.option("-o", "--output", default=None, type=click.Path(), help="write result here")
def shift(settings, factorization, twice, output):
    """Shift a factorization (E -> E[1], or E[2] with --twice)."""
    obj = _read(settings, factorization, "factorization")
    shifted = mfmod.shift(obj)
    if twice:
        shifted = mfmod.shift(shifted)
    _emit_object(settings, "shift", shifted, output)


@_command(name="sum")
@click.argument("left")
@click.argument("right")
@click.option("-o", "--output", default=None, type=click.Path())
def sum_cmd(settings, left, right, output):
    """Direct sum of two factorizations with the same context."""
    a = _read(settings, left, "factorization")
    b = _read(settings, right, "factorization")
    _emit_object(settings, "sum", mfmod.direct_sum(a, b), output)


@_command()
@click.argument("morphism")
@click.option("-o", "--output", default=None, type=click.Path())
def cone(settings, morphism, output):
    """Mapping cone of a closed morphism."""
    p = _read(settings, morphism, "morphism")
    _emit_object(settings, "cone", mfmod.cone(p), output)


@_command()
@click.argument("left")
@click.argument("right")
@click.option("-o", "--output", default=None, type=click.Path())
def tensor(settings, left, right, output):
    """Tensor product over disjoint variable sets; potentials add."""
    a = _read(settings, left, "factorization")
    b = _read(settings, right, "factorization")
    _emit_object(settings, "tensor", mfmod.tensor(a, b), output)


@_command()
@click.argument("factorization")
@click.option("--vars", "varnames", default="u,v", show_default=True,
              metavar="U,V", help="names of the two fresh variables")
@click.option("-o", "--output", default=None, type=click.Path())
def knorrer(settings, factorization, varnames, output):
    """Stabilize: tensor with (u, v) over W + uv."""
    names = tuple(s.strip() for s in varnames.split(","))
    if len(names) != 2 or not all(names):
        raise click.UsageError("--vars expects two comma-separated names")
    obj = _read(settings, factorization, "factorization")
    _emit_object(settings, "knorrer", mfmod.knorrer(obj, names), output)


@_command()
@click.argument("factorization")
@click.option("--upto", default=10, show_default=True,
              help="largest degree of the Hilbert slice table")
def cok(settings, factorization, upto):
    """Present coker(e1) over the singular fiber and measure it."""
    obj = _read(settings, factorization, "factorization")
    pres = mfmod.cokernel_presentation(obj, hilbert_upto=upto)
    payload = {
        "fiber_relation": str(pres.fiber_relation),
        "dimension": _dim_value(pres.dimension),
        "hilbert": list(pres.hilbert),
        "presentation": files._matrix_to_doc(pres.presentation),
    }
    lines = [
        "fiber relation: %s" % pres.fiber_relation,
        "dimension:      %s" % _dim_value(pres.dimension),
        "hilbert:        %s" % " ".join(str(h) for h in pres.hilbert),
    ]
    _emit_report(settings, "cok", payload, lines)


@_command()
@click.argument("source")
@click.argument("target")
@click.option("--oracle", "use_oracle", is_flag=True,
              help="cross-check with the degree-truncation solver")
def hom(settings, source, target, use_oracle):
    """Dimensions of the even/odd morphism spaces up to homotopy."""
    e = _read(settings, source, "factorization")
    f = _read(settings, target, "factorization")
    report = hommod.hom_dims(e, f)
    payload = {"h0": _dim_value(report.h0), "h1": _dim_value(report.h1)}
    lines = ["h0: %s" % _dim_value(report.h0), "h1: %s" % _dim_value(report.h1)]
    if use_oracle:
        degree, cap = e.w.total_degree() or 0, oracle.TRUNCATION_CAP
        if report.h0 is INFINITE or report.h1 is INFINITE:
            verdict = "skipped (infinite dimensions)"
        elif degree > cap:  # the scan would start above its cap
            verdict = "skipped (deg W = %s is above the truncation cap of %d)" % (
                oracle._named(degree), cap)
        else:
            checked = oracle.hom_dims_truncated(e, f)
            if checked != (report.h0, report.h1):
                _fail("oracle mismatch: module path (%s, %s) vs truncation (%s, %s)"
                      % (report.h0, report.h1, checked[0], checked[1]))
            verdict = "agrees"
        payload["oracle"] = verdict
        lines.append("oracle: " + verdict)
    _emit_report(settings, "hom", payload, lines)


@_command()
@click.argument("morphism")
def nullhomotopic(settings, morphism):
    """Decide null-homotopy; print a witness (s0, s1) when one exists."""
    p = _read(settings, morphism, "morphism")
    flag, witness = hommod.is_null_homotopic(p)
    payload = {"null_homotopic": flag}
    lines = ["null-homotopic: %s" % ("yes" if flag else "no")]
    if witness is not None:
        payload["s0"] = files._matrix_to_doc(witness.s0)
        payload["s1"] = files._matrix_to_doc(witness.s1)
        lines.append("s0: %s" % payload["s0"])
        lines.append("s1: %s" % payload["s1"])
    _emit_report(settings, "nullhomotopic", payload, lines)


@_command()
@click.argument("morphism")
def equiv(settings, morphism):
    """Decide whether a closed morphism is a homotopy equivalence."""
    p = _read(settings, morphism, "morphism")
    flag = hommod.is_homotopy_equivalence(p)
    _emit_report(settings, "equiv", {"homotopy_equivalence": flag},
                 ["homotopy equivalence: %s" % ("yes" if flag else "no")])


@_command()
@click.argument("inputs", nargs=-1, required=True)
@click.option("-o", "--output", default=None, type=click.Path())
def totalize(settings, inputs, output):
    """Fold a chain of closed morphisms (or one object) into one factorization."""
    kinds = ("factorization", "morphism") if len(inputs) == 1 else ("morphism",)
    loaded = [_read(settings, ref, *kinds) for ref in inputs]
    if isinstance(loaded[0], mfmod.MatrixFactorization):
        cx = mfmod.PairComplex(loaded, [])
    else:
        cx = mfmod.PairComplex([loaded[0].source] + [p.target for p in loaded], loaded)
    _emit_object(settings, "totalize", mfmod.totalize(cx), output)


def _fan_options(fn):
    fn = click.argument("fan", required=False)(fn)
    fn = click.option("--preset", default=None,
                      help="built-in fan: %s" % " ".join(sorted(mirrormod.PRESETS)))(fn)
    return fn


@_command(name="mirror-build")
@_fan_options
@click.option("-o", "--output", default=None, type=click.Path())
def mirror_build(settings, fan, preset, output):
    """Laurent superpotential with one term per ray."""
    built = _load_fan(fan, preset)
    payload = {
        "W": str(built.w),
        "variables": list(built.y_names),
        "parameters": list(built.param_names),
        "terms": [str(t) for t in built.ray_terms],
    }
    lines = [
        "W:          %s" % built.w,
        "variables:  %s" % " ".join(built.y_names),
        "parameters: %s" % (" ".join(built.param_names) or "(none)"),
    ]
    if output is not None:
        files.save(output, files.toric_to_doc(built.toric))
        payload["written"] = output
        lines.append("wrote %s" % output)
    _emit_report(settings, "mirror-build", payload, lines)


@_command(name="mirror-count")
@_fan_options
@click.option("--param", "params", multiple=True, metavar="NAME=VALUE",
              help="positive rational value for a Kaehler parameter")
def mirror_count(settings, fan, preset, params):
    """Number of torus critical points, counted with multiplicity."""
    built = _load_fan(fan, preset)
    count = mirrormod.critical_count(built, _parse_params(params))
    _emit_report(settings, "mirror-count", {"count": count},
                 ["critical points: %d" % count])


@_command(name="mirror-values")
@_fan_options
@click.option("--param", "params", multiple=True, metavar="NAME=VALUE")
def mirror_values(settings, fan, preset, params):
    """Monic univariate polynomial vanishing on the critical values."""
    built = _load_fan(fan, preset)
    report = mirrormod.critical_values(built, _parse_params(params))
    payload = {
        "count": report.count,
        "value_polynomial": str(report.value_polynomial),
        "distinct_values": report.distinct_values,
    }
    _emit_report(settings, "mirror-values", payload, [
        "critical points:  %d" % report.count,
        "value polynomial: %s" % report.value_polynomial,
        "distinct values:  %s" % ("yes" if report.distinct_values else "no"),
    ])


@_command(name="mirror-fiber")
@_fan_options
@click.option("--param", "params", multiple=True, metavar="NAME=VALUE")
@click.option("--at", "at_value", default="0", show_default=True,
              metavar="RATIONAL", help="regular value whose fiber is counted")
def mirror_fiber(settings, fan, preset, params, at_value):
    """Number of distinct torus points in the fiber over a regular value."""
    built = _load_fan(fan, preset)
    value = _rational("--at", at_value)
    n = mirrormod.fiber_cardinality(built, _parse_params(params), value)
    _emit_report(settings, "mirror-fiber", {"cardinality": n},
                 ["fiber cardinality: %d" % n])


if __name__ == "__main__":
    main()
