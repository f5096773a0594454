import importlib
import os
import re
import shutil
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ab_times_the_repo_against_itself():
    proc = subprocess.run([sys.executable, os.path.join("tools", "ab.py"), "src", "src",
                           "--workload", "hom_rank8", "--rounds", "2"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, lines
    for line in lines[:2]:
        assert re.fullmatch(r"src: median [\d.]+ ms, quartiles [\d.]+-[\d.]+ ms", line), line
    assert re.fullmatch(r"second lower in [012] of 2 rounds", lines[2]), lines[2]


def _first_key(workload, seed, fan):
    """The key of the first critical_values item of `fan` in a workload pass."""
    sys.path[:0] = [os.path.join(ROOT, "perfbench")]
    try:
        workloads = importlib.import_module("workloads")
    finally:
        del sys.path[0]
    w = workloads.WORKLOADS[workload]
    items = w.make_items(w.setup(), workloads.load_reference(), seed)
    return next(item.key for item in items if item.key[1].startswith(fan + ":"))


def test_ab_refuses_trees_whose_answers_differ_but_pass_their_checks(tmp_path):
    # at seed 2 no reference pins a dP6 eliminant, so one monic eliminant
    # of the same degree passes its check; ab.py still tells it apart
    key = _first_key("mirror_random", 2, "dP6")
    changed = tmp_path / "src"
    shutil.copytree(os.path.join(ROOT, "src"), changed)
    with open(changed / "mfcat" / "mirror.py", "a", encoding="utf-8") as fh:
        fh.write(textwrap.dedent('''
            _exact_values = critical_values


            def critical_values(w_spec, params=None):
                report = _exact_values(w_spec, params)
                if ",".join("%%s=%%s" %% (n, params[n]) for n in sorted(params or {})) == %r:
                    poly = report.value_polynomial
                    report.value_polynomial = poly + poly.ring.one()
                return report
            ''' % key[1].split(":", 1)[1]))
    proc = subprocess.run([sys.executable, os.path.join("tools", "ab.py"), "src", str(changed),
                           "--workload", "mirror_random", "--seed", "2", "--rounds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, (proc.stdout, proc.stderr)
    assert proc.stdout == "src and %s answer item %r differently\n" % (changed, key)


def test_bench_counts_code_lines_without_docstrings_comments_or_blanks():
    sys.path[:0] = [os.path.join(ROOT, "tools")]
    try:
        bench = importlib.import_module("bench")
    finally:
        del sys.path[0]
    fixture = textwrap.dedent('''\
        """A module docstring

        over three lines."""
        # a comment line

        import os  # a comment after code


        class Shape:
            """A class docstring."""

            def area(self):
                """A function docstring
                over two lines."""
                text = """a string that is
        not a docstring"""
                return (len(text)
                        # a comment inside brackets
                        + 1)
        ''')
    # import, class, def, the two lines of text and the two of the return
    # that hold code
    assert bench.code_lines(fixture) == 7
    assert bench.code_lines("") == 0
    assert bench.code_lines('"""Only a docstring."""\n') == 0
