"""Manifest parsing, report emission, exit-code discipline."""

from __future__ import annotations

import csv
import io
import re
from dataclasses import replace

import pytest
from hypothesis import (HealthCheck, event, example, given, settings,
                        strategies as st)

from pertlab.cli import (COMMANDS, VERIFY_CLAIMS, emit_csv, emit_table, main,
                         parse_manifest, run_manifest)
from pertlab.errors import ManifestError, PertlabError
from pertlab.harness import ExperimentConfig, RingSpec

REMARK = """
[manifest]
format-version = 1

[ring]
p = 5
vars = x, y, z
gens = x*y, x*z
D = 8

[task]
command = check-filter-regular
f = z
n_max = 4
seed = 0
"""

BOUND = """
[manifest]
format-version = 1

[ring]
p = 5
vars = x, y
D = auto

[ideals]
J = x, y

[task]
command = bound-n
f = x
J = J
n_max = 8
seed = 7
"""


def test_parse_manifest_fields():
    m = parse_manifest(BOUND)
    assert m.command == "bound-n"
    assert m.config == ExperimentConfig(
        ring=RingSpec(5, ("x", "y"), (), None), f_exprs=("x",),
        j_exprs=("x", "y"), n_max=8, seed=7)

    # A catalog fixture takes the [ring] D and the task's J, N and samples.
    m = parse_manifest("[manifest]\nformat-version = 1\n\n[ring]\np = 5\n"
                       "vars = x, y\nD = 9\n\n[task]\ncommand = verify\n"
                       "catalog = node-branch\nJ = x, y^2\nN = 3\n"
                       "samples = 4\nclaim = monotonicity\nepsilon = y^3\n")
    fixture = ExperimentConfig.from_catalog("node-branch")
    assert m.config == replace(fixture, ring=replace(fixture.ring, D=9),
                               j_exprs=("x", "y^2"), samples=4,
                               n_range=(3, 3))
    assert (m.claim, m.epsilon, m.config.n_range) == ("monotonicity",
                                                      ("y^3",), (3, 3))
    sweep = parse_manifest(_task_manifest(command="find-min-n",
                                          catalog="node-branch", N="1..6"))
    assert sweep.config.n_range == (1, 6)


def test_manifest_errors():
    with pytest.raises(ManifestError):
        parse_manifest("[task]\ncommand = hilbert\n")  # no format-version
    with pytest.raises(ManifestError):
        parse_manifest("[manifest]\nformat-version = 1\n\n[task]\n"
                       "command = frobnicate\n")
    with pytest.raises(ManifestError):
        parse_manifest("not a manifest at all [")
    # Faults in the keys alone are found while parsing, before any ring.
    for task, phrase in [
            (dict(command="hilbert", catalog="nope"), "unknown catalog id"),
            (dict(command="hilbert", f="x"), "no catalog reference"),
            (dict(command="bound-n", catalog="regular-pair"), "exactly one"),
            (dict(command="verify", catalog="regular-line", N=3,
                  claim="nope"), "unknown claim"),
            (dict(command="verify", catalog="regular-line"), "epsilon")]:
        with pytest.raises(ManifestError, match=phrase):
            parse_manifest(_task_manifest(**task))
    with pytest.raises(ManifestError, match="task needs f"):
        parse_manifest("[manifest]\nformat-version = 1\n\n[ring]\np = 5\n"
                       "vars = x\n\n[task]\ncommand = hilbert\n")


def test_filter_regular_false_is_exit_zero():
    result = run_manifest(REMARK)
    assert result.exit_code() == 0
    rows = result.rows()
    assert rows[0]["status"] == "false"


def test_bound_run_values():
    result = run_manifest(BOUND)
    values = {row["n"]: row["value_orig"] for row in result.rows()}
    assert values == {"t": 1, "k": 1, "h": 1, "N": 2}
    assert result.resolved_D == 11


def test_violated_verdict_sets_exit_one():
    text = """
[manifest]
format-version = 1

[task]
command = verify
claim = main
catalog = node-branch
n_max = 6
epsilon = x^2
seed = 0
"""
    result = run_manifest(text)
    assert result.exit_code() == 1


def test_csv_reparse_matches_rows():
    result = run_manifest(BOUND)
    text = emit_csv(result)
    parsed = list(csv.DictReader(io.StringIO(text)))
    rows = result.rows()
    assert len(parsed) == len(rows)
    for got, want in zip(parsed, rows):
        for key, value in want.items():
            assert got[key] == str(value)


def test_formats_share_numeric_content():
    result = run_manifest(BOUND)
    table = emit_table(result, 0.0)
    csv_text = emit_csv(result)
    for row in result.rows():
        assert str(row["value_orig"]) in table
        assert str(row["value_orig"]) in csv_text


def test_csv_deterministic_across_runs():
    a = emit_csv(run_manifest(BOUND))
    b = emit_csv(run_manifest(BOUND))
    assert a == b


def test_main_exit_codes(tmp_path, capsys):
    path = tmp_path / "bound.cfg"
    path.write_text(BOUND)
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "bound-n" in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("[manifest]\nformat-version = 1\n")
    assert main([str(bad)]) == 2
    assert main([str(tmp_path / "missing.cfg")]) == 2


def test_main_csv_out_file(tmp_path):
    path = tmp_path / "bound.cfg"
    path.write_text(BOUND)
    out = tmp_path / "report.csv"
    assert main([str(path), "--format", "csv", "--out", str(out)]) == 0
    content = out.read_text()
    assert content.startswith("claim,N,sample,n,")


def test_non_utf8_manifest_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(BOUND.replace("seed = 7", "seed = 7 ; caf\xe9")
                     .encode("latin-1"))
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not UTF-8" in err
    assert "Traceback" not in err


def test_unwritable_out_exits_two(tmp_path, capsys):
    path = tmp_path / "bound.cfg"
    path.write_text(BOUND)
    out = tmp_path / "missing-dir" / "report.csv"
    assert main([str(path), "--format", "csv", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def _task_manifest(**task) -> str:
    lines = ["[manifest]", "format-version = 1", "", "[task]"]
    lines += [f"{key} = {value}" for key, value in task.items()]
    return "\n".join(lines) + "\n"


MALFORMED = {
    "n_max-not-int": _task_manifest(command="hilbert", catalog="regular-line",
                                    n_max="eight"),
    "unknown-catalog": _task_manifest(command="hilbert", catalog="nope"),
    "ar-delta-zero": _task_manifest(command="ar-number",
                                    catalog="regular-line", delta=0),
    "ar-delta-negative": _task_manifest(command="ar-number",
                                        catalog="regular-line", delta=-1),
    "koszul-delta-negative": _task_manifest(command="koszul",
                                            catalog="remark-2-4", delta=-1),
    "delta-not-int": _task_manifest(command="koszul", catalog="remark-2-4",
                                    delta="two"),
    "format-version-not-int": "[manifest]\nformat-version = one\n\n[task]\n"
                              "command = hilbert\ncatalog = regular-line\n",
    "D-not-int": "[manifest]\nformat-version = 1\n\n[ring]\np = 5\n"
                 "vars = x, y\nD = big\n\n[task]\ncommand = hilbert\nf = x\n",
    "N-range-not-int": _task_manifest(command="find-min-n",
                                      catalog="regular-line", N="1..six"),
    "N-single-not-int": _task_manifest(command="verify", catalog="regular-line",
                                       N="three"),
    "samples-not-int": _task_manifest(command="verify", catalog="regular-line",
                                      N=3, samples="many"),
    "seed-not-int": _task_manifest(command="hilbert", catalog="regular-line",
                                   seed="0x"),
    # Past the parser's nesting cap, not a RecursionError traceback.
    "f-nested-400-deep": "[manifest]\nformat-version = 1\n\n[ring]\np = 5\n"
                         "vars = x, y\nD = 6\n\n[task]\ncommand = hilbert\n"
                         f"f = {'(' * 400}x{')' * 400}\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_manifest_exits_two(name, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(MALFORMED[name])
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", COMMANDS)
def test_every_row_carries_the_manifest_seed(command):
    n = {"verify": 2, "find-min-n": "2..3", "experiment": "2..3"}
    extra = {"N": n[command]} if command in n else {}
    text = _task_manifest(command=command, catalog="regular-line", n_max=4,
                          samples=1, seed=9, **extra)
    rows = list(csv.DictReader(io.StringIO(emit_csv(run_manifest(text)))))
    assert rows and {r["seed"] for r in rows} == {"9"}


# -- manifest fuzzing ------------------------------------------------------------

def _variables(k: int) -> str:
    return ", ".join(f"x{i}" for i in range(k))


# Valid choices per manifest key; a fuzzed manifest starts from one of each
# and then breaks a few keys with junk or drops them.
VALID_FIELDS = {
    ("manifest", "format-version"): ["1"],
    ("ring", "p"): ["2", "3", "5", "7"],
    ("ring", "vars"): ["x, y"],
    ("ring", "gens"): ["", "x*y", "x^2", "y^3"],
    ("ring", "D"): ["3", "4", "6", "auto"],
    ("ideals", "J"): ["x, y"],
    ("task", "command"): list(COMMANDS),
    ("task", "catalog"): ["regular-line", "node-diagonal", "node-branch",
                          "fat-line"],
    ("task", "f"): ["x", "x + y", "x, y", "1 + x", "0"],
    ("task", "J"): ["J"],
    ("task", "n_max"): ["1", "2", "3"],
    ("task", "N"): ["1..2", "1", "2"],
    ("task", "samples"): ["1", "2"],
    ("task", "seed"): ["0", "7"],
    ("task", "delta"): ["1", "2"],
    ("task", "claim"): list(VERIFY_CLAIMS),
    ("task", "epsilon"): ["x^2", "x^2, y^2", "0"],
}
JUNK = ["", "x", "w", "0", "-1", "-7", "1..", "2..1", "0..3", "one", "x +",
        "x, x", "1x", "nope", "1..six", "x^", "x*"]
# Key-specific junk: out-of-range moduli, huge values of the keys that size
# a ring or a loop, and variable lists with many variables.  The "" of JUNK
# empties any key, vars and f included.
EXTRA_JUNK = {
    ("manifest", "format-version"): ["2", "9" * 30],
    ("ring", "p"): ["4", "1", "65537", "2147483647", "9" * 30],
    ("ring", "vars"): [_variables(20), _variables(41)],
    ("task", "n_max"): ["9" * 30],
    ("task", "N"): ["9" * 30, "1.." + "9" * 30],
    ("task", "samples"): ["9" * 30],
    ("task", "seed"): ["9" * 30],
}


@st.composite
def manifest_texts(draw):
    fields = {key: draw(st.sampled_from(values))
              for key, values in VALID_FIELDS.items()}
    if draw(st.booleans()):
        fields = {k: v for k, v in fields.items() if k[0] != "ring"}
    else:
        del fields[("task", "catalog")]
    for key in draw(st.lists(st.sampled_from(sorted(VALID_FIELDS)), max_size=3)):
        junk = draw(st.sampled_from(JUNK + EXTRA_JUNK.get(key, []) + [None]))
        if junk is None:
            fields.pop(key, None)
        else:
            fields[key] = junk
    sections: dict[str, list[str]] = {}
    for (section, key), value in fields.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    text = "\n".join(f"[{name}]\n" + "\n".join(lines) + "\n"
                      for name, lines in sections.items())
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.text(max_size=8)) + text[cut:]
    return text


HUGE_PRIME = ("[manifest]\nformat-version = 1\n\n[ring]\np = 2147483647\n"
              "vars = x, y\nD = 4\n\n[task]\ncommand = hilbert\nf = x\n")
EMPTY_VARS = ("[manifest]\nformat-version = 1\n\n[ring]\np = 2\nvars =\n"
              "gens =\nD = 4\n\n[ideals]\nJ = x, y\n\n[task]\n"
              "command = bound-n\nf = x\nJ = J\n")
# A negative control whose empty tables once let every sample "verify".
NEGATIVE_N_MAX = _task_manifest(command="find-min-n", catalog="node-branch",
                                n_max=-1, N="1..2", samples=2)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(manifest_texts())
@example(HUGE_PRIME)
@example(EMPTY_VARS)
@example(NEGATIVE_N_MAX)
def test_fuzzed_manifest_keeps_exit_code_contract(tmp_path, capsys, text):
    path = tmp_path / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    code = main([str(path), "--format", "csv"])
    event(f"exit {code}")
    err = capsys.readouterr().err
    assert code in (0, 1, 2), text
    assert "Traceback" not in err, text
    if code == 2:
        assert err.startswith("error:"), text


def test_huge_prime_manifest_exits_two(tmp_path, capsys):
    path = tmp_path / "big-p.cfg"
    path.write_text(HUGE_PRIME)
    assert main([str(path)]) == 2
    assert "largest supported prime" in capsys.readouterr().err


HUGE = "9" * 30
OVERSIZE = {
    "D": ("[ring]\np = 5\nvars = x, y\nD = " + HUGE + "\n\n"
          "[task]\ncommand = hilbert\nf = x\n"),
    "D-past-cap": ("[ring]\np = 5\nvars = x, y\nD = 200\n\n"
                   "[task]\ncommand = check-filter-regular\nf = x\n"),
    "n_max": ("[ring]\np = 5\nvars = x, y\nD = auto\n\n[ideals]\nJ = x, y\n\n"
              "[task]\ncommand = hilbert\nf = x\nJ = J\nn_max = " + HUGE + "\n"),
    "delta": ("[ring]\np = 5\nvars = x, y\nD = 6\n\n"
              "[task]\ncommand = check-filter-regular\nf = x\ndelta = "
              + HUGE + "\n"),
}


@pytest.mark.parametrize("name", sorted(OVERSIZE))
def test_oversize_ring_manifest_exits_two(name, tmp_path, capsys):
    """A size key that sets D past the monomial cap, directly, through the
    default truncation (n_max) or through the D + delta rebuild, is an
    operational error, raised before any monomial is enumerated."""
    path = tmp_path / "big.cfg"
    path.write_text("[manifest]\nformat-version = 1\n\n" + OVERSIZE[name])
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_MONOMIALS" in err


# Inputs rejected before any ring or loop is sized, each with a phrase its
# error must mention (the name of the cap, where there is one).
REJECTED = {
    "vars-empty": (EMPTY_VARS, "at least one variable"),
    **{f"vars-{k}-at-D-2": ("[manifest]\nformat-version = 1\n\n[ring]\n"
                            f"p = 5\nvars = {_variables(k)}\nD = 2\n\n"
                            "[task]\ncommand = hilbert\nf = x0\n",
                            "MAX_KEY_TABLE") for k in (20, 41)},
    "samples-verify": (_task_manifest(command="verify", catalog="regular-line",
                                      N=3, samples=HUGE), "MAX_SAMPLES"),
    "samples-experiment": (_task_manifest(command="experiment",
                                          catalog="remark-2-4", N="1..2",
                                          samples=HUGE), "MAX_SAMPLES"),
    "samples-zero": (_task_manifest(command="find-min-n",
                                    catalog="regular-line", N="1..3",
                                    samples=0), "MAX_SAMPLES"),
    "n_max-past-explicit-D": (
        "[manifest]\nformat-version = 1\n\n[ring]\np = 5\nvars = x, y\n"
        "D = 6\n\n[ideals]\nJ = x, y\n\n[task]\ncommand = hilbert\nf = x\n"
        "J = J\nn_max = " + HUGE + "\n", "explicit D = 6"),
    "N-negative": (_task_manifest(command="verify", catalog="regular-line",
                                  N=-1, samples=2), "non-negative"),
    "N-range-negative": (_task_manifest(command="find-min-n",
                                        catalog="regular-line", N="-2..1",
                                        samples=1), "non-negative"),
    "seed-negative": (_task_manifest(command="find-min-n",
                                     catalog="regular-line", N="1..2",
                                     samples=1, seed=-1), "non-negative"),
    "n_max-negative": (NEGATIVE_N_MAX, "non-negative"),
    "n_max-negative-hilbert": (_task_manifest(command="hilbert",
                                              catalog="regular-line",
                                              n_max=-1), "non-negative"),
    "N-range-reversed": (_task_manifest(command="find-min-n",
                                        catalog="regular-line", N="3..1",
                                        samples=1), "reversed"),
    "epsilon-length-differs": (_task_manifest(command="verify",
                                              catalog="regular-line",
                                              claim="monotonicity",
                                              epsilon="x, y"),
                               "epsilon lists 2 perturbations but f lists 1"),
    "epsilon-below-N": (_task_manifest(command="verify",
                                       catalog="regular-line", claim="main",
                                       epsilon="x", N=3),
                        "'x' has order 1, below N = 3"),
    "verify-N-range": (_task_manifest(command="verify",
                                      catalog="regular-line", N="1..2"),
                       "a single N"),
    # Misspelled keys, once ignored: without gens, f = y on F_5[x,y]
    # answered "true", and samples kept its default.
    "ring-key-gen": ("[manifest]\nformat-version = 1\n\n[ring]\np = 5\n"
                     "vars = x, y\ngen = x*y\nD = 8\n\n[task]\n"
                     "command = check-filter-regular\nf = y\n",
                     "unknown key 'gen' in [ring]"),
    "task-key-sampels": (_task_manifest(command="find-min-n",
                                        catalog="regular-line", N="1..2",
                                        sampels=3),
                         "unknown key 'sampels' in [task]"),
    "unknown-section": (_task_manifest(command="hilbert",
                                       catalog="regular-line")
                        + "\n[rings]\np = 5\n", "unknown section [rings]"),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_manifest_exits_two(name, tmp_path, capsys):
    """An empty variable list, many variables at a small D (an exponent-key
    table past its cap), a sample count of zero or past its cap, n_max above
    an explicit D, a negative n_max, N or seed and a reversed N range are
    operational errors, not crashes, endless runs or verdicts on no samples
    or empty tables."""
    text, phrase = REJECTED[name]
    path = tmp_path / "rejected.cfg"
    path.write_text(text)
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and phrase in err
    assert "Traceback" not in err


def test_single_depth_is_a_one_depth_sweep():
    """N = a is the range a..a: experiment and find-min-n sweep that depth
    as N = a..a does, and verify samples at it."""
    for command in ("experiment", "find-min-n"):
        single, ranged = (run_manifest(_task_manifest(
            command=command, catalog="regular-line", n_max=4, N=n, samples=2))
            for n in ("2", "2..2"))
        assert single.config.n_range == (2, 2) and single.n_star == 2
        assert emit_csv(single) == emit_csv(ranged)
        assert {r["N"] for r in single.rows()
                if r["claim"] == "main-equality"} == {2}
    rows = run_manifest(_task_manifest(command="verify", catalog="regular-line",
                                       n_max=4, N=2, samples=2)).rows()
    assert [(r["N"], r["sample"]) for r in rows if r["n"] == 0] == \
        [(2, 0), (2, 1)]


AUTO_D_J_NOT_PRIMARY = """
[manifest]
format-version = 1

[ring]
p = 5
vars = x, y, z
gens = x*y, x*z
D = auto

[ideals]
J = y, z

[task]
command = hilbert
f = x + y, z
J = J
n_max = 4
"""


def test_auto_d_takes_the_level_of_f_plus_j():
    """J = (y, z) is not m-primary on remark 2.4's ring, but (f) + J = m,
    as the theorem asks: D = auto resolves through the level 1 of (f) + J to
    D = 8, and every hs entry is exact and equals the oracle's length of
    R/(f + J^(n+1))."""
    from oracle import NaiveModel
    result = run_manifest(AUTO_D_J_NOT_PRIMARY)
    assert result.exit_code() == 0 and result.resolved_D == 8
    model = NaiveModel(5, 3, 8, [{(1, 1, 0): 1}, {(1, 0, 1): 1}])
    f = [{(1, 0, 0): 1, (0, 1, 0): 1}, {(0, 0, 1): 1}]
    j = [{(0, 1, 0): 1}, {(0, 0, 1): 1}]
    hs = [(r["value_orig"], r["certification"]) for r in result.rows()
          if r["claim"] == "hs-table"]
    assert hs == [(model.length(model.ideal_span(
        f + model.ideal_power_gens(j, n + 1))), "exact") for n in range(5)]
    # J = (y) and (f) + J = (y, z): neither is m-primary.
    with pytest.raises(PertlabError, match=r"neither J nor \(f\) \+ J"):
        run_manifest(AUTO_D_J_NOT_PRIMARY.replace("J = y, z", "J = y")
                     .replace("f = x + y, z", "f = z"))


def test_n_max_up_to_explicit_d_is_accepted():
    """Entries past n = D - 1 repeat that one; n_max = D is the largest value
    accepted beside an explicit D."""
    ring = "[ring]\np = 5\nvars = x, y\nD = 6\n\n"
    task = "[task]\ncommand = hilbert\nf = x\n"
    parse_manifest(f"[manifest]\nformat-version = 1\n\n{ring}{task}n_max = 6\n")
    with pytest.raises(ManifestError, match="n_max"):
        parse_manifest(f"[manifest]\nformat-version = 1\n\n{ring}{task}"
                       "n_max = 7\n")


def test_table_footer_shows_thresholds(tmp_path, capsys):
    path = tmp_path / "min-n.cfg"
    path.write_text(_task_manifest(command="find-min-n",
                                   catalog="regular-line", N="1..3",
                                   samples=2, n_max=4, seed=3))
    assert main([str(path), "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "command: find-min-n   resolved D: " in out
    assert "outcomes: " in out
    assert "empirical N* = 1" in out
    assert "theoretical N = 2" in out
    assert re.search(r"^elapsed: \d+\.\d\ds$", out, re.MULTILINE)


def _filter_regular_manifest(gens: str, f: str, D: int) -> str:
    return ("[manifest]\nformat-version = 1\n\n[ring]\np = 5\nvars = x, y\n"
            f"gens = {gens}\nD = {D}\n\n[task]\n"
            f"command = check-filter-regular\nf = {f}\n")


@pytest.mark.parametrize("gens, f", [("x*y - y^9", "x"), ("x*y", "x + y^9")],
                         ids=["in-generator", "in-f"])
def test_input_term_at_d_is_not_certified_from_a_truncated_lift(
        gens, f, tmp_path, capsys):
    # y^9 lies between D = 8 and the D + delta = 10 rebuild.  Reading it as
    # zero at both levels once certified f as not filter-regular; x is a
    # nonzerodivisor on y(x - y^8) = 0.  The run now stops at the lift.
    path = tmp_path / "lossy.cfg"
    path.write_text(_filter_regular_manifest(gens, f, 8))
    assert main([str(path), "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert "degree >= 8 at D = 8" in captured.err
    assert "cannot be read at D = 10" in captured.err


def test_input_term_below_d_certifies_filter_regular(tmp_path, capsys):
    path = tmp_path / "exact.cfg"
    path.write_text(_filter_regular_manifest("x*y - y^9", "x", 12))
    assert main([str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == \
        "filter-regular,,,1,1,,true,two-level-stable,0"
