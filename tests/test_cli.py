import hashlib
import json
import random

import pytest

from hopfpbw.cli import (main, load_spec, parse_problem, render_problem, emit_preset, ParseError,
                         ValidationError, EXIT_BROKEN_PIPE, MAX_ALGEBRA_GENERATORS,
                         MAX_CYCLOTOMIC_ORDER, MAX_HOPF_DIM)
from hopfpbw.presets import Problem, build_problem
from hopfpbw.hopf import add_into
from hopfpbw.modalg import ModuleAlgebra, action_from_generators
from hopfpbw.scalar import Scalar, format_scalar, parse_scalar, zeta

PRESETS = ["sweedler", "taft-3", "h8", "ha1", "cbh-cyclic-3"]


def emit(tmp_path, name, with_kappa=True):
    path = tmp_path / f"{name}.json"
    emit_preset(name, str(path), with_kappa=with_kappa)
    return path


def _x_acts_by_zero(hint: bool) -> Problem:
    """sweedler with x, and so gx, acting on V by the zero matrix; with or
    without the generator hint.  Both validators pass it, and its emitted
    action once held no entry for x, so the document did not load."""
    prob = build_problem("sweedler")
    H, B = prob.hopf, prob.algebra
    g, x = H.generators
    zero = Scalar.zero(H.order)
    x_mat = [[zero] * B.vdim for _ in range(B.vdim)]
    action = action_from_generators(H, B.vdim, {g: B.action[g], x: x_mat})
    if not hint:
        H.generators = None
    rels = [B.relation_sparse(a) for a in range(B.dim_relations())]
    return Problem("x-acts-by-zero", H, ModuleAlgebra.make(H.order, B.vlabels, rels, action))


@pytest.mark.parametrize("name", PRESETS + ["x-acts-by-zero", "x-acts-by-zero-no-hint"])
def test_round_trip_byte_identical(tmp_path, capsys, name):
    if name.startswith("x-acts-by-zero"):
        path = tmp_path / f"{name}.json"
        path.write_text(render_problem(_x_acts_by_zero(hint=not name.endswith("no-hint"))))
    else:
        path = emit(tmp_path, name)
    assert main(["validate", str(path)]) == 0
    text1 = path.read_text()
    prob = load_spec(str(path))
    assert render_problem(prob) == text1
    # and once more through a second emission
    path2 = tmp_path / "again.json"
    path2.write_text(render_problem(prob))
    assert render_problem(load_spec(str(path2))) == text1


def test_render_problem_matches_json_dumps():
    # the encoder's chunks are joined once; the bytes must be json.dumps's
    from hopfpbw.cli import problem_to_json
    for name in PRESETS + ["taft-7", "taft-9"]:
        for with_kappa in (False, True):
            prob = build_problem(name, with_kappa=with_kappa)
            want = json.dumps(problem_to_json(prob), indent=2) + "\n"
            assert render_problem(prob) == want, (name, with_kappa)


@pytest.mark.parametrize("name", PRESETS)
def test_validate_exit_zero(tmp_path, capsys, name):
    path = emit(tmp_path, name, with_kappa=False)
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out


def test_validate_catches_antipode_corruption(tmp_path, capsys):
    path = emit(tmp_path, "sweedler")
    doc = json.loads(path.read_text())
    # S(x) = -gx -> +gx
    for ent in doc["hopf"]["antipode"]:
        if ent[0] == 1:
            ent[2] = "1"
    path.write_text(json.dumps(doc))
    rc = main(["validate", str(path)])
    assert rc == 2
    cap = capsys.readouterr()
    assert "antipode" in cap.out + cap.err


def test_kappa_row_count_parse_error(tmp_path, capsys):
    path = emit(tmp_path, "ha1")
    doc = json.loads(path.read_text())
    doc["kappa"]["constant"] = doc["kappa"]["constant"][:-1]
    path.write_text(json.dumps(doc))
    rc = main(["validate", str(path)])
    assert rc == 1
    assert "kappa" in capsys.readouterr().err


def test_malformed_json_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert main(["validate", str(path)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_check_exit_codes(tmp_path, capsys):
    path = emit(tmp_path, "h8")
    assert main(["check", str(path)]) == 0
    doc = json.loads(path.read_text())
    # kC(r) = x alone is not invariant (only x + y is)
    doc["kappa"]["constant"][0] = ["0", "1", "0", "0", "0", "0", "0", "0"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(bad)]) == 3
    out = capsys.readouterr().out
    assert "(a) fail" in out and "NOT a PBW deformation" in out


def test_solve_output(tmp_path, capsys):
    path = emit(tmp_path, "h8", with_kappa=False)
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "family dimension: 5" in out
    assert "z + xyz" in out


def test_solve_fix_linear_zero(tmp_path, capsys):
    path = emit(tmp_path, "cbh-cyclic-4", with_kappa=False)
    assert main(["solve", str(path), "--fix-linear-zero"]) == 0
    out = capsys.readouterr().out
    assert "family dimension: 4" in out


def test_oracle_exit_codes(tmp_path, capsys):
    path = emit(tmp_path, "sweedler")
    assert main(["oracle", str(path), "--degree", "3", "--buffer", "1"]) == 0
    doc = json.loads(path.read_text())
    doc["kappa"]["constant"][0][0] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["oracle", str(bad), "--degree", "3", "--buffer", "1"]) == 4
    out = capsys.readouterr().out
    assert "FALSIFIED" in out


def test_oracle_json_schema(tmp_path, capsys):
    path = emit(tmp_path, "taft-3")
    assert main(["--json", "oracle", str(path), "--degree", "3", "--buffer", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["computed_dims"] == [9, 27, 54, 90]
    assert doc["expected_dims"] == [9, 27, 54, 90]
    assert doc["verdict"] == "CONSISTENT"


def test_check_json_schema(tmp_path, capsys):
    path = emit(tmp_path, "ha1")
    assert main(["--json", "check", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["conditions"] == {"a": "pass", "b": "pass", "c": "pass", "d": "pass"}


def test_solve_json_deterministic(tmp_path, capsys):
    path = emit(tmp_path, "sweedler", with_kappa=False)
    assert main(["--json", "solve", str(path)]) == 0
    out1 = capsys.readouterr().out
    assert main(["--json", "solve", str(path)]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["family_dim"] == 4 and doc["stage1_dim"] == 4


def test_koszul_tables(tmp_path, capsys):
    path = emit(tmp_path, "ha1", with_kappa=False)
    assert main(["koszul", str(path), "--max", "3"]) == 0
    out = capsys.readouterr().out
    assert "dim B_2 = 10" in out and "dim D'_3 = 4" in out


def test_preset_to_stdout(capsys):
    assert main(["preset", "sweedler"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hopf"]["dim"] == 4 and "kappa" not in doc


def test_unknown_preset(capsys):
    assert main(["preset", "mystery"]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_cutoff_flag(tmp_path, capsys):
    path = emit(tmp_path, "sweedler")
    assert main(["--cutoff", "4", "oracle", str(path), "--degree", "3", "--buffer", "2"]) == 1
    assert "exceeds cutoff" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "solve"])
def test_check_and_solve_do_not_read_the_cutoff(tmp_path, capsys, command):
    # the criterion works in degree 3 whatever the cutoff: --cutoff 1 once
    # exited 1 with "degree 3 exceeds cutoff 1"
    path = emit(tmp_path, "h8")
    code = main(["--json", command, str(path)])
    want = capsys.readouterr().out
    for cutoff in ("1", "2"):
        assert main(["--json", "--cutoff", cutoff, command, str(path)]) == code
        assert capsys.readouterr().out == want


def test_koszul_refuses_too_many_words_up_front(tmp_path):
    # ha1 at --max 12 spans 4^12 words: it had not finished after 20 s; the
    # largest degree is refused before any table is built
    import subprocess
    import sys
    import time
    path = emit(tmp_path, "ha1")
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "hopfpbw.cli", "--cutoff", "12", "koszul",
                           str(path), "--max", "12"], capture_output=True, text=True, timeout=60)
    assert time.monotonic() - t0 < 1
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [["oracle", "--degree", "20000", "--buffer", "0"],
                                  ["oracle", "--degree", "300000", "--buffer", "0"],
                                  ["koszul", "--max", "20000"]])
def test_huge_degree_refused_without_a_traceback(tmp_path, args):
    # h8 (vd = 2) at degree 20,000: the oracle summed d * vd^m over every
    # degree and the koszul word count built vd^n before comparing either
    # with its limit, then printed a number of 6,000 digits and died in the
    # int-to-str conversion; at degree 300,000 the oracle had not refused
    # after 40 s.  Both counts are now refused at the first degree that
    # passes the limit.
    import subprocess
    import sys
    import time
    path = emit(tmp_path, "h8")
    degree = args[2]
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "hopfpbw.cli", "--cutoff", degree, args[0],
                           str(path), *args[1:]], capture_output=True, text=True, timeout=60)
    assert time.monotonic() - t0 < 1
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert "above the limit" in proc.stderr


@pytest.mark.parametrize("args", [["--json", "solve", "FILE"], ["solve", "FILE"],
                                  ["--json", "check", "FILE"], ["preset", "taft-9"]])
def test_closed_stdout_ends_quietly(tmp_path, args):
    # `hopfpbw --json solve t9.json | head -c 100` printed a BrokenPipeError
    # traceback from cmd_solve's print.  A reader that is gone before the
    # first byte is the same case, with no race: the command ends with
    # exit code 141 (128 + SIGPIPE) and writes nothing to stderr
    import os
    import subprocess
    import sys
    path = emit(tmp_path, "taft-9")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "hopfpbw.cli",
                               *(str(path) if a == "FILE" else a for a in args)],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""


def test_koszul_max_is_bounded_by_the_cutoff(tmp_path, capsys):
    path = emit(tmp_path, "h8")
    assert main(["--cutoff", "3", "koszul", str(path), "--max", "4"]) == 1
    assert "exceeds cutoff" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["oracle", "--buffer", "-1"],
                                  ["oracle", "--probe", "--max-buffer", "-1"],
                                  ["koszul", "--max", "-1"]])
def test_negative_bounds_refused_without_a_traceback(tmp_path, args):
    # --buffer -1 once died with an IndexError in the span's column layout,
    # --probe --max-buffer -1 with an IndexError on an empty report list,
    # and koszul --max -1 printed empty tables and exited 0
    import subprocess
    import sys
    path = emit(tmp_path, "h8")
    proc = subprocess.run([sys.executable, "-m", "hopfpbw.cli", args[0], str(path), *args[1:]],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "at least 0" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["taft-17", "cbh-cyclic-257", "taft-300"])
def test_oversized_preset_refused_up_front(name):
    # the loader refuses hopf.dim 289 and cyclotomic_order 257: taft-17 and
    # cbh-cyclic-257 once exited 0 with a document that validate refused,
    # and taft-300 built a multiplication table of dimension 90,000
    import subprocess
    import sys
    import time
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "hopfpbw.cli", "preset", name],
                          capture_output=True, text=True, timeout=60)
    assert time.monotonic() - t0 < 10
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["taft-16", "cbh-cyclic-256"])
def test_largest_presets_validate(tmp_path, capsys, name):
    path = emit(tmp_path, name, with_kappa=False)
    assert main(["validate", str(path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_solve_residual_system_through_cli(tmp_path, capsys):
    # trivial Hopf algebra acting on k[u,v,w]: the solver must surface the
    # quadratic (Jacobi-type) residual instead of a family dimension
    from hopfpbw.presets import Problem, preset_hopf
    from hopfpbw.modalg import ModuleAlgebra
    from hopfpbw.scalar import Scalar
    from hopfpbw.cli import render_problem
    H = preset_hopf("cyclic-1")
    o, z = Scalar.one(1), Scalar.zero(1)
    rels = [{(0, 1): o, (1, 0): -o},
            {(0, 2): o, (2, 0): -o},
            {(1, 2): o, (2, 1): -o}]
    action = [[[o if r == c else z for c in range(3)] for r in range(3)]]
    B = ModuleAlgebra.make(1, ["u", "v", "w"], rels, action)
    path = tmp_path / "poly3.json"
    path.write_text(render_problem(Problem("poly3", H, B)))
    assert main(["--json", "solve", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["family_dim"] is None
    assert doc["stage1_dim"] == 12
    assert doc["residual_system"]
    assert all(s.endswith("= 0") for s in doc["residual_system"])
    capsys.readouterr()
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "undetermined" in out and "residual polynomial system" in out


def test_oracle_probe_flag(tmp_path, capsys):
    path = emit(tmp_path, "sweedler")
    doc = json.loads(path.read_text())
    doc["kappa"]["constant"][0][0] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["oracle", str(bad), "--degree", "3", "--probe", "--max-buffer", "2"])
    assert rc == 4
    assert "FALSIFIED" in capsys.readouterr().out


def test_action_derivation_and_missing_matrix_error(tmp_path, capsys):
    path = emit(tmp_path, "ha1", with_kappa=False)
    doc = json.loads(path.read_text())
    # presets carry generator matrices only; the loader derives the rest
    assert sorted({e[0] for e in doc["algebra"]["action"]}) == [1, 4, 8]
    prob = load_spec(str(path))
    # rho(x^2) = rho(x)^2 came from derivation: x^2 . t = i^2 t = -t
    assert prob.algebra.action[2][0][0] == -Scalar.one(4)
    # dropping the z matrix leaves half the basis underivable
    doc["algebra"]["action"] = [e for e in doc["algebra"]["action"] if e[0] != 8]
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "derivable" in capsys.readouterr().err


def test_inconsistent_action_derivation_is_pinned(tmp_path, capsys):
    # rho(g) = diag(1, zeta^-1) breaks the module axiom (criterion 4), so the
    # matrices derived for the other basis elements, and with them the lhs
    # and rhs of every action_multiplicative failure, depend on which
    # products the derivation forms.  The digest was recorded before the
    # coproducts, antipodes and actions were derived by one routine.
    def flip(doc):
        for ent in doc["algebra"]["action"]:
            if ent[:3] == [3, 1, 1]:
                ent[3] = format_scalar(zeta(3, 1).inverse())

    path = _taft3_doc(tmp_path, flip)
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert "action_multiplicative" in out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e0a62f75e6961ecabfca98e1d5f997f8e7a0c880efd2cdab184c49c7a82a4fad", out


def test_check_without_kappa_is_parse_error(tmp_path, capsys):
    path = emit(tmp_path, "sweedler", with_kappa=False)
    assert main(["check", str(path)]) == 1
    assert "kappa" in capsys.readouterr().err


def _taft3_doc(tmp_path, edit):
    path = emit(tmp_path, "taft-3")
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("gens", [[99], ["a"], [3, -1], 3])
def test_generators_hint_malformed_is_parse_error(tmp_path, capsys, gens):
    path = _taft3_doc(tmp_path, lambda doc: doc["hopf"].update(generators=gens))
    for cmd in (["validate", str(path)], ["oracle", str(path)]):
        assert main(cmd) == 1
        err = capsys.readouterr().err
        assert "parse error: hopf.generators" in err and "Traceback" not in err


def test_generators_hint_out_of_range_no_traceback(tmp_path):
    # the oracle once died here with an IndexError traceback
    import subprocess
    import sys
    path = _taft3_doc(tmp_path, lambda doc: doc["hopf"].update(generators=[99]))
    proc = subprocess.run([sys.executable, "-m", "hopfpbw.cli", "oracle", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "hopf.generators" in proc.stderr


@pytest.mark.parametrize("args", [["--degree", "1"],
                                  ["--degree", "3", "--buffer", "9"]])
def test_oracle_refusal_is_a_clean_error(tmp_path, args):
    # OracleError once escaped main with a traceback; sweedler spanned to
    # degree 12 has 32,764 columns and is refused before any row is built
    import subprocess
    import sys
    path = emit(tmp_path, "sweedler")
    proc = subprocess.run([sys.executable, "-m", "hopfpbw.cli", "--cutoff", "12", "oracle",
                           str(path)] + args, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("order", [MAX_CYCLOTOMIC_ORDER + 1, 10 ** 6])
def test_cyclotomic_order_bound_refused_at_load(tmp_path, order):
    # order 10^6 once ran for more than 15 s before any check
    import subprocess
    import sys
    import time
    path = _taft3_doc(tmp_path, lambda doc: doc["field"].update(cyclotomic_order=order))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "hopfpbw.cli", "validate", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert time.monotonic() - t0 < 10
    assert proc.returncode == 1
    assert "parse error: field.cyclotomic_order" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cyclotomic_order_at_bound_loads(tmp_path, capsys):
    # the bound itself is accepted: the taft-3 constants are not a Hopf
    # algebra over Q(zeta_256), so validation fails on the axioms, not at load
    path = _taft3_doc(tmp_path, lambda doc: doc["field"].update(cyclotomic_order=MAX_CYCLOTOMIC_ORDER))
    assert main(["validate", str(path)]) == 2
    assert "parse error" not in capsys.readouterr().err


def test_generators_hint_not_generating_is_validation_failure(tmp_path, capsys):
    # g alone generates only k[g]: the oracle once reported [9, 27, 60, 117]
    # (against the true [9, 27, 54, 90]) and read CONSISTENT
    path = _taft3_doc(tmp_path, lambda doc: doc["hopf"].update(generators=[3]))
    assert main(["validate", str(path)]) == 2
    assert "generators" in capsys.readouterr().out
    assert main(["--json", "validate", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["failures"] == [["generators", [3]]]
    assert main(["oracle", str(path), "--degree", "3", "--buffer", "1"]) == 2
    assert "generators" in capsys.readouterr().err


def _set(block, key, pos, slot, value):
    def edit(doc):
        doc[block][key][pos][slot] = value
    return edit


def _repeat(*path, value=None):
    """Append the first entry of the table at ``path`` once more, with
    ``value`` in place of its scalar if given."""
    def edit(doc):
        tab = doc
        for key in path:
            tab = tab[key]
        tab.append(tab[0][:-1] + [tab[0][-1] if value is None else value])
    return edit


HOSTILE = [
    ("unit-99", _set("hopf", "unit", 0, 0, 99), "hopf.unit"),
    ("unit-string", _set("hopf", "unit", 0, 0, "0"), "hopf.unit"),
    ("unit-bare-99", lambda doc: doc["hopf"].update(unit=99), "hopf.unit"),
    ("mult-string", _set("hopf", "mult", 0, 0, "a"), "hopf.mult"),
    ("mult-9", _set("hopf", "mult", 0, 2, 9), "hopf.mult"),
    ("mult-float", _set("hopf", "mult", 0, 1, 1.5), "hopf.mult"),
    ("mult-entry-int", lambda doc: doc["hopf"]["mult"].__setitem__(0, 5), "hopf.mult"),
    ("mult-bad-power", _set("hopf", "mult", 0, 3, "z^a"), "hopf.mult"),
    ("comult-string", _set("hopf", "comult", 0, 1, "a"), "hopf.comult"),
    ("comult-negative", _set("hopf", "comult", 0, 2, -1), "hopf.comult"),
    ("antipode-null", _set("hopf", "antipode", 0, 1, None), "hopf.antipode"),
    ("antipode-9", _set("hopf", "antipode", 0, 0, 9), "hopf.antipode"),
    ("relations-2", lambda doc: doc["algebra"]["relations"][0][0].__setitem__(0, 2),
     "algebra.relations"),
    ("relations-string", lambda doc: doc["algebra"]["relations"][0][0].__setitem__(1, "v"),
     "algebra.relations"),
    ("relation-int", lambda doc: doc["algebra"]["relations"].__setitem__(0, 5),
     "algebra.relations"),
    ("action-99", _set("algebra", "action", 0, 0, 99), "algebra.action"),
    ("action-string", _set("algebra", "action", 0, 1, "r"), "algebra.action"),
    ("action-bool", _set("algebra", "action", 0, 2, True), "algebra.action"),
    # an index tuple given twice: a later zero once was ignored in the Hopf
    # tables and cleared the earlier value in the action
    ("mult-repeated", _repeat("hopf", "mult"), "hopf.mult"),
    ("mult-repeated-zero", _repeat("hopf", "mult", value="0"), "hopf.mult"),
    ("comult-repeated", _repeat("hopf", "comult"), "hopf.comult"),
    ("antipode-repeated", _repeat("hopf", "antipode"), "hopf.antipode"),
    ("unit-repeated", _repeat("hopf", "unit"), "hopf.unit"),
    ("relation-repeated", _repeat("algebra", "relations", 0), "algebra.relations"),
    ("action-repeated", _repeat("algebra", "action"), "algebra.action"),
    ("action-repeated-zero", _repeat("algebra", "action", value="0"), "algebra.action"),
    # structural fields of the wrong JSON type
    ("cutoff-string", lambda doc: doc.update(cutoff="x"), "cutoff"),
    ("kappa-constant-int-row", lambda doc: doc["kappa"].update(constant=[5]), "kappa.constant"),
    ("kappa-linear-int-row", lambda doc: doc["kappa"].update(linear=[7]), "kappa.linear"),
    ("kappa-list", lambda doc: doc.update(kappa=[]), "kappa"),
    ("generators-int", lambda doc: doc["algebra"].update(generators=3), "algebra.generators"),
    ("relations-int", lambda doc: doc["algebra"].update(relations=5), "algebra.relations"),
    ("mult-int", lambda doc: doc["hopf"].update(mult=5), "hopf.mult"),
    ("labels-null", lambda doc: doc["hopf"]["labels"].__setitem__(0, None), "hopf.labels"),
    # list(...) once read an object's keys, or a string's characters, as labels
    ("labels-object", lambda doc: doc["hopf"].update(
        labels={lab: 0 for lab in doc["hopf"]["labels"]}), "hopf.labels"),
    ("labels-string", lambda doc: doc["hopf"].update(labels="abcdefghi"), "hopf.labels"),
    ("generators-null", lambda doc: doc["algebra"]["generators"].__setitem__(0, None),
     "algebra.generators"),
    # integer fields must be JSON integers: int(...) once read all of these,
    # and "cutoff": Infinity ended in an OverflowError traceback
    ("order-string", lambda doc: doc["field"].update(cyclotomic_order="3"), "field.cyclotomic_order"),
    ("order-float", lambda doc: doc["field"].update(cyclotomic_order=3.0), "field.cyclotomic_order"),
    ("order-bool", lambda doc: doc["field"].update(cyclotomic_order=True), "field.cyclotomic_order"),
    ("dim-string", lambda doc: doc["hopf"].update(dim="9"), "hopf.dim"),
    ("dim-float", lambda doc: doc["hopf"].update(dim=9.7), "hopf.dim"),
    ("dim-bool", lambda doc: doc["hopf"].update(dim=True), "hopf.dim"),
    ("cutoff-numeric-string", lambda doc: doc.update(cutoff="6"), "cutoff"),
    ("cutoff-float", lambda doc: doc.update(cutoff=6.5), "cutoff"),
    ("cutoff-bool", lambda doc: doc.update(cutoff=True), "cutoff"),
    ("cutoff-infinity", lambda doc: doc.update(cutoff=float("inf")), "cutoff"),
    # sizes refused before any table is allocated
    ("dim-over-bound", lambda doc: doc["hopf"].update(
        dim=MAX_HOPF_DIM + 1, labels=[f"e{i}" for i in range(MAX_HOPF_DIM + 1)]), "hopf.dim"),
    ("generators-over-bound", lambda doc: doc["algebra"].update(
        generators=[f"v{i}" for i in range(MAX_ALGEBRA_GENERATORS + 1)]), "algebra.generators"),
]


@pytest.mark.parametrize("edit, where", [c[1:] for c in HOSTILE], ids=[c[0] for c in HOSTILE])
def test_hostile_index_fields_are_parse_errors(tmp_path, capsys, edit, where):
    path = _taft3_doc(tmp_path, edit)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"parse error: {where}" in err and "Traceback" not in err


def test_zero_unit_entry_is_dropped_at_parse(tmp_path, capsys):
    # every other sparse field drops zero entries; the unit once kept them
    clean = emit(tmp_path, "taft-3")
    doc = json.loads(clean.read_text())
    doc["hopf"]["unit"].append([1, "0"])
    padded = tmp_path / "padded.json"
    padded.write_text(json.dumps(doc))
    assert load_spec(str(padded)).hopf.unit == {0: Scalar.one(3)}
    for cmd in ("validate", "check", "solve", "oracle"):
        outs = []
        for path in (clean, padded):
            rc = main(["--json", cmd, str(path)])
            outs.append((rc, capsys.readouterr().out))
        assert outs[0] == outs[1], cmd


def _respan(relations, order, rng):
    """The relation rows as a different spanning set: a row permutation of a
    lower triangular recombination with nonzero diagonal (so invertible),
    plus the redundant sum of all rows."""
    rows = [{(i, j): parse_scalar(c, order) for i, j, c in rel} for rel in relations]

    def combine(coeffs):
        out = {}
        for k, row in zip(coeffs, rows):
            for key, c in row.items():
                add_into(out, key, k * c)
        return [[i, j, format_scalar(c)] for (i, j), c in sorted(out.items())]

    mixed = []
    for a in range(len(rows)):
        coeffs = [Scalar.from_int(order, rng.choice((-2, -1, 1, 2)) if b < a else 0)
                  for b in range(len(rows))]
        coeffs[a] = Scalar.from_int(order, rng.choice((-3, -2, 2, 3)))
        mixed.append(combine(coeffs))
    rng.shuffle(mixed)
    return mixed + [combine([Scalar.one(order)] * len(rows))]


@pytest.mark.parametrize("name", ["h8", "ha1", "taft-3"])
def test_relations_as_another_spanning_set(tmp_path, capsys, name):
    # the relations are canonicalized once at load, and the kappa rows refer
    # to that canonical basis: any spanning set gives the same reports
    clean = emit(tmp_path, name)
    doc = json.loads(clean.read_text())
    order = doc["field"]["cyclotomic_order"]
    rels = doc["algebra"]["relations"]
    doc["algebra"]["relations"] = _respan(rels, order, random.Random(name))
    assert len(doc["algebra"]["relations"]) == len(rels) + 1
    respanned = tmp_path / "respanned.json"
    respanned.write_text(json.dumps(doc))
    for cmd in ("validate", "check", "solve", "oracle", "koszul"):
        outs = []
        for path in (clean, respanned):
            rc = main(["--json", cmd, str(path)])
            outs.append((rc, capsys.readouterr().out))
        assert outs[0] == outs[1], cmd


def test_oracle_spans_deeper_than_degree_255(tmp_path):
    # column degrees were once stored in a bytearray: degree 255 died with
    # "ValueError: bytes must be in range(0, 256)" and a traceback.  One
    # generator and no relations keep d * (D + 1) columns under the span bound.
    import subprocess
    import sys
    path = emit(tmp_path, "cbh-cyclic-3", with_kappa=False)
    doc = json.loads(path.read_text())
    doc["algebra"] = {"generators": ["u"], "relations": [], "action": [[1, 0, 0, "1*z"]]}
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "hopfpbw.cli", "--cutoff", "300", "oracle",
                           str(path), "--degree", "298"], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and "CONSISTENT" in proc.stdout


def test_parse_interns_each_distinct_literal_once(monkeypatch):
    # equal literals of one document parse to one Scalar object, so
    # validate_hopf's product memo hits by identity; the intern table lives
    # for one parse, so a second parse parses every literal again
    from collections import Counter
    import hopfpbw.cli as cli
    doc = json.loads(render_problem(build_problem("taft-9", with_kappa=True)))
    h, a, k = doc["hopf"], doc["algebra"], doc["kappa"]
    literals = ([e[3] for e in h["mult"] + h["comult"] + a["action"]]
                + [e[2] for e in h["antipode"]] + [e[1] for e in h["unit"]] + h["counit"]
                + [e[2] for rel in a["relations"] for e in rel]
                + [t for row in k["constant"] + k["linear"] for t in row])
    calls = Counter()
    real = cli.parse_scalar

    def counted(text, order):
        calls[text] += 1
        return real(text, order)

    monkeypatch.setattr(cli, "parse_scalar", counted)
    prob = cli.parse_problem(doc)
    assert len(literals) > 10 * len(calls)
    assert calls == Counter(set(literals))
    H = prob.hopf
    consts = [c for per_i in H.mult for prod in per_i for c in prod.values()]
    consts += [c for terms in H.comult for c in terms.values()]
    assert len({id(c) for c in consts}) == len(set(consts))
    cli.parse_problem(doc)
    assert calls == Counter(2 * list(set(literals)))


# -- hostile input fuzz -------------------------------------------------------------

FUZZ_PRESETS = ["sweedler", "taft-3", "h8", "ha1", "cbh-cyclic-3"]
FUZZ_FIELDS = [("field", "cyclotomic_order"), ("hopf", "mult"), ("hopf", "comult"), ("hopf", "antipode"), ("hopf", "unit"),
               ("hopf", "counit"), ("hopf", "labels"), ("hopf", "dim"), ("algebra", "action"),
               ("algebra", "relations"), ("kappa", "constant"), ("kappa", "linear")]


def _fuzz_values():
    from hypothesis import strategies as st
    return st.one_of(
        st.sampled_from(["0", "1", "-1", "1/2", "-1/2", "z", "z^2", "-z^5", "1/0", "0/0",
                         "z^", "z^a", "a", "", "+", "1/2/3", "2*z*z", "1e3", "z^99999"]),
        st.integers(min_value=-3, max_value=20),
        st.sampled_from([2 ** 64, -(10 ** 30), None, True, 0.5, [], {}, [0, "1"]]))


def test_fuzz_hostile_documents_exit_cleanly():
    # seeded single-entry mutations of emitted preset documents: a slot of an
    # entry (a scalar of a kappa row, an entry of a relation or one of its
    # slots), a whole entry, or a dropped entry.  hopf.dim is replaced
    # whole, by a hostile value or by a size whose labels and counit follow
    # it, so that the parser reads on into the tables, and the field's
    # cyclotomic order by a hostile value.  A document that validate accepts
    # also goes through a small oracle span, so that hostile tables reach the
    # oracle's reading of H (its group-likes).  Whatever the document, the
    # CLI returns a documented exit code, raises nothing but SystemExit and
    # prints no traceback.
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    from hypothesis import given, settings, strategies as st

    docs = {name: json.loads(render_problem(build_problem(name, with_kappa=True)))
            for name in FUZZ_PRESETS}
    workdir = tempfile.TemporaryDirectory()
    path = Path(workdir.name) / "fuzz.json"

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def run(data):
        doc = json.loads(json.dumps(docs[data.draw(st.sampled_from(FUZZ_PRESETS))]))
        block, key = data.draw(st.sampled_from(FUZZ_FIELDS))
        field = doc[block][key]
        pos = data.draw(st.integers(0, len(field) - 1)) if isinstance(field, list) else 0
        value = data.draw(_fuzz_values())
        kind = data.draw(st.sampled_from(["slot", "entry", "drop"]))
        if key == "cyclotomic_order":
            doc[block][key] = value
        elif key == "dim":
            hdoc = doc["hopf"]
            if kind == "entry":
                hdoc["dim"] = value
            else:
                n = data.draw(st.integers(0, 2 * field))
                hdoc.update(dim=n, labels=[f"e{i}" for i in range(n)],
                            counit=(hdoc["counit"] + ["0"] * n)[:n])
        elif kind == "slot" and isinstance(field[pos], list) and field[pos]:
            field, pos = field[pos], data.draw(st.integers(0, len(field[pos]) - 1))
            # a relation's [i, j, scalar] entries hold one more level of slots
            if isinstance(field[pos], list) and field[pos] and data.draw(st.booleans()):
                field, pos = field[pos], data.draw(st.integers(0, len(field[pos]) - 1))
            field[pos] = value
        elif kind == "drop":
            del field[pos]
        else:
            field[pos] = value
        path.write_text(json.dumps(doc))
        codes = {}
        for cmd in (["validate"], ["check"], ["oracle", "--degree", "2", "--buffer", "0"]):
            if cmd[0] == "oracle" and codes["validate"] != 0:
                break
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    rc = main([cmd[0], str(path), *cmd[1:]])
                except SystemExit as exc:
                    rc = exc.code
            codes[cmd[0]] = rc
            assert rc in (0, 1, 2, 3, 4), (cmd, block, key, pos, kind, value, sink.getvalue())
            assert "Traceback" not in sink.getvalue(), (cmd, block, key, pos, kind, value)

    try:
        run()
    finally:
        workdir.cleanup()


def test_padded_generators_parse_without_dense_products(monkeypatch):
    # taft-3 with dim V padded to the bound keeps its 3 nonzero action
    # entries; the derived matrices once cost 32^3 Scalar products each
    # (196,608 in all), zeros included
    doc = json.loads(emit_preset("taft-3", None))
    doc["algebra"]["generators"] += [f"p{i}" for i in range(MAX_ALGEBRA_GENERATORS - 2)]
    calls = []
    raw = Scalar.__mul__

    def counted(a, b):
        calls.append(None)
        return raw(a, b)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    prob = parse_problem(doc)
    assert prob.algebra.vdim == MAX_ALGEBRA_GENERATORS
    # 6 derived matrices, each a product of two with at most 3 nonzero entries
    assert len(calls) <= 6 * 9


def test_kappa_lines_render_both_parts_as_one_signed_sum():
    # kappa^L goes through the formatter of kappa^C: a coefficient -1 joins
    # its term with " - ", one with a power of z is put in parentheses
    from hopfpbw.cli import _kappa_lines
    from hopfpbw.deform import Kappa
    prob = build_problem("taft-3")
    H, B = prob.hopf, prob.algebra
    one = Scalar.one(H.order)
    x, gx, x2 = (H.labels.index(lab) for lab in ("x", "gx", "x^2"))
    kp = Kappa.from_vectors(H, B, [{x: one, gx: -one}],
                            [{(0, x): one, (0, gx): -one, (1, x2): zeta(H.order)}])
    assert _kappa_lines(H, B, kp) == ["    r0: C: x - gx; L: u(x)x - u(x)gx + (1*z)*v(x)x^2"]
