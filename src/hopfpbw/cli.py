"""Command-line front end.

Problems live in single JSON documents: a cyclotomic field declaration,
Hopf structure constants (sparse, scalar values as literal strings), the
quadratic algebra with its action, and optionally a deformation map whose
rows refer to the canonical (reduced-echelon) relation basis.  Every sparse
table (hopf.mult, comult, antipode and unit, each relation, algebra.action)
is read by one rule: each entry is a list of its indices and a scalar,
each index a JSON integer below its bound, each index tuple at most once,
and a zero value is not stored, except that an action entry marks its h
as given.  Emission is canonical and every emitted document loads back:
emit -> load -> re-emit is byte-identical.

Commands and exit codes:

  validate <file>            0 all axioms pass / 2 axiom failure
  check <file>               0 PBW / 3 some condition fails
  solve <file>               0; prints family dimension and basis
  oracle <file>              0 consistent / 4 falsified
  koszul <file>              0; graded and overlap dimension tables
  preset <name>              0; writes a problem file

Any command whose stdout is closed before it has written its report (a
pipe into ``head``) ends with exit code 141, as a process that SIGPIPE
ended reads in the shell (128 + 13), and prints no traceback.

The global --json flag switches every report to a stable machine-readable
schema; --cutoff (default 6) bounds the degrees of koszul --max and of the
oracle span, and check and solve do not read it (the criterion works in
degree 3).  koszul also refuses a degree with more words than
``modalg.MAX_KOSZUL_WORDS``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from operator import itemgetter

from .scalar import Scalar, parse_scalar, format_scalar, ScalarError
from .hopf import (HopfAlgebra, validate_hopf, format_hvec, format_terms, HopfError, MAX_CYCLOTOMIC_ORDER,
                   MAX_HOPF_DIM)
from .modalg import (ModuleAlgebra, ModAlgError, action_from_generators, validate_action, graded_dim,
                     koszul_component, DEFAULT_CUTOFF)
from .deform import Kappa, check_pbw, solve_kappa, kappa_block_dims
from .oracle import filtered_dims, pbw_probe, CONSISTENT_CAVEAT, OracleError
from .presets import Problem, build_problem, PRESET_NAMES


# The exit code when stdout is closed early: 128 + SIGPIPE, what the shell
# reports for a process that the signal ended.
EXIT_BROKEN_PIPE = 141


class ParseError(Exception):
    pass


# The largest dim V.  Action matrices are dense vdim x vdim lists of
# Scalars, and their products skip zero factors: taft-3 padded to 32
# generators parses in 0.04 s and is refused by validation in 0.06 s
# (Python 3.11, one core).  The presets need at most 4.
MAX_ALGEBRA_GENERATORS = 32


class ValidationError(Exception):
    def __init__(self, message: str, failures: list):
        super().__init__(message)
        self.failures = failures


# -- serialization --------------------------------------------------------------

def problem_to_json(prob: Problem) -> dict:
    H, B = prob.hopf, prob.algebra
    d = H.dim
    mult = []
    for i in range(d):
        for j in range(d):
            for k in sorted(H.mult[i][j]):
                mult.append([i, j, k, format_scalar(H.mult[i][j][k])])
    comult = []
    for i in range(d):
        for (j, k) in sorted(H.comult[i]):
            comult.append([i, j, k, format_scalar(H.comult[i][(j, k)])])
    antipode = []
    for i in range(d):
        for j in sorted(H.antipode[i]):
            antipode.append([i, j, format_scalar(H.antipode[i][j])])
    unit = [[i, format_scalar(c)] for i, c in sorted(H.unit.items())]
    relations = []
    for a in range(B.dim_relations()):
        rel = B.relation_sparse(a)
        relations.append([[i, j, format_scalar(c)] for (i, j), c in sorted(rel.items())])
    # action matrices only for the declared algebra generators (the loader
    # derives the rest multiplicatively); without a generator hint, all of
    # them.  An h acting by zero gets one zero entry, which marks it given.
    hs = H.generators if H.generators is not None else list(range(d))
    action = []
    for h in hs:
        nonzero = [[h, r, c, format_scalar(s)] for r, row in enumerate(B.action[h])
                   for c, s in enumerate(row) if s]
        action.extend(nonzero or [[h, 0, 0, "0"]])
    doc = {
        "field": {"cyclotomic_order": H.order},
        "cutoff": B.cutoff,
        "hopf": {
            "dim": d,
            "labels": list(H.labels),
            "unit": unit,
            "counit": [format_scalar(c) for c in H.counit],
            "mult": mult,
            "comult": comult,
            "antipode": antipode,
        },
        "algebra": {
            "generators": list(B.vlabels),
            "relations": relations,
            "action": action,
        },
    }
    if H.generators is not None:
        doc["hopf"]["generators"] = list(H.generators)
    if prob.kappa is not None:
        doc["kappa"] = _kappa_json(H, B, prob.kappa)
    return doc


def _kappa_json(H: HopfAlgebra, B: ModuleAlgebra, kp: Kappa) -> dict:
    """Dense rows of scalar literals: constant[a][h] and linear[a][v * d + h]."""
    zero = Scalar.zero(H.order)
    return {
        "constant": [[format_scalar(row.get(h, zero)) for h in range(H.dim)]
                     for row in kp.constant],
        "linear": [[format_scalar(row.get((v, h), zero)) for v in range(B.vdim) for h in range(H.dim)]
                   for row in kp.linear],
    }


def render_problem(prob: Problem) -> str:
    # the encoder's chunks and the trailing newline joined once: no write
    # per chunk and no copy of the document for the newline
    return "".join([*json.JSONEncoder(indent=2).iterencode(problem_to_json(prob)), "\n"])


def _parse_sc(text, order: int, where: str) -> Scalar:
    if not isinstance(text, str):
        raise ParseError(f"{where}: scalar values must be strings, got {text!r}")
    try:
        return parse_scalar(text, order)
    except ScalarError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _index(x, bound: int, where: str) -> int:
    """An index field of the document: a JSON integer in 0..bound-1."""
    if type(x) is not int or not 0 <= x < bound:
        raise ParseError(f"{where}: index {x!r} is not an integer in 0..{bound - 1}")
    return x


def _integer(x, where: str) -> int:
    """An integer field of the document: a JSON integer, not a string, float or bool."""
    if type(x) is not int:
        raise ParseError(f"{where} must be an integer, got {x!r}")
    return x


def _list(x, where: str) -> list:
    """A list-valued field of the document."""
    if not isinstance(x, list):
        raise ParseError(f"{where} must be a list, got {type(x).__name__}")
    return x


def parse_problem(doc: dict, cutoff: int | None = None) -> Problem:
    """Parse a problem document without validating its axioms.

    Raises ParseError for structural problems.
    """
    try:
        order = _integer(doc["field"]["cyclotomic_order"], "field.cyclotomic_order")
    except (KeyError, TypeError) as exc:
        raise ParseError("field.cyclotomic_order missing or malformed") from exc
    if order < 1:
        raise ParseError("field.cyclotomic_order must be a positive integer")
    if order > MAX_CYCLOTOMIC_ORDER:
        raise ParseError(f"field.cyclotomic_order {order} exceeds the supported maximum "
                         f"{MAX_CYCLOTOMIC_ORDER}")
    hdoc = doc.get("hopf")
    if not isinstance(hdoc, dict):
        raise ParseError("hopf block missing")
    try:
        d = _integer(hdoc["dim"], "hopf.dim")
        labels = list(_list(hdoc["labels"], "hopf.labels"))
    except (KeyError, TypeError) as exc:
        raise ParseError("hopf.dim or hopf.labels malformed") from exc
    if d > MAX_HOPF_DIM:
        raise ParseError(f"hopf.dim {d} exceeds the supported maximum {MAX_HOPF_DIM}")
    if len(labels) != d:
        raise ParseError(f"hopf.labels: expected {d} labels, got {len(labels)}")
    if not all(isinstance(lab, str) for lab in labels):
        raise ParseError("hopf.labels must be strings")
    zero = Scalar.zero(order)
    # one Scalar per distinct literal of this document, so that equal
    # constants are one object (validate_hopf's product memo then hits by
    # identity), and every zero literal is ``zero`` itself; the memo dies
    # with this call
    literals: dict = {}

    def scalar(text, where: str) -> Scalar:
        s = literals.get(text) if isinstance(text, str) else None
        if s is None:
            s = literals[text] = _parse_sc(text, order, where) or zero
        return s

    def table(entries, where: str, bounds: tuple):
        """The nonzero entries of a sparse table [i_1, ..., i_n, scalar] as
        an iterator of ((i_1, ..., i_n), Scalar), in document order.  Each
        entry is a list of n + 1 fields, each i_t a JSON integer below
        bounds[t], and each index tuple appears at most once.  Every rule is
        checked on a whole column at once, before the iterator is returned;
        only a failing check walks the column to name a culprit.  The
        iterator holds no copy of the table, so the caller's tables are
        built with no table-sized temporary alive."""
        n = len(bounds)
        ents = _list(entries, where)
        if not ents:
            return iter(())
        if not set(map(type, ents)) <= {list} or not set(map(len, ents)) <= {n + 1}:
            bad = next(e for e in ents if type(e) is not list or len(e) != n + 1)
            raise ParseError(f"{where} entry {bad!r} is not a list of {n} indices and a scalar")
        for t, b in enumerate(bounds):
            col = list(map(itemgetter(t), ents))
            if not (set(map(type, col)) <= {int} and 0 <= min(col) <= max(col) < b):
                for x in col:
                    _index(x, b, where)  # raises at the first bad index
        texts = list(map(itemgetter(n), ents))
        # each distinct literal is parsed once; a non-string is refused in order
        for text in dict.fromkeys(texts) if set(map(type, texts)) <= {str} else texts:
            scalar(text, where)

        def keys():
            return zip(*(map(itemgetter(t), ents) for t in range(n)))

        if len(set(keys())) < len(ents):
            dup = next(k for k, c in Counter(keys()).items() if c > 1)
            raise ParseError(f"{where}: index tuple {list(dup)} given twice")
        values = map(literals.__getitem__, map(itemgetter(n), ents))
        return ((k, s) for k, s in zip(keys(), values) if s is not zero)

    mult = [[{} for _ in range(d)] for _ in range(d)]
    for (i, j, k), s in table(hdoc.get("mult", []), "hopf.mult", (d, d, d)):
        mult[i][j][k] = s
    comult = [{} for _ in range(d)]
    for (i, j, k), s in table(hdoc.get("comult", []), "hopf.comult", (d, d, d)):
        comult[i][(j, k)] = s
    antipode = [{} for _ in range(d)]
    for (i, j), s in table(hdoc.get("antipode", []), "hopf.antipode", (d, d)):
        antipode[i][j] = s
    # the shorthand "unit": i is the sparse vector [[i, "1"]]
    unit_doc = hdoc.get("unit")
    if isinstance(unit_doc, int):
        unit_doc = [[unit_doc, "1"]]
    unit = {i: s for (i,), s in table(unit_doc, "hopf.unit", (d,))}

    counit_doc = hdoc.get("counit")
    if not isinstance(counit_doc, list) or len(counit_doc) != d:
        raise ParseError(f"hopf.counit must list {d} scalars")
    counit = [scalar(t, "hopf.counit") for t in counit_doc]

    gens = hdoc.get("generators")
    if gens is not None:
        if not isinstance(gens, list):
            raise ParseError("hopf.generators must be a list of basis indices")
        gens = [_index(g, d, "hopf.generators") for g in gens]
    H = HopfAlgebra(order, d, labels, mult, comult, unit, counit, antipode, generators=gens)

    adoc = doc.get("algebra")
    if not isinstance(adoc, dict):
        raise ParseError("algebra block missing")
    vlabels = list(_list(adoc.get("generators", []), "algebra.generators"))
    vd = len(vlabels)
    if vd == 0:
        raise ParseError("algebra.generators must be nonempty")
    if vd > MAX_ALGEBRA_GENERATORS:
        raise ParseError(f"algebra.generators: {vd} generators exceed the supported maximum "
                         f"{MAX_ALGEBRA_GENERATORS}")
    if not all(isinstance(lab, str) for lab in vlabels):
        raise ParseError("algebra.generators must be strings")
    rel_vecs = [dict(table(rdoc, "algebra.relations", (vd, vd)))
                for rdoc in _list(adoc.get("relations", []), "algebra.relations")]
    action_doc = adoc.get("action", [])
    entries = table(action_doc, "algebra.action", (d, vd, vd))
    # every entry marks its h as given, a zero one too: h acts by zero
    given = {ent[0]: [[zero] * vd for _ in range(vd)] for ent in action_doc}
    for (h, r, c), s in entries:
        given[h][r][c] = s
    try:
        action = action_from_generators(H, vd, given)
    except ModAlgError as exc:
        raise ParseError(f"algebra.action: {exc}") from exc

    if cutoff is None:
        cutoff = _integer(doc.get("cutoff", DEFAULT_CUTOFF), "cutoff")
    B = ModuleAlgebra.make(order, vlabels, rel_vecs, action, cutoff=cutoff)

    kappa = None
    kdoc = doc.get("kappa")
    if kdoc is not None:
        if not isinstance(kdoc, dict):
            raise ParseError("kappa must be an object with constant and linear rows")
        p = B.dim_relations()
        cdoc = kdoc.get("constant")
        ldoc = kdoc.get("linear")
        if not isinstance(cdoc, list) or len(cdoc) != p:
            raise ParseError(f"kappa.constant must have one row per canonical relation ({p})")
        if not isinstance(ldoc, list) or len(ldoc) != p:
            raise ParseError(f"kappa.linear must have one row per canonical relation ({p})")
        cvecs = []
        lvecs = []
        for a in range(p):
            if not isinstance(cdoc[a], list) or len(cdoc[a]) != d:
                raise ParseError(f"kappa.constant row {a} must be a list of {d} scalars")
            if not isinstance(ldoc[a], list) or len(ldoc[a]) != vd * d:
                raise ParseError(f"kappa.linear row {a} must be a list of {vd * d} scalars")
            cvecs.append({i: s for i, t in enumerate(cdoc[a])
                          if not (s := scalar(t, "kappa.constant")).is_zero()})
            lvecs.append({(i // d, i % d): s for i, t in enumerate(ldoc[a])
                          if not (s := scalar(t, "kappa.linear")).is_zero()})
        kappa = Kappa(order, cvecs, lvecs)
    return Problem(doc.get("name", "problem"), H, B, kappa)


def problem_from_json(doc: dict, cutoff: int | None = None) -> Problem:
    """Parse and fully validate a problem document.

    Raises ParseError for structural problems and ValidationError when the
    Hopf or action axioms fail, or the ``hopf.generators`` hint does not
    generate H.
    """
    prob = parse_problem(doc, cutoff)
    hrep = validate_hopf(prob.hopf)
    if not hrep.passed:
        raise ValidationError("Hopf axioms fail", hrep.failures)
    arep = validate_action(prob.hopf, prob.algebra)
    if not arep.passed:
        raise ValidationError("action axioms fail", arep.failures)
    return prob




def load_spec(path: str, cutoff: int | None = None) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return problem_from_json(doc, cutoff=cutoff)


def emit_preset(name: str, path: str | None, with_kappa: bool = False) -> str:
    prob = build_problem(name, with_kappa=with_kappa)
    text = render_problem(prob)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


# -- report rendering ------------------------------------------------------------

def _fail_lines(failures: list) -> list[str]:
    out = []
    for axiom, witness, lhs, rhs in failures:
        out.append(f"  {axiom} at {witness}: lhs = {lhs}, rhs = {rhs}")
    return out


def _kappa_lines(H: HopfAlgebra, B: ModuleAlgebra, kp: Kappa) -> list[str]:
    lines = []
    for a in range(B.dim_relations()):
        cv = kp.c_vec(a)
        lv = kp.l_vec(a)
        if not cv and not lv:
            continue
        parts = []
        if cv:
            parts.append(f"C: {format_hvec(H, cv)}")
        if lv:
            parts.append("L: " + format_terms((lv[v, h], f"{B.vlabels[v]}(x){H.labels[h]}")
                                              for v, h in sorted(lv)))
        lines.append(f"    r{a}: " + "; ".join(parts))
    if not lines:
        lines.append("    0")
    return lines


def cmd_validate(prob_path: str, as_json: bool, cutoff: int | None) -> int:
    try:
        prob = load_spec(prob_path, cutoff)
    except ValidationError as exc:
        if as_json:
            print(json.dumps({"command": "validate", "ok": False,
                              "failures": [[f[0], list(f[1])] for f in exc.failures]}, indent=2))
        else:
            print(f"INVALID: {exc}")
            print("\n".join(_fail_lines(exc.failures)))
        return 2
    if as_json:
        print(json.dumps({"command": "validate", "ok": True,
                          "hopf_dim": prob.hopf.dim, "vdim": prob.algebra.vdim,
                          "relations": prob.algebra.dim_relations()}, indent=2))
    else:
        print(f"OK: Hopf algebra (dim {prob.hopf.dim}) and action on "
              f"{prob.algebra.vdim} generators with {prob.algebra.dim_relations()} relations "
              "pass all axioms")
    return 0


def cmd_check(prob_path: str, as_json: bool, cutoff: int | None) -> int:
    prob = load_spec(prob_path, cutoff)
    if prob.kappa is None:
        raise ParseError("check needs a kappa block in the problem file")
    rep = check_pbw(prob.hopf, prob.algebra, prob.kappa)
    if as_json:
        print(json.dumps({
            "command": "check",
            "ok": rep.passed,
            "conditions": {k: v.status for k, v in rep.conditions.items()},
            "witnesses": {k: v.witnesses for k, v in rep.conditions.items() if v.witnesses},
            "notes": rep.notes,
        }, indent=2))
    else:
        print("PBW check:")
        for name in ("a", "b", "c", "d"):
            st = rep.conditions[name]
            print(f"  ({name}) {st.status}")
            for w in st.witnesses[:4]:
                print(f"      witness: {w}")
        for note in rep.notes:
            print(f"  note: {note}")
        print("verdict:", "PBW deformation" if rep.passed else "NOT a PBW deformation")
    return 0 if rep.passed else 3


def cmd_solve(prob_path: str, as_json: bool, cutoff: int | None, fix_linear_zero: bool) -> int:
    prob = load_spec(prob_path, cutoff)
    fam = solve_kappa(prob.hopf, prob.algebra, force_linear_zero=fix_linear_zero)
    H, B = prob.hopf, prob.algebra
    blocks = kappa_block_dims(B, H, fam.linear_basis)
    if as_json:
        doc = {
            "command": "solve",
            "family_dim": fam.family_dim,
            "stage1_dim": len(fam.ab_basis),
            "block_dims": [{"relation": a, "constant": c, "linear": l}
                           for a, (c, l) in enumerate(blocks)],
            "basis": [_kappa_json(H, B, kp) for kp in fam.linear_basis],
            "residual_system": [rp.render() for rp in fam.residual_system],
            "notes": fam.notes,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"stage 1 (linear conditions): solution space of dimension {len(fam.ab_basis)}")
        if fam.residual_system:
            print(f"residual polynomial system ({len(fam.residual_system)} constraints):")
            for rp in fam.residual_system:
                print(f"    {rp.render()}")
            print("family dimension: undetermined (nonlinear residual)")
        else:
            print(f"family dimension: {fam.family_dim}")
        print("per-relation block dimensions (constant, linear):",
              " ".join(f"r{a}:({c},{l})" for a, (c, l) in enumerate(blocks)))
        print("family basis:")
        for i, kp in enumerate(fam.linear_basis):
            print(f"  basis vector {i}:")
            print("\n".join(_kappa_lines(H, B, kp)))
        for note in fam.notes:
            print(f"note: {note}")
    return 0


def cmd_oracle(prob_path: str, as_json: bool, cutoff: int | None,
               degree: int, buffer: int, probe: bool, max_buffer: int) -> int:
    prob = load_spec(prob_path, cutoff)
    kappa = prob.kappa if prob.kappa is not None else Kappa.zero(prob.hopf, prob.algebra)
    if probe:
        pr = pbw_probe(prob.hopf, prob.algebra, kappa, degree, max_buffer)
        rep = pr.reports[-1]
        verdict = pr.verdict
    else:
        rep = filtered_dims(prob.hopf, prob.algebra, kappa, degree, buffer)
        verdict = rep.verdict
    if as_json:
        print(json.dumps({
            "command": "oracle",
            "degree": degree,
            "buffer": rep.buffer,
            "computed_dims": rep.computed_dims,
            "expected_dims": rep.expected_dims,
            "verdict": verdict,
            "falsified_at": rep.falsified_at,
            "caveat": CONSISTENT_CAVEAT,
        }, indent=2))
    else:
        print(f"filtered dimensions through degree {degree} (spanning buffer {rep.buffer}):")
        print("  m | computed | expected")
        for m, (c, e) in enumerate(zip(rep.computed_dims, rep.expected_dims)):
            mark = "" if c == e else "   <-- deficient" if c < e else "   <-- excess"
            print(f"  {m} | {c:8d} | {e:8d}{mark}")
        print("verdict:", verdict)
        if verdict == "CONSISTENT":
            print(f"note: {CONSISTENT_CAVEAT}")
    return 0 if verdict == "CONSISTENT" else 4


def cmd_koszul(prob_path: str, as_json: bool, cutoff: int | None, max_deg: int) -> int:
    if max_deg < 0:
        raise ModAlgError("the degree bound --max must be at least 0")
    prob = load_spec(prob_path, cutoff)
    B = prob.algebra
    # graded_dim refuses a degree above the cutoff or with too many words
    # before it builds a row; the largest degree goes first, so a refused
    # --max is refused before any table is built
    gd = {n: graded_dim(B, n) for n in range(max_deg, -1, -1)}
    od = {i: koszul_component(B, i).dim for i in range(2, max_deg + 1)}
    if as_json:
        print(json.dumps({"command": "koszul",
                          "graded_dims": [gd[n] for n in range(0, max_deg + 1)],
                          "overlap_dims": {str(i): od[i] for i in sorted(od)}}, indent=2))
    else:
        print("graded dimensions of B:")
        for n in range(0, max_deg + 1):
            print(f"  dim B_{n} = {gd[n]}")
        print("overlap component dimensions:")
        for i in sorted(od):
            print(f"  dim D'_{i} = {od[i]}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="hopfpbw",
        description="Exact PBW-deformation analysis for smash products B # H")
    ap.add_argument("--json", action="store_true", help="machine-readable reports")
    ap.add_argument("--cutoff", type=int, default=None,
                    help="override the truncation degree (default 6)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check all Hopf and action axioms")
    p.add_argument("file")
    p = sub.add_parser("check", help="decide the PBW property for the file's kappa")
    p.add_argument("file")
    p = sub.add_parser("solve", help="solve for the full family of deformation maps")
    p.add_argument("file")
    p.add_argument("--fix-linear-zero", action="store_true",
                   help="restrict to deformation maps with zero linear part")
    p = sub.add_parser("oracle", help="brute-force filtered dimension cross-check")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--buffer", type=int, default=1)
    p.add_argument("--probe", action="store_true",
                   help="iterate buffers 0..max-buffer, stopping at the first deficiency")
    p.add_argument("--max-buffer", type=int, default=2)
    p = sub.add_parser("koszul", help="graded and overlap dimension tables")
    p.add_argument("file")
    p.add_argument("--max", type=int, default=4)
    p = sub.add_parser("preset", help="emit a bundled problem file")
    p.add_argument("name", help="one of: " + ", ".join(PRESET_NAMES))
    p.add_argument("--with-kappa", action="store_true",
                   help="include a sample deformation map from the known family")
    p.add_argument("-o", "--output", default=None)

    args = ap.parse_args(argv)
    try:
        code = _run(args)
        # flush here, so that a reader who closed the pipe is seen inside the try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early (`hopfpbw --json solve t9.json | head -c 100`):
        # point it at devnull, so the flush at exit raises nothing, and end
        # quietly, as the Python documentation of signal.SIGPIPE advises
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _run(args) -> int:
    try:
        if args.command == "validate":
            return cmd_validate(args.file, args.json, args.cutoff)
        if args.command == "check":
            return cmd_check(args.file, args.json, args.cutoff)
        if args.command == "solve":
            return cmd_solve(args.file, args.json, args.cutoff, args.fix_linear_zero)
        if args.command == "oracle":
            return cmd_oracle(args.file, args.json, args.cutoff,
                              args.degree, args.buffer, args.probe, args.max_buffer)
        if args.command == "koszul":
            return cmd_koszul(args.file, args.json, args.cutoff, args.max)
        if args.command == "preset":
            text = emit_preset(args.name, args.output, args.with_kappa)
            if args.output is None:
                sys.stdout.write(text)
            else:
                print(f"wrote {args.output}")
            return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        for line in _fail_lines(exc.failures):
            print(line, file=sys.stderr)
        return 2
    except (HopfError, ModAlgError, OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
