"""The package runs on sparse RREF rows only.

Subspaces hold the engine's sparse rows, and ``modalg``/``deform`` reduce
modulo I with ``reduce_mod_relations``.  The dense API of ``exactla``
(``_rref_rows``, ``rref``, ``kernel``, ``solve``, ``membership`` and the dense
``Subspace`` methods) converts at its own boundary and serves as the
reference here: with it switched off, every golden report still comes out
unchanged, and the sparse reduction agrees with it on random tensors.
"""

import hashlib
import random
import sys

import pytest

from hopfpbw import exactla
from hopfpbw.cli import main, emit_preset
from hopfpbw.deform import rel_coords
from hopfpbw.exactla import NotMember, Subspace, membership
from hopfpbw.modalg import reduce_mod_relations
from hopfpbw.scalar import Scalar, field

from test_golden import GOLDEN, GOLDEN_KAPPA, _perturb_linear

PRESETS = sorted({name for name, _ in GOLDEN})
DENSE_FUNCTIONS = ("_rref_rows", "rref", "kernel", "solve", "membership")


def _dense_api_off(monkeypatch):
    """Make every dense entry point raise, under every module attribute of
    the package that binds it."""
    def refuse(*args, **kwargs):
        raise AssertionError("the dense exactla API was called")

    targets = {id(getattr(exactla, name)) for name in DENSE_FUNCTIONS}
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "hopfpbw" or modname.startswith("hopfpbw.")):
            for attr, val in list(vars(mod).items()):
                if id(val) in targets:
                    monkeypatch.setattr(mod, attr, refuse)
    monkeypatch.setattr(Subspace, "from_vectors", staticmethod(refuse))
    monkeypatch.setattr(Subspace, "reduce", refuse)
    monkeypatch.setattr(Subspace, "contains", refuse)


@pytest.mark.parametrize("name", PRESETS)
def test_golden_reports_without_the_dense_api(tmp_path, capsys, monkeypatch, name):
    _dense_api_off(monkeypatch)
    path = tmp_path / f"{name}.json"
    emit_preset(name, str(path), with_kappa=True)
    runs = [((name, cmd), GOLDEN, ["--json", cmd, str(path)])
            for cmd in ("validate", "check", "solve", "oracle", "koszul")]
    runs.append(((name, "solve-linear-zero"), GOLDEN_KAPPA,
                 ["--json", "solve", str(path), "--fix-linear-zero"]))
    for key, table, argv in runs:
        rc = main(argv)
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (rc, digest) == table[key], key
    _perturb_linear(path)
    rc = main(["--json", "check", str(path)])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (rc, digest) == GOLDEN_KAPPA[(name, "check-perturbed")]


def _random_tensor(rng, B, members: bool) -> dict:
    """A degree-2 tensor {(i, j): Scalar}: a random combination of the
    canonical relations, or (members False) of relations and unit words."""
    order, vd = B.order, B.vdim
    out: dict = {}
    terms = [B.relation_sparse(a) for a in range(B.dim_relations())]
    if not members:
        terms += [{(rng.randrange(vd), rng.randrange(vd)): Scalar.one(order)} for _ in range(2)]
    for t in terms:
        k = Scalar._make(order, rng.choice([1, 2, 3]),
                         [rng.randint(-3, 3) for _ in range(field(order).phi)])
        for key, c in t.items():
            s = out.get(key, Scalar.zero(order)) + k * c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


@pytest.mark.parametrize("name", PRESETS)
def test_reduction_mod_relations_matches_dense_reference(problem, name):
    B = problem(name).algebra
    rng = random.Random(f"reduce-{name}")
    zero = Scalar.zero(B.order)
    vv = B.vdim * B.vdim
    seen = {True: 0, False: 0}
    for i in range(40):
        t = _random_tensor(rng, B, members=i % 2 == 0)
        coords, rem = reduce_mod_relations(B, t)
        dense = [zero] * vv
        for (p, q), c in t.items():
            dense[p * B.vdim + q] = c
        dcoords, drem = B.relations.reduce(dense)
        assert [coords.get(a, zero) for a in range(B.dim_relations())] == dcoords
        assert [rem.get(w, zero) for w in range(vv)] == drem
        assert all(coords.values()) and all(rem.values())
        assert B.relations.contains(dense) == (not rem)
        seen[not rem] += 1
        if rem:
            with pytest.raises(NotMember):
                rel_coords(B, t)
            with pytest.raises(NotMember):
                membership(dense, B.relations)
        else:
            assert rel_coords(B, t) == membership(dense, B.relations) == dcoords
    assert seen[True] >= 20 and (seen[False] > 0 or B.dim_relations() == vv)
