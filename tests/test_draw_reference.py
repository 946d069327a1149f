"""The random draws against reference drawers.

The reference functions below are the draw loops that the draws of
``gauss`` (``random_gauss_ints`` and its one-value case ``random_gauss``)
replaced in ``tensors.random_tensor``, ``cochains.random_components``,
``cochains.random_lemma_cochain``, ``model.random_coord`` and
``model.random_g1``, kept verbatim apart from their names: each value is
``gr(Fraction(randint, randint), Fraction(randint, randint))`` stored with a
validating ``set``.  The package code must give equal values in the same
key order and leave the generator in the same state, so every seeded
report stays byte-identical."""
import ast
import itertools
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import qcframe
from qcframe import cochains, model, tensors
from qcframe.cochains import (Cochain2, CurvatureComponents, broken_components,
                              gminus_keys, random_components, random_lemma_cochain)
from qcframe.forms import CURVATURE_FAMILIES, FAMILIES
from qcframe.gauss import _reduced, gr
from qcframe.model import G1Element, LieCoord, random_coord, random_g1, random_spn
from qcframe.tensors import (IndexedTensor, StandardConstants, j_average, slots,
                             symmetrize)
from qcframe import coframe

CASES = [(1, None), (2, None), (2, (1, 1))]
SEEDS = range(5)

# ---------------------------------------------------------------------------
# reference drawers


def reference_random_tensor(rng, n, slot_list, span=5):
    out = IndexedTensor(n, slot_list)
    for idx in itertools.product(range(1, 2 * n + 1), repeat=len(out.slots)):
        re = Fraction(rng.randint(-span, span), rng.randint(1, 3))
        im = Fraction(rng.randint(-span, span), rng.randint(1, 3))
        out.set(idx, gr(re, im))
    return out


def reference_random_components(rng, consts, span=4):
    n = consts.n
    values = []
    for fam in CURVATURE_FAMILIES:
        arity, symmetric, jreal, real = FAMILIES[fam]
        if arity:
            t = reference_random_tensor(rng, n, slots("l" * arity), span)
            if symmetric:
                t = symmetrize(t)
            if jreal:
                t = j_average(t, consts)
        else:
            re = Fraction(rng.randint(-span, span), rng.randint(1, 3))
            t = gr(re) if real else gr(re, Fraction(rng.randint(-span, span),
                                                    rng.randint(1, 3)))
        values.append(t)
    return CurvatureComponents(n, *values)


def reference_random_lemma_cochain(rng, n, span=3):
    out = Cochain2(n)
    target = [k for k in coframe.coord_keys(n) if k[0] in ("Gam", "phiU", "psi")]
    ks = gminus_keys(n)
    for i, ki in enumerate(ks):
        for kj in ks[i + 1:]:
            val = LieCoord(n)
            for k in target:
                re = Fraction(rng.randint(-span, span), rng.randint(1, 2))
                im = Fraction(rng.randint(-span, span), rng.randint(1, 2))
                val.set(k, gr(re, im))
            out.set_pair(ki, kj, val)
    return out


def reference_random_coord(rng, model, span=4):
    out = LieCoord(model.n)
    for k in model.keys:
        re = Fraction(rng.randint(-span, span), rng.randint(1, 2))
        im = Fraction(rng.randint(-span, span), rng.randint(1, 2))
        out.set(k, gr(re, im))
    return out


def reference_random_g1(rng, c, span=3):
    """``random_spn`` draws through ``tensors.random_tensor``, which the
    caller points at ``reference_random_tensor``."""
    n = c.n
    r = [gr(Fraction(rng.randint(-span, span), rng.randint(1, 2)),
            Fraction(rng.randint(-span, span), rng.randint(1, 2)))
         for _ in range(2 * n)]
    lam = [gr(Fraction(rng.randint(-span, span), rng.randint(1, 2))) for _ in range(3)]
    return G1Element(random_spn(rng, c), r, lam)


# ---------------------------------------------------------------------------
# comparison: values as triples, in stored order, and the generator state


def _trip(v):
    return (v.a, v.b, v.d)


def _items(mapping):
    return [(k, _trip(v)) for k, v in mapping.items()]


def _flat(x):
    """Every value of a drawn object as triples, with its keys in stored order."""
    if isinstance(x, IndexedTensor):
        return (type(x).__name__, x.slots, _items(x.entries))
    if isinstance(x, CurvatureComponents):
        return [_flat(getattr(x, fam.lower())) for fam in CURVATURE_FAMILIES]
    if isinstance(x, Cochain2):
        return _items(x.row)
    if isinstance(x, LieCoord):
        return _items(x.c)
    if isinstance(x, G1Element):
        return ([[_trip(v) for v in row] for row in x.U],
                [_trip(v) for v in x.r], [_trip(v) for v in x.lam])
    return _trip(x)


def _draws(n, signature, model_for):
    """(name, package drawer, reference drawer) for every draw site."""
    c = StandardConstants(n, signature)
    m = model_for(n, signature)
    out = [(f"random_tensor arity {k}",
            lambda rng, k=k: tensors.random_tensor(rng, n, slots("l" * k)),
            lambda rng, k=k: reference_random_tensor(rng, n, slots("l" * k)))
           for k in (1, 2, 3, 4)]
    return out + [
        ("random_components", lambda rng: random_components(rng, c),
         lambda rng: reference_random_components(rng, c)),
        ("broken_components", lambda rng: broken_components(rng, c),
         lambda rng: cochains.broken_components(rng, c)),
        ("random_lemma_cochain", lambda rng: random_lemma_cochain(rng, n),
         lambda rng: reference_random_lemma_cochain(rng, n)),
        ("random_coord", lambda rng: random_coord(rng, m),
         lambda rng: reference_random_coord(rng, m)),
        ("random_g1", lambda rng: random_g1(rng, c), lambda rng: reference_random_g1(rng, c)),
    ]


def _run(drawer, seed):
    rng = random.Random(seed)
    return _flat(drawer(rng)), rng.getstate()


def _mismatches(n, signature, model_for, monkeypatch):
    """Names of the draw sites that differ from their reference on a seed.
    The reference runs draw tensors with ``reference_random_tensor``, also
    inside ``random_spn``, and ``broken_components`` breaks the components
    of ``reference_random_components``."""
    bad = set()
    for name, drawer, ref in _draws(n, signature, model_for):
        for seed in SEEDS:
            with monkeypatch.context() as mp:
                mp.setattr(tensors, "random_tensor", reference_random_tensor)
                mp.setattr(cochains, "random_components", reference_random_components)
                want = _run(ref, seed)
            if _run(drawer, seed) != want:
                bad.add(name)
    return bad


@pytest.mark.parametrize("n,signature", CASES)
def test_draws_match_reference(n, signature, model_for, monkeypatch):
    assert _mismatches(n, signature, model_for, monkeypatch) == set()


def test_draws_reference_catches_another_draw_order(model_for, monkeypatch):
    """Negative control: a drawer that takes a, b, d1, d2 (not a, d1, b, d2)
    gives the same distribution and the same number of draws, but every
    complex draw site then differs from the reference.  It replaces both
    draw functions wherever the package imports them."""

    def abdd_ints(rng, span, den, count, real=False):
        L, out = lcm(*range(1, den + 1)), []
        for _ in range(count):
            if real:
                a = rng.randint(-span, span)
                out.append((a * (L // rng.randint(1, den)), 0))
                continue
            a, b = rng.randint(-span, span), rng.randint(-span, span)
            d1, d2 = rng.randint(1, den), rng.randint(1, den)
            out.append((a * (L // d1), b * (L // d2)))
        return L, out

    def abdd(rng, span, den, real=False):
        L, ((re, im),) = abdd_ints(rng, span, den, 1, real)
        return _reduced(re, im, L)

    for module in (tensors, cochains, model):
        monkeypatch.setattr(module, "random_gauss_ints", abdd_ints)
    monkeypatch.setattr(cochains, "random_gauss", abdd)
    assert [name for module in (tensors, cochains, model)
            for name in ("random_gauss", "random_gauss_ints")
            if getattr(module, name, abdd) not in (abdd, abdd_ints)] == []
    names = {name for name, _, _ in _draws(1, None, model_for)}
    assert _mismatches(1, None, model_for, monkeypatch) == names


# ---------------------------------------------------------------------------
# one draw path


def _fraction_and_randint(source: str):
    """Names of the functions in ``source`` that both call ``Fraction`` and
    read ``randint``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            inner = list(ast.walk(node))
            if (any(isinstance(x, ast.Call) and isinstance(x.func, ast.Name)
                    and x.func.id == "Fraction" for x in inner)
                    and any(isinstance(x, ast.Attribute) and x.attr == "randint"
                            for x in inner)):
                found.append(node.name)
    return found


DRAWS = {"randint", "randrange", "getrandbits"}


def _draw_reads(source: str):
    """The generator methods in ``DRAWS`` that ``source`` reads as an
    attribute, called or not."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in DRAWS}


def test_one_draw_path():
    """No module but gauss.py reads ``randint``, ``randrange`` or
    ``getrandbits``, and none builds a random value from ``Fraction``s of
    ``randint`` draws: ``gauss.random_gauss_ints`` is the one draw path, and
    it reads ``getrandbits`` only.  Both scans do find what they look for: in
    a planted source string and in the reference drawers above."""
    sources = {path.name: path.read_text()
               for path in Path(qcframe.__file__).parent.glob("*.py")}
    assert {name: _draw_reads(src) for name, src in sources.items()
            if name != "gauss.py" and _draw_reads(src)} == {}
    assert _draw_reads(sources["gauss.py"]) == {"getrandbits"}
    planted = "def f(rng):\n    bits = rng.getrandbits\n    return rng.randrange(3) + bits(2)\n"
    assert _draw_reads(planted) == {"getrandbits", "randrange"}
    found = [(name, fn) for name, src in sources.items() if name != "gauss.py"
             for fn in _fraction_and_randint(src)]
    assert found == []
    assert set(_fraction_and_randint(Path(__file__).read_text())) >= {
        "reference_random_tensor", "reference_random_components",
        "reference_random_lemma_cochain", "reference_random_coord", "reference_random_g1"}
