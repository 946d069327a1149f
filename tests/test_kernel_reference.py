"""forms.differential on integer keys against the tuple-keyed kernel it
replaced, kept here verbatim as a reference evaluator.

The reference keys generator monomials by sorted index tuples and symbol
monomials by tuples of Syms, and places each rule row by bisection or by
a sorted merge (``_merge_sign``).  The kernel in ``forms`` keys them by
bitmask and by interned id.  The reference converts at its own boundary:
it reads the masks of a Form as tuples through ``forms._gens`` and writes
its tuples back as masks.  Both must give the same Form term for term: the
same generator monomials, symbol monomials and coefficients, inserted in
the same order."""
from bisect import bisect_left
from math import lcm
from typing import List, Tuple

import pytest

from qcframe import coframe
from qcframe.forms import Form, GaussRational, Poly, _gens, differential
from qcframe.heisenberg import CHART, CHART_RULES, NCOORD, coord, dx, monomial
from qcframe.rules import build_rules

from test_kernel import synthetic_kernel


def mask(gens):
    """A generator tuple as the mask a Form is keyed by."""
    return sum(1 << g for g in gens)


def _merge_sign(m1: Tuple[int, ...], m2: Tuple[int, ...]):
    """Merge two strictly increasing tuples; return (sign, merged) or
    None if a generator repeats."""
    if len(m2) == 1:
        # one generator: bisect for its place; it jumps over the rest of m1
        g = m2[0]
        i = bisect_left(m1, g)
        if i < len(m1) and m1[i] == g:
            return None
        return (-1 if (len(m1) - i) % 2 else 1), m1[:i] + m2 + m1[i:]
    if len(m1) == 1:
        # one generator: it jumps over the first i generators of m2
        g = m1[0]
        i = bisect_left(m2, g)
        if i < len(m2) and m2[i] == g:
            return None
        return (-1 if i % 2 else 1), m2[:i] + m1 + m2[i:]
    out: List[int] = []
    sign = 1
    i = j = 0
    while i < len(m1) and j < len(m2):
        a, b = m1[i], m2[j]
        if a == b:
            return None
        if a < b:
            out.append(a)
            i += 1
        else:
            # b jumps over the remaining len(m1)-i generators of m1
            if (len(m1) - i) % 2:
                sign = -sign
            out.append(b)
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return sign, tuple(out)


class ReferenceKernel:
    """The tuple-keyed views of a DRuleSet's rules, built from its rule
    Forms and kept, and the derivative summed through them."""

    def __init__(self, rules):
        self.rules = rules
        self._views = {}
        self._shared = {}

    def view(self, key):
        """The rule of a generator index or a symbol as Gaussian integers
        over its lcm denominator: (den, rows), a row being (generator
        monomial, symbol monomials, real parts, imaginary parts)."""
        v = self._views.get(key)
        if v is None:
            rules = self.rules
            rule = rules.sym_rule(key) if not isinstance(key, int) else rules.gen_rule(key)
            den = lcm(*{c.d for p in rule.terms.values() for c in p.terms.values()})
            share = self._shared.setdefault
            rows = []
            for rm, p in rule.terms.items():
                cs = p.terms.values()
                monos = tuple(p.terms)
                res = tuple([c.a * (den // c.d) for c in cs])
                ims = tuple([c.b * (den // c.d) for c in cs])
                rows.append((_gens(rm), share(monos, monos), share(res, res),
                             share(ims, ims)))
            v = self._views[key] = (den, tuple(rows))
        return v

    def differential(self, x):
        rules = self.rules
        if x.ext is not rules.ext:
            raise ValueError("the form and the rule set are over different alphabets")
        view = self.view
        xden = lcm(*(c.d for p in x.terms.values() for c in p.terms.values()))
        cleared = []
        dens = set()
        for xmask, p in x.terms.items():
            mono = _gens(xmask)
            terms = []
            for smono, c in p.terms.items():
                f = xden // c.d
                terms.append((smono, c.a * f, c.b * f))
                for s in smono:
                    dens.add(view(s)[0])
            for g in mono:
                dens.add(view(g)[0])
            cleared.append((mono, terms))
        rden = lcm(*dens)
        acc = {}
        for mono, terms in cleared:
            for smono, a, b in terms:
                for k, s in enumerate(smono):
                    den, rows = view(s)
                    if rows:
                        rule_into(acc, ((smono[:k] + smono[k + 1:], a, b),), rows, mono,
                                  0, rden // den)
            for i, g in enumerate(mono):
                den, rows = view(g)
                if rows:
                    rule_into(acc, terms, rows, mono[:i] + mono[i + 1:], i, rden // den)
        den = xden * rden
        out = Form(x.ext)
        for key, cells in acc.items():
            coeffs = {m: GaussRational.from_ints(re, im, den)
                      for m, (re, im) in cells.items() if re or im}
            if coeffs:
                out.terms[mask(key)] = Poly._wrap(coeffs)
        return out


def rule_into(acc, t1, rows, mono, i, f):
    """acc += f * (-1)^(i (1 + |r|)) * (r ^ mono) * t1 over the rows r,
    on [re, im] cells keyed by generator tuple, then symbol tuple."""
    one = mono[0] if len(mono) == 1 else None
    for rm, monos, res, ims in rows:
        if one is not None:
            j = bisect_left(rm, one)
            if j < len(rm) and rm[j] == one:
                continue
            neg = (len(rm) - j) % 2 == 1
            key = rm[:j] + mono + rm[j:]
        elif len(rm) == 1:
            r = rm[0]
            j = bisect_left(mono, r)
            if j < len(mono) and mono[j] == r:
                continue
            neg = j % 2 == 1
            key = mono[:j] + rm + mono[j:]
        else:
            merged = _merge_sign(rm, mono)
            if merged is None:
                continue
            neg = merged[0] < 0
            key = merged[1]
        out = acc.get(key)
        if out is None:
            out = acc[key] = {}
        g = -f if neg != (i * (1 + len(rm)) % 2 == 1) else f
        for m1, a1, b1 in t1:
            if g != 1:
                a1, b1 = a1 * g, b1 * g
            for m2, a2, b2 in zip(monos, res, ims):
                m = tuple(sorted(m1 + m2)) if m1 and m2 else m1 + m2
                re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                cell = out.get(m)
                if cell is None:
                    out[m] = [re, im]
                else:
                    cell[0] += re
                    cell[1] += im


def ordered(f):
    """A Form's terms with both levels of insertion order kept."""
    return [(mono, list(p.terms.items())) for mono, p in f.terms.items()]


def assert_same(rules, forms):
    """d and d^2 of every form agree with the reference, in order."""
    ref = ReferenceKernel(rules)
    for label, x in forms:
        d_ref = ref.differential(x)
        d_new = differential(x, rules)
        assert ordered(d_new) == ordered(d_ref), label
        assert ordered(differential(d_new, rules)) == ordered(ref.differential(d_ref)), label


def primary(rules):
    ext = rules.ext
    return [(coframe.label(k), ext.gen(k)) for k in coframe.primary_keys(ext.n)]


@pytest.mark.parametrize("n, signature, tamper", [
    (1, None, None), (2, None, None), (3, None, None), (3, (2, 1), None),
    (1, None, "unsym-V"), (2, None, "unsym-V"), (1, None, "unsym-S"), (2, None, "unsym-S"),
])
def test_coframe_matches_reference(n, signature, tamper):
    """Every primary generator of the curved tables and of both controls;
    the controls leave d^2 nonzero, so surviving cells are compared too."""
    rules = build_rules(n, "curved", signature, tamper=tamper)
    assert_same(rules, primary(rules))


def test_wide_mask_matches_reference():
    """At n = 4 the alphabet has 78 generators, so masks pass 64 bits."""
    rules = build_rules(4, "curved")
    ext = rules.ext
    assert len(ext.labels) == 78
    key = ("Gam", 4, 8)  # the last Gamma rule reaches the high bits
    assert max(g for m in rules.gen_rule(ext.gid[key]).terms for g in _gens(m)) > 64
    assert_same(rules, [(coframe.label(key), ext.gen(key))])


def test_chart_matches_reference():
    """Coordinate monomials with powers times forms of several degrees:
    d takes one power off a repeated coordinate, and what is left is
    interned as a new symbol monomial."""
    forms = [("dx0 ^ dx1", dx(0) ^ dx(1))]
    for k, expo in enumerate([(2, 0, 1, 0, 0, 0, 3), (1, 1, 1, 1, 0, 0, 0),
                              (0, 0, 0, 2, 2, 0, 1)]):
        p = Poly({monomial(expo): GaussRational.from_ints(k + 1, -k, 3)})
        gens = tuple(range(k, min(NCOORD, k + 2 + k)))
        forms.append((f"{expo} {gens}", Form(CHART, {mask(gens): p})))
        forms.append((f"{expo} + x2", Form(CHART, {0: p}) + dx(k).scale(coord(2) * p)))
    assert_same(CHART_RULES, forms)


def test_synthetic_matches_reference():
    """Odd-degree rule terms and mixed denominators: every sign shape,
    among them rows of two or more generators placed against two or more.
    The rules' coefficients carry symbols, so this is the alphabet where
    two nonempty symbol monomials multiply, through the product table."""
    rules, _ = synthetic_kernel()
    ext = rules.ext
    forms = []
    for g in range(len(ext.labels)):
        forms.append((f"a{g}", Form(ext, {1 << g: Poly.const(1)})))
        forms.append((f"d a{g}", rules.gen_rule(g)))
    for g, h, k in [(0, 2, 5), (1, 3, 4), (5, 0, 1)]:
        forms.append((f"a{h} a{k} d a{g}",
                      Form(ext, {1 << h | 1 << k: Poly.const(1)}) ^ rules.gen_rule(g)))
    assert_same(rules, forms)
    assert rules._products
