import ast
import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import qcframe.gauss
from qcframe.gauss import (HALF, I, ONE, ZERO, GaussRational, axpy, cleared, gr,
                           random_gauss, random_gauss_ints)


def test_field_operations_exact():
    a = gr(Fraction(1, 3), Fraction(-2, 7))
    b = gr(Fraction(5, 2), Fraction(1, 6))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * b == b * a
    assert (a + b) * (a - b) == a * a - b * b


def test_conjugation_and_norm():
    a = gr(3, -4)
    assert a.conj() == gr(3, 4)
    assert (a * a.conj()) == gr(25)
    assert a.conj().conj() == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


def test_division_by_int_matches_division_by_its_scalar():
    for x in (gr(3, 6), gr(Fraction(-2, 3), Fraction(5, 7)), gr(0)):
        for k in (1, 2, -3, 12):
            assert_matches(x / k, (x.re / k, x.im / k))
            assert x / k == x / gr(k)
    with pytest.raises(ZeroDivisionError):
        gr(1) / 0


def test_int_coercion():
    assert 2 * gr(1, 1) == gr(2, 2)
    assert gr(1, 1) + 1 == gr(2, 1)
    assert 1 - gr(0, 1) == gr(1, -1)
    assert gr(1) / 2 == gr(Fraction(1, 2))


def test_repr_roundtrip_shapes():
    assert repr(gr(3)) == "3"
    assert repr(gr(0, 1)) == "1*i"
    assert "i" in repr(gr(1, -2))


# -- properties against a reference pair of Fractions -------------------------

rats = st.fractions(min_value=-50, max_value=50, max_denominator=12)
nonzero_rats = rats.filter(bool)
ints = st.integers(-30, 30)
scalars = st.one_of(ints, rats)
pairs = st.tuples(rats, rats)
nonzero_pairs = pairs.filter(any)


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm


def ref_repr(re, im):
    """The expected repr: the nonzero parts as Fractions, i marking im."""
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}*i"
    return f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"


def assert_matches(z, ref):
    """z is the canonical triple of the value ref = (re, im)."""
    assert isinstance(z, GaussRational)
    assert z.d > 0
    assert gcd(z.a, z.b, z.d) == 1
    if ref == (0, 0):
        assert (z.a, z.b, z.d) == (0, 0, 1)
    assert (z.re, z.im) == ref
    for part in (z.re, z.im):
        assert type(part) is Fraction
        assert gcd(part.numerator, part.denominator) == 1


@given(pairs, pairs)
def test_ring_operations_match_reference(x, y):
    gx, gy = gr(*x), gr(*y)
    assert_matches(gx, x)
    assert_matches(gx + gy, (x[0] + y[0], x[1] + y[1]))
    assert_matches(gx - gy, (x[0] - y[0], x[1] - y[1]))
    assert_matches(gx * gy, ref_mul(x, y))
    assert_matches(-gx, (-x[0], -x[1]))
    if any(y):
        assert_matches(gx / gy, ref_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            gx / gy


@given(pairs, scalars)
def test_int_and_fraction_coercion_on_both_sides(x, k):
    g = gr(*x)
    assert_matches(g + k, (x[0] + k, x[1]))
    assert_matches(k + g, (x[0] + k, x[1]))
    assert_matches(g - k, (x[0] - k, x[1]))
    assert_matches(k - g, (k - x[0], -x[1]))
    assert_matches(g * k, (x[0] * k, x[1] * k))
    assert_matches(k * g, (x[0] * k, x[1] * k))
    if k:
        assert_matches(g / k, (x[0] / k, x[1] / k))
    if any(x):
        assert_matches(k / g, ref_div((Fraction(k), Fraction(0)), x))


@given(pairs, scalars)
def test_conj_equality_hash_and_repr(x, k):
    g = gr(*x)
    assert_matches(g.conj(), (x[0], -x[1]))
    assert repr(g) == ref_repr(*x)
    # a real value hashes like the equal Fraction, any other like (re, im)
    assert hash(g) == (hash(x[0]) if x[1] == 0 else hash(x))
    assert (g == k) == (x == (k, 0))
    assert (g == x[0]) == (x[1] == 0)
    assert (g == x[0].numerator) == (x[1] == 0 and x[0].denominator == 1)
    assert (g == gr(k)) == (x == (k, 0))
    assert g.is_zero() == (x == (0, 0)) == (not g)
    assert g.is_real() == (x[1] == 0)



@pytest.mark.parametrize("value", [3, Fraction(1, 3), -1, Fraction(-7, 2), 0])
def test_real_values_hash_like_int_and_fraction(value):
    """== with int and Fraction agrees with hash, so a set keeps one."""
    assert len({gr(value), value, Fraction(value)}) == 1
    assert {gr(value): "g"}[value] == "g"


@given(pairs, nonzero_pairs, nonzero_rats)
def test_one_representation_per_value(x, y, s):
    """Values reached by different routes are the same triple."""
    g, h = gr(*x), gr(*y)
    for z in ((g * h) / h, (g + h) - h, g.conj().conj(), -(-g),
              gr(x[0] * s, x[1] * s) / s):
        assert (z.a, z.b, z.d) == (g.a, g.b, g.d)
        assert z == g and hash(z) == hash(g)
    assert (g - g).is_zero() and (g - g) == 0


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6).filter(bool))
def test_from_ints_reduces(a, b, d):
    assert_matches(GaussRational.from_ints(a, b, d), (Fraction(a, d), Fraction(b, d)))


def test_from_ints_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        GaussRational.from_ints(1, 0, 0)


def test_parts_are_read_only():
    g = gr(Fraction(1, 2), 3)
    with pytest.raises(AttributeError):
        g.re = Fraction(1)
    assert (g.a, g.b, g.d) == (1, 6, 2)


def test_no_float_in_scalar_layer():
    tree = ast.parse(Path(qcframe.gauss.__file__).read_text())
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float))
        assert not (isinstance(node, ast.Name) and node.id == "float")
    with pytest.raises(TypeError):
        gr(0.5)


def test_of_keeps_zero_and_refuses_other_types():
    # ZERO is falsy but a value: of() must not take it for a refusal
    assert GaussRational.of(ZERO) is ZERO
    assert GaussRational.of(0) == ZERO
    assert GaussRational.of(Fraction(1, 2)) == HALF
    for bad in (0.5, "1", None, 1j):
        with pytest.raises(TypeError):
            GaussRational.of(bad)


# -- sparse vectors and Gaussian integers --------------------------------------

def test_axpy_drops_what_cancels_and_only_reads_coords():
    acc = {"x": gr(1, 2), "y": HALF}
    coords = {"x": gr(-1, -2), "z": I}
    before = dict(coords)
    axpy(acc, ONE, coords)
    assert acc == {"y": HALF, "z": I} and list(acc) == ["y", "z"]
    assert coords == before and all(coords[k] is before[k] for k in coords)
    axpy(acc, -ONE, {"y": HALF, "w": ONE})
    assert acc == {"z": I, "w": -ONE}


def test_axpy_zero_coefficient_is_a_no_op():
    acc = {"x": ONE}
    axpy(acc, ZERO, {"x": -ONE, "y": I})
    assert acc == {"x": ONE}


sparse = st.dictionaries(st.integers(0, 6), nonzero_pairs.map(lambda p: gr(*p)), max_size=6)


@given(sparse, sparse, scalars.map(gr))
def test_axpy_matches_reference(acc, coords, coeff):
    want = {k: acc.get(k, ZERO) + coeff * coords.get(k, ZERO) for k in {*acc, *coords}}
    axpy(acc, coeff, coords)
    assert acc == {k: v for k, v in want.items() if v}


def test_cleared_over_the_lcm_in_order():
    values = [gr(Fraction(1, 4), Fraction(1, 6)), HALF, gr(0, Fraction(-1, 3)), gr(2)]
    assert cleared(values) == (12, [(3, 2), (6, 0), (0, -4), (24, 0)])
    assert cleared({"a": HALF, "b": I}.values()) == (2, [(1, 0), (0, 2)])


def test_cleared_empty_has_denominator_one():
    assert cleared([]) == (1, [])


@given(st.lists(pairs, max_size=8))
def test_cleared_rebuilds_every_value(parts):
    values = [gr(*p) for p in parts]
    den, ints = cleared(values)
    assert [GaussRational.from_ints(re, im, den) for re, im in ints] == values
    assert den == lcm(*(v.d for v in values))


class _Scripted:
    """A generator whose ``getrandbits`` returns the given (k, r) outputs in
    order, each only when asked for exactly k bits and with r < 2**k."""

    def __init__(self, *outputs):
        self.outputs = list(outputs)

    def getrandbits(self, k):
        want, r = self.outputs.pop(0)
        assert k == want and 0 <= r < 2 ** k
        return r


def _script(reject, *draws):
    """A scripted generator giving the (k, offset) draws in order; with
    ``reject`` each comes after one rejected output 2**k - 1, which is at
    least the width (11 for span 5 at k = 4, 3 for den 3 at k = 2)."""
    outputs = []
    for k, r in draws:
        if reject:
            outputs.append((k, 2 ** k - 1))
        outputs.append((k, r))
    return _Scripted(*outputs)


def test_random_gauss_matches_fraction_parts():
    """a/d1 + (b/d2) i from the draws a, d1, b, d2, as the same triple the
    Fraction constructor gives, over the whole grid of draws.  Span 5 asks
    for 4 bits and den 3 for 2; a draw is its offset from the range start."""
    for a, b, d1, d2 in itertools.product(range(-5, 6), range(-5, 6), (1, 2, 3), (1, 2, 3)):
        for reject in (False, True):
            rng = _script(reject, (4, a + 5), (2, d1 - 1), (4, b + 5), (2, d2 - 1))
            v = random_gauss(rng, 5, 3)
            w = GaussRational(Fraction(a, d1), Fraction(b, d2))
            assert (v.a, v.b, v.d) == (w.a, w.b, w.d) and not rng.outputs
            rng = _script(reject, (4, a + 5), (2, d1 - 1))
            v = random_gauss(rng, 5, 3, real=True)
            w = GaussRational(Fraction(a, d1))
            assert (v.a, v.b, v.d) == (w.a, w.b, w.d) and not rng.outputs


@pytest.mark.parametrize("span,den", [(-1, 3), (4, 0), (2, -1), (-3, 0)])
def test_random_gauss_refuses_an_empty_range(span, den):
    """An empty range raises before any bits are drawn: the scripted
    generator has no output, so a draw would fail with IndexError."""
    for real in (False, True):
        with pytest.raises(ValueError, match="empty draw range"):
            random_gauss(_Scripted(), span, den, real)


def _randint_reference(rng, span, den, real):
    re = Fraction(rng.randint(-span, span), rng.randint(1, den))
    return GaussRational(re) if real else GaussRational(
        re, Fraction(rng.randint(-span, span), rng.randint(1, den)))


def _sequence_mismatches(drawer, batch=0):
    """The (span, den, real, seed) cases, span 0..6 and den 1..4, on which
    200 draws of ``drawer`` differ from the ``randint`` reference in a value
    or in the generator state afterwards.  ``drawer(rng, span, den, real)``
    gives one value; with ``batch``, ``drawer(rng, span, den, count, real)``
    gives ``count`` values as (L, pairs), drawn ``batch`` at a time, and
    each must be the reference value times L = lcm(1..den), over L."""
    bad = set()
    for span, den, real, seed in itertools.product(range(7), range(1, 5), (False, True),
                                                   range(10)):
        rng, ref = random.Random(seed), random.Random(seed)
        want = [_randint_reference(ref, span, den, real) for _ in range(200)]
        if batch:
            L, got = lcm(*range(1, den + 1)), []
            while len(got) < 200:
                den_out, pairs = drawer(rng, span, den, min(batch, 200 - len(got)), real)
                got += [(re, im, den_out) for re, im in pairs]
            want = [(w.a * (L // w.d), w.b * (L // w.d), L) for w in want]
        else:
            got = [(v.a, v.b, v.d) for v in (drawer(rng, span, den, real) for _ in range(200))]
            want = [(w.a, w.b, w.d) for w in want]
        if got != want or rng.getstate() != ref.getstate():
            bad.add((span, den, real, seed))
    return bad


def test_random_gauss_is_the_randint_sequence():
    """Every value and the generator state equal those of Fraction(randint,
    randint) draws, also for span 0 and den 1, whose one-value ranges
    still consume bits."""
    assert _sequence_mismatches(random_gauss) == set()


def test_random_gauss_sequence_catches_a_bit_count_slip():
    """Negative control: a drawer asking for (width - 1).bit_length() bits
    gives the same distribution, but diverges wherever a width is a power
    of two (span 0, den 1, 2 or 4), and only there."""

    def draw(rng, lo, width):
        k = (width - 1).bit_length()
        r = rng.getrandbits(k)
        while r >= width:
            r = rng.getrandbits(k)
        return lo + r

    def slipped(rng, span, den, real):
        a, d1 = draw(rng, -span, 2 * span + 1), draw(rng, 1, den)
        if real:
            return GaussRational(Fraction(a, d1))
        return GaussRational(Fraction(a, d1), Fraction(draw(rng, -span, 2 * span + 1),
                                                        draw(rng, 1, den)))

    want = {(span, den, real, seed)
            for span, den, real, seed in itertools.product(range(7), range(1, 5),
                                                           (False, True), range(10))
            if span == 0 or den in (1, 2, 4)}
    assert _sequence_mismatches(slipped) == want


def test_random_gauss_draw_count():
    """A complex value takes four draws and a real one two, so the
    generator moves on as it does for that many ``randint`` calls."""
    for real, draws in ((False, 4), (True, 2)):
        rng, ref = random.Random(5), random.Random(5)
        random_gauss(rng, 4, 3, real)
        for _ in range(draws // 2):
            ref.randint(-4, 4), ref.randint(1, 3)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("batch", [7, 200])
def test_random_gauss_ints_is_the_randint_sequence(batch):
    """The batched draw gives the randint values and generator state in
    calls of 7 values (the last one of 4) and of 200, each value as a
    Gaussian integer over lcm(1..den).  Calls of one value are
    ``random_gauss``, checked above."""
    assert _sequence_mismatches(random_gauss_ints, batch) == set()


def test_random_gauss_ints_sequence_catches_a_wrong_denominator():
    """Negative control: a drawer that reports L = lcm(1..den) but scales
    each part by den // d (the wrong L) gives wrong pairs wherever den is
    not lcm(1..den), den 3 and 4, unless every numerator is 0 (span 0)."""

    def wrong(rng, span, den, count, real):
        L, out = lcm(*range(1, den + 1)), []
        for _ in range(count):
            a, d1 = rng.randint(-span, span), rng.randint(1, den)
            b, d2 = (0, 1) if real else (rng.randint(-span, span), rng.randint(1, den))
            out.append((a * (den // d1), b * (den // d2)))
        return L, out

    want = {(span, den, real, seed)
            for span, den, real, seed in itertools.product(range(7), range(1, 5),
                                                           (False, True), range(10))
            if span and den in (3, 4)}
    assert _sequence_mismatches(wrong, 7) == want


def test_random_gauss_ints_count_zero_draws_nothing():
    """count 0 gives L and no pair, and reads no bits: the scripted
    generator has no output, and a real one keeps its state."""
    for real in (False, True):
        assert random_gauss_ints(_Scripted(), 4, 3, 0, real) == (6, [])
        rng = random.Random(2)
        state = rng.getstate()
        assert random_gauss_ints(rng, 4, 3, 0, real) == (6, [])
        assert rng.getstate() == state


@pytest.mark.parametrize("span,den", [(-1, 3), (4, 0), (2, -1), (-3, 0)])
def test_random_gauss_ints_refuses_an_empty_range(span, den):
    """An empty range raises before any bits are drawn, for any count."""
    for real, count in itertools.product((False, True), (0, 1, 5)):
        with pytest.raises(ValueError, match="empty draw range"):
            random_gauss_ints(_Scripted(), span, den, count, real)
