"""The signature case: the constants flip designated entries of g, and
every certificate must remain exact."""
import random

from qcframe.cochains import check_normality, random_components
from qcframe.model import SpModel, jacobi_residual, random_coord
from qcframe.rules import bianchi_residuals, build_rules, d_square_report


def test_curved_d_square_signature_01():
    rep = d_square_report(build_rules(1, "curved", (0, 1)))
    assert all(v.is_zero() for v in rep.values())


def test_curved_d_square_signature_21():
    rep = d_square_report(build_rules(3, "curved", (2, 1)))
    assert len(rep) == 43 and all(v.is_zero() for v in rep.values())


def test_bianchi_signature_01():
    assert all(v.is_zero() for v in bianchi_residuals(1, (0, 1)).values())


def test_jacobi_and_normality_signature_01(model_for):
    m = model_for(1, (0, 1))
    rng = random.Random(3)
    for _ in range(5):
        a, b, c = (random_coord(rng, m) for _ in range(3))
        assert jacobi_residual(m, a, b, c).is_zero()
    rep = check_normality(random_components(rng, m.consts), m)
    assert rep["normal"] and rep["direct_equals_closed"]


def test_normality_signature_11(model_for):
    m = model_for(2, (1, 1))
    rng = random.Random(5)
    rep = check_normality(random_components(rng, m.consts), m)
    assert rep["normal"] and rep["direct_equals_closed"]
