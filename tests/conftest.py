import pytest
from hypothesis import settings

from qcframe.model import SpModel

# property tests: a fixed example sequence, no wall-clock deadline and no
# example database, so they cannot flake on a slow machine
settings.register_profile("qcframe", derandomize=True, deadline=None,
                          max_examples=150, database=None)
settings.load_profile("qcframe")

_MODELS = {}


@pytest.fixture(scope="session")
def model_for():
    """Session-cached sp(n+1,1) models."""
    def get(n, signature=None):
        key = (n, tuple(signature) if signature else (n, 0))
        if key not in _MODELS:
            _MODELS[key] = SpModel(n, signature)
        return _MODELS[key]
    return get


@pytest.fixture
def dependent_basis(monkeypatch):
    """Write eta_1 into the template wherever eta_2 is, with eta_2's
    coefficient, and nowhere else, so that the eta_1 and eta_2 basis
    matrices of every model coincide."""
    template = SpModel._template
    eta1, eta2 = ("eta", 1), ("eta", 2)

    def _template(self):
        out = []
        for pos, ts in template(self):
            ts = tuple(t for t in ts if t[0] != eta1)
            out.append((pos, ts + tuple((eta1, coeff) for key, coeff in ts if key == eta2)))
        return tuple(out)

    monkeypatch.setattr(SpModel, "_template", _template)
