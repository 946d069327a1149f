import pytest
from hypothesis import settings

from qcframe.gauss import gr
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
    """Encode eta_1 as eta_2, so two basis matrices of every model coincide."""
    encode = SpModel.to_matrix

    def to_matrix(self, x):
        if x.c == {("eta", 1): gr(1)}:
            x = self.basis(("eta", 2))
        return encode(self, x)

    monkeypatch.setattr(SpModel, "to_matrix", to_matrix)
