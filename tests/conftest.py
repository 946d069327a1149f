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
