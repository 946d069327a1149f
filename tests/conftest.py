import pytest

from qcframe.model import SpModel

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
