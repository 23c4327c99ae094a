import numpy as np
import pytest

from mekiv import krr


@pytest.fixture
def decompositions(monkeypatch):
    """Counts of Cholesky and symmetric eigendecomposition calls made through
    numpy and through scipy as ``krr`` sees it, while the test runs."""
    counts = {"cholesky": 0, "eigh": 0}

    def counted(kind, func):
        def call(*args, **kwargs):
            counts[kind] += 1
            return func(*args, **kwargs)

        return call

    for owner in (krr.scipy.linalg, np.linalg):
        monkeypatch.setattr(owner, "cholesky", counted("cholesky", owner.cholesky))
        monkeypatch.setattr(owner, "eigh", counted("eigh", owner.eigh))
    return counts


@pytest.fixture
def gram_eigh_sizes(monkeypatch):
    """Sizes of the Gram matrices eigendecomposed through ``krr.gram_eigh``,
    in call order, while the test runs."""
    sizes = []
    gram_eigh = krr.gram_eigh

    def counted(z, kernel):
        sizes.append(len(z))
        return gram_eigh(z, kernel)

    monkeypatch.setattr(krr, "gram_eigh", counted)
    return sizes
