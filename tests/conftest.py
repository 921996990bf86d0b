import pytest

from fracprec import spectral


@pytest.fixture
def pools():
    """The bundled OpenBLAS pools, set to two threads for the test, so that
    one thread seen inside a call is the limiter's doing; each pool gets its
    own count back afterwards."""
    pools = spectral._openblas_pools()
    before = [get() for get, _ in pools]
    for _, put in pools:
        put(2)
    yield pools
    for (_, put), count in zip(pools, before):
        put(count)
