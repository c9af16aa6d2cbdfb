import pytest


@pytest.fixture(scope="session", autouse=True)
def adam_kernel_cache(tmp_path_factory):
    """Builds the compiled Adam kernel into a cache that lives for the
    session, not the user's ~/.cache/pgclab; the processes the tests start
    inherit it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield
