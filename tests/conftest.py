import pytest

from renege import Uniform, cli, iid_source


@pytest.fixture
def bounded_src():
    """Subcritical bounded scenario: renovation epochs are frequent."""
    return iid_source(Uniform(0.5, 1.5), Uniform(0.0, 0.8), Uniform(0.0, 0.4), seed=424242)


@pytest.fixture(autouse=True)
def no_pool():
    """Each test starts and ends without the CLI's worker pool: its workers
    are forked once, so a pool kept from one test would run the next test's
    rows with the module state of its fork."""
    cli._drop_pool()
    yield
    cli._drop_pool()
