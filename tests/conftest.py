import pytest

from incidence_scrolls import grassmann, invariants


@pytest.fixture(autouse=True)
def cold_engine_caches():
    """Start every test with empty engine caches.

    No result then depends on which bases earlier tests computed, and a test
    that patches the kernel or a step of the recursion is not masked by a
    value cached before the patch.
    """
    invariants._nodes.clear()
    grassmann._point_coefficient.cache_clear()
