import pytest
from hypothesis import settings

from threshold_lab.atlas import atlas_level
from threshold_lab.graphs import Graph

# No per-example deadline: a shared host can run 1.5x slower for minutes at a
# time, which would make the default 200 ms deadline flaky. The example count
# is bounded so the property tests keep a predictable share of the suite.
settings.register_profile("threshold-lab", deadline=None, max_examples=100)
settings.load_profile("threshold-lab")


class _Atlas:
    """Lazy per-level atlas cache shared across the session."""

    def __init__(self):
        self._levels = [[Graph.empty(0)]]

    def __getitem__(self, n: int):
        while len(self._levels) <= n:
            self._levels.append(atlas_level(self._levels[-1]))
        return self._levels[n]

    def up_to(self, n: int):
        for k in range(n + 1):
            yield from self[k]


@pytest.fixture(scope="session")
def atlas_by_n():
    return _Atlas()
