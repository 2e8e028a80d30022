import pytest

from baxter import field

# One line per acceptance criterion, printed after the run so the gate is
# visible even under captured output.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance gate")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def fresh_selector_cache():
    """Each selector's compiled system is cached per process by value
    (``search.compile_selector``), and so are Lemma2.1.1's systems
    (``claims._lemma211_sides``), so a test that patches something the
    replay of a selector reads starts from empty caches and leaves empty
    ones behind."""
    from baxter import claims, search

    caches = (search.compile_selector, claims._lemma211_sides)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture(scope="session")
def f2():
    return field(2)


@pytest.fixture(scope="session")
def f4():
    return field(2, 2, 0b111)


@pytest.fixture(scope="session")
def f8():
    return field(2, 3, 0b1011)


@pytest.fixture(scope="session")
def f3():
    return field(3)
