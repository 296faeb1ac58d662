"""The spherical-wave kernel's row groups on threads: the same bits at any thread budget.

``threads.kernel_budget`` is replaced here, so the parallel path runs with
two threads even on a one-core host.
"""

import threading
from contextlib import contextmanager
from multiprocessing import get_all_start_methods, get_context

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearmimo import threads
from nearmimo.channel import _spherical_wave
from nearmimo.errors import SingularGeometryError

WAVELENGTH = 299792458.0 / 6.8e9
# plain calls split from 32 blocks of 16,384 / s rows, i.e. from m = 125 at s = 4,000;
# weighted calls halve their blocks and split from m = 64 at s = 350
SPLIT = settings(derandomize=True, max_examples=20, deadline=None)


@contextmanager
def budget(n):
    """Run the kernel with a budget of ``n`` threads; record each call's span count."""
    saved_budget, saved_run = threads.kernel_budget, threads.run_spans
    spans = []

    def run(fill, parts):
        spans.append(len(parts))
        saved_run(fill, parts)

    threads.kernel_budget, threads.run_spans = (lambda: n), run
    try:
        yield spans
    finally:
        threads.kernel_budget, threads.run_spans = saved_budget, saved_run


def scatter(seed, m, s, sets=0):
    """Antennas near the origin, points 2-9 m away; ``sets`` > 0 gives weighted (N, S, 3) points."""
    rng = np.random.default_rng(seed)
    antennas = rng.uniform(-1.0, 1.0, (m, 3))
    points = rng.uniform(2.0, 9.0, (sets, s, 3) if sets else (s, 3))
    weights = rng.standard_normal(sets) + 1j * rng.standard_normal(sets) if sets else None
    return antennas, points, weights


def both_budgets(antennas, points, **kw):
    """The kernel's output at budgets 1 and 2, and the span count of the budget-2 call."""
    with budget(1):
        one = _spherical_wave(antennas, points, WAVELENGTH, **kw)
    with budget(2) as spans:
        two = _spherical_wave(antennas, points, WAVELENGTH, **kw)
    return one, two, spans[0]


@SPLIT
@given(m=st.integers(60, 200), s=st.integers(2500, 4500), divide=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(m=127, s=4000, divide=False, seed=1)  # 32 blocks, 4 rows each, the last short
@example(m=124, s=4000, divide=True, seed=2)  # 31 blocks: serial
def test_plain_calls_equal_at_two_threads(m, s, divide, seed):
    antennas, points, _ = scatter(seed, m, s)
    one, two, _ = both_budgets(antennas, points, divide=divide)
    np.testing.assert_array_equal(one, two)


@SPLIT
@given(m=st.integers(40, 200), s=st.integers(150, 500), sets=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
@example(m=64, s=350, sets=2, seed=3)  # 32 blocks of 2 rows
@example(m=62, s=350, sets=4, seed=4)  # 31 blocks: serial
def test_weighted_calls_equal_at_two_threads(m, s, sets, seed):
    antennas, points, weights = scatter(seed, m, s, sets)
    one, two, _ = both_budgets(antennas, points, divide=True, weights=weights)
    np.testing.assert_array_equal(one, two)


@pytest.mark.parametrize("m, sets, split", [(124, 0, 1), (127, 0, 2), (62, 2, 1), (64, 2, 2)])
def test_size_rule_splits_from_32_blocks(m, sets, split):
    # the examples above sit on both sides of the rule: 16 blocks a thread at least
    s = 4000 if not sets else 350
    antennas, points, weights = scatter(5, m, s, sets)
    _, _, spans = both_budgets(antennas, points, weights=weights)
    assert spans == split


def test_error_in_a_later_group_reaches_the_caller_and_the_next_call_works():
    antennas, points, _ = scatter(6, 160, 4000)
    bad = antennas.copy()
    bad[-1] = points[0]  # the last row belongs to the second group
    with budget(2) as spans:
        with pytest.raises(SingularGeometryError):
            _spherical_wave(bad, points, WAVELENGTH, divide=True)
        assert spans == [2]
    one, two, spans = both_budgets(antennas, points, divide=True)
    assert spans == 2
    np.testing.assert_array_equal(one, two)


def test_a_small_call_starts_no_thread(monkeypatch):
    monkeypatch.setattr(threads, "_pool", None)
    antennas, points, _ = scatter(7, 288, 75)
    before = threading.active_count()
    with budget(2) as spans:
        _spherical_wave(antennas, points, WAVELENGTH, divide=True)
        assert spans == [1]
        assert threading.active_count() == before
        big = scatter(8, 128, 4000)
        _spherical_wave(big[0], big[1], WAVELENGTH)
        assert spans == [1, 2]
        assert threading.active_count() == before + 1
    threads._pool.shutdown()


def _call_and_check(antennas, points, expected):
    with budget(2) as spans:
        assert np.array_equal(_spherical_wave(antennas, points, WAVELENGTH), expected)
        assert spans == [2]


@pytest.mark.skipif("fork" not in get_all_start_methods(), reason="no fork on this platform")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_builds_its_own_pool():
    # a pool inherited through fork has no live threads: work handed to it would never run
    antennas, points, _ = scatter(9, 128, 4000)
    with budget(1):
        expected = _spherical_wave(antennas, points, WAVELENGTH)
    _call_and_check(antennas, points, expected)  # the parent's pool now has an idle thread
    child = get_context("fork").Process(target=_call_and_check, args=(antennas, points, expected))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's kernel call did not finish")
    assert child.exitcode == 0


def test_thread_budget_rule():
    assert threads.thread_budget(2, 1) == 2
    assert threads.thread_budget(2, 2) == 1
    assert threads.thread_budget(1) == 1
    assert threads.thread_budget(1, 2) == 1


def test_a_pool_worker_shares_the_cores(monkeypatch):
    from nearmimo import harness

    monkeypatch.setattr(threads, "_sharing", 1)
    monkeypatch.setattr(harness, "_worker_ctx", None)
    alone = threads.kernel_budget()
    harness._init_worker(harness.SweepContext(harness.desk_profile(workers=2)))
    assert threads.kernel_budget() == threads.thread_budget(alone, 2)
