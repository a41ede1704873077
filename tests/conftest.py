import sys
import threading

import pytest


@pytest.fixture(autouse=True)
def cold_store():
    """Start each test with quadrature's store of kept refinements and identities'
    stored series heads (`_series_head`) and odd chains (`_odd_chain`) empty, as
    in a fresh process, so that a test reading a store or counting panels or
    calls sees only its own work.  A module not yet imported has nothing to
    clear, and the fixture imports nothing."""
    quadrature = sys.modules.get("zeta_recur.quadrature")
    if quadrature is not None:
        quadrature._kept_run.cache_clear()
    identities = sys.modules.get("zeta_recur.identities")
    if identities is not None:
        identities._series_head.cache_clear()
        identities._odd_chain.cache_clear()


@pytest.fixture
def in_threads():
    """Run work(i) for i in range(count) on as many threads at once, switching
    every microsecond so that their steps interleave; return the results in order."""

    def run(work, count):
        start = threading.Barrier(count)
        results = [None] * count

        def worker(i):
            start.wait()
            results[i] = work(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(count)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return results

    return run
