import sys
import threading

import pytest


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
