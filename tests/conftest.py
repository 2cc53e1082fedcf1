import tracemalloc

import pytest


@pytest.fixture
def peak_bytes():
    """peak_bytes(run): the most memory, in bytes, that tracemalloc sees
    allocated at once while run() runs."""
    def measure(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
