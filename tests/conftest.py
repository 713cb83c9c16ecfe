import os

import pytest


@pytest.fixture(autouse=True)
def no_leaked_child():
    """Fail a test that leaves a child process behind, running or exited:
    the forked counting workers must all be reaped, also when a chunk
    raises."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind "
                f"({f'pid {pid}, now reaped' if pid else 'still running'})")
