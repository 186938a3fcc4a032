"""Session set-up shared by the test files.

The BLAS thread pools are pinned to one thread before numpy is imported, as
``bench/run.py`` pins them: ``run`` forks its conservative worker only in a
process that runs no other thread, and the worker's tests need it to fork.
The guard below fails the session when a child process of pytest outlives
it, so that a worker ``run`` did not reap shows as a failure here.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402

from builders import children  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def no_child_outlives_the_session():
    yield
    left = children()
    if left:
        pytest.fail(f"child processes of the test session were left behind: {left}")
