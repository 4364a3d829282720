import os

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
)
hypothesis.settings.load_profile("suite")


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process, running or unreaped; the
    unreaped ones are reaped, so the next test starts clean."""
    yield
    left = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        left.append(pid)
        if pid == 0:  # one still running
            break
    if left:
        pytest.fail(f"the test left child processes behind (waitpid gave {left})")
