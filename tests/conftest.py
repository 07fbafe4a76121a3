import contextlib
import io
from types import SimpleNamespace

import pytest

from slotgnn.cli import main


@pytest.fixture(scope="session")
def bundled_gradcheck(tmp_path_factory):
    """One ``slotgnn gradcheck`` of the bundled fixture, a full-coordinate
    check that takes seconds: its exit code, output directory, stdout and
    stderr."""
    out = tmp_path_factory.mktemp("gc")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["gradcheck", "--out", str(out)])
    return SimpleNamespace(code=code, out=out, stdout=stdout.getvalue(), err=stderr.getvalue())
