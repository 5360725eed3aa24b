"""Serve-suite fixtures: daemons drained at teardown."""

import pytest

from .servers import process_server


@pytest.fixture
def make_server(tmp_path):
    """``make_server(**kwargs)``: a started daemon on two worker
    processes, its state in ``tmp_path``, drained after the test."""
    made = []

    def make(**kwargs):
        kwargs.setdefault("state_dir", str(tmp_path / "state"))
        made.append(process_server(2, **kwargs))
        return made[-1]

    yield make
    for server in made:
        server.drain("test teardown")
