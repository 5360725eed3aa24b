"""Servers for the serve tests: on worker processes, or in simulated
time on a :class:`SimFleet`, stepped by hand."""

from repro.runtime.backends.pool import WorkerPool
from repro.runtime.backends.sim import SimFleet
from repro.runtime.config import RunConfig
from repro.serve.server import JobServer


def process_server(processors=2, pool_config=None, **kwargs):
    """A started daemon on a started pool of ``processors`` workers."""
    pool = WorkerPool(processors, pool_config=pool_config)
    pool.start()
    server = JobServer(pool, **kwargs)
    server.start()
    return server


def sim_server(processors=2, pool_config=None, **kwargs):
    """A daemon on a :class:`SimFleet` that starts no thread: its jobs
    run as :func:`turn_until` steps the router.  Costs are declared, so
    sessions and the cross-job Eq. 1 both price work in work units."""
    kwargs.setdefault("base_config", RunConfig(cost_source="declared"))
    fleet = SimFleet(processors, pool_config=pool_config)
    return JobServer(fleet, **kwargs)


def turn_until(server, predicate, turns=20_000):
    """Step the router until ``predicate()`` holds; fails if it never
    does within ``turns`` turns."""
    wait = 0.0
    for _ in range(turns):
        if predicate():
            return
        wait = server._turn(wait)
    raise AssertionError(f"not within {turns} turns: {predicate}")
