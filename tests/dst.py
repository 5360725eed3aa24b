"""The simulation harnesses' shared parts: an adversarial ``SimFleet``,
the chooser that drives it, the run targets and their task values, and
the long profile.

``tests/backends/test_dst.py`` runs one session on the fleet,
``tests/serve/test_dst.py`` a serve daemon.  Tier-1 runs each at a
fixed seed; ``--hypothesis-profile dst-long`` (registered here;
``tests/conftest.py`` imports this module so the flag finds it) draws
fresh ones.
"""

import functools
import heapq
import math

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro import api
from repro.apps.streams import stream_ops
from repro.runtime.backends.sim import SimFleet, records_within
from repro.runtime.config import RunConfig
from repro.runtime.task import as_stream_page

LONG = "dst-long"
settings.register_profile(LONG, max_examples=1000, deadline=None)
TIER1 = settings(max_examples=80, derandomize=True, database=None,
                 deadline=None, suppress_health_check=[HealthCheck.too_slow])
#: Where a report's records are in its payload, by kind.
REPORTED = {"done": 1, "error": 3}


class AdversarialFleet(SimFleet):
    """A :class:`SimFleet` whose ``recv`` chooses how each report
    arrives, from what a real fleet does; its clock never runs back.

    * **tie order** — events due at one instant, in any order: a
      pool's workers race their puts onto its one queue;
    * **late** — the worker stalls up to three chunk lengths, its
      report and record times with it, so a speculation deadline can
      pass first: a pool worker the OS deschedules (``slow``'s shape);
    * **lost** — the worker's death now, its report late, so the
      reclaimed tasks may run again and their results come twice: a dist
      host lost for silence (``_HostFleet._lose``) while its reader
      holds a read frame.  The slot heals as any does, once the held
      report is in (a lost host's report cannot follow its next life),
      and is not lost a second time: losses alone never trip the
      crash-loop breaker.

    No record ends after its report arrives, to the float (a late
    report's records are cut as ``SimFleet.send`` cuts them).  A worker is
    sent one chunk at a time: a send to a worker whose last chunk has
    not reported (nor the worker died) fails.
    """

    def __init__(self, p, machine, choose, pool_config=None):
        super().__init__(p, machine, pool_config)
        self.choose = choose
        #: Busy workers: when each was sent its chunk.
        self.sent_at = {}
        #: Slots lost once, and those whose report is still held.
        self.lost, self.holding = set(), set()

    def send(self, wid, message):
        assert wid not in self.sent_at, f"worker {wid} sent a second chunk"
        self.sent_at[wid] = self._clock
        super().send(wid, message)

    def _deadline(self, wid):
        return math.inf if wid in self.holding else super()._deadline(wid)

    def recv(self, timeout):
        events = self._events
        if (not events or events[0][0] > self._clock + timeout
                or self._due() <= events[0][0]):
            return super().recv(timeout)
        due = sorted(entry for entry in events if entry[0] == events[0][0])
        entry = due[0]
        if len(due) > 1:
            entry = due[self.choose(range(len(due)), "tie order")]
        finish, wid, event = entry[:3]
        at = REPORTED.get(event[0])
        fate = "now"
        if at and len(entry) == 3:
            fate = self.choose(
                ["now", "late"] + (["lost"] if wid not in self.lost else []),
                f"to {wid}",
            )
        events.remove(entry)
        heapq.heapify(events)
        if fate == "now":
            self._clock = finish
            self.holding.discard(wid)
            self.sent_at.pop(wid, None)
            if event[0] == "ready":
                return self._joined(wid)
            return event
        chunks = self.choose([1, 2, 3], "chunks late")
        by = chunks * (finish - self.sent_at[wid])
        if fate == "late":  # the worker stalled: its records move too
            event = _with_records(event, at, records_within([
                (i, start + by, d, v) for i, start, d, v in event[2][at]
            ], finish + by))
        heapq.heappush(events, (finish + by, wid, event, "held"))
        if fate == "late":
            return self.recv(timeout)
        self._clock = finish
        del self.sent_at[wid]
        self.lost.add(wid)
        self.holding.add(wid)
        return ("dead", wid, None)


def _with_records(event, at, records):
    kind, wid, payload = event
    return (kind, wid, payload[:at] + (records,) + payload[at + 1:])


def chooser(data):
    """Hypothesis's draws, or a recorded script of choices (a shrunk
    counterexample) replayed, then the first option of each.  A
    scripted choice the fleet did not offer raises: a replay never
    leaves the model it replays."""
    if not isinstance(data, tuple):
        return lambda options, label: data.draw(
            st.sampled_from(options), label=label
        )
    script = iter(data)

    def scripted(options, label):
        choice = next(script, options[0])
        if choice not in options:
            raise ValueError(f"script chose {choice!r} for {label!r}, "
                             f"offered {list(options)}")
        return choice

    return scripted


@functools.lru_cache(maxsize=None)
def target(name):
    """``(ops, deps, task values by op)`` for a run target."""
    if name == "stream":
        (op,) = stream_ops(records=4_000, records_per_task=100,
                           page_records=600)
        payloads = [payload for page in op.open_source()
                    for payload in as_stream_page(page).payloads]
        return [op], [set()], {op.name: [op.kernel(x) for x in payloads]}
    ops, deps, _label = api.resolve_ops(name, RunConfig(backend="mp"))
    return ops, deps, {op.name: [op.kernel(x) for x in op.payloads]
                       for op in ops}

