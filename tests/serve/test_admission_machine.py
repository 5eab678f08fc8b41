"""A Hypothesis state machine over ``AdmissionQueue`` and ``Coalescer``.

These two are the front half of a worker's path in ``repro-serve``: a
request's grid points are admitted to the queue all-or-nothing, and a
worker that takes a point leases its cache key, so identical in-flight
points compute once.  The machine drives both with random interleavings
of ``put_batch``, ``get``, ``close``, ``lease`` and ``resolve`` on one
event loop, and checks them against a plain model:

* the queued count equals the heap size, and no client holds more than
  its quota;
* a rejected batch (full queue, quota, closed) changes nothing;
* ``get`` returns the model's next item by priority, then fairness rank,
  then arrival;
* a key has one leader while it is in flight, and every follower gets
  the leader's result, or its exception, when the leader resolves.
"""

from __future__ import annotations

import asyncio
import itertools

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.serve.coalesce import Coalescer
from repro.serve.queue import (
    AdmissionQueue,
    ClientQuotaExceeded,
    QueueClosed,
    QueueFull,
)

CAPACITY = 8
PER_CLIENT = 3
CLIENTS = ("a", "b", "c")
KEYS = ("k0", "k1", "k2")


class Failed(Exception):
    """A leader's computation failing."""


class AdmissionMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.queue = AdmissionQueue(capacity=CAPACITY, per_client=PER_CLIENT)
        self.coalescer = Coalescer()
        self.closed = False
        # Model of the queue: (-priority, rank, arrival, client, item).
        self.queued: list[tuple[int, int, int, str, str]] = []
        self.ranks: dict[tuple[int, str], int] = {}
        self.arrivals = itertools.count()
        # Model of the coalescer: key -> (leader's future, follower tasks).
        self.inflight: dict[str, tuple[asyncio.Future, list[asyncio.Task]]] = {}
        self.leads = self.hits = 0

    def _run(self, coro):
        return self.loop.run_until_complete(coro)

    def _held(self, client: str) -> int:
        return sum(1 for entry in self.queued if entry[3] == client)

    # -- queue ---------------------------------------------------------

    @rule(
        client=st.sampled_from(CLIENTS),
        priority=st.integers(0, 2),
        n=st.integers(0, 4),
    )
    def put_batch(self, client, priority, n):
        arrival = next(self.arrivals)
        items = [f"{client}-{arrival}-{i}" for i in range(n)]
        before = self.queue.snapshot()
        if self.closed:
            expected = QueueClosed
        elif not items:
            expected = None
        elif len(self.queued) + n > CAPACITY:
            expected = QueueFull
        elif self._held(client) + n > PER_CLIENT:
            expected = ClientQuotaExceeded
        else:
            expected = None
        if expected is not None:
            with pytest.raises(expected):
                self.queue.put_batch(items, client=client, priority=priority)
            assert self.queue.snapshot() == before
            return
        self.queue.put_batch(items, client=client, priority=priority)
        rank = self.ranks.get((priority, client), 0)
        for item in items:
            self.queued.append((-priority, rank, next(self.arrivals), client, item))
            rank += 1
        if items:
            self.ranks[priority, client] = rank

    @rule()
    def get(self):
        if self.queued:
            entry = min(self.queued)
            assert self._run(self.queue.get()) == entry[4]
            self.queued.remove(entry)
            client = entry[3]
            if not self._held(client):
                for key in [k for k in self.ranks if k[1] == client]:
                    del self.ranks[key]
        elif self.closed:
            with pytest.raises(QueueClosed):
                self._run(self.queue.get())
        else:
            # An empty open queue suspends the getter; cancel it cleanly.
            task = self.loop.create_task(self.queue.get())
            self._run(asyncio.sleep(0))
            assert not task.done()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                self._run(task)

    @rule()
    def close(self):
        self.queue.close()
        self.closed = True

    # -- coalescer -----------------------------------------------------

    @rule(key=st.sampled_from(KEYS))
    def lease(self, key):
        async def take():
            return self.coalescer.lease(key)

        leader, fut = self._run(take())
        if key in self.inflight:
            lead_fut, followers = self.inflight[key]
            assert not leader
            assert fut is lead_fut
            followers.append(self.loop.create_task(self._follow(fut)))
            self.hits += 1
        else:
            assert leader
            self.inflight[key] = (fut, [])
            self.leads += 1

    @staticmethod
    async def _follow(fut: asyncio.Future):
        return await asyncio.shield(fut)

    @precondition(lambda self: self.inflight)
    @rule(data=st.data(), fail=st.booleans())
    def resolve(self, data, fail):
        key = data.draw(st.sampled_from(sorted(self.inflight)))
        _, followers = self.inflight.pop(key)
        outcome = Failed(key) if fail else object()
        if fail:
            self.coalescer.resolve(key, error=outcome)
        else:
            self.coalescer.resolve(key, outcome)
        for task in followers:
            if fail:
                with pytest.raises(Failed) as raised:
                    self._run(task)
                assert raised.value is outcome
            else:
                assert self._run(task) is outcome

    # -- invariants ----------------------------------------------------

    @invariant()
    def queued_count_matches_the_heap(self):
        snapshot = self.queue.snapshot()
        assert len(self.queue) == len(self.queued) == snapshot["depth"]
        assert sum(snapshot["by_client"].values()) == len(self.queued)
        for client in CLIENTS:
            assert self.queue.client_depth(client) == self._held(client)
            assert self.queue.client_depth(client) <= PER_CLIENT
        assert self.queue.closed is self.closed

    @invariant()
    def one_leader_per_key(self):
        assert self.coalescer.in_flight() == len(self.inflight)
        assert self.coalescer.snapshot()["keys"] == sorted(self.inflight)
        assert (self.coalescer.leads, self.coalescer.hits) == (self.leads, self.hits)
        assert all(not fut.done() for fut, _ in self.inflight.values())

    def teardown(self):
        for key in sorted(self.inflight):
            self.coalescer.resolve(key, None)
            for task in self.inflight[key][1]:
                self._run(task)
        self.loop.close()


AdmissionMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestAdmissionStateMachine = AdmissionMachine.TestCase
