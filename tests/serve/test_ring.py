"""Properties of the consistent-hash ring (:mod:`repro.serve.ring`).

The two guarantees the fleet depends on, stated as properties:

* **balance** -- with vnodes, each of N backends owns roughly 1/N of a
  large key population (bounded relative deviation);
* **minimal disruption** -- removing (or adding) one of N backends
  remaps *only* the keys owned by the affected node, ≈K/N of them; every
  other key keeps its owner.  This is the property that makes backend
  churn cheap: the rest of the fleet's memo/L2 locality survives.

Keys are a fixed deterministic sample (the ring hashes them anyway), so
Hypothesis explores the *node-set* space -- names, sizes, orderings --
without making the uniformity assertions flaky.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.serve.ring import DEFAULT_VNODES, EmptyRingError, HashRing

#: Deterministic key population for spread/disruption measurements:
#: large enough that a 128-vnode ring's spread concentrates, fixed so
#: bounds never flake.
KEYS = tuple(f"key-{i:05d}" for i in range(2000))

node_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)
node_sets = st.lists(node_names, min_size=1, max_size=8, unique=True)


class TestRingBasics:
    def test_empty_ring_raises(self):
        ring = HashRing()
        with pytest.raises(EmptyRingError):
            ring.owner("anything")
        with pytest.raises(EmptyRingError):
            ring.owners("anything", 1)

    def test_single_node_owns_everything(self):
        ring = HashRing(["only"])
        assert all(ring.owner(k) == "only" for k in KEYS[:100])

    def test_add_remove_idempotent(self):
        ring = HashRing()
        assert ring.add("a")
        assert not ring.add("a")  # second add is a no-op
        assert ring.remove("a")
        assert not ring.remove("a")
        assert len(ring) == 0

    def test_contains_and_nodes(self):
        ring = HashRing(["a", "b"])
        assert "a" in ring and "b" in ring and "c" not in ring
        assert ring.nodes == frozenset({"a", "b"})

    def test_owner_deterministic_across_instances(self):
        # Placement is a pure function of (node set, vnodes): two rings
        # built in different orders agree on every key.
        r1 = HashRing(["a", "b", "c"])
        r2 = HashRing(["c", "a", "b"])
        assert [r1.owner(k) for k in KEYS[:200]] == [
            r2.owner(k) for k in KEYS[:200]
        ]

    def test_owners_fallback_order(self):
        ring = HashRing(["a", "b", "c"])
        for key in KEYS[:50]:
            order = ring.owners(key, 3)
            assert len(order) == 3
            assert len(set(order)) == 3  # distinct
            assert order[0] == ring.owner(key)
        # Asking for more owners than nodes caps at the node count.
        assert len(ring.owners("x", 10)) == 3


class TestRingProperties:
    @given(nodes=node_sets)
    @settings(max_examples=30, deadline=None)
    def test_every_key_lands_on_a_member(self, nodes):
        ring = HashRing(nodes)
        members = set(nodes)
        for key in KEYS[:200]:
            assert ring.owner(key) in members

    @given(nodes=st.lists(node_names, min_size=2, max_size=8, unique=True))
    @settings(max_examples=15, deadline=None)
    def test_spread_is_roughly_uniform(self, nodes):
        """Each node owns between 1/3x and 3x its fair share of keys.

        128 vnodes/node over 2000 keys concentrates far tighter than
        this in practice; the generous bound keeps the property
        deterministic-stable over *any* node names Hypothesis invents.
        """
        ring = HashRing(nodes)
        spread = ring.spread(KEYS)
        fair = len(KEYS) / len(nodes)
        for node in nodes:
            share = spread.get(node, 0)
            assert fair / 3 <= share <= fair * 3, (
                f"node {node!r} owns {share} of {len(KEYS)} keys "
                f"(fair share {fair:.0f}) in {sorted(spread.items())}"
            )

    @given(
        nodes=st.lists(node_names, min_size=2, max_size=8, unique=True),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_removal_is_minimal_disruption(self, nodes, data):
        """Removing one node remaps exactly the keys it owned."""
        ring = HashRing(nodes)
        before = {k: ring.owner(k) for k in KEYS}
        victim = data.draw(st.sampled_from(nodes))
        ring.remove(victim)
        for key, old_owner in before.items():
            new_owner = ring.owner(key)
            if old_owner == victim:
                assert new_owner != victim  # remapped to a survivor
            else:
                assert new_owner == old_owner, (
                    f"key {key!r} moved {old_owner!r} -> {new_owner!r} "
                    f"although {victim!r} never owned it"
                )

    @given(
        nodes=st.lists(node_names, min_size=1, max_size=7, unique=True),
        newcomer=node_names,
    )
    @settings(max_examples=30, deadline=None)
    def test_addition_is_minimal_disruption(self, nodes, newcomer):
        """Adding a node steals ≈K/(N+1) keys; nothing else moves."""
        if newcomer in nodes:
            return
        ring = HashRing(nodes)
        before = {k: ring.owner(k) for k in KEYS}
        ring.add(newcomer)
        moved = 0
        for key, old_owner in before.items():
            new_owner = ring.owner(key)
            if new_owner != old_owner:
                # The only legal destination for a moved key is the
                # newcomer: no key may hop between incumbent nodes.
                assert new_owner == newcomer
                moved += 1
        fair = len(KEYS) / (len(nodes) + 1)
        assert moved <= fair * 3, (
            f"adding one node moved {moved} of {len(KEYS)} keys "
            f"(fair share {fair:.0f})"
        )

    @given(nodes=node_sets)
    @settings(max_examples=20, deadline=None)
    def test_remove_then_readd_restores_placement(self, nodes):
        """Ring placement has no memory: membership alone decides."""
        ring = HashRing(nodes)
        before = {k: ring.owner(k) for k in KEYS[:300]}
        victim = nodes[0]
        ring.remove(victim)
        ring.add(victim)
        assert before == {k: ring.owner(k) for k in KEYS[:300]}

    def test_vnode_count_tightens_spread(self):
        """More vnodes -> tighter balance (sanity on the default)."""
        nodes = ["a", "b", "c", "d"]
        fair = len(KEYS) / len(nodes)

        def max_dev(vnodes: int) -> float:
            spread = HashRing(nodes, vnodes=vnodes).spread(KEYS)
            return max(abs(spread.get(n, 0) - fair) for n in nodes)

        assert max_dev(DEFAULT_VNODES) <= max_dev(1)


#: Backend ids the state machine draws from: few enough that adds hit
#: existing members and removes hit absent ones.
POOL = ("b0", "b1", "b2", "b3", "b4")
MACHINE_KEYS = KEYS[:200]


class RingMachine(RuleBasedStateMachine):
    """Random add/remove sequences over one ring, including ejecting a
    node and bringing it back.

    The ring is checked against a plain set of members: every key lands
    on a member, a removal moves only the removed node's keys, an
    addition moves keys only onto the new node, re-adding a node (and
    in general returning to any member set seen before) restores the
    earlier owners exactly, ``owners(k, n)`` is ``min(n, len(nodes))``
    distinct members led by ``owner(k)``, and an empty ring raises.
    """

    def __init__(self) -> None:
        super().__init__()
        self.ring = HashRing(vnodes=32)
        self.members: set[str] = set()
        #: member set -> the placement observed for it.
        self.seen: dict[frozenset[str], dict[str, str]] = {}

    def _placement(self) -> dict[str, str] | None:
        if not self.members:
            return None
        return {key: self.ring.owner(key) for key in MACHINE_KEYS}

    @initialize(nodes=st.sets(st.sampled_from(POOL), max_size=3))
    def start(self, nodes):
        for node in sorted(nodes):
            self.ring.add(node)
        self.members = set(nodes)

    @rule(node=st.sampled_from(POOL))
    def add(self, node):
        before = self._placement()
        assert self.ring.add(node) is (node not in self.members)
        self.members.add(node)
        after = self._placement()
        if before is not None:
            moved = {k for k in MACHINE_KEYS if after[k] != before[k]}
            assert {after[k] for k in moved} <= {node}

    @rule(node=st.sampled_from(POOL))
    def remove(self, node):
        before = self._placement()
        assert self.ring.remove(node) is (node in self.members)
        self.members.discard(node)
        after = self._placement()
        if after is not None:
            for key in MACHINE_KEYS:
                if before[key] != node:
                    assert after[key] == before[key]
                else:
                    assert after[key] != node

    @precondition(lambda self: self.members)
    @rule(data=st.data())
    def eject_and_return(self, data):
        """The router's eject-then-heal cycle: placement is restored."""
        node = data.draw(st.sampled_from(sorted(self.members)))
        before = self._placement()
        self.ring.remove(node)
        self.ring.add(node)
        assert self._placement() == before

    @invariant()
    def nodes_mirror_members(self):
        assert self.ring.nodes == frozenset(self.members)
        assert len(self.ring) == len(self.members)

    @invariant()
    def placement_depends_on_members_only(self):
        placement = self._placement()
        if placement is None:
            return
        assert set(placement.values()) <= self.members
        expected = self.seen.setdefault(frozenset(self.members), placement)
        assert placement == expected

    @invariant()
    def owners_are_distinct_members(self):
        for key in MACHINE_KEYS[:20]:
            for n in range(1, len(POOL) + 2):
                if not self.members:
                    with pytest.raises(EmptyRingError):
                        self.ring.owners(key, n)
                    continue
                owners = self.ring.owners(key, n)
                assert len(owners) == min(n, len(self.members))
                assert len(set(owners)) == len(owners)
                assert set(owners) <= self.members
                assert owners[0] == self.ring.owner(key)

    @invariant()
    def empty_ring_raises(self):
        if not self.members:
            with pytest.raises(EmptyRingError):
                self.ring.owner("anything")


RingMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=15, deadline=None
)
TestRingStateMachine = RingMachine.TestCase
