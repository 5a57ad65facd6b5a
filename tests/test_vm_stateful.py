"""Stateful check of graft propagation over chains and fan-outs.

Three spaces (two 4 GiB high windows and the default low window) map, unmap
and graft at random; some maps cross a leaf node and a 1 GiB region, so
later unmaps span two leaf nodes. After every step each space must show
exactly its own leaves plus those of every space that reaches it through
subscriptions, as read by the brute-force walk ``iter_leaves``, and
``mem.nodes`` must hold exactly the nodes reachable from the three roots. A
map over a page of the space or of a graft peer must raise AlreadyMapped,
and an unmap of a page a space only sees through a graft must raise
NotMapped; either must change no table, no ``mapped`` set and no
copy-engine counter. The fan-out and ``group_mapped`` that ``graft`` stores
must match a fresh depth-first walk of the ``subscribers`` lists and the
graft peers. A target is grafted only while it has no source and no
subscribers, so every space has at most one source.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from gpumux.vm import (DEFAULT_HIGH_BASE, AllocPolicy, AlreadyMapped, MemorySystem, NotMapped,
                       PageTableNode, SizeClass)

GiB = 1 << 30


class GraftPropagation(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.mem = MemorySystem()
        H = DEFAULT_HIGH_BASE
        self.spaces = [
            self.mem.create_space(AllocPolicy.HIGH_RANGE, base=H, limit=H + 4 * GiB),
            self.mem.create_space(AllocPolicy.HIGH_RANGE, base=H + 4 * GiB, limit=H + 8 * GiB),
            self.mem.create_space(AllocPolicy.LOW_RANGE),
        ]
        self.own = [{} for _ in self.spaces]      # leaf va -> page, per space
        self.ranges = [[] for _ in self.spaces]   # unmappable (va, n_pages)
        self.source = {}                          # target index -> source index
        for i in range(len(self.spaces)):
            self._map(i, SizeClass.SMALL, 1, None)
        self.ranges = [[] for _ in self.spaces]   # the first page stays resident

    def _map(self, i, size_class, n, hint):
        space = self.spaces[i]
        va = self.mem.allocate(space, n, size_class, hint=hint)
        pages = self.mem.alloc_phys(size_class, n)
        self.mem.map_range(space, va, pages)
        for j, page in enumerate(pages):
            self.own[i][va + j * size_class.nbytes] = page
        self.ranges[i].append((va, n))

    @rule(i=st.integers(0, 2), big=st.booleans(), n=st.integers(1, 3),
          k=st.none() | st.integers(0, 3))
    def map(self, i, big, n, k):
        """Map n small pages or one big page, optionally at a fresh level-2 slot."""
        hint = None if k is None else self.spaces[i].base + k * GiB
        if big:
            self._map(i, SizeClass.BIG, 1, hint)
        else:
            self._map(i, SizeClass.SMALL, n, hint)

    @rule(i=st.integers(0, 2), big=st.booleans(), n=st.integers(2, 3), k=st.integers(1, 3),
          data=st.data())
    def map_across(self, i, big, n, k, data):
        """Map 2-3 small pages or 2 big pages from just below the k-th 1 GiB
        boundary of the window, so the run crosses a leaf node and a level-2
        slot (unless the hint is taken and the allocator moves it)."""
        size_class, n = (SizeClass.BIG, 2) if big else (SizeClass.SMALL, n)
        below = data.draw(st.integers(1, n - 1))
        self._map(i, size_class, n, self.spaces[i].base + k * GiB - below * size_class.nbytes)

    @rule(data=st.data())
    def map_over_occupied(self, data):
        """Map a run that ends on a page of the space or of a graft peer."""
        i = data.draw(st.integers(0, 2))
        group = [j for j in range(3) if self._chain(j)[-1] == self._chain(i)[-1]]
        owner = data.draw(st.sampled_from(group))
        va = data.draw(st.sampled_from(sorted(self.own[owner])))
        size_class = data.draw(st.sampled_from([SizeClass.SMALL,
                                                self.own[owner][va].size_class]))
        n = data.draw(st.integers(1, 3))
        start = va - (n - 1) * size_class.nbytes
        mem = self.mem
        before = self._state()
        with pytest.raises(AlreadyMapped):
            mem.map_range(self.spaces[i], start, mem.alloc_phys(size_class, n))
        assert self._state() == before

    @precondition(lambda self: self.source)
    @rule(data=st.data())
    def unmap_seen_through_graft(self, data):
        """Unmap, from a subscriber, a page that one of its sources mapped."""
        i = data.draw(st.sampled_from(sorted(self.source)))
        j = data.draw(st.sampled_from(self._chain(i)[1:]))
        va = data.draw(st.sampled_from(sorted(self.own[j])))
        before = self._state()
        with pytest.raises(NotMapped):
            self.mem.unmap_range(self.spaces[i], va, 1)
        assert self._state() == before

    def _state(self):
        mem = self.mem
        return ([mem.table_shape(s) for s in self.spaces],
                [list(s.mapped) for s in self.spaces],
                (mem.copy_log.reads, mem.copy_log.writes))

    def _chain(self, i):
        """i, then its source, then that space's source, and so on."""
        chain = [i]
        while i in self.source:
            i = self.source[i]
            chain.append(i)
        return chain

    @precondition(lambda self: any(self.ranges))
    @rule(data=st.data())
    def unmap(self, data):
        i = data.draw(st.sampled_from([i for i, r in enumerate(self.ranges) if r]))
        va, n = self.ranges[i].pop(data.draw(st.integers(0, len(self.ranges[i]) - 1)))
        size = self.own[i][va].size_class.nbytes
        self.mem.unmap_range(self.spaces[i], va, n)
        for j in range(n):
            del self.own[i][va + j * size]

    def _graftable(self):
        return [(s, t) for s in range(3) for t in range(3)
                if s != t and t not in self.source and t not in self.source.values()]

    @precondition(lambda self: self._graftable())
    @rule(data=st.data())
    def graft(self, data):
        s, t = data.draw(st.sampled_from(self._graftable()))
        self.mem.graft(self.spaces[s], self.spaces[t])
        self.source[t] = s

    @invariant()
    def stored_topology_matches_a_fresh_walk(self):
        mem = self.mem
        for space in self.spaces:
            want, seen = [], {space.id}

            def visit(src):
                for sid in src.subscribers:
                    if sid not in seen:
                        seen.add(sid)
                        want.append((mem.spaces[sid], src))
                        visit(mem.spaces[sid])

            visit(space)
            assert mem._fanout[space.id] == tuple(want)
            peers = [mem.spaces[p].mapped for p in space.graft_peers]
            assert space.group_mapped[0] is space.mapped
            assert sorted(map(id, space.group_mapped[1:])) == sorted(map(id, peers))

    @invariant()
    def nodes_are_the_nodes_reachable_from_the_roots(self):
        reachable = {}
        for space in self.spaces:
            reachable[space.root.id] = space.root
            for _, _, _, entry in self.mem._walk(space.root):
                if type(entry) is PageTableNode:
                    reachable[entry.id] = entry
        assert self.mem.nodes.keys() == reachable.keys()
        assert all(self.mem.nodes[k] is node for k, node in reachable.items())

    @invariant()
    def each_space_shows_what_reaches_it(self):
        for i, space in enumerate(self.spaces):
            want = {}
            for j in self._chain(i):
                want.update(self.own[j])
            assert dict(self.mem.iter_leaves(space)) == want


GraftPropagation.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, derandomize=True, deadline=None,
    database=None)
TestGraftPropagation = GraftPropagation.TestCase
