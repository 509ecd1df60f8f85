"""Flat timed constraint DAG: the kernel's compile → propagate core.

A :class:`TimedKernel` is the integer-indexed form of the constraint DAG
that :mod:`repro.simulate.replay` describes in prose: node ``i < n`` is
task ``i`` (kernel interning), node ``n + e`` is the *transfer slot* of
graph edge ``e``.  Every edge owns exactly one slot, **active** only
while the edge is remote under the current allocation — so moves that
localize or remote an edge never allocate or free nodes, they flip a
flag.

It has two forms, one per builder:

* **one-shot form** — :meth:`from_decisions` compiles arbitrary
  :class:`~repro.simulate.replay.ReplayDecisions` (direct transfers)
  into durations, in-degrees and one "next" pointer per resource order,
  and :meth:`from_schedule` compiles a schedule's decisions straight
  from its records (the same kernel as ``from_decisions`` of
  ``extract_decisions``); both end in one linking step, :meth:`_link`,
  which runs every check.  :meth:`propagate_kahn` runs one forward
  pass in Kahn order.  It runs
  compiled when the active kernel backend provides a one-shot pass
  (``cext``: a packed successor CSR built once per kernel), and as the
  pure-Python :meth:`_kahn_loop` otherwise — the reference and the
  fallback.  Replay, plan install and the online engine use it.
* **point form** — :meth:`from_point` interns a
  :class:`~repro.search.point.SearchPoint` as two int lists, the
  allocation and the global sequence.  No adjacency is stored: a
  point's processor order is its sequence restricted to the processor,
  and its send / receive orders sort transfers by ``(pos(dst),
  pos(src))`` — the global key order restricted to the port.  One
  forward sweep over the sequence therefore times every node after
  all of its predecessors, and "the previous activity on this
  resource" is whatever the sweep timed last on it.
  :meth:`propagate_order` sweeps the point itself; :meth:`patch`
  sweeps an edited copy (reallocations plus an optional new sequence)
  and returns its makespan without touching the base state, and
  :meth:`apply` folds such an edit in.  The sweep runs compiled when
  the backend provides one (``cext``: ``Statics.point_pass``) and as
  :meth:`_point_loop` otherwise.

Both forms compute identical floats to the object-level replay: the
same ``max`` from ``0.0`` over the same operands and the same single
addition per node.
"""

from __future__ import annotations

from math import isfinite
from operator import ne

from ..core.exceptions import PlatformError, SchedulingError
from .backends import current_backend
from .statics import KernelStatics


class KernelIneligible(Exception):
    """Raised by :meth:`TimedKernel.from_decisions` and
    :meth:`TimedKernel.from_schedule` when the decision set is outside
    the kernel's domain (multi-hop or unknown-edge transfers); the
    caller falls back to the object-level replay."""


def _check_procs(alloc: list[int], num_procs: int) -> None:
    """Reject out-of-range processor indices with the Platform error.

    One C-speed min/max scan; without it, negative indices would wrap
    silently into the wrong ``exec_`` / ``link_rows`` entries where the
    object-level replay raises :class:`PlatformError`.
    """
    if alloc and (min(alloc) < 0 or max(alloc) >= num_procs):
        bad = next(p for p in alloc if not (0 <= p < num_procs))
        raise PlatformError(f"processor index {bad} out of range [0, {num_procs})")


def _check_links(statics: KernelStatics, alloc: list[int]) -> None:
    """Raise :class:`PlatformError` on a remote edge over a missing link.

    Edges are visited by destination task, then edge index — the order
    the compiled pass checks them in, so both report the same edge.
    """
    if statics.all_links_finite:
        return
    esrc, link_rows = statics.esrc, statics.link_rows
    for v, row in enumerate(statics.pred_rows):
        b = alloc[v]
        for e in row:
            a = alloc[esrc[e]]
            if a != b and not isfinite(link_rows[a][b]):
                raise PlatformError(f"no direct link from P{a} to P{b}")


class TimedKernel:
    """Flat timed constraint DAG of one decision set (see module docstring)."""

    __slots__ = (
        "statics",
        "alloc",
        "active",
        "num_active",
        "hop_list",
        "hop_procs",
        "dur",
        "indeg",
        "next_proc",
        "next_send",
        "next_recv",
        "seq",
        "tight",
        "timed_nodes",
        "start",
        "finish",
        "makespan",
        "_one_shot",
        "_point_pass",
    )

    def __init__(self, statics: KernelStatics) -> None:
        n, m = statics.num_tasks, statics.num_edges
        self.statics = statics
        self.alloc: list[int] = [0] * n
        self.active = bytearray(m)
        self.num_active = 0
        #: Edge index per booked transfer, in booking order (one-shot
        #: form only: ``decisions.hops`` order for ``from_decisions``,
        #: ``extract_decisions``' transfer order for ``from_schedule``).
        self.hop_list: list[int] = []
        #: ``(from_proc, to_proc)`` per entry of :attr:`hop_list` — the
        #: port pair each transfer occupies (online engine hook: a
        #: transfer activity seizes the send port of ``from_proc`` and
        #: the receive port of ``to_proc`` simultaneously).
        self.hop_procs: list[tuple[int, int]] = []
        #: One-shot form (``from_decisions`` / ``from_schedule``): the
        #: duration per node, the constraint in-degrees, and the next
        #: task on the same processor per task / next transfer slot on
        #: the same send / receive port per edge (-1 = none); graph
        #: successors come from the statics CSR, so no per-replay
        #: adjacency is ever built.
        self.dur: list[float] | None = None
        self.indeg: list[int] | None = None
        self.next_proc: list[int] | None = None
        self.next_send: list[int] | None = None
        self.next_recv: list[int] | None = None
        #: Point form (``from_point``): the global sequence as task
        #: indices, and per live node its tight predecessor (the first
        #: predecessor, in canonical order, whose finish its start
        #: equals; -1 = none).
        self.seq: list[int] | None = None
        self.tight: list[int] | None = None
        #: Nodes the last point sweep timed: every task plus every
        #: transfer of an edge remote at the swept point.
        self.timed_nodes = 0
        self.start: list[float] = [0.0] * (n + m)
        self.finish: list[float] = [0.0] * (n + m)
        self.makespan = 0.0
        #: The backend's compiled passes, resolved at first use
        #: (``False``: the Python loop).  Safe to cache: the one-shot
        #: arrays are written once, and the point sweep reads only the
        #: statics plus its arguments.
        self._one_shot = None
        self._point_pass = None

    # ------------------------------------------------------------------
    # compile
    # ------------------------------------------------------------------
    @classmethod
    def from_decisions(cls, statics: KernelStatics, decisions) -> "TimedKernel":
        """Compile a direct-transfer :class:`ReplayDecisions` set.

        Builds the successor/in-degree form (all a one-shot
        :meth:`propagate_kahn` pass needs).  Raises
        :class:`KernelIneligible` on multi-hop or unknown-edge transfers
        (the caller falls back to the object-level replay); everything
        the object-level replay validates beyond that — missing tasks,
        local edges with transfers, remote edges without, inconsistent
        orders — is checked by :meth:`_link` with identical errors.
        """
        self = cls(statics)
        n = statics.num_tasks
        tindex, tid_get = statics.tindex, statics.tid_index.get
        hget = statics.hop0_node.get
        hops = [(hget(key), key, a, b) for key, (a, b) in decisions.hops.items()]
        # identity-keyed shortcut for the port rows below: the order
        # lists reuse the exact key tuples of ``hops`` when extracted
        # from a schedule, so ``id()`` lookups skip tuple re-hashing
        nid_get = {id(key): node for node, key, _, _ in hops}.get
        active = self.active

        def proc_rows():
            # row-level inline of KernelStatics.intern: identity listcomp
            # first, one equality listcomp for the whole row on any miss
            for tasks in decisions.proc_order.values():
                row = [tid_get(id(t)) for t in tasks]
                if None in row:
                    row = [tindex[t] for t in tasks]
                yield row

        def port_rows(orders):
            for keys in orders.values():
                nodes = [nid_get(id(k)) for k in keys]
                if None in nodes:
                    # identity miss (caller-built orders): equality lookup,
                    # then require the transfer to be booked — mirrors the
                    # object-level replay, which KeyErrors on port entries
                    # that are not booked transfers
                    for i, key in enumerate(keys):
                        if nodes[i] is None:
                            node = hget(key)
                            if node is None or not active[node - n]:
                                raise KeyError(key)
                            nodes[i] = node
                yield nodes

        return self._link(
            list(map(decisions.alloc.get, statics.tasks)),
            hops,
            proc_rows(),
            port_rows(decisions.send_order),
            port_rows(decisions.recv_order),
        )

    @classmethod
    def from_schedule(cls, statics: KernelStatics, schedule) -> "TimedKernel":
        """Compile a schedule's decisions in one pass over its records.

        Equals ``from_decisions(statics, extract_decisions(schedule))``
        field for field, and raises what that pair raises: the orders
        are the ones :func:`~repro.simulate.replay.extract_decisions`
        sorts — each processor's tasks by ``(start, finish, task
        index)``, the transfers by ``(start, finish, processors, task
        indices, hop)`` — interned straight from the records, with no
        decision dicts built.  ``statics`` must be compiled from the
        schedule's graph.
        """
        self = cls(statics)
        n = statics.num_tasks
        tindex, tid_get = statics.tindex, statics.tid_index.get
        num = schedule.platform.num_processors
        alloc: list = [None] * n
        placed = []
        # as in extract_decisions, only placements on the platform's
        # processors are ordered (an unknown task there is a KeyError);
        # an out-of-range processor reaches _link's range check
        for p in schedule.placements.values():
            task, q = p.task, p.proc
            i = tid_get(id(task))
            if i is None:
                i = tindex.get(task)
            if 0 <= q < num:
                if i is None:
                    raise KeyError(task)
                placed.append((q, p.start, p.finish, i))
            if i is not None:
                alloc[i] = q
        # one sort for every processor's row: by processor, then the
        # row key (start, finish, task index)
        placed.sort()
        proc_rows = []
        last = None
        for q, _, _, i in placed:
            if q != last:
                last = q
                row = []
                proc_rows.append(row)
            row.append(i)

        events = schedule.comm_events
        keyed = []
        for k, ev in enumerate(events):
            si = tid_get(id(ev.src_task))
            if si is None:
                si = tindex[ev.src_task]
            di = tid_get(id(ev.dst_task))
            if di is None:
                di = tindex[ev.dst_task]
            keyed.append((ev.start, ev.finish, ev.src_proc, ev.dst_proc, si, di, ev.hop, k))
        keyed.sort()
        hget = statics.hop0_node.get
        hops = []
        send_rows: dict[int, list] = {}
        recv_rows: dict[int, list] = {}
        booked = bytearray(statics.num_edges)
        unknown = set()
        for item in keyed:
            ev = events[item[-1]]
            key = (ev.src_task, ev.dst_task, ev.hop)
            node = hget(key)
            if node is None:
                duplicate = key in unknown
                unknown.add(key)
            else:
                duplicate = booked[node - n]
                booked[node - n] = 1
            if duplicate:
                raise SchedulingError(f"duplicate transfer {key} in schedule")
            a, b = ev.src_proc, ev.dst_proc
            if not 0 <= a < num:
                raise KeyError(a)
            if not 0 <= b < num:
                raise KeyError(b)
            hops.append((node, key, a, b))
            send_rows.setdefault(a, []).append(node)
            recv_rows.setdefault(b, []).append(node)
        return self._link(alloc, hops, proc_rows, send_rows.values(), recv_rows.values())

    def _link(self, alloc, hops, proc_rows, send_rows, recv_rows) -> "TimedKernel":
        """The one-shot form's shared step: durations, in-degrees and the
        next pointers, and every check of the decision content.

        Takes interned decisions: ``alloc`` per task index (``None``:
        not decided), ``hops`` as ``(transfer node or None, key,
        from_proc, to_proc)`` in booking order, and each resource order
        as a row of task indices (``proc_rows``) or transfer nodes (the
        port rows).  The rows are consumed after the transfers are
        booked, so a caller may intern them lazily against
        :attr:`active`.
        """
        st = self.statics
        n, m = st.num_tasks, st.num_edges
        if None in alloc:
            missing = st.tasks[alloc.index(None)]
            raise SchedulingError(f"decisions missing task {missing!r}")
        _check_procs(alloc, st.num_procs)
        self.alloc = alloc
        dur = self.dur = [0.0] * (n + m)
        dur[:n] = [row[p] for row, p in zip(st.exec_, alloc)]

        active = self.active
        esrc, edst, edata = st.esrc, st.edst, st.edata
        link_rows = st.link_rows
        finite_links = st.all_links_finite
        num_procs = st.num_procs
        # The successor structure is implicit: graph successors come from
        # the statics CSR (shared, never rebuilt), and each decision
        # order contributes at most one "next" pointer per resource.
        # Task in-degrees start from the precomputed precedence count.
        indeg = st.base_indeg + [0] * m
        self.indeg = indeg
        next_proc = self.next_proc = [-1] * n
        next_send = self.next_send = [-1] * m
        next_recv = self.next_recv = [-1] * m
        hop_list, hop_procs = self.hop_list, self.hop_procs
        for node, key, a, b in hops:
            if node is None:
                u, v, hop = key
                raise KernelIneligible(f"transfer ({u!r}, {v!r}, {hop})")
            e = node - n
            active[e] = 1
            hop_list.append(e)
            hop_procs.append((a, b))
            indeg[node] = 1
            if not (0 <= a < num_procs and 0 <= b < num_procs):
                # match Platform._check_proc (negative list indices would
                # silently wrap into the wrong link row otherwise)
                bad = a if not (0 <= a < num_procs) else b
                raise PlatformError(
                    f"processor index {bad} out of range [0, {num_procs})"
                )
            if a == b:
                dur[node] = 0.0
            elif finite_links:
                dur[node] = edata[e] * link_rows[a][b]
            else:
                cost = link_rows[a][b]
                if not isfinite(cost):
                    raise PlatformError(f"no direct link from P{a} to P{b}")
                dur[node] = edata[e] * cost
        self.num_active = len(hop_list)

        # every edge must be either local, or remote with a booked
        # transfer — one pass at C speed, comparing the remote flags as
        # bytes with ``active``; the python loop runs only to pinpoint
        # the offending edge for the error message
        at = alloc.__getitem__
        if bytes(map(ne, map(at, esrc), map(at, edst))) != active:
            for e, src, consumer in zip(range(m), esrc, edst):
                if alloc[src] == alloc[consumer]:
                    if active[e]:
                        u, v = st.edges[e]
                        raise SchedulingError(
                            f"edge {u!r}->{v!r} is local but has transfers"
                        )
                elif not active[e]:
                    u, v = st.edges[e]
                    raise SchedulingError(f"remote edge {u!r}->{v!r} has no transfer")

        for row in proc_rows:
            for a, b in zip(row, row[1:]):
                if next_proc[a] >= 0:
                    # a task ordered on two processors: degenerate input,
                    # outside the one-next-pointer representation
                    raise KernelIneligible(f"task {st.tasks[row[0]]!r} multiply ordered")
                next_proc[a] = b
                indeg[b] += 1
        for rows, nxt in ((send_rows, next_send), (recv_rows, next_recv)):
            for nodes in rows:
                prev = -1
                for node in nodes:
                    if prev >= 0:
                        if nxt[prev] >= 0:
                            raise KernelIneligible("transfer multiply ordered")
                        nxt[prev] = node
                        indeg[node] += 1
                    prev = node - n
        return self

    @classmethod
    def from_point(cls, statics: KernelStatics, point) -> "TimedKernel":
        """Intern a ``SearchPoint`` as the point form (see module docstring).

        Raises :class:`PlatformError` on an out-of-range processor or a
        remote edge over a missing link.  Call :meth:`propagate_order`
        to time it.
        """
        self = cls(statics)
        n = statics.num_tasks
        point_alloc = point.alloc
        alloc = [point_alloc[v] for v in statics.tasks]
        _check_procs(alloc, statics.num_procs)
        _check_links(statics, alloc)
        intern = statics.intern
        self.alloc = alloc
        self.seq = [intern(v) for v in point.sequence]
        self.tight = [-1] * (n + statics.num_edges)
        active = self.active
        for e, (a, b) in enumerate(zip(statics.esrc, statics.edst)):
            if alloc[a] != alloc[b]:
                active[e] = 1
        self.num_active = sum(active)
        return self

    # ------------------------------------------------------------------
    # propagate
    # ------------------------------------------------------------------
    def active_nodes(self) -> list[int]:
        """All live node indices: every task, every active transfer slot."""
        n = self.statics.num_tasks
        out = list(range(n))
        out.extend(n + e for e in range(self.statics.num_edges) if self.active[e])
        return out

    def one_shot_successors(self, node: int) -> list[int]:
        """Constraint successors of ``node`` in the one-shot form.

        Online-engine hook: enumerates the same successor set
        :meth:`propagate_kahn` walks — graph successors from the statics
        CSR (task nodes), the destination task (transfer slots), plus
        the next-pointer order edges — without materializing adjacency
        lists for the whole DAG.  Requires the one-shot form.
        """
        st = self.statics
        n = st.num_tasks
        out: list[int] = []
        if node < n:
            active, edst = self.active, st.edst
            for e in st.succ_rows[node]:
                out.append(n + e if active[e] else edst[e])
            nxt = self.next_proc[node]
            if nxt >= 0:
                out.append(nxt)
        else:
            e = node - n
            out.append(st.edst[e])
            nxt = self.next_send[e]
            if nxt >= 0:
                out.append(nxt)
            nxt = self.next_recv[e]
            if nxt >= 0:
                out.append(nxt)
        return out

    def propagate_kahn(
        self,
        dur: list[float] | None = None,
        out_start: list[float] | None = None,
        out_finish: list[float] | None = None,
    ) -> float:
        """Full forward pass in Kahn order; returns the makespan and
        raises :class:`SchedulingError` on cyclic orders.

        Requires the one-shot form (:meth:`from_decisions` or
        :meth:`from_schedule`).  Without
        arguments it sets the base plan state :attr:`start`,
        :attr:`finish` and :attr:`makespan`.

        Overrides are pure (online-engine hook): passing any of ``dur``
        (durations substituted for the compiled estimates), ``out_start``
        or ``out_finish`` leaves the base state untouched.  The out
        arrays are optional full-size lists that receive the times of
        every live node; with neither, only the makespan is computed.
        Every given array must have one entry per kernel node.

        Runs the active backend's compiled pass when it has one (built
        once per kernel, at the first call), else :meth:`_kahn_loop`;
        both produce identical floats.
        """
        compiled = self._one_shot
        if compiled is None:
            compiled = self._one_shot = current_backend().one_shot_pass(self) or False
        base = dur is None and out_start is None and out_finish is None
        if base:
            dur, out_start, out_finish = self.dur, self.start, self.finish
        elif dur is None:
            dur = self.dur
        if compiled:
            ms = compiled.run(dur, out_start, out_finish)
        else:
            ms = self._kahn_loop(dur, out_start, out_finish)
        if base:
            self.makespan = ms
        return ms

    def _kahn_loop(self, dur, start, finish) -> float:
        """The pure-Python one-shot pass (reference of the compiled one).

        Successors are enumerated from the statics CSR plus the
        next-pointer arrays, and the max over each node's predecessors
        is fused into the in-degree decrement — ``est`` accumulates the
        running maximum of finished predecessors, which equals the
        object-level replay's ``max`` over the full predecessor list
        exactly (same operands, any order).  Writes ``start`` /
        ``finish`` (scratch when ``None``) at the visited nodes only.
        """
        st = self.statics
        n = st.num_tasks
        size = n + st.num_edges
        if self.next_proc is None:
            raise SchedulingError("propagate_kahn requires the one-shot form (from_decisions)")
        for name, arr in (("dur", dur), ("out_start", start), ("out_finish", finish)):
            if arr is not None and len(arr) != size:
                raise ValueError(f"{name} has {len(arr)} entries, expected {size}")
        if start is None:
            start = [0.0] * size
        if finish is None:
            finish = [0.0] * size
        srows, edst = st.succ_rows, st.edst
        active = self.active
        next_proc, next_send, next_recv = self.next_proc, self.next_send, self.next_recv
        indeg = self.indeg.copy()
        est = [0.0] * size
        ready = [x for x in st.base_entries if not indeg[x]]
        push = ready.append
        total = n + self.num_active
        done = 0
        while ready:
            node = ready.pop()
            s = est[node]
            start[node] = s
            f = s + dur[node]
            finish[node] = f
            done += 1
            if node < n:
                for e in srows[node]:
                    nxt = n + e if active[e] else edst[e]
                    if f > est[nxt]:
                        est[nxt] = f
                    d = indeg[nxt] - 1
                    indeg[nxt] = d
                    if not d:
                        push(nxt)
                nxt = next_proc[node]
                if nxt >= 0:
                    if f > est[nxt]:
                        est[nxt] = f
                    d = indeg[nxt] - 1
                    indeg[nxt] = d
                    if not d:
                        push(nxt)
            else:
                e = node - n
                nxt = edst[e]
                if f > est[nxt]:
                    est[nxt] = f
                d = indeg[nxt] - 1
                indeg[nxt] = d
                if not d:
                    push(nxt)
                nxt = next_send[e]
                if nxt >= 0:
                    if f > est[nxt]:
                        est[nxt] = f
                    d = indeg[nxt] - 1
                    indeg[nxt] = d
                    if not d:
                        push(nxt)
                nxt = next_recv[e]
                if nxt >= 0:
                    if f > est[nxt]:
                        est[nxt] = f
                    d = indeg[nxt] - 1
                    indeg[nxt] = d
                    if not d:
                        push(nxt)
        if done != total:
            raise SchedulingError(
                "constraint DAG has a cycle: the decision orders are inconsistent"
            )
        return max(finish[:n], default=0.0)

    # ------------------------------------------------------------------
    # point form: sweep, patch, apply
    # ------------------------------------------------------------------
    def propagate_order(self) -> float:
        """Time the point form: one sweep in canonical key order.

        Sets :attr:`start`, :attr:`finish` and :attr:`tight` at every
        live node, and :attr:`makespan` (``max`` over the task
        finishes, ``0.0`` without tasks).
        """
        self.makespan = self._sweep(self.alloc, self.seq, self.start, self.finish, self.tight)
        return self.makespan

    def patch(self, realloc, seq: list[int] | None = None) -> float:
        """Makespan of the point edited by ``realloc`` and ``seq``.

        ``realloc`` is an iterable of ``(task index, processor)``
        pairs; ``seq``, when given, replaces the sequence.  The base
        state is left untouched, also when the edited point is invalid
        (the sweep validates before it writes anything).
        """
        alloc = self._edited_alloc(realloc)
        return self._sweep(alloc, self.seq if seq is None else seq, None, None, None)

    def apply(self, realloc, seq: list[int] | None = None) -> float:
        """Fold the edit :meth:`patch` would time into the base state.

        Takes ownership of ``seq``.  Returns the new makespan; on an
        invalid edit it raises and changes nothing.
        """
        realloc = list(realloc)
        alloc = self._edited_alloc(realloc)
        if seq is None:
            seq = self.seq
        self.makespan = self._sweep(alloc, seq, self.start, self.finish, self.tight)
        self.alloc, self.seq = alloc, seq
        st = self.statics
        esrc, edst, active = st.esrc, st.edst, self.active
        for task, _ in realloc:
            for rows in (st.pred_rows, st.succ_rows):
                for e in rows[task]:
                    active[e] = alloc[esrc[e]] != alloc[edst[e]]
        self.num_active = sum(active)
        return self.makespan

    def _edited_alloc(self, realloc) -> list[int]:
        """A copy of :attr:`alloc` with the ``(task, proc)`` pairs applied."""
        alloc = self.alloc.copy()
        for task, proc in realloc:
            alloc[task] = proc
        return alloc

    def _sweep(self, alloc, seq, start, finish, tight) -> float:
        """Run the backend's point pass (resolved once per kernel)."""
        if self.seq is None:
            raise SchedulingError("the point sweep requires the point form (from_point)")
        compiled = self._point_pass
        if compiled is None:
            compiled = self._point_pass = current_backend().point_pass(self.statics) or False
        if compiled:
            ms, self.timed_nodes = compiled(alloc, seq, start, finish, tight)
        else:
            ms, self.timed_nodes = self._point_loop(alloc, seq, start, finish, tight)
        return ms

    def _point_loop(self, alloc, seq, start, finish, tight) -> tuple[float, int]:
        """The pure-Python point sweep (reference of the compiled one).

        Returns ``(makespan, timed nodes)``.  ``start`` / ``finish`` /
        ``tight`` are lists with one entry per kernel node that receive
        every live node's times and tight predecessor, or ``None``.
        Validates everything before it writes: the out lists (type,
        size), ``alloc`` (size, processor range), ``seq`` (size, a
        permutation of the tasks, topological) and the links of remote
        edges.

        For each task ``v`` in sequence order, on ``q = alloc[v]``, the
        sweep first times ``v``'s remote in-edges in increasing source
        position — each transfer starts at the max of ``0.0``, its
        source's finish and the finishes of the last transfers on the
        source's send port and on ``q``'s receive port — and then ``v``
        itself, at the max of ``0.0``, each in-edge's predecessor (the
        source if local, the transfer if remote) and the last task on
        ``q``.  A node's tight predecessor is its first maximal
        predecessor in that canonical order: in-edges by edge index,
        then the previous task (tasks); source, previous send, previous
        receive (transfers).
        """
        st = self.statics
        n, num_procs = st.num_tasks, st.num_procs
        size = n + st.num_edges
        for name, arr in (("start", start), ("finish", finish), ("tight", tight)):
            if arr is not None:
                if not isinstance(arr, list):
                    raise TypeError(f"{name} must be a list, not {type(arr).__name__}")
                if len(arr) != size:
                    raise ValueError(f"{name} has {len(arr)} entries, expected {size}")
        if len(alloc) != n:
            raise ValueError(f"alloc has {len(alloc)} entries, expected {n}")
        _check_procs(alloc, num_procs)
        if len(seq) != n:
            raise ValueError(f"seq has {len(seq)} entries, expected {n}")
        pos = [-1] * n
        for i, v in enumerate(seq):
            if not (0 <= v < n) or pos[v] >= 0:
                raise SchedulingError("sequence is not a permutation of the tasks")
            pos[v] = i
        esrc, pred_rows = st.esrc, st.pred_rows
        for v, row in enumerate(pred_rows):
            pv = pos[v]
            for e in row:
                if pos[esrc[e]] >= pv:
                    raise SchedulingError("sequence is not a topological order")
        _check_links(st, alloc)

        if start is None:
            start = [0.0] * size
        if finish is None:
            finish = [0.0] * size
        if tight is None:
            tight = [-1] * size
        exec_, edata, link_rows = st.exec_, st.edata, st.link_rows
        proc_last = [-1] * num_procs
        send_last = [-1] * num_procs
        recv_last = [-1] * num_procs
        timed = n
        for v in seq:
            q = alloc[v]
            row = pred_rows[v]
            remote = [e for e in row if alloc[esrc[e]] != q]
            if remote:
                if len(remote) > 1:
                    remote.sort(key=lambda e: pos[esrc[e]])
                timed += len(remote)
                for e in remote:
                    u = esrc[e]
                    a = alloc[u]
                    node = n + e
                    t = u
                    tf = finish[u]
                    s = 0.0
                    if tf > s:
                        s = tf
                    for p in (send_last[a], recv_last[q]):
                        if p >= 0:
                            f = finish[p]
                            if f > s:
                                s = f
                            if f > tf:
                                t, tf = p, f
                    start[node] = s
                    finish[node] = s + edata[e] * link_rows[a][q]
                    tight[node] = t
                    send_last[a] = recv_last[q] = node
            s = 0.0
            t = -1
            tf = 0.0
            for e in row:
                u = esrc[e]
                p = u if alloc[u] == q else n + e
                f = finish[p]
                if f > s:
                    s = f
                if t < 0 or f > tf:
                    t, tf = p, f
            p = proc_last[q]
            if p >= 0:
                f = finish[p]
                if f > s:
                    s = f
                if t < 0 or f > tf:
                    t = p
            start[v] = s
            finish[v] = s + exec_[v][q]
            tight[v] = t
            proc_last[q] = v
        return max(finish[:n], default=0.0), timed
