"""Simulated MPI: communicators, point-to-point, and collectives.

Rank programs are Python generators driven by the DES engine.  The API
mirrors mpi4py's lower-case object interface (``send``/``recv``/``isend``/
``allreduce``/...), with two differences imposed by the simulated
setting:

* blocking calls are written ``value = yield from comm.recv(...)`` because
  the program is itself a generator;
* message cost is computed from the cluster model (latency + bytes/bandwidth,
  intra-node vs. inter-node) rather than a real network.

Every blocking call is wrapped in the PMPI hook layer (:mod:`repro.smpi.pmpi`)
so that DLB can observe when ranks stop computing — exactly how the real DLB
library attaches to applications.

A :class:`World` is the whole job; :meth:`World.split` creates disjoint
sub-communicators, used by the coupled fluid/particle execution mode.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from ..machine import ClusterModel, rank_to_node
from ..sim import Engine, Event
from .pmpi import HookList

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Message",
    "Comm",
    "World",
    "MPIError",
    "RankDeadError",
    "DeadlockError",
    "JobKilledError",
]

ANY_SOURCE = -1
ANY_TAG = -1


class MPIError(RuntimeError):
    """Raised on misuse of the simulated MPI API."""


class RankDeadError(MPIError):
    """A point-to-point operation involved a rank that has died.

    Follows the spirit of MPI ULFM (User-Level Failure Mitigation):
    collectives shrink to the survivors transparently, but a receive posted
    for (or in flight from) a dead peer raises this error so the
    application can decide how to degrade.
    """

    def __init__(self, rank: int, detail: str = ""):
        super().__init__(detail or f"rank {rank} is dead")
        self.rank = rank


class DeadlockError(MPIError):
    """The event queue drained while rank programs were still blocked.

    ``blocked`` holds one ``(name, call, since)`` triple per stuck process:
    the process name, the blocking MPI call it is suspended in (or ``"?"``
    when it is not inside the MPI layer), and the simulated time it entered
    that call.
    """

    def __init__(self, message: str, blocked: Iterable = ()):
        super().__init__(message)
        self.blocked = list(blocked)


class JobKilledError(MPIError):
    """The whole simulated job was aborted mid-run (injected kill)."""

    def __init__(self, reason: str, time: float):
        super().__init__(
            f"job killed at simulated t={time:.6f}s: {reason}")
        self.reason = reason
        self.time = time


class Message(NamedTuple):
    """An in-flight point-to-point message (world-rank addressed).

    A named tuple rather than a frozen dataclass: one is built per simulated
    point-to-point send (~6k per CFPD run) and tuple construction skips the
    per-field ``object.__setattr__`` a frozen dataclass pays.
    """

    src: int
    dest: int
    tag: int
    comm_id: int
    payload: Any
    nbytes: float


def _payload_nbytes(payload: Any, nbytes: Optional[float]) -> float:
    """Message size: explicit, from ``.nbytes`` (numpy), or a small default."""
    if nbytes is not None:
        return float(nbytes)
    measured = getattr(payload, "nbytes", None)
    if measured is not None:
        return float(measured)
    return 64.0


class _KeyedMailbox:
    """Per-rank message queue with O(1) keyed matching.

    Matching follows MPI's non-overtaking rule on (comm_id, src, tag), with
    ``ANY_SOURCE``/``ANY_TAG`` wildcards on the receive side: a put wakes
    the oldest blocked receive it matches, else it joins the queue; a
    receive takes the oldest queued message it matches, else it blocks.
    A fully-specified receive pops the head of a per-key deque; only
    wildcard receives scan the arrival queue.

    A message taken through one index stays in the other as a tombstone
    (``rec[1] is True``); tombstones are skipped lazily and squeezed out
    when they outnumber live messages.
    """

    __slots__ = ("engine", "_order", "_by_key", "_getters", "_live")

    def __init__(self, engine: Engine):
        self.engine = engine
        #: arrival-ordered ``[msg, taken]`` records (wildcard scan order)
        self._order: deque = deque()
        #: (comm_id, src, tag) -> deque of records from ``_order``
        self._by_key: dict[tuple[int, int, int], deque] = {}
        #: blocked receivers: (event, comm_id, source, tag, meta)
        self._getters: deque = deque()
        #: records in ``_order`` that are not tombstones
        self._live = 0

    def put(self, msg: Message) -> None:
        """Deliver to the oldest compatible blocked getter, else enqueue."""
        getters = self._getters
        for i, g in enumerate(getters):
            if (g[1] == msg.comm_id
                    and (g[2] == ANY_SOURCE or g[2] == msg.src)
                    and (g[3] == ANY_TAG or g[3] == msg.tag)):
                del getters[i]
                g[0].succeed(msg)
                return
        rec = [msg, False]
        self._order.append(rec)
        self._live += 1
        key = (msg.comm_id, msg.src, msg.tag)
        kq = self._by_key.get(key)
        if kq is None:
            kq = self._by_key[key] = deque()
        kq.append(rec)

    def get_keyed(self, comm_id: int, source: int, tag: int,
                  meta: Any) -> Event:
        """Take the oldest message matching the receive, or block.

        ``source``/``tag`` may be the ``ANY_*`` wildcards; a fully keyed
        receive resolves without touching the arrival queue.
        """
        ev = Event(self.engine)
        if source != ANY_SOURCE and tag != ANY_TAG:
            kq = self._by_key.get((comm_id, source, tag))
            while kq:
                rec = kq.popleft()
                if not rec[1]:
                    rec[1] = True
                    self._live -= 1
                    self._maybe_compact()
                    ev.succeed(rec[0])
                    return ev
        else:
            for rec in self._order:
                if rec[1]:
                    continue
                msg = rec[0]
                if (msg.comm_id == comm_id
                        and (source == ANY_SOURCE or msg.src == source)
                        and (tag == ANY_TAG or msg.tag == tag)):
                    rec[1] = True
                    self._live -= 1
                    self._maybe_compact()
                    ev.succeed(msg)
                    return ev
        self._getters.append((ev, comm_id, source, tag, meta))
        return ev

    def _maybe_compact(self) -> None:
        order = self._order
        if len(order) > 64 and len(order) > 2 * self._live:
            self._order = order = deque(r for r in order if not r[1])
            by_key: dict[tuple[int, int, int], deque] = {}
            for rec in order:
                msg = rec[0]
                key = (msg.comm_id, msg.src, msg.tag)
                kq = by_key.get(key)
                if kq is None:
                    kq = by_key[key] = deque()
                kq.append(rec)
            self._by_key = by_key

    def fail_pending(self, match: Callable[[Any], bool],
                     exc: BaseException) -> int:
        """Fail every blocked getter whose meta matches; returns the count."""
        kept: deque = deque()
        failed = 0
        for g in self._getters:
            if match(g[4]):
                g[0].fail(exc)
                failed += 1
            else:
                kept.append(g)
        self._getters = kept
        return failed

    def __len__(self) -> int:
        return self._live


class _Collective:
    """State of one in-flight collective operation (one per call site)."""

    __slots__ = ("kind", "n", "group", "contribs", "done", "nbytes_total")

    def __init__(self, engine: Engine, kind: str, n: int,
                 group: Sequence[int]):
        self.kind = kind
        self.n = n
        self.group = tuple(group)     # world ranks of the communicator
        self.contribs: dict[int, Any] = {}
        self.done: Event = Event(engine)
        self.nbytes_total = 0.0


class Comm:
    """A communicator: an ordered group of world ranks.

    One :class:`Comm` instance exists per (group, member); ``rank``/``size``
    follow MPI conventions (local rank within the group).
    """

    def __init__(self, world: "World", comm_id: int, group: Sequence[int],
                 rank: int):
        self._world = world
        self.comm_id = comm_id
        self.group = tuple(group)
        self.rank = rank
        self.world_rank = self.group[rank]
        # Cached rank order for collectives: when every member contributed
        # (the no-failure case) the sorted local-rank sequence is just
        # 0..size-1, so the per-call ``sorted(contribs)`` is skipped.
        self._rank_order = tuple(range(len(self.group)))
        #: (dest_world, nbytes) -> seconds; see _isend_start
        self._delay_cache: dict[tuple[int, float], float] = {}
        #: cached key into World._coll_seq (see _collective)
        self._seq_key = (comm_id, self.world_rank)

    # -- introspection ------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks in this communicator."""
        return len(self.group)

    @property
    def engine(self) -> Engine:
        """The underlying simulation engine."""
        return self._world.engine

    @property
    def node(self) -> int:
        """Node index this rank is placed on."""
        return self._world.node_of(self.world_rank)

    def world_rank_of(self, local_rank: int) -> int:
        """Translate a rank local to this communicator to a world rank."""
        return self.group[local_rank]

    @property
    def world(self) -> "World":
        """The MPI job this communicator belongs to."""
        return self._world

    # -- internal helpers -----------------------------------------------------
    def _ordered_ranks(self, contribs: dict) -> Sequence[int]:
        """Contributing local ranks in ascending order (reduction order).

        Identical to ``sorted(contribs)``: a full contribution set is the
        cached ``0..size-1`` tuple; only shrunk (post-failure) collectives
        pay for a sort.
        """
        if len(contribs) == len(self.group):
            return self._rank_order
        return sorted(contribs)

    def _blocking(self, call: str, observed: bool = True):
        world = self._world
        if observed and world.hooks._hooks:
            world.hooks.enter(self.world_rank, call)
        world.pending_calls[self.world_rank] = (call, world.engine.now)

    def _unblock(self, call: str, observed: bool = True) -> None:
        world = self._world
        world.pending_calls.pop(self.world_rank, None)
        if observed and world.hooks._hooks:
            world.hooks.exit(self.world_rank, call)

    # -- point to point -------------------------------------------------------
    def send(self, payload: Any, dest: int, tag: int = 0,
             nbytes: Optional[float] = None):
        """Blocking send to local rank ``dest``: an :meth:`isend` blocked on
        until delivery (generator; use yield from)."""
        if not 0 <= dest < self.size:
            raise MPIError(f"dest {dest} out of range for comm size {self.size}")
        self._blocking("send")
        try:
            yield self.isend(payload, dest, tag, nbytes)
        finally:
            self._unblock("send")

    def isend(self, payload: Any, dest: int, tag: int = 0,
              nbytes: Optional[float] = None) -> Event:
        """Non-blocking send; returns an event triggering at delivery."""
        if not 0 <= dest < self.size:
            raise MPIError(f"dest {dest} out of range for comm size {self.size}")
        # Callback-based transfer: the deferral is posted where a Process
        # bootstrap would be and the delivery timer is created when it pops;
        # ``req`` is the request handle.
        world = self._world
        req = Event(world.engine)
        world.engine.defer(self._isend_start, payload, dest, tag, nbytes, req)
        return req

    def _isend_start(self, payload: Any, dest: int, tag: int,
                     nbytes: Optional[float], req: Event) -> None:
        world = self._world
        size = (float(nbytes) if nbytes is not None
                else _payload_nbytes(payload, None))
        dest_world = self.group[dest]
        # message cost is a pure function of (placement, size), and halo
        # exchanges repeat identical (peer, size) pairs every step
        dc = self._delay_cache
        delay = dc.get((dest_world, size))
        if delay is None:
            delay = world.cluster.message_seconds(
                world.node_of(self.world_rank), world.node_of(dest_world),
                size)
            dc[(dest_world, size)] = delay
        dropped = False
        if world.fault_controller is not None:
            dropped, extra = world.fault_controller.on_message(
                self.world_rank, dest_world, size)
            delay += extra
        if dropped:
            world.engine.call_later(delay, req.succeed, None)
            return
        # The Message is immutable, so building it at send time instead of
        # inside a delivery closure is observationally identical — and the
        # call_later rides fn/args slots, allocating no closure frame.
        msg = Message(self.rank, dest, tag, self.comm_id, payload, size)
        world.engine.call_later(delay, self._finish_isend, msg, dest_world,
                                req)

    def _finish_isend(self, msg: Message, dest_world: int,
                      req: Event) -> None:
        self._world.deliver(msg, dest_world)
        req.succeed(None)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns the matching payload (yield from).

        Raises :class:`RankDeadError` if ``source`` is (or dies while the
        receive is pending) a dead rank.
        """
        self._blocking("recv")
        try:
            msg = yield self._match(source, tag)
        finally:
            self._unblock("recv")
        return msg.payload

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        """Non-blocking receive; the returned event carries the Message."""
        return self._match(source, tag)

    def _match(self, source: int, tag: int) -> Event:
        world = self._world
        if source != ANY_SOURCE and self.group[source] in world.dead_ranks:
            src_world = self.group[source]
            ev = world.engine.event()
            ev.fail(RankDeadError(
                src_world, f"receive posted for dead rank {src_world}"))
            return ev

        meta = None if source == ANY_SOURCE else {"src": self.group[source]}
        return world.mailbox(self.world_rank).get_keyed(
            self.comm_id, source, tag, meta)

    def wait(self, event: Event):
        """Blocking wait on a request event (isend/irecv), with PMPI hooks."""
        self._blocking("wait")
        try:
            value = yield event
        finally:
            self._unblock("wait")
        return value

    def waitall(self, events: Iterable[Event]):
        """Blocking wait on several request events; returns their values."""
        self._blocking("waitall")
        try:
            values = yield self._world.engine.all_of(list(events))
        finally:
            self._unblock("waitall")
        return values

    # -- collectives ----------------------------------------------------------
    def _collective(self, kind: str, contribution: Any,
                    nbytes: Optional[float] = None, observed: bool = True):
        """Join the next collective of this communicator; returns its state.

        MPI semantics: all ranks of the communicator must call collectives in
        the same order.  Each rank keeps a per-comm sequence number; the pair
        (comm_id, seq) identifies the operation instance.  ``observed=False``
        hides the call from PMPI hooks (still timed and deadlock-tracked).
        """
        world = self._world
        # per-(comm, rank) call counter, with the (comm_id, world_rank)
        # key tuple cached on the communicator (one collective call per rank
        # per phase — ~10k per CFPD run)
        ck = self._seq_key
        cs = world._coll_seq
        seq = cs.get(ck, 0)
        cs[ck] = seq + 1
        key = (self.comm_id, seq)
        coll = world.collectives.get(key)
        if coll is None:
            coll = _Collective(world.engine, kind, self.size, self.group)
            world.collectives[key] = coll
        if coll.kind != kind:
            raise MPIError(
                f"collective mismatch on comm {self.comm_id}: rank "
                f"{self.rank} called {kind!r} but operation #{seq} is "
                f"{coll.kind!r}")
        coll.contribs[self.rank] = contribution
        coll.nbytes_total += (float(nbytes) if nbytes is not None
                              else _payload_nbytes(contribution, None))
        self._blocking(kind, observed)
        world.maybe_finish_collective(key)
        try:
            contribs = yield coll.done
        finally:
            self._unblock(kind, observed)
        return contribs

    def barrier(self, observed: bool = True):
        """Synchronize all ranks of the communicator.

        ``observed=False`` keeps the barrier invisible to PMPI hooks —
        used for checkpoint cuts, where DLB lending across the barrier
        would make the post-cut timeline depend on whether the barrier
        was executed (a restarted run never executes it).
        """
        yield from self._collective("barrier", None, nbytes=1.0,
                                    observed=observed)

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] = None,
                  nbytes: Optional[float] = None):
        """Reduce ``value`` across ranks; every rank gets the result.

        When ranks have died, the reduction runs over the survivors'
        contributions (collectives shrink, ULFM-style).
        """
        contribs = yield from self._collective("allreduce", value, nbytes)
        # every member computes the identical reduction over the shared
        # contribution dict — compute it once per (collective, op) and share
        # the result when it is immutable (n ranks x n terms otherwise).
        # The cache entry pins the contribs dict, so an id() hit is
        # guaranteed to be the same collective.
        cache = self._world._reduce_cache
        entry = cache.get(id(contribs))
        if entry is not None and entry[0] is contribs:
            by_op = entry[1]
            hit = by_op.get(id(op), _REDUCE_MISS)
            if hit is not _REDUCE_MISS:
                return hit
        else:
            if len(cache) > 16:
                cache.clear()
            by_op = {}
            cache[id(contribs)] = (contribs, by_op)
        result = _reduce_values(
            [contribs[r] for r in self._ordered_ranks(contribs)], op)
        if type(result) in _SHAREABLE_TYPES:
            by_op[id(op)] = result
        return result

    def reduce(self, value: Any, root: int = 0,
               op: Callable[[Any, Any], Any] = None,
               nbytes: Optional[float] = None):
        """Reduce to ``root``; other ranks get ``None``."""
        contribs = yield from self._collective("reduce", value, nbytes)
        if self.rank != root:
            return None
        return _reduce_values(
            [contribs[r] for r in self._ordered_ranks(contribs)], op)

    def alltoall(self, values: Sequence[Any],
                 nbytes: Optional[float] = None):
        """Each rank supplies one value per peer; receives one from each
        surviving peer (in rank order)."""
        if len(values) != self.size:
            raise MPIError("alltoall needs exactly one value per rank")
        contribs = yield from self._collective("alltoall", list(values), nbytes)
        return [contribs[r][self.rank]
                for r in self._ordered_ranks(contribs)]

    # -- convenience --------------------------------------------------------
    def compute(self, seconds: float):
        """Pure computation for ``seconds`` of simulated time (yield from)."""
        yield self._world.engine.timeout(seconds)


#: result types safe to hand to every rank as one shared object (immutable,
#: so no rank can perturb another through the alias)
_SHAREABLE_TYPES = frozenset(
    (int, float, bool, complex, str, bytes, type(None)))
_REDUCE_MISS = object()


def _reduce_values(values: list[Any], op: Optional[Callable[[Any, Any], Any]]):
    if op is None:
        result = values[0]
        for v in values[1:]:
            result = result + v
        return result
    result = values[0]
    for v in values[1:]:
        result = op(result, v)
    return result


class World:
    """A simulated MPI job: ranks placed on a cluster, with PMPI hooks.

    Parameters
    ----------
    engine:
        The DES engine everything runs on.
    cluster:
        Hardware model (placement + message costs).
    nranks:
        Number of MPI processes in the job.
    mapping:
        ``"block"`` or ``"cyclic"`` process-to-node placement.
    """

    def __init__(self, engine: Engine, cluster: ClusterModel, nranks: int,
                 mapping: str = "block"):
        if nranks < 1:
            raise MPIError(f"nranks must be >= 1, got {nranks}")
        self.engine = engine
        self.cluster = cluster
        self.nranks = nranks
        self.mapping = mapping
        self.hooks = HookList()
        self.collectives: dict[tuple[int, int], _Collective] = {}
        self._coll_seq: dict[tuple[int, int], int] = {}
        self._mailboxes = [_KeyedMailbox(engine) for _ in range(nranks)]
        #: id(contribs) -> (contribs, {id(op): shared result}) — see allreduce
        self._reduce_cache: dict[int, tuple] = {}
        self._next_comm_id = 1
        self._node_of = [rank_to_node(r, nranks, cluster.num_nodes, mapping)
                         for r in range(nranks)]
        #: world ranks that have been killed (failure injection)
        self.dead_ranks: set[int] = set()
        #: world_rank -> (call, entered_at) for every rank blocked in MPI
        self.pending_calls: dict[int, tuple[str, float]] = {}
        #: optional fault controller with on_message(src, dest, nbytes)
        self.fault_controller: Optional[Any] = None
        self._rank_procs: dict[int, Any] = {}
        #: group tuple -> (intra_steps, inter_steps) for collective_cost;
        #: pure topology, static for the lifetime of the world.
        self._group_topo: dict[tuple, tuple[int, int]] = {}

    # -- topology -----------------------------------------------------------
    def node_of(self, world_rank: int) -> int:
        """Node index of ``world_rank``."""
        return self._node_of[world_rank]

    # -- communicators --------------------------------------------------------
    def comm_world(self, rank: int) -> Comm:
        """COMM_WORLD as seen from ``rank``."""
        return Comm(self, comm_id=0, group=range(self.nranks), rank=rank)

    def split(self, groups: Sequence[Sequence[int]]) -> list[list[Comm]]:
        """Create one sub-communicator per group of world ranks.

        Returns, for each group, the list of per-member :class:`Comm` views.
        Groups must be disjoint but need not cover all ranks.
        """
        seen: set[int] = set()
        for g in groups:
            for r in g:
                if r in seen:
                    raise MPIError(f"rank {r} appears in two groups")
                if not 0 <= r < self.nranks:
                    raise MPIError(f"rank {r} out of range")
                seen.add(r)
        result = []
        for g in groups:
            cid = self._next_comm_id
            self._next_comm_id += 1
            result.append([Comm(self, cid, g, i) for i in range(len(g))])
        return result

    # -- plumbing used by Comm ------------------------------------------------
    def mailbox(self, world_rank: int):
        """The destination message queue (a :class:`_KeyedMailbox`) of
        ``world_rank``."""
        return self._mailboxes[world_rank]

    def deliver(self, msg: Message, dest_world_rank: int) -> None:
        """Put a message into the mailbox of ``dest_world_rank``.

        ``msg.src``/``msg.dest`` stay comm-local (matching happens inside the
        destination's view of the same communicator); routing uses the world
        rank resolved by the sender.  Messages addressed to a dead rank are
        silently discarded, like packets to a crashed node.
        """
        if dest_world_rank in self.dead_ranks:
            return
        self._mailboxes[dest_world_rank].put(msg)

    def collective_cost(self, coll: _Collective) -> float:
        """Hierarchical tree collective: intra-node reduction trees plus an
        inter-node exchange tree (the standard 2-level MPI algorithm).

        The tree depths depend only on the group's node placement, which is
        static, so they are computed once per distinct group.
        """
        topo = self._group_topo.get(coll.group)
        if topo is None:
            nodes: dict[int, int] = {}
            for w in coll.group:
                node = self.node_of(w)
                nodes[node] = nodes.get(node, 0) + 1
            intra_steps = max(
                1, math.ceil(math.log2(max(2, max(nodes.values())))))
            inter_steps = (max(1, math.ceil(math.log2(len(nodes))))
                           if len(nodes) > 1 else 0)
            topo = (intra_steps, inter_steps)
            self._group_topo[coll.group] = topo
        intra_steps, inter_steps = topo
        per_rank = coll.nbytes_total / max(1, coll.n)
        cost = intra_steps * self.cluster.intranode.transfer_seconds(per_rank)
        if inter_steps:
            cost += inter_steps * self.cluster.interconnect.transfer_seconds(
                per_rank)
        return cost

    def maybe_finish_collective(self, key: tuple[int, int]) -> None:
        """Complete collective ``key`` once every *alive* member contributed.

        Called on each contribution and again whenever a rank dies, so that
        collectives shrink to the survivors instead of hanging on a
        contribution that will never arrive.
        """
        coll = self.collectives.get(key)
        if coll is None:
            return
        if not self.dead_ranks:
            # No failures in the job: everyone is alive, so completion is
            # just a contribution count — no per-call group scan or filtered
            # copy of the contribution dict.
            if len(coll.contribs) < coll.n:
                return
            contribs = coll.contribs
        else:
            alive = [i for i, w in enumerate(coll.group)
                     if w not in self.dead_ranks]
            if not alive:
                # Everyone in the group died: nobody is waiting, drop it.
                del self.collectives[key]
                return
            if not all(i in coll.contribs for i in alive):
                return
            contribs = {i: v for i, v in coll.contribs.items() if i in alive}
        del self.collectives[key]
        # deferred-callback completion: the completion timer is created
        # when the deferral pops, one event hop after the last contribution
        self.engine.defer(self._finish_collective, coll.done,
                          self.collective_cost(coll), contribs)

    def _finish_collective(self, done: Event, delay: float,
                           contribs: dict) -> None:
        self.engine.call_later(delay, done.succeed, contribs)

    # -- failure detection & injection ----------------------------------------
    def register_rank_process(self, world_rank: int, proc: Any) -> None:
        """Associate ``proc`` with ``world_rank`` for targeted rank kills."""
        self._rank_procs[world_rank] = proc

    def lowest_alive_rank(self) -> int:
        """Smallest world rank that has not died (checkpoint writer)."""
        for r in range(self.nranks):
            if r not in self.dead_ranks:
                return r
        raise MPIError("all ranks are dead")

    def kill_rank(self, world_rank: int, reason: str = "") -> None:
        """Kill ``world_rank`` now: fail its process and unblock its peers.

        Peers blocked on the dead rank observe :class:`RankDeadError`
        (pending receives from it are failed, in-flight messages to it are
        dropped); collectives it belonged to complete over the survivors.
        """
        if world_rank in self.dead_ranks:
            return
        if not 0 <= world_rank < self.nranks:
            raise MPIError(f"rank {world_rank} out of range")
        self.dead_ranks.add(world_rank)
        self.pending_calls.pop(world_rank, None)
        exc = RankDeadError(
            world_rank, reason and f"rank {world_rank} died: {reason}")
        proc = self._rank_procs.get(world_rank)
        if proc is not None and proc.is_alive:
            proc.interrupt(exc)
        # Break every receive already posted for the dead peer.
        for box in self._mailboxes:
            box.fail_pending(
                lambda meta: isinstance(meta, dict)
                and meta.get("src") == world_rank,
                RankDeadError(world_rank,
                              f"peer rank {world_rank} died mid-receive"))
        # Collectives missing only this rank's contribution can now finish.
        for key in list(self.collectives):
            self.maybe_finish_collective(key)

    # -- job control ----------------------------------------------------------
    def launch(self, program: Callable[..., Any], *args: Any,
               ranks: Optional[Iterable[int]] = None, **kwargs: Any):
        """Start ``program(comm, *args, **kwargs)`` on each rank.

        ``program`` is a generator function taking the rank's COMM_WORLD view
        first.  Returns the list of rank Processes.
        """
        procs = []
        for r in (range(self.nranks) if ranks is None else ranks):
            comm = self.comm_world(r)
            proc = self.engine.process(program(comm, *args, **kwargs),
                                       name=f"rank{r}")
            self.register_rank_process(r, proc)
            procs.append(proc)
        return procs

    def run(self, procs, until: Optional[float] = None):
        """Run the engine; raise if any rank program failed.

        Distinguishes three abnormal outcomes:

        * :class:`JobKilledError` — the engine was stopped by injection;
        * a rank program's own exception (re-raised, except rank deaths,
          which are an *injected* outcome the survivors already absorbed);
        * :class:`DeadlockError` — the event queue drained while rank
          programs were still blocked; the message lists each stuck rank
          and the MPI call it is waiting in.
        """
        self.engine.run(until=until)
        if self.engine.stop_reason is not None:
            raise JobKilledError(self.engine.stop_reason, self.engine.now)
        # Surface real failures before reporting any consequent deadlock.
        for p in procs:
            if p.triggered and not p.ok and not isinstance(p.value,
                                                           RankDeadError):
                raise p.value
        stuck = [p for p in procs if not p.triggered]
        if stuck:
            blocked = []
            parts = []
            for p in stuck:
                rank = next((r for r, proc in self._rank_procs.items()
                             if proc is p), None)
                call, since = self.pending_calls.get(rank, ("?", None))
                blocked.append((p.name, call, since))
                if since is not None:
                    parts.append(f"{p.name} blocked in {call!r} "
                                 f"since t={since:.6f}s")
                else:
                    parts.append(f"{p.name} not inside an MPI call")
            raise DeadlockError(
                f"deadlock at simulated t={self.engine.now:.6f}s: "
                f"{len(stuck)} of {len(procs)} rank processes never "
                f"completed — {'; '.join(parts)}", blocked=blocked)
        return [p.value for p in procs]
