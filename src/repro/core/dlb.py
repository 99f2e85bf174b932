"""DLB — Dynamic Load Balancing library (LeWI policy).

Reimplementation of the behaviour of BSC's DLB library as evaluated in the
paper: a runtime that is *transparent to the application* (it attaches via
PMPI interception and resizes OpenMP teams; no source changes) and reacts to
load imbalance as it appears:

* when an MPI process enters a blocking MPI call, its cores are **lent** to
  the node-local pool (LeWI: "Lend When Idle");
* hungry teams on the same node (those with more runnable tasks than cores)
  **borrow** from the pool immediately;
* when the blocked process returns from MPI it **reclaims** its cores —
  taken back from the pool or, if already re-assigned, from borrowers at
  task-boundary granularity (the granularity at which the real DLB acts via
  ``omp_set_num_threads``).

DLB only ever moves cores *within a node* (it works over shared memory),
which is why the process-to-node mapping matters for coupled executions.

Usage::

    world = World(engine, cluster, nranks)
    dlb = DLB(world)                    # registers the PMPI hook
    dlb.attach_team(rank, team)         # one team per rank
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..smpi import World
from .runtime import Team

__all__ = ["DLB", "DLBStats"]


@dataclass
class DLBStats:
    """Tallies describing DLB activity during a run."""

    lend_events: int = 0
    borrow_events: int = 0
    reclaim_events: int = 0
    cores_lent_total: int = 0
    cores_borrowed_total: int = 0
    max_team_capacity: int = 0
    rank_death_events: int = 0
    cores_inherited: int = 0      # dead ranks' cores absorbed into pools
    throttle_events: int = 0


class DLB:
    """LeWI dynamic load balancing over a simulated MPI world.

    Parameters
    ----------
    world:
        The MPI job to attach to (the PMPI hook is registered here).
    enabled:
        If False the object records nothing and never moves cores — handy
        for "original vs DLB" experiment sweeps sharing one code path.
    """

    POLICIES = ("lewi", "lewi_half")

    def __init__(self, world: World, enabled: bool = True,
                 policy: str = "lewi"):
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown DLB policy {policy!r}; available: {self.POLICIES}")
        self.world = world
        self.enabled = enabled
        self.policy = policy
        self.teams: Dict[int, Team] = {}
        self._pool: Dict[int, int] = {}          # node -> spare cores
        self._lent: Dict[int, int] = {}          # rank -> cores donated
        self._borrowed: Dict[int, int] = {}      # rank -> extra cores held
        self._dead: set[int] = set()
        # node -> attached ranks in attach order (the iteration order of
        # the reclaim and feed scans), rank -> node, so the per-event scans
        # skip the world lookups, and rank -> its bit: 1 << its index in
        # that order.  The node books below are keyed by those bits, most
        # as bitmasks, so a walk from the lowest set bit up is a walk in
        # attach order with no sort.
        self._node_teams: Dict[int, list] = {}
        self._team_node: Dict[int, int] = {}
        self._team_bit: Dict[int, int] = {}
        # node -> the ranks inside a blocking MPI call
        self._in_mpi: Dict[int, int] = {}
        # node -> the feed candidates: ranks that may want cores.  A team
        # only starts wanting cores through a dispatch, which notifies
        # on_team_hungry, or through a DLB shrink when a reclaim pulls
        # cores back from it; both add the rank here, and _feed drops the
        # ranks it finds sated.  So _feed visits the hungry teams without
        # asking every team of the node.  A team running a plan notifies
        # nothing at its task boundaries, so it stays a candidate while its
        # plan runs.
        self._candidates: Dict[int, int] = {}
        # node -> {bit: borrowed cores} of the ranks holding borrowed cores
        # (the reclaim scan), and node -> ranks admitted to plan their graph
        self._borrowers: Dict[int, Dict[int, int]] = {}
        self._planned: Dict[int, set] = {}
        self.stats = DLBStats()
        if enabled:
            world.hooks.register(self)

    # -- setup ----------------------------------------------------------------
    def attach_team(self, rank: int, team: Team) -> None:
        """Register the thread team of ``rank`` for balancing.

        Raises ``ValueError`` if ``rank`` already has a team: a second
        attach would list the rank twice in its node's feed order and reset
        its lent/borrowed books mid-run.
        """
        if rank in self.teams:
            raise ValueError(f"rank {rank} already has a team attached")
        self.teams[rank] = team
        self._lent[rank] = 0
        self._borrowed[rank] = 0
        node = self.world.node_of(rank)
        self._team_node[rank] = node
        ranks = self._node_teams.setdefault(node, [])
        self._team_bit[rank] = 1 << len(ranks)
        ranks.append(rank)
        self._in_mpi.setdefault(node, 0)
        self._candidates.setdefault(node, 0)
        self._borrowers.setdefault(node, {})
        self._planned.setdefault(node, set())
        self._pool.setdefault(node, 0)
        if self.enabled:
            team.listener = self

    # -- PMPI hook interface ----------------------------------------------------
    def on_mpi_enter(self, rank: int, call: str) -> None:
        """PMPI hook: ``rank`` blocked in MPI — lend its idle cores."""
        if rank not in self.teams or rank in self._dead:
            return
        node = self._team_node[rank]
        self._in_mpi[node] |= self._team_bit[rank]
        team = self.teams[rank]
        if team.is_running and team.active_workers > 0:
            return  # mid-graph blocking: keep the cores (rare in fork-join)
        own_available = team.base_threads - self._lent[rank]
        if self.policy == "lewi_half" and own_available > 1:
            # conservative variant: keep half of the own cores so reclaim
            # after short MPI calls is instantaneous
            own_lend = (own_available + 1) // 2
        else:
            own_lend = own_available
        give = self._borrowed[rank] + own_lend
        if give <= 0:
            return
        self._set_borrowed(rank, 0)
        self._lent[rank] += own_lend
        team.set_capacity(team.base_threads - self._lent[rank])
        self._pool[node] += give
        self.stats.lend_events += 1
        self.stats.cores_lent_total += give
        self._feed(node)
        self._settle(node)

    def on_mpi_exit(self, rank: int, call: str) -> None:
        """PMPI hook: ``rank`` resumed — reclaim its lent cores."""
        if rank not in self.teams or rank in self._dead:
            return
        node = self._team_node[rank]
        self._in_mpi[node] &= ~self._team_bit[rank]
        team = self.teams[rank]
        need = self._lent[rank]
        if need <= 0:
            return
        taken = min(need, self._pool[node])
        self._pool[node] -= taken
        need -= taken
        ranks = self._node_teams[node]
        books = self._borrowers[node]
        while need > 0 and books:
            # Pull back from the largest borrower, the first in attach
            # order on ties.  Each pull either covers the rest of the need
            # or empties the borrower, so repeating the max scan visits
            # borrowers in the order of a sort by (-borrowed, attach index)
            most = max(books.values())
            top = min([bit for bit, k in books.items() if k == most])
            other = ranks[top.bit_length() - 1]
            k = min(need, most)
            self._set_borrowed(other, most - k)
            other_team = self.teams[other]
            other_team.set_capacity(other_team.capacity - k)
            # the shrink may leave runnable tasks without a worker
            self._candidates[node] |= top
            need -= k
        if need > 0:  # pragma: no cover - accounting invariant
            raise RuntimeError(
                f"DLB lost track of {need} cores for rank {rank}")
        self._lent[rank] = 0
        team.set_capacity(team.base_threads)
        self.stats.reclaim_events += 1

    # -- Team listener interface -------------------------------------------------
    def on_team_hungry(self, team: Team) -> None:
        """Team listener: grant pooled cores to a capacity-bound team.

        The rank becomes a feed candidate either way; with nothing pooled
        on its node (most notifications) that is all there is to do.
        """
        rank = team.rank
        node = self._team_node.get(rank)
        if node is None or rank in self._dead:
            return
        bit = self._team_bit[rank]
        self._candidates[node] |= bit
        if self._pool[node] <= 0 or self._in_mpi[node] & bit:
            return
        self._grant(node, rank)
        self._settle(node)

    def on_team_idle(self, team: Team) -> None:
        """Team listener: return a finished team's borrowed cores."""
        rank = team.rank
        if rank not in self.teams or rank in self._dead:
            return
        node = self._team_node[rank]
        self._planned[node].discard(rank)
        extra = self._borrowed[rank]
        if extra <= 0:
            return
        self._set_borrowed(rank, 0)
        team.set_capacity(team.base_threads - self._lent[rank])
        self._pool[node] += extra
        self._feed(node)
        self._settle(node)

    def admit_plan(self, team: Team) -> bool:
        """Team listener: whether ``team`` may plan the graph it starts.

        Only while its node pools no cores: LeWI then grants nothing at
        the team's own task boundaries, and the DLB calls that read the
        team get their answers from its plan.  A capacity change moves it
        to the per-task path, and so does :meth:`_settle` once cores are
        pooled on the node.  An admitted team stays a feed candidate while
        its plan runs.
        """
        rank = team.rank
        node = self._team_node.get(rank)
        if node is None or rank in self._dead or self._pool[node] > 0:
            return False
        self._planned[node].add(rank)
        self._candidates[node] |= self._team_bit[rank]
        return True

    # -- fault reaction (graceful degradation) ------------------------------
    def on_rank_death(self, rank: int) -> None:
        """Absorb a dead rank's cores into its node pool permanently.

        The dead rank's whole current capacity (own cores minus lent plus
        borrowed) goes to the pool, where surviving hungry teams on the node
        pick it up — the run degrades instead of idling the hardware.
        """
        if rank not in self.teams or rank in self._dead:
            return
        self._dead.add(rank)
        team = self.teams[rank]
        node = self._team_node[rank]
        inherited = team.capacity
        if inherited > 0:
            self._pool[node] = self._pool.get(node, 0) + inherited
        # Freeze the dead team's books so reclaim math stays conserved.
        self._set_borrowed(rank, 0)
        self._lent[rank] = team.base_threads
        team.set_capacity(0)
        self.stats.rank_death_events += 1
        self.stats.cores_inherited += inherited
        if self.enabled:
            self._feed(node)
            self._settle(node)

    def on_rank_throttle(self, rank: int, factor: float) -> None:
        """Record an injected throttle on ``rank`` (cores keep their count;
        the Team's slowdown stretches task durations, and LeWI naturally
        shifts work away because the straggler stays busy longer)."""
        if rank not in self.teams:
            return
        self.teams[rank].set_slowdown(factor)
        self.stats.throttle_events += 1

    # -- internals --------------------------------------------------------
    def _set_borrowed(self, rank: int, k: int) -> None:
        """Set ``rank``'s borrowed cores, keeping its node's borrower
        books."""
        self._borrowed[rank] = k
        books = self._borrowers[self._team_node[rank]]
        if k > 0:
            books[self._team_bit[rank]] = k
        else:
            books.pop(self._team_bit[rank], None)

    def _settle(self, node: int) -> None:
        """With cores pooled on ``node``, LeWI grants at task boundaries:
        every team there that runs a plan continues task by task."""
        planned = self._planned[node]
        if planned and self._pool[node] > 0:
            for rank in planned:
                self.teams[rank].leave_plan()
            planned.clear()

    def _grant(self, node: int, rank: int) -> None:
        """Give pool cores to ``rank``'s team, bounded by its appetite."""
        pool = self._pool.get(node, 0)
        if pool <= 0:
            return
        team = self.teams[rank]
        appetite = team.ready_count
        k = min(pool, appetite)
        if k <= 0:
            return
        self._pool[node] = pool - k
        self._set_borrowed(rank, self._borrowed[rank] + k)
        team.set_capacity(team.capacity + k)
        self.stats.borrow_events += 1
        self.stats.cores_borrowed_total += k
        self.stats.max_team_capacity = max(self.stats.max_team_capacity,
                                           team.capacity)

    def _feed(self, node: int) -> None:
        """Distribute pooled cores among currently hungry teams on ``node``.

        Walks the node's feed candidates present when it starts, in attach
        order, until the pool is empty, granting to each team that wants
        cores and dropping the ones that do not.  Ranks inside MPI are
        skipped and stay candidates: they may want cores again when they
        return.  A grant changes only the granted team, so asking each team
        as the walk reaches it gives the grants a scan of every team made
        up front would; a team that becomes a candidate during the walk
        waits for the next feed.
        """
        ranks = self._node_teams[node]
        pool = self._pool
        walk = self._candidates[node] & ~self._in_mpi[node]
        while walk and pool[node] > 0:
            bit = walk & -walk
            walk ^= bit
            rank = ranks[bit.bit_length() - 1]
            team = self.teams[rank]
            if rank in self._dead or not team.wants_cores:
                if not team.planned:
                    self._candidates[node] &= ~bit
                continue
            self._grant(node, rank)

    # -- introspection -----------------------------------------------------
    def pool_size(self, node: int) -> int:
        """Spare cores currently pooled on ``node``."""
        return self._pool.get(node, 0)

    def borrowed_by(self, rank: int) -> int:
        """Extra cores ``rank``'s team currently holds."""
        return self._borrowed.get(rank, 0)
