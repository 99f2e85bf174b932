"""Unit tests for the simulated MPI layer."""

import numpy as np
import pytest

from repro.machine import marenostrum4, thunder
from repro.sim import Engine
from repro.smpi import ANY_SOURCE, ANY_TAG, MPIError, World


def make_world(nranks=4, cluster=None, mapping="block"):
    eng = Engine()
    return World(eng, cluster or marenostrum4(), nranks, mapping=mapping)


class TestPointToPoint:
    def test_send_recv_pair(self):
        world = make_world(2)

        def program(comm):
            if comm.rank == 0:
                yield from comm.send({"a": 7}, dest=1, tag=11)
                return None
            data = yield from comm.recv(source=0, tag=11)
            return data

        results = world.run(world.launch(program))
        assert results[1] == {"a": 7}

    def test_send_takes_simulated_time(self):
        world = make_world(2)

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(1000), dest=1)
            else:
                yield from comm.recv(source=0)

        world.run(world.launch(program))
        assert world.engine.now > 0.0

    def test_internode_slower_than_intranode(self):
        # With 4 ranks over 2 nodes: block puts ranks 0,1 on node 0
        # (intranode transfer); cyclic puts them on different nodes.
        times = {}
        for mapping in ("block", "cyclic"):
            world = make_world(4, mapping=mapping)
            payload = np.zeros(100_000)

            def program(comm):
                if comm.rank == 0:
                    yield from comm.send(payload, dest=1)
                elif comm.rank == 1:
                    yield from comm.recv(source=0)
                else:
                    yield from comm.compute(0.0)

            world.run(world.launch(program))
            times[mapping] = world.engine.now
        assert times["cyclic"] > times["block"]

    def test_tag_matching(self):
        world = make_world(2)

        def program(comm):
            if comm.rank == 0:
                yield from comm.send("first", dest=1, tag=1)
                yield from comm.send("second", dest=1, tag=2)
                return None
            second = yield from comm.recv(source=0, tag=2)
            first = yield from comm.recv(source=0, tag=1)
            return (first, second)

        results = world.run(world.launch(program))
        assert results[1] == ("first", "second")

    def test_any_source_any_tag(self):
        world = make_world(3)

        def program(comm):
            if comm.rank != 2:
                yield from comm.send(comm.rank, dest=2, tag=comm.rank + 10)
                return None
            got = []
            for _ in range(2):
                got.append((yield from comm.recv(source=ANY_SOURCE,
                                                 tag=ANY_TAG)))
            return sorted(got)

        results = world.run(world.launch(program))
        assert results[2] == [0, 1]

    def test_isend_wait(self):
        world = make_world(2)

        def program(comm):
            if comm.rank == 0:
                req = comm.isend(np.arange(10), dest=1)
                yield from comm.wait(req)
                return None
            data = yield from comm.recv(source=0)
            return list(data)

        results = world.run(world.launch(program))
        assert results[1] == list(range(10))

    def test_irecv_waitall(self):
        world = make_world(3)

        def program(comm):
            if comm.rank != 0:
                yield from comm.send(comm.rank * 100, dest=0, tag=comm.rank)
                return None
            reqs = [comm.irecv(source=s, tag=s) for s in (1, 2)]
            msgs = yield from comm.waitall(reqs)
            return [m.payload for m in msgs]

        results = world.run(world.launch(program))
        assert results[0] == [100, 200]

    def test_recv_msg_envelope(self):
        world = make_world(2)

        def program(comm):
            if comm.rank == 0:
                yield from comm.send("x", dest=1, tag=9)
                return None
            msg = yield from comm.wait(comm.irecv())
            return (msg.src, msg.tag, msg.payload)

        results = world.run(world.launch(program))
        assert results[1] == (0, 9, "x")

    def test_dest_out_of_range(self):
        world = make_world(2)

        def program(comm):
            if comm.rank == 0:
                yield from comm.send("x", dest=5)

        with pytest.raises(MPIError):
            world.run(world.launch(program))

    def test_deadlock_detected(self):
        world = make_world(2)

        def program(comm):
            # both ranks receive, nobody sends
            yield from comm.recv()

        with pytest.raises(MPIError, match="deadlock"):
            world.run(world.launch(program))


class TestCollectives:
    def test_barrier_synchronizes(self):
        world = make_world(4)
        arrive, leave = {}, {}

        def program(comm):
            yield from comm.compute(comm.rank * 1.0)  # staggered arrival
            arrive[comm.rank] = comm.engine.now
            yield from comm.barrier()
            leave[comm.rank] = comm.engine.now

        world.run(world.launch(program))
        assert max(arrive.values()) == pytest.approx(3.0)
        assert all(t >= 3.0 for t in leave.values())
        assert len(set(round(t, 9) for t in leave.values())) == 1

    def test_allreduce_sum(self):
        world = make_world(4)

        def program(comm):
            total = yield from comm.allreduce(comm.rank + 1)
            return total

        results = world.run(world.launch(program))
        assert results == [10, 10, 10, 10]

    def test_allreduce_custom_op(self):
        world = make_world(4)

        def program(comm):
            result = yield from comm.allreduce(comm.rank, op=max)
            return result

        assert world.run(world.launch(program)) == [3, 3, 3, 3]

    def test_reduce_to_root(self):
        world = make_world(3)

        def program(comm):
            return (yield from comm.reduce(comm.rank + 1, root=1))

        assert world.run(world.launch(program)) == [None, 6, None]

    def test_alltoall(self):
        world = make_world(3)

        def program(comm):
            values = [f"{comm.rank}->{d}" for d in range(3)]
            return (yield from comm.alltoall(values))

        results = world.run(world.launch(program))
        assert results[1] == ["0->1", "1->1", "2->1"]

    def test_collective_mismatch_detected(self):
        world = make_world(2)

        def program(comm):
            if comm.rank == 0:
                yield from comm.barrier()
            else:
                yield from comm.allreduce(1)

        with pytest.raises(MPIError, match="mismatch"):
            world.run(world.launch(program))

    def test_collective_takes_time(self):
        world = make_world(4)

        def program(comm):
            yield from comm.allreduce(float(comm.rank))

        world.run(world.launch(program))
        assert world.engine.now > 0.0

    def test_repeated_collectives(self):
        world = make_world(3)

        def program(comm):
            totals = []
            for step in range(5):
                totals.append((yield from comm.allreduce(step + comm.rank)))
            return totals

        results = world.run(world.launch(program))
        # step s: sum over ranks of (s + r) = 3s + 3
        assert results[0] == [3 * s + 3 for s in range(5)]


class TestSubCommunicators:
    def test_split_disjoint_groups(self):
        world = make_world(6)
        (fluid, particles) = world.split([[0, 1, 2, 3], [4, 5]])
        assert fluid[0].size == 4 and particles[0].size == 2
        assert particles[1].world_rank == 5

    def test_overlapping_groups_rejected(self):
        world = make_world(4)
        with pytest.raises(MPIError):
            world.split([[0, 1], [1, 2]])

    def test_collectives_stay_within_group(self):
        world = make_world(4)
        (ga, gb) = world.split([[0, 1], [2, 3]])
        comms = {0: ga[0], 1: ga[1], 2: gb[0], 3: gb[1]}

        def program(comm):
            sub = comms[comm.rank]
            return (yield from sub.allreduce(comm.rank))

        results = world.run(world.launch(program))
        assert results == [1, 1, 5, 5]  # 0+1 and 2+3

    def test_p2p_between_groups_via_world(self):
        world = make_world(4)
        world.split([[0, 1], [2, 3]])  # groups exist but we use comm world

        def program(comm):
            if comm.rank == 0:
                yield from comm.send("cross", dest=3)
                return None
            if comm.rank == 3:
                return (yield from comm.recv(source=0))
            yield from comm.compute(0.0)
            return None

        results = world.run(world.launch(program))
        assert results[3] == "cross"


class TestAccounting:
    def test_mpi_time_accounted_for_waiting_rank(self):
        """What a PMPI tool (DLB) sees: rank 1 blocks in recv until rank 0
        has computed for 5 s and sent."""
        world = make_world(2)
        entered, spans = {}, {}

        class Probe:
            def on_mpi_enter(self, rank, call):
                entered[rank, call] = world.engine.now

            def on_mpi_exit(self, rank, call):
                spans[rank, call] = (entered[rank, call], world.engine.now)

        world.hooks.register(Probe())

        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(5.0)
                yield from comm.send("late", dest=1)
            else:
                yield from comm.recv(source=0)

        world.run(world.launch(program))
        t0, t1 = spans[1, "recv"]
        assert t1 - t0 >= 5.0
        assert spans[0, "send"][0] == pytest.approx(5.0)

    def test_hooks_see_blocking_calls(self):
        world = make_world(2)
        events = []

        class Spy:
            def on_mpi_enter(self, rank, call):
                events.append(("enter", rank, call))

            def on_mpi_exit(self, rank, call):
                events.append(("exit", rank, call))

        world.hooks.register(Spy())

        def program(comm):
            if comm.rank == 0:
                yield from comm.send("x", dest=1)
            else:
                yield from comm.recv(source=0)

        world.run(world.launch(program))
        calls = {(kind, call) for kind, _, call in events}
        assert ("enter", "send") in calls and ("exit", "send") in calls
        assert ("enter", "recv") in calls and ("exit", "recv") in calls

    def test_ranks_on_node(self):
        world = make_world(4, mapping="cyclic")
        assert [world.node_of(r) for r in range(4)] == [0, 1, 0, 1]


class TestScale:
    def test_96_rank_allreduce_on_thunder(self):
        eng = Engine()
        world = World(eng, thunder(), 96)

        def program(comm):
            return (yield from comm.allreduce(1))

        results = world.run(world.launch(program))
        assert results == [96] * 96
