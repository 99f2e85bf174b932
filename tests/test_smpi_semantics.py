"""Additional simulated-MPI semantics tests (ordering, sizes, self-sends)."""

import numpy as np
import pytest

from repro.machine import marenostrum4
from repro.sim import Engine
from repro.smpi import World


def make_world(nranks=2):
    return World(Engine(), marenostrum4(), nranks)


class TestMessageOrdering:
    def test_fifo_between_same_pair_same_tag(self):
        """MPI guarantees non-overtaking for matching (src, tag) pairs;
        equal-size messages of the same tag must arrive in send order."""
        world = make_world(2)

        def program(comm):
            if comm.rank == 0:
                for i in range(5):
                    yield from comm.send(i, dest=1, tag=7, nbytes=64)
                return None
            got = []
            for _ in range(5):
                got.append((yield from comm.recv(source=0, tag=7)))
            return got

        results = world.run(world.launch(program))
        assert results[1] == [0, 1, 2, 3, 4]

    def test_isend_flood_all_delivered(self):
        world = make_world(2)

        def program(comm):
            if comm.rank == 0:
                reqs = [comm.isend(i, dest=1, nbytes=8) for i in range(20)]
                yield from comm.waitall(reqs)
                return None
            got = []
            for _ in range(20):
                got.append((yield from comm.recv(source=0)))
            return sorted(got)

        results = world.run(world.launch(program))
        assert results[1] == list(range(20))


class TestTransferCosts:
    def test_time_monotone_in_message_size(self):
        times = []
        for nbytes in (1e2, 1e5, 1e8):
            world = make_world(2)

            def program(comm, nbytes=nbytes):
                if comm.rank == 0:
                    yield from comm.send(None, dest=1, nbytes=nbytes)
                else:
                    yield from comm.recv(source=0)

            world.run(world.launch(program))
            times.append(world.engine.now)
        assert times[0] < times[1] < times[2]

    def test_numpy_payload_size_inferred(self):
        small, big = None, None
        for arr_len in (10, 1_000_000):
            world = make_world(2)
            payload = np.zeros(arr_len)

            def program(comm, payload=payload):
                if comm.rank == 0:
                    yield from comm.send(payload, dest=1)
                else:
                    yield from comm.recv(source=0)

            world.run(world.launch(program))
            if arr_len == 10:
                small = world.engine.now
            else:
                big = world.engine.now
        assert big > small

    def test_self_send(self):
        """A rank can send to itself (buffered delivery)."""
        world = make_world(1)

        def program(comm):
            req = comm.isend("hello me", dest=0, tag=1)
            msg = yield from comm.recv(source=0, tag=1)
            yield from comm.wait(req)
            return msg

        assert world.run(world.launch(program)) == ["hello me"]


class TestAccountingExtra:
    def test_compute_accumulates(self):
        world = make_world(2)

        def program(comm):
            yield from comm.compute(1.0)
            yield from comm.compute(2.5)
            return comm.engine.now

        assert world.run(world.launch(program)) == [pytest.approx(3.5)] * 2
        assert world.engine.now == pytest.approx(3.5)

    def test_block_mapping_groups_ranks(self):
        world = World(Engine(), marenostrum4(num_nodes=2), 8,
                      mapping="block")
        assert [world.node_of(r) for r in range(8)] == [0] * 4 + [1] * 4

    def test_comm_world_view_consistency(self):
        world = make_world(3)
        for r in range(3):
            comm = world.comm_world(r)
            assert comm.rank == r
            assert comm.size == 3
            assert comm.world_rank_of(r) == r
