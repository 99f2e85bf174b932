"""Unit tests for the machine models and the calibration of the presets."""

import pytest
from hypothesis import given, strategies as st

from repro.machine import (
    WorkSpec,
    InterconnectModel,
    NodeModel,
    get_cluster,
    marenostrum4,
    rank_to_node,
    thunder,
)

#: Atomic fraction of the assembly kernel on the reference element mix
#: (nn^2+nn scatter updates; see repro.app.costs).
ASSEMBLY_ATOMIC_FRAC = 0.0136


class TestWorkSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkSpec(-1.0)
        with pytest.raises(ValueError):
            WorkSpec(1.0, atomic_frac=1.5)
        with pytest.raises(ValueError):
            WorkSpec(1.0, extra_miss_frac=-0.1)
        with pytest.raises(ValueError):
            WorkSpec(1.0, ipc_factor=0.0)

    def test_scaled(self):
        spec = WorkSpec(100.0, atomic_frac=0.01, ipc_factor=0.9)
        spec2 = spec.scaled(2.0)
        assert spec2.instructions == 200.0
        assert spec2.atomic_frac == 0.01
        assert spec2.ipc_factor == 0.9


class TestCoreModel:
    def test_base_ipc_without_penalties(self):
        core = marenostrum4().node.core
        assert core.effective_ipc(WorkSpec(1e6)) == pytest.approx(2.25)

    def test_seconds_scales_linearly_with_instructions(self):
        core = thunder().node.core
        t1 = core.seconds(WorkSpec(1e6))
        t2 = core.seconds(WorkSpec(2e6))
        assert t2 == pytest.approx(2 * t1)

    def test_zero_instructions_is_free(self):
        core = thunder().node.core
        assert core.seconds(WorkSpec(0.0)) == 0.0

    def test_atomics_reduce_ipc(self):
        core = marenostrum4().node.core
        plain = core.effective_ipc(WorkSpec(1e6))
        atomic = core.effective_ipc(WorkSpec(1e6, atomic_frac=0.02))
        assert atomic < plain

    def test_instructions_in_inverts_seconds(self):
        core = marenostrum4().node.core
        spec = WorkSpec(3.7e8, atomic_frac=0.01, extra_miss_frac=0.005)
        t = core.seconds(spec)
        assert core.instructions_in(t, spec) == pytest.approx(
            spec.instructions, rel=1e-9)

    @given(st.floats(min_value=1.0, max_value=1e12),
           st.floats(min_value=0.0, max_value=0.2),
           st.floats(min_value=0.0, max_value=0.2))
    def test_ipc_never_exceeds_base(self, instr, af, mf):
        core = marenostrum4().node.core
        ipc = core.effective_ipc(WorkSpec(instr, atomic_frac=af,
                                          extra_miss_frac=mf))
        assert ipc <= core.base_ipc + 1e-12

    @given(st.floats(min_value=0.001, max_value=0.2))
    def test_atomics_hurt_ooo_intel_relatively_more(self, atomic_frac):
        """The paper's architecture asymmetry, as a model property."""
        intel = marenostrum4().node.core
        arm = thunder().node.core
        spec = WorkSpec(1e6, atomic_frac=atomic_frac)
        intel_ratio = intel.effective_ipc(spec) / intel.base_ipc
        arm_ratio = arm.effective_ipc(spec) / arm.base_ipc
        assert intel_ratio < arm_ratio


class TestCalibration:
    """Presets must reproduce the IPC counters of Section 4.3."""

    def test_mn4_mpi_only_ipc(self):
        core = marenostrum4().node.core
        assert core.effective_ipc(WorkSpec(1.0)) == pytest.approx(2.25, abs=0.05)

    def test_mn4_atomics_ipc(self):
        core = marenostrum4().node.core
        ipc = core.effective_ipc(WorkSpec(1.0, atomic_frac=ASSEMBLY_ATOMIC_FRAC))
        assert ipc == pytest.approx(1.15, abs=0.10)

    def test_thunder_mpi_only_ipc(self):
        core = thunder().node.core
        assert core.effective_ipc(WorkSpec(1.0)) == pytest.approx(0.49, abs=0.02)

    def test_thunder_atomics_ipc(self):
        core = thunder().node.core
        ipc = core.effective_ipc(WorkSpec(1.0, atomic_frac=ASSEMBLY_ATOMIC_FRAC))
        assert ipc == pytest.approx(0.42, abs=0.02)

    def test_multidep_ipc_factor_band(self):
        """0.95 derating lands in the paper's 94-96 % band on both cores."""
        for cluster in (marenostrum4(), thunder()):
            core = cluster.node.core
            ratio = (core.effective_ipc(WorkSpec(1.0, ipc_factor=0.95))
                     / core.base_ipc)
            assert 0.94 <= ratio <= 0.96

    def test_coloring_between_atomics_and_multidep(self):
        """Coloring IPC must beat atomics on both architectures (Sec. 4.3),
        at the miss fraction the coloring strategy actually uses."""
        from repro.core import DEFAULT_PARAMS
        color = WorkSpec(1.0,
                         extra_miss_frac=DEFAULT_PARAMS.color_extra_miss_frac)
        atomics = WorkSpec(1.0, atomic_frac=ASSEMBLY_ATOMIC_FRAC)
        multidep = WorkSpec(1.0, ipc_factor=0.95)
        for cluster in (marenostrum4(), thunder()):
            core = cluster.node.core
            assert core.effective_ipc(color) > core.effective_ipc(atomics)
            assert core.effective_ipc(color) < core.effective_ipc(multidep)


class TestNodeAndCluster:
    def test_node_core_count(self):
        assert marenostrum4().node.cores == 48
        assert thunder().node.cores == 96

    def test_total_cores(self):
        assert marenostrum4(num_nodes=2).total_cores == 96
        assert thunder(num_nodes=2).total_cores == 192

    def test_interconnect_transfer_time(self):
        link = InterconnectModel("x", latency_us=10.0, bandwidth_gbs=5.0)
        assert link.transfer_seconds(0) == pytest.approx(10e-6)
        # 5 GB at 5 GB/s = 1 s plus latency
        assert link.transfer_seconds(5e9) == pytest.approx(1.0 + 10e-6)

    def test_negative_message_size_rejected(self):
        link = InterconnectModel("x", latency_us=1.0, bandwidth_gbs=1.0)
        with pytest.raises(ValueError):
            link.transfer_seconds(-1)

    def test_intranode_cheaper_than_internode(self):
        for cluster in (marenostrum4(), thunder()):
            same = cluster.message_seconds(0, 0, 1e6)
            cross = cluster.message_seconds(0, 1, 1e6)
            assert same < cross

    def test_get_cluster_lookup(self):
        assert get_cluster("mn4").name == "MareNostrum4"
        assert get_cluster("THUNDER").name == "Thunder"
        with pytest.raises(KeyError):
            get_cluster("summit")

    def test_invalid_node(self):
        core = thunder().node.core
        with pytest.raises(ValueError):
            NodeModel("bad", sockets=0, cores_per_socket=4, core=core,
                      mem_bw_gbs=1.0)


class TestRankToNode:
    def test_block_mapping(self):
        # 96 ranks over 2 nodes: first 48 on node 0
        assert rank_to_node(0, 96, 2, "block") == 0
        assert rank_to_node(47, 96, 2, "block") == 0
        assert rank_to_node(48, 96, 2, "block") == 1
        assert rank_to_node(95, 96, 2, "block") == 1

    def test_cyclic_mapping(self):
        assert rank_to_node(0, 96, 2, "cyclic") == 0
        assert rank_to_node(1, 96, 2, "cyclic") == 1
        assert rank_to_node(2, 96, 2, "cyclic") == 0

    def test_block_mapping_uneven(self):
        # 5 ranks over 2 nodes: ceil(5/2)=3 per node
        nodes = [rank_to_node(r, 5, 2, "block") for r in range(5)]
        assert nodes == [0, 0, 0, 1, 1]

    @given(st.integers(min_value=1, max_value=256),
           st.integers(min_value=1, max_value=8))
    def test_every_rank_lands_on_valid_node(self, nranks, nnodes):
        for mapping in ("block", "cyclic"):
            for r in range(nranks):
                node = rank_to_node(r, nranks, nnodes, mapping)
                assert 0 <= node < nnodes

    def test_out_of_range_rank(self):
        with pytest.raises(ValueError):
            rank_to_node(10, 10, 2)
        with pytest.raises(ValueError):
            rank_to_node(-1, 10, 2)

    def test_unknown_mapping(self):
        with pytest.raises(ValueError):
            rank_to_node(0, 4, 2, "scatter")
