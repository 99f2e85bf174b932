"""Tests for trace export (Paraver) and mesh export (legacy VTK).

The exact bytes of the VTK export are pinned by the ``mesh/vtk`` entry of
``tests/golden_digests.json``.
"""

import io

import numpy as np
import pytest

from repro.mesh import MeshResolution, Segment, build_tube_mesh
from repro.mesh.io import write_vtk
from repro.trace import PhaseLog, write_prv


def sample_log():
    log = PhaseLog(nranks=2)
    log.add(0, "assembly", 0, 0.0, 1.5e-3, busy=1.4e-3, instructions=1e6)
    log.add(0, "assembly", 1, 0.0, 2.0e-3, busy=1.9e-3, instructions=2e6)
    log.add(0, "particles", 0, 2.0e-3, 2.1e-3, busy=0.1e-3,
            instructions=5e4)
    log.add(1, "assembly", 0, 3.0e-3, 4.0e-3, busy=0.9e-3, instructions=9e5)
    return log


class TestPrvExport:
    def test_structure(self):
        log = sample_log()
        buf = io.StringIO()
        states = write_prv(log, buf)
        assert states == {"assembly": 1, "particles": 2}
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("#Paraver")
        records = [ln for ln in lines if not ln.startswith("#")]
        assert len(records) == 4
        # record fields: 1:cpu:appl:task:thread:begin:end:state
        first = records[0].split(":")
        assert first[0] == "1"
        assert int(first[5]) <= int(first[6])

    def test_states_match_phases(self):
        log = sample_log()
        buf = io.StringIO()
        states = write_prv(log, buf)
        for line in buf.getvalue().splitlines():
            if line.startswith("#"):
                continue
            state = int(line.split(":")[-1])
            assert state in states.values()

    def test_times_in_nanoseconds(self):
        log = sample_log()
        buf = io.StringIO()
        write_prv(log, buf)
        records = [ln for ln in buf.getvalue().splitlines()
                   if not ln.startswith("#")]
        ends = [int(r.split(":")[6]) for r in records]
        assert max(ends) == int(round(4.0e-3 * 1e9))


@pytest.fixture(scope="module")
def tube():
    seg = Segment(sid=3, parent=-1, generation=0, start=np.zeros(3),
                  direction=np.array([0.0, 0.0, -1.0]), length=0.03,
                  radius=0.008)
    return build_tube_mesh(seg, MeshResolution(points_per_ring=6))


class TestVTKRoundTrip:
    """What ``write_vtk`` writes, read back from its text."""

    def test_extra_cell_data(self, tube):
        buf = io.StringIO()
        partition = np.arange(tube.nelem) % 4
        write_vtk(tube, buf, cell_data={"part": partition})
        lines = buf.getvalue().splitlines()
        for name, values in (("region", tube.regions), ("part", partition)):
            at = lines.index(f"SCALARS {name} int 1") + 2
            assert lines[at:at + tube.nelem] == [str(v) for v in values]

    def test_wrong_cell_data_shape_rejected(self, tube):
        with pytest.raises(ValueError):
            write_vtk(tube, io.StringIO(), cell_data={"x": np.zeros(3)})

    def test_cell_type_ids(self, tube):
        buf = io.StringIO()
        write_vtk(tube, buf)
        text = buf.getvalue()
        assert "10" in text.split("CELL_TYPES")[1]  # tets present
        assert "13" in text.split("CELL_TYPES")[1]  # prisms present
