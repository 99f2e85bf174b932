"""Tests for trace export (CSV / Paraver) and mesh I/O (legacy VTK)."""

import io

import numpy as np
import pytest

from repro.mesh import MeshResolution, Segment, build_tube_mesh
from repro.mesh.io import read_vtk, write_vtk
from repro.trace import PhaseLog, read_csv, write_csv, write_prv


def sample_log():
    log = PhaseLog(nranks=2)
    log.add(0, "assembly", 0, 0.0, 1.5e-3, busy=1.4e-3, instructions=1e6)
    log.add(0, "assembly", 1, 0.0, 2.0e-3, busy=1.9e-3, instructions=2e6)
    log.add(0, "particles", 0, 2.0e-3, 2.1e-3, busy=0.1e-3,
            instructions=5e4)
    log.add(1, "assembly", 0, 3.0e-3, 4.0e-3, busy=0.9e-3, instructions=9e5)
    return log


class TestCSVRoundTrip:
    def test_lossless(self):
        log = sample_log()
        buf = io.StringIO()
        write_csv(log, buf)
        buf.seek(0)
        back = read_csv(buf, nranks=2)
        assert len(back.samples) == len(log.samples)
        for a, b in zip(log.samples, back.samples):
            assert a == b

    def test_metrics_survive(self):
        log = sample_log()
        buf = io.StringIO()
        write_csv(log, buf)
        buf.seek(0)
        back = read_csv(buf, nranks=2)
        assert back.load_balance("assembly") == pytest.approx(
            log.load_balance("assembly"))
        assert back.percent_time("particles") == pytest.approx(
            log.percent_time("particles"))

    def test_file_paths(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        write_csv(sample_log(), path)
        back = read_csv(path, nranks=2)
        assert len(back.samples) == 4

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_csv(io.StringIO("nope\n"), nranks=2)


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
    def test_mesh_survives(self, tube, tmp_path):
        path = str(tmp_path / "tube.vtk")
        write_vtk(tube, path)
        back, data = read_vtk(path)
        assert back.nnodes == tube.nnodes
        assert back.nelem == tube.nelem
        np.testing.assert_allclose(back.coords, tube.coords)
        np.testing.assert_array_equal(back.elem_types, tube.elem_types)
        np.testing.assert_array_equal(back.elem_nodes, tube.elem_nodes)
        np.testing.assert_array_equal(back.regions, tube.regions)

    def test_volumes_preserved(self, tube):
        buf = io.StringIO()
        write_vtk(tube, buf)
        buf.seek(0)
        back, _ = read_vtk(buf)
        assert back.volumes().sum() == pytest.approx(tube.volumes().sum())

    def test_extra_cell_data(self, tube):
        buf = io.StringIO()
        partition = np.arange(tube.nelem) % 4
        write_vtk(tube, buf, cell_data={"part": partition})
        buf.seek(0)
        _, data = read_vtk(buf)
        np.testing.assert_array_equal(data["part"], partition)
        assert "region" in data

    def test_wrong_cell_data_shape_rejected(self, tube):
        with pytest.raises(ValueError):
            write_vtk(tube, io.StringIO(), cell_data={"x": np.zeros(3)})

    def test_cell_type_ids(self, tube):
        buf = io.StringIO()
        write_vtk(tube, buf)
        text = buf.getvalue()
        assert "10" in text.split("CELL_TYPES")[1]  # tets present
        assert "13" in text.split("CELL_TYPES")[1]  # prisms present

    def test_rejects_non_vtk(self):
        with pytest.raises(ValueError):
            read_vtk(io.StringIO("hello\nworld\n"))
