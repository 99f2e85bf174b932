"""Unit tests for the FEM substrate: shape functions, assembly, SGS."""

import numpy as np
import pytest

from repro.fem import (
    SGSState,
    assemble_operator,
    element_work_meters,
    reference_element,
    update_sgs,
)
from repro.mesh import ElementType, Mesh, MeshResolution, Segment, build_tube_mesh


# ---------------------------------------------------------------------------
# reference elements
# ---------------------------------------------------------------------------

class TestReferenceElements:
    @pytest.mark.parametrize("etype", list(ElementType))
    def test_partition_of_unity(self, etype):
        ref = reference_element(etype)
        np.testing.assert_allclose(ref.N.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("etype", list(ElementType))
    def test_gradient_of_unity_is_zero(self, etype):
        ref = reference_element(etype)
        np.testing.assert_allclose(ref.dN.sum(axis=1), 0.0, atol=1e-12)

    def test_tet_reference_volume(self):
        ref = reference_element(ElementType.TET)
        assert ref.weights.sum() == pytest.approx(1.0 / 6.0)

    def test_prism_reference_volume(self):
        ref = reference_element(ElementType.PRISM)
        # triangle area 1/2 times z-length 2
        assert ref.weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("etype,coords,expected", [
        (ElementType.TET,
         np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
         1.0 / 6.0),
        (ElementType.PRISM,
         np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0],
                   [0, 0, 2], [1, 0, 2], [0, 1, 2]]),
         1.0),
        (ElementType.PYRAMID,
         np.array([[-1., -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0],
                   [0, 0, 1.5]]),
         4.0 * 1.5 / 3.0),
    ])
    def test_quadrature_integrates_volume(self, etype, coords, expected):
        ref = reference_element(etype)
        J = np.einsum("qni,nj->qij", ref.dN, coords)
        detJ = np.abs(np.linalg.det(J))
        assert (detJ * ref.weights).sum() == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# assembly on a structured tet mesh of the unit cube
# ---------------------------------------------------------------------------

def unit_cube_tets(n=3):
    """Conforming tet mesh of the unit cube, n^3 cells, 6 tets each."""
    xs = np.linspace(0.0, 1.0, n + 1)
    coords = np.array([[x, y, z] for x in xs for y in xs for z in xs])

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    tets = []
    # Kuhn subdivision of each cube: 6 tets, globally conforming
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                base = np.array([i, j, k])
                for perm in perms:
                    path = [base.copy()]
                    p = base.copy()
                    for axis in perm:
                        p = p.copy()
                        p[axis] += 1
                        path.append(p)
                    tets.append([vid(*q) for q in path])
    conn = np.full((len(tets), 6), -1, dtype=np.int32)
    conn[:, :4] = np.asarray(tets, dtype=np.int32)
    types = np.full(len(tets), ElementType.TET, dtype=np.int8)
    return Mesh(coords, types, conn)


@pytest.fixture(scope="module")
def cube():
    return unit_cube_tets(3)


@pytest.fixture(scope="module")
def tube():
    seg = Segment(sid=0, parent=-1, generation=0, start=np.zeros(3),
                  direction=np.array([0.0, 0.0, -1.0]), length=0.04,
                  radius=0.01)
    return build_tube_mesh(seg, MeshResolution(points_per_ring=8))


class TestAssembly:
    def test_stiffness_annihilates_constants(self, cube):
        res = assemble_operator(cube, kappa=1.0)
        ones = np.ones(cube.nnodes)
        np.testing.assert_allclose(res.matrix @ ones, 0.0, atol=1e-10)

    def test_stiffness_symmetric(self, cube):
        K = assemble_operator(cube, kappa=1.0).matrix
        assert abs(K - K.T).max() < 1e-12

    def test_stiffness_energy_of_linear_field(self, cube):
        """For u = x on the unit cube, u^T K u = integral |grad u|^2 = 1."""
        K = assemble_operator(cube, kappa=1.0).matrix
        u = cube.coords[:, 0]
        assert u @ (K @ u) == pytest.approx(1.0, rel=1e-9)

    def test_mass_matrix_total_is_volume(self, cube):
        res = assemble_operator(cube, kappa=0.0, mass_coeff=1.0)
        ones = np.ones(cube.nnodes)
        assert ones @ (res.matrix @ ones) == pytest.approx(1.0, rel=1e-9)

    def test_mass_matrix_total_on_hybrid_tube(self, tube):
        res = assemble_operator(tube, kappa=0.0, mass_coeff=1.0)
        ones = np.ones(tube.nnodes)
        total = ones @ (res.matrix @ ones)
        # the tube mesher inscribes a regular P-gon in each cross-section
        P = MeshResolution(points_per_ring=8).points_for(0.01, 0.01)
        prism = 0.5 * P * 0.01 ** 2 * np.sin(2 * np.pi / P) * 0.04
        assert total == pytest.approx(prism, rel=1e-6)

    def test_hybrid_stiffness_annihilates_constants(self, tube):
        res = assemble_operator(tube, kappa=1.0)
        ones = np.ones(tube.nnodes)
        np.testing.assert_allclose(res.matrix @ ones, 0.0, atol=1e-8)

    def test_convection_makes_nonsymmetric(self, cube):
        vel = np.tile([1.0, 0.0, 0.0], (cube.nnodes, 1))
        A = assemble_operator(cube, kappa=0.01, velocity=vel).matrix
        assert abs(A - A.T).max() > 1e-8

    def test_source_rhs_total(self, cube):
        res = assemble_operator(cube, kappa=1.0, source=2.0)
        assert res.rhs.sum() == pytest.approx(2.0, rel=1e-9)

    def test_partial_assembly_sums_to_full(self, cube):
        full = assemble_operator(cube, kappa=1.0).matrix
        half = cube.nelem // 2
        a = assemble_operator(cube, kappa=1.0,
                              element_ids=np.arange(half)).matrix
        b = assemble_operator(cube, kappa=1.0,
                              element_ids=np.arange(half, cube.nelem)).matrix
        assert abs((a + b) - full).max() < 1e-12

    def test_assembly_order_independent(self, tube):
        """The race-management strategies reorder elements; the assembled
        matrix must not change (strategy equivalence)."""
        ids = np.arange(tube.nelem)
        rng = np.random.default_rng(3)
        shuffled = rng.permutation(ids)
        A = assemble_operator(tube, kappa=1.0, element_ids=ids).matrix
        B = assemble_operator(tube, kappa=1.0, element_ids=shuffled).matrix
        assert abs(A - B).max() < 1e-12

    def test_scatter_counts(self, tube):
        res = assemble_operator(tube, kappa=1.0)
        for etype, nn in ((ElementType.TET, 4), (ElementType.PYRAMID, 5),
                          (ElementType.PRISM, 6)):
            sel = tube.elem_types == etype
            assert (res.scatter_counts[sel] == nn * nn + nn).all()

    def test_constant_operators_share_unit_blocks(self, monkeypatch):
        """The continuity, mass-shift and momentum constant operators of
        one mesh scale one stiffness and one mass contraction per element
        block, in any order, and each reads bit for bit as if assembled
        first on a fresh mesh."""
        seg = Segment(sid=0, parent=-1, generation=0, start=np.zeros(3),
                      direction=np.array([0.0, 0.0, -1.0]), length=0.04,
                      radius=0.01)

        def fresh_mesh():
            return build_tube_mesh(seg, MeshResolution(points_per_ring=8))

        ops = {"continuity": dict(kappa=1.0),
               "mass": dict(kappa=0.0, mass_coeff=1.0),
               "momentum": dict(kappa=1.9e-5, mass_coeff=1.15 / 1e-3)}
        alone = {name: assemble_operator(fresh_mesh(), **kw).matrix
                 for name, kw in ops.items()}
        nblocks = len(np.unique(fresh_mesh().elem_types))
        assert nblocks == 3

        counts = {}
        einsum = np.einsum

        def counting(subscripts, *operands, **kwargs):
            counts[subscripts] = counts.get(subscripts, 0) + 1
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", counting)
        for order in (["continuity", "mass", "momentum"],
                      ["momentum", "mass", "continuity"]):
            counts.clear()
            mesh = fresh_mesh()
            for name in order:
                matrix = assemble_operator(mesh, **ops[name]).matrix
                for attr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(matrix, attr),
                                          getattr(alone[name], attr))
            assert counts["eqaj,eqbj,eq->eab"] == nblocks
            assert counts["qa,qb,eq->eab"] == nblocks

    def test_work_meters(self, tube):
        instr_per_type = {ElementType.TET: 1000.0, ElementType.PYRAMID: 1800.0,
                          ElementType.PRISM: 3000.0}
        instr, atomics = element_work_meters(tube, instr_per_type)
        assert len(instr) == tube.nelem
        sel = tube.elem_types == ElementType.PRISM
        assert (instr[sel] == 3000.0).all()
        assert (atomics[sel] == 42).all()


class TestSGS:
    def test_update_shapes_and_locality(self, tube):
        state = SGSState.zeros(tube.nelem)
        vel = np.tile([0.0, 0.0, -1.0], (tube.nnodes, 1))
        sub = np.arange(tube.nelem // 2)
        update_sgs(tube, state, vel, viscosity=1e-5, dt=1e-4,
                   element_ids=sub)
        # only the updated half may be nonzero... convection of uniform
        # field is zero; use a shear field instead
        state2 = SGSState.zeros(tube.nelem)
        shear = np.zeros((tube.nnodes, 3))
        shear[:, 2] = tube.coords[:, 0] * 100.0
        shear[:, 0] = 1.0
        update_sgs(tube, state2, shear, viscosity=1e-5, dt=1e-4,
                   element_ids=sub)
        assert np.abs(state2.values[sub]).max() > 0.0
        assert np.abs(state2.values[tube.nelem // 2:]).max() == 0.0

    def test_uniform_flow_gives_zero_convection_residual(self, tube):
        state = SGSState.zeros(tube.nelem)
        vel = np.tile([0.0, 0.0, -2.0], (tube.nnodes, 1))
        update_sgs(tube, state, vel, viscosity=1e-5, dt=1e-4)
        np.testing.assert_allclose(state.values, 0.0, atol=1e-10)

    def test_sgs_bounded_by_tau_times_residual(self, tube):
        """tau <= dt, so |u_sgs| <= dt * |residual| (stability bound)."""
        state = SGSState.zeros(tube.nelem)
        rng = np.random.default_rng(0)
        vel = rng.normal(size=(tube.nnodes, 3))
        update_sgs(tube, state, vel, viscosity=1e-5, dt=1e-4)
        assert np.isfinite(state.values).all()
