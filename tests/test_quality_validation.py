"""Tests for the deposition-physics validation."""

import pytest

from repro.mesh import AirwayConfig, MeshResolution, build_airway_mesh
from repro.particles import deposition_curve, impaction_parameter
from repro.particles.validation import DepositionPoint


class TestDepositionValidation:
    @pytest.fixture(scope="class")
    def airway(self):
        return build_airway_mesh(AirwayConfig(generations=4),
                                 MeshResolution(points_per_ring=6))

    def test_impaction_parameter_definition(self):
        assert impaction_parameter(2e-6, 1e-3, 1000.0) == pytest.approx(
            1000.0 * 4e-12 * 1e-3)

    @pytest.fixture(scope="class")
    def curve(self, airway):
        return deposition_curve(airway, diameters_um=(1.0, 5.0, 20.0),
                                n_particles=250, n_steps=500, seed=3)

    def test_curve_structure(self, curve):
        assert len(curve) == 3
        assert all(isinstance(p, DepositionPoint) for p in curve)
        assert all(0.0 <= p.deposited_fraction <= 1.0 for p in curve)
        # impaction parameter grows with diameter at fixed Q
        imps = [p.impaction for p in curve]
        assert imps == sorted(imps)

    def test_deposition_grows_with_impaction(self, curve):
        """The classic validation: efficiency increases with rho d^2 Q
        (monotone within a small tolerance for sampling noise)."""
        fr = [p.deposited_fraction for p in curve]
        assert fr[-1] >= fr[0]
        assert all(b >= a - 0.08 for a, b in zip(fr, fr[1:]))

    def test_flow_rate_dependence(self, airway):
        """Higher inhalation rate => more impaction at equal size."""
        slow = deposition_curve(airway, diameters_um=(10.0,),
                                flow_rate=0.5e-3, n_particles=250,
                                n_steps=500, seed=4)[0]
        fast = deposition_curve(airway, diameters_um=(10.0,),
                                flow_rate=2.0e-3, n_particles=250,
                                n_steps=500, seed=4)[0]
        assert fast.impaction > slow.impaction
        assert fast.deposited_fraction >= slow.deposited_fraction - 0.08
