"""Tests for process-model factories and serialization."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DimensionError
from repro.kalman.models import (
    ProcessModel,
    constant_acceleration,
    constant_velocity,
    harmonic,
    kinematic,
    model_from_spec,
    planar,
    random_walk,
)


class TestKinematicFactories:
    def test_random_walk_dimensions(self):
        m = random_walk()
        assert (m.dim_x, m.dim_z) == (1, 1)

    def test_constant_velocity_dimensions(self):
        m = constant_velocity()
        assert (m.dim_x, m.dim_z) == (2, 1)

    def test_constant_acceleration_dimensions(self):
        m = constant_acceleration()
        assert (m.dim_x, m.dim_z) == (3, 1)

    def test_cv_transition_integrates_velocity(self):
        m = constant_velocity(dt=0.5)
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(m.F @ x, [2.0, 2.0])

    def test_ca_transition_integrates_acceleration(self):
        m = constant_acceleration(dt=1.0)
        x = np.array([0.0, 0.0, 2.0])
        np.testing.assert_allclose(m.F @ x, [1.0, 2.0, 2.0])

    def test_observation_picks_position(self):
        m = constant_acceleration()
        np.testing.assert_allclose(m.H, [[1.0, 0.0, 0.0]])

    def test_invalid_order_rejected(self):
        with pytest.raises(ConfigurationError):
            kinematic(4)

    def test_measurement_noise_is_sigma_squared(self):
        m = random_walk(measurement_sigma=3.0)
        assert m.R[0, 0] == pytest.approx(9.0)


class TestHarmonic:
    def test_oscillates_at_requested_period(self):
        period = 100.0
        omega = 2 * np.pi / period
        m = harmonic(omega=omega)
        # Propagating [1, 0] for a full period returns to the start.
        x = np.array([1.0, 0.0])
        for _ in range(int(period)):
            x = m.F @ x
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-9)

    def test_energy_preserved_by_transition(self):
        m = harmonic(omega=0.1)
        x = np.array([2.0, 0.3])
        energy = lambda v: v[0] ** 2 + (v[1] / 0.1) ** 2  # noqa: E731
        x2 = m.F @ x
        assert energy(x2) == pytest.approx(energy(x))

    def test_rejects_non_positive_omega(self):
        with pytest.raises(ConfigurationError):
            harmonic(omega=0.0)


class TestPlanar:
    def test_doubles_dimensions(self):
        m = planar(constant_velocity())
        assert (m.dim_x, m.dim_z) == (4, 2)

    def test_axes_are_independent_blocks(self):
        m = planar(constant_velocity(dt=1.0))
        x = np.array([1.0, 1.0, 10.0, -2.0])  # (x, vx, y, vy)
        np.testing.assert_allclose(m.F @ x, [2.0, 1.0, 8.0, -2.0])

    def test_observation_reads_both_positions(self):
        m = planar(constant_velocity())
        x = np.array([3.0, 0.0, 7.0, 0.0])
        np.testing.assert_allclose(m.H @ x, [3.0, 7.0])


class TestProcessModelValidation:
    def test_non_square_f_rejected(self):
        with pytest.raises(DimensionError):
            ProcessModel(
                name="bad",
                F=np.ones((2, 3)),
                H=np.ones((1, 2)),
                Q=np.eye(2),
                R=np.eye(1),
                P0=np.eye(2),
            )

    def test_mismatched_h_rejected(self):
        with pytest.raises(DimensionError):
            ProcessModel(
                name="bad",
                F=np.eye(2),
                H=np.ones((1, 3)),
                Q=np.eye(2),
                R=np.eye(1),
                P0=np.eye(2),
            )

    def test_asymmetric_q_rejected(self):
        q = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ConfigurationError):
            ProcessModel(
                name="bad",
                F=np.eye(2),
                H=np.ones((1, 2)),
                Q=q,
                R=np.eye(1),
                P0=np.eye(2),
            )

    def test_negative_definite_r_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessModel(
                name="bad",
                F=np.eye(1),
                H=np.eye(1),
                Q=np.eye(1),
                R=-np.eye(1),
                P0=np.eye(1),
            )


def _reference_verdict(mat: np.ndarray) -> str | None:
    """The validation as it was before the 1x1 / exact-symmetry fast paths."""
    if not np.allclose(mat, mat.T):
        return "must be symmetric"
    if np.any(np.linalg.eigvalsh(mat) < -1e-9):
        return "must be positive semi-definite"
    return None


def _corner(n: int, entry: float) -> np.ndarray:
    mat = np.eye(n)
    mat[0, 0] = entry
    return mat


_ODD_MATRICES = [
    _corner(n, entry)
    for n in (1, 2)
    for entry in (
        float("nan"), float("-inf"), -1e-6, -1e-12, float("inf"),
        0.0, 2.0, -1e-9, -1.0000001e-9,
    )
] + [
    np.array([[1.0, 1e-9], [0.0, 1.0]]),  # asymmetric within allclose's tolerance
    np.array([[1.0, 1e-3], [0.0, 1.0]]),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.array([[1.0, np.inf], [np.inf, 1.0]]),
    np.array([[1.0, 2.0], [2.0, 1.0]]),  # symmetric, indefinite
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestValidationVerdictTable:
    """The cheaper validation answers every input as the old one did."""

    @staticmethod
    def _verdict(label: str, mat: np.ndarray) -> str | None:
        n = mat.shape[0]
        matrices = {"Q": np.eye(n), "R": np.eye(n), "P0": np.eye(n)}
        matrices[label] = mat
        try:
            ProcessModel(name="odd", F=np.eye(n), H=np.eye(n), **matrices)
        except ConfigurationError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("label", ["Q", "R", "P0"])
    @pytest.mark.parametrize("mat", _ODD_MATRICES, ids=lambda m: repr(m.tolist()))
    def test_same_verdict_and_message_as_the_reference(self, label, mat):
        want = _reference_verdict(mat)
        got = self._verdict(label, mat)
        assert got == (None if want is None else f"{label} {want}")

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize(
        "entry,want",
        [
            (float("nan"), "R must be symmetric"),
            (-1e-6, "R must be positive semi-definite"),
            (-1e-12, None),
            (float("inf"), None),
        ],
    )
    def test_pinned_verdicts(self, n, entry, want):
        assert self._verdict("R", _corner(n, entry)) == want

    def test_minus_infinity_scalar_is_not_psd(self):
        want = "R must be positive semi-definite"
        assert self._verdict("R", _corner(1, float("-inf"))) == want


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: random_walk(process_noise=0.3, measurement_sigma=1.5),
            lambda: constant_velocity(dt=0.5),
            lambda: harmonic(omega=0.05),
            lambda: planar(constant_velocity()),
        ],
    )
    def test_spec_reconstructs_equivalent_model(self, factory):
        original = factory()
        rebuilt = model_from_spec(original.spec())
        assert original.equivalent(rebuilt)

    def test_with_measurement_noise_changes_only_r(self):
        m = random_walk()
        m2 = m.with_measurement_noise(np.array([[5.0]]))
        assert m2.R[0, 0] == 5.0
        np.testing.assert_allclose(m2.F, m.F)
        np.testing.assert_allclose(m2.Q, m.Q)

    def test_with_process_noise_changes_only_q(self):
        m = constant_velocity()
        m2 = m.with_process_noise(m.Q * 4.0)
        np.testing.assert_allclose(m2.Q, m.Q * 4.0)
        np.testing.assert_allclose(m2.R, m.R)

    def test_equivalent_detects_difference(self):
        assert not random_walk().equivalent(
            random_walk(measurement_sigma=9.0)
        )
