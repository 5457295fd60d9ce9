"""Property tests of ``probclone.max_feasible_f``; they skip where Hypothesis is absent."""

import numpy as np
import pytest

from anticlone.probclone import CopySpec, max_feasible_f, two_state_efficiency
from anticlone.qubit import QubitState, antiunitary_flip

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)
# copy counts log-uniform from 1 to 10^6
COPIES = st.floats(0.0, 6.0).map(lambda e: int(10.0**e))
SMALL_COPIES = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda mu: sum(mu) >= 1)


def haar_kets(count: int, seed: int) -> np.ndarray:
    """``count`` Haar-random qubit kets as a (count, 2) array."""
    z = np.random.default_rng(seed).standard_normal((count, 2, 2))
    kets = z[..., 0] + 1j * z[..., 1]
    return kets / np.linalg.norm(kets, axis=1)[:, None]


def states_of(kets) -> list[QubitState]:
    return [QubitState(*ket) for ket in kets]


class TestOneAlignedCopyProperty:
    """At (L, M) = (1, 0) the targets are the inputs, so H = G, a unitary
    (the identity) does the job and f_max is 1 for any set."""

    @PROPERTY_SETTINGS
    @given(count=st.integers(1, 16), seed=SEEDS)
    def test_every_haar_set_reaches_one(self, count, seed):
        res = max_feasible_f(states_of(haar_kets(count, seed)), CopySpec(1, 0))
        assert res.phase_equivalent
        # the solve goes through eigenvalues of G, so f_max may miss 1 by rounding
        assert abs(res.f_max - 1.0) <= 1e-12
        assert res.min_eigenvalue_at_f >= -1e-9


class TestPairClosedFormProperty:
    """A pair with overlap c, and the same pair with the first state
    repeated up to a phase, reaches the closed form (1 - c) / (1 - c^(L+M))
    at any copy counts."""

    @PROPERTY_SETTINGS
    @given(
        overlap=st.floats(0.0, 0.99),
        relative_phase=st.floats(-np.pi, np.pi),
        repeat_phase=st.none() | st.floats(-np.pi, np.pi),
        L=COPIES,
        M=COPIES,
        seed=SEEDS,
    )
    # H's off-diagonal entry c^(L+M) is subnormal (~1e-317)
    @example(overlap=0.1015625, relative_phase=0.0, repeat_phase=None, L=153, M=165, seed=0)
    def test_matches_the_closed_form_within_1e_9(self, overlap, relative_phase, repeat_phase, L, M, seed):
        first, other = haar_kets(2, seed)
        # the component of ``other`` orthogonal to ``first``, as a unit ket
        perp = other - np.vdot(first, other) * first
        perp /= np.linalg.norm(perp)
        second = overlap * first + np.sqrt(1.0 - overlap**2) * np.exp(1j * relative_phase) * perp
        kets = [first, second / np.linalg.norm(second)]
        if repeat_phase is not None:
            kets.append(np.exp(1j * repeat_phase) * first)
        states = states_of(kets)
        res = max_feasible_f(states, CopySpec(L, M))
        c = abs(np.vdot(states[0].ket(), states[1].ket()))
        assert abs(res.f_max - two_state_efficiency(c, L, M)) <= 1e-9


class TestPhaseOnlyInputsProperty:
    """A global phase on an input changes no ray, so multiplying each state
    by its own phase leaves the verdict: f_max and the certificate move only
    by rounding, and the repeat count and phase equivalence not at all. The
    flip of state 0, when added, is orthogonal to it."""

    @PROPERTY_SETTINGS
    @given(count=st.integers(2, 8), with_flip=st.booleans(), mu=SMALL_COPIES, seed=SEEDS)
    def test_input_phases_move_nothing(self, count, with_flip, mu, seed):
        states = states_of(haar_kets(count, seed))
        if with_flip:
            states.append(antiunitary_flip(states[0]))
        phases = np.exp(2j * np.pi * np.random.default_rng([seed, 1]).uniform(size=len(states)))
        rephased = states_of(p * s.ket() for p, s in zip(phases, states))
        res, moved = (max_feasible_f(s, CopySpec(*mu)) for s in (states, rephased))
        assert abs(moved.f_max - res.f_max) <= 1e-12
        assert abs(moved.min_eigenvalue_at_f - res.min_eigenvalue_at_f) <= 1e-12
        assert moved.distinct == res.distinct
        assert moved.phase_equivalent == res.phase_equivalent
