"""Property tests of the two-state anti-cloner; they skip where Hypothesis is absent."""

import numpy as np
import pytest

from anticlone.linalg import isometry_residual
from anticlone.probclone import build_two_state_anticloner, run_prob_anticlone

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# Angles in (0, pi/2]: log-uniform down to the smallest subnormal, within
# 2^-60 of pi/2 (and pi/2 itself), or anywhere in the range.
THETAS_AT_THE_EDGES = st.one_of(
    st.floats(-1074.0, 0.0).map(lambda e: 2.0**e),
    st.floats(-60.0, -1.0).map(lambda e: np.pi / 2 - 2.0**e),
    st.just(np.pi / 2),
    st.floats(0.0, np.pi / 2, exclude_min=True),
)


class TestThetaEdgesProperty:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(theta=THETAS_AT_THE_EDGES)
    def test_unitary_and_exact_outcomes_within_1e_12(self, theta):
        pc = build_two_state_anticloner(theta)
        assert isometry_residual(pc.u) <= 1e-12
        expected = 1.0 / (1.0 + np.cos(theta))
        for which in (1, 2):
            stats = run_prob_anticlone(pc, which, shots=0)
            assert abs(stats.success_probability - expected) <= 1e-12
            assert abs(1.0 - stats.post_selected_fidelity) <= 1e-12
