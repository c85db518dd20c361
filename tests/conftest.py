import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from gesturelab.geometry import rotation_matrix
from gesturelab.smo import DEFAULT_MAX_ITER, DEFAULT_TOL, SmoResult, _smo_lockstep
from gesturelab.tracking import HandFrame


def make_random_frame(rng, n_tips=5, with_middle=True):
    """Random but well-conditioned hand frame for property tests."""
    rot = rotation_matrix(rng.normal(size=3), rng.uniform(0, 2 * np.pi))
    center = rng.uniform(-150.0, 150.0, size=3)
    normal = rot @ np.array([0.0, 0.0, 1.0])
    direction = rot @ np.array([0.0, 1.0, 0.0])
    tips = []
    angles = np.sort(rng.uniform(-1.2, 1.2, size=n_tips))
    for k in range(n_tips):
        length = rng.uniform(40.0, 110.0)
        elev = rng.uniform(-30.0, 30.0)
        local = np.array(
            [length * np.sin(angles[k]), length * np.cos(angles[k]), elev]
        )
        tips.append(center + rot @ local)
    middle = None
    if with_middle and n_tips:
        middle = int(rng.integers(0, n_tips))
    return HandFrame(
        palm_center=center,
        palm_normal=normal,
        hand_direction=direction,
        fingertips=np.array(tips).reshape(n_tips, 3),
        middle_index=middle,
    )


def solve_one(kernel, y, c, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """The SVM dual over all rows of one unit-diagonal kernel, solved by
    `_smo_lockstep` as a set of one: its result with the problem axis dropped."""
    y = np.asarray(y, dtype=float)
    result = _smo_lockstep(kernel, np.arange(len(y))[None], y[None], c, tol, max_iter)
    fields = (result.bias, result.converged, result.iterations, result.gap)
    return SmoResult(result.alpha[0], *(x[0].item() for x in fields))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
