from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from semnav.consistency import ConsistencyParams
from semnav.mapping import MapParams, ObjectLibrary

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"

# every property test is reproducible and untimed; each sets only its example count
settings.register_profile("semnav", deadline=None, derandomize=True)
settings.load_profile("semnav")


@pytest.fixture
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture
def small_library() -> ObjectLibrary:
    return ObjectLibrary(
        params=MapParams(),
        consistency_params=ConsistencyParams(),
        workspace=(-1.0, -2.0, 4.0, 2.0),
        height=1.0,
    )


def make_observation(points, class_id=1, stationarity=1):
    from semnav.mapping import Observation

    points = np.asarray(points, dtype=float).reshape(-1, 3)
    centroid = points.mean(axis=0) if len(points) else np.zeros(3)
    return Observation(
        class_id=class_id,
        stationarity=stationarity,
        points=points,
        centroid=centroid,
    )


def plain_edf(m25, theta_zero, params):
    """``build_plain_edf`` of every cell of ``m25`` at or below ``theta_zero``, one unlabelled boundary."""
    from semnav.barrier import LabeledBoundary, build_plain_edf

    ix, iy = np.nonzero(m25.values <= theta_zero)
    boundary = LabeledBoundary(cells=np.stack([ix, iy], axis=1), owner_ids=np.zeros(ix.size, dtype=int),
                               labels={0: (1.0, 1)} if ix.size else {})
    return build_plain_edf(boundary, params, m25)
