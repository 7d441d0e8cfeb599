import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from heegner_witness.ec_core import CurveQ


@pytest.fixture(scope="session")
def e11a():
    return CurveQ(0, -1, 1, -10, -20, 11, "11a")


@pytest.fixture(scope="session")
def e37a():
    return CurveQ(0, 0, 1, -1, 0, 37, "37a")


@pytest.fixture(scope="session")
def e389a():
    return CurveQ(0, 1, 1, -2, 0, 389, "389a")


@pytest.fixture(scope="session")
def e14a():
    return CurveQ(1, 0, 1, 4, -6, 14, "14a")


@pytest.fixture(scope="session")
def e_ss():
    # y^2 = x^3 + x, CM curve, conductor 32
    return CurveQ(0, 0, 0, 1, 0, 32, "32a")


@pytest.fixture(scope="session")
def g427():
    # generated semistable curve: every inert ell < 100 fails the Im tau floor for d_K = -19
    return CurveQ(0, -1, 1, -1, -1, 427, "g427.1")
