import importlib.util
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from heegner_witness.ec_core import CurveQ
from heegner_witness.pipeline import parse_curve_file

ROOT = Path(__file__).resolve().parent.parent


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
    # generated semistable curve, d_K = -19; its level-2 orbit holds a form with Im tau < 5e-3
    return CurveQ(0, -1, 1, -1, -1, 427, "g427.1")


@pytest.fixture(scope="session")
def corpus_curves():
    # the 17 pinned curves, the 8 pins.json models and the 322 generated models with N <= 3000
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    pins = corpus.load_pins()
    rows = pins["field-search"] + pins["aux-search"] + corpus.generated(2, 3000)
    return parse_curve_file(str(corpus.PINNED_TABLE)) + [
        CurveQ(*c["ainvs"], c["N"], c["label"]) for c in rows]
