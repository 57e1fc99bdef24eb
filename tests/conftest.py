import numpy as np
import pytest

from semvid.fixtures import make_test_clip
from semvid.ldpc import make_ldpc_code

pytest.register_assert_rewrite("pins")  # before a test module imports it


@pytest.fixture(scope="session")
def reference_clip():
    return make_test_clip()


@pytest.fixture(scope="session")
def small_clip():
    return make_test_clip(width=64, height=64, n_frames=8)


@pytest.fixture(scope="session")
def ldpc_code():
    return make_ldpc_code(512, 11)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
