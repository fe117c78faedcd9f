"""Bit-identity of the numpy feature kernel in ``repro.video.frames``.

Three layers of evidence:

* the stencils against ``scipy.ndimage`` as an oracle (skipped when
  scipy is not installed), on adversarial float32 stacks;
* SHA-256 digests of every feature array of six clip versions, pinned
  from the ``scipy.ndimage`` implementation the kernel replaced — so
  every VQM score, cache key and result built on them is unchanged;
* one multi-version :meth:`FrameFeatures.extract` pass equals separate
  single-version passes, field by field.
"""

import hashlib

import numpy as np
import pytest

from repro.units import mbps
from repro.video.clips import encode_clip, get_script
from repro.video.frames import FrameFeatures, box_blur, sobel

FIELDS = ("y_mean", "y_std", "si", "hv", "ti", "u_mean", "v_mean", "scene_ids")


def bits(a: np.ndarray) -> np.ndarray:
    assert a.dtype == np.float32
    return np.ascontiguousarray(a).view(np.uint32)


def adversarial_stacks():
    """Float32 stacks with size 1 and 2 along each axis and awkward values."""
    rng = np.random.default_rng(20010827)
    shapes = [
        (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2),
        (1, 5, 7), (2, 6, 9), (7, 1, 5), (6, 2, 3), (5, 4, 1), (3, 7, 2),
        (9, 48, 64),
    ]
    for shape in shapes:
        subnormal = rng.integers(1, 1 << 23, shape, dtype=np.uint32).view(np.float32)
        mixed = rng.random(shape, dtype=np.float32)
        tiny = rng.random(shape) < 0.3
        mixed[tiny] = subnormal[tiny]
        yield f"zeros{shape}", np.zeros(shape, np.float32)
        yield f"binary{shape}", rng.integers(0, 2, shape).astype(np.float32)
        yield f"subnormal{shape}", subnormal
        yield f"uniform{shape}", rng.random(shape, dtype=np.float32)
        yield f"mixed{shape}", mixed


STACKS = list(adversarial_stacks())


@pytest.fixture(scope="module")
def ndimage():
    return pytest.importorskip("scipy.ndimage")


class TestStencilsMatchNdimage:
    @pytest.mark.parametrize("name,y", STACKS, ids=[name for name, _ in STACKS])
    def test_sobel(self, ndimage, name, y):
        for axis in range(3):
            expected = ndimage.sobel(y, axis=axis, mode="nearest")
            got = sobel(y, axis)
            assert got.shape == expected.shape
            assert np.array_equal(bits(got), bits(expected)), (name, axis)

    @pytest.mark.parametrize("name,y", STACKS, ids=[name for name, _ in STACKS])
    def test_box_blur(self, ndimage, name, y):
        expected = ndimage.uniform_filter(y, size=(1, 3, 3), mode="nearest")
        got = box_blur(y)
        assert got.shape == expected.shape
        assert np.array_equal(bits(got), bits(expected)), name


def feature_digest(features: FrameFeatures) -> str:
    digest = hashlib.sha256()
    for name in FIELDS:
        a = np.ascontiguousarray(getattr(features, name))
        digest.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


#: Digests of the ``scipy.ndimage`` implementation, per (clip, codec, Mbps).
PINNED = {
    ("lost", None, None): "55f7be42a7a1ecdedf925b1a9f4f98724d934799e47d9f79d0a7a1cefed717e9",
    ("lost", "mpeg1", 1.0): "7b03f430f330ab66c61b0badffa7be2502a529dc72c72afe472b49bbf7156e74",
    ("lost", "mpeg1", 1.5): "ec3b7270edb7a9a8f22b74ca11bf5f815c45f88186b49b179f2d08e3d0e815d5",
    ("lost", "mpeg1", 1.7): "fa5e27b0760e00bc9601274ae4795be04d36d46f8ee276b0455a833470df8545",
    ("lost", "wmv", None): "6735a09fd827a563ab3aedc90b7074de62b274d5ca5d4a3b2d68e8aa607636b9",
    ("test-300", "mpeg1", 1.5): "7d7628cdebf6a8fd22dcd20fe2f16650eae0ed861d5731ad9bc73752d6efc182",
}


def strengths(clip: str, codec, rate_mbps):
    if codec is None:
        return None
    rate = None if rate_mbps is None else mbps(rate_mbps)
    return encode_clip(clip, codec, rate).quantizer_track()


class TestPinnedFeatureDigests:
    def test_lost_versions_in_one_pass(self):
        keys = [key for key in PINNED if key[0] == "lost"]
        built = FrameFeatures.extract(
            get_script("lost"), [strengths(*key) for key in keys]
        )
        assert {key: feature_digest(f) for key, f in zip(keys, built)} == {
            key: PINNED[key] for key in keys
        }

    def test_single_version(self):
        key = ("test-300", "mpeg1", 1.5)
        (features,) = FrameFeatures.extract(get_script("test-300"), [strengths(*key)])
        assert feature_digest(features) == PINNED[key]


class TestMultiVersionExtract:
    KEYS = [
        ("test-300", "mpeg1", 1.0),
        ("test-300", None, None),
        ("test-300", "wmv", None),
        ("test-300", "mpeg1", 1.0),
    ]

    def test_equals_separate_passes(self):
        script = get_script("test-300")
        degradations = [strengths(*key) for key in self.KEYS]
        together = FrameFeatures.extract(script, degradations)
        assert len(together) == len(self.KEYS)
        for shared, strength in zip(together, degradations):
            (alone,) = FrameFeatures.extract(script, [strength])
            assert shared.clip_name == alone.clip_name
            for name in FIELDS:
                a, b = getattr(shared, name), getattr(alone, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name

    def test_versions_do_not_share_arrays(self):
        first, second = FrameFeatures.extract(get_script("test-150"), [None, None])
        for name in FIELDS:
            assert not np.shares_memory(getattr(first, name), getattr(second, name))

    def test_every_length_checked(self):
        script = get_script("test-150")
        with pytest.raises(ValueError, match="degradation length 3"):
            FrameFeatures.extract(script, [None, np.zeros(3)])
