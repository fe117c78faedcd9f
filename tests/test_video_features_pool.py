"""The scene pool and frame blocks of :meth:`FrameFeatures.extract`.

* a differential oracle: the whole-scene extraction in
  :mod:`tests.frames_oracle` against the pooled, block-streamed one,
  field by field on the bits, for scene lengths around the block size,
  pristine and degraded versions, several worker counts and scenes
  finishing out of order;
* failure and thread discipline: a failing scene surfaces its error
  promptly and leaves no thread and no cache entry behind, and nothing
  perfbench or the clip caches wrap runs off the calling thread;
* the one-CPU path starts no thread, and a process-pool worker builds
  on one thread.
"""

import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.units import mbps
from repro.video import clips, frames
from repro.video.frames import BLOCK_FRAMES, FrameFeatures, FrameRenderer
from repro.video.mpeg import Mpeg1Encoder
from repro.video.scenes import Scene, SceneScript
from repro.video.wmv import WmvEncoder
from tests import frames_oracle
from tests.test_video_features_kernel import FIELDS, PINNED, feature_digest, strengths

B = BLOCK_FRAMES
LENGTHS = (1, 2, B - 1, B, B + 1, 2 * B + 1)


def hand_script(lengths=LENGTHS) -> SceneScript:
    """Scenes of the given lengths with spread-out looks."""
    scenes = tuple(
        Scene(
            scene_id=i,
            n_frames=n,
            spatial_detail=(0.15 + 0.3 * i) % 1.0,
            motion=(0.8 - 0.25 * i) % 1.0,
            brightness=0.2 + (0.1 * i) % 0.7,
            chroma_u=0.02 * i - 0.05,
            chroma_v=0.04 - 0.01 * i,
        )
        for i, n in enumerate(lengths)
    )
    return SceneScript(name="hand", scenes=scenes, fps=29.97)


def degradations(n: int) -> list:
    """Pristine plus two degraded versions, one with strengths outside [0, 1]."""
    rng = np.random.default_rng(13)
    return [None, rng.random(n), rng.uniform(-0.3, 1.3, n)]


def assert_same_bits(got: list, expected: list) -> None:
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        assert mine.clip_name == theirs.clip_name
        for name in FIELDS:
            a, b = getattr(mine, name), getattr(theirs, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            if a.dtype == np.float32:
                a, b = a.view(np.uint32), b.view(np.uint32)
            assert np.array_equal(a, b), name


@pytest.fixture
def workers(monkeypatch):
    """Set the worker count ``extract`` sees."""

    def set_count(count: int) -> None:
        monkeypatch.setattr(frames, "_worker_count", lambda: count)

    return set_count


class TestMatchesWholeSceneOracle:
    SCRIPT = hand_script()
    STRENGTHS = degradations(SCRIPT.n_frames)
    EXPECTED = frames_oracle.extract(SCRIPT, STRENGTHS)

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_versions(self, workers, count):
        workers(count)
        assert_same_bits(FrameFeatures.extract(self.SCRIPT, self.STRENGTHS), self.EXPECTED)

    @pytest.mark.parametrize("count", [1, 4])
    def test_pristine_alone(self, workers, count):
        workers(count)
        expected = frames_oracle.extract(self.SCRIPT, [None])
        assert_same_bits(FrameFeatures.extract(self.SCRIPT, [None]), expected)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_single_scene(self, workers, length):
        workers(2)
        script = hand_script((length,))
        strengths_ = degradations(length)
        expected = frames_oracle.extract(script, strengths_)
        assert_same_bits(FrameFeatures.extract(script, strengths_), expected)

    @pytest.mark.timeout(30)
    def test_scenes_finishing_in_reverse(self, workers, monkeypatch):
        # Scenes 0-3 are taken at once by the four workers; scene i < 3
        # waits until scene i + 1 has finished, so they finish 3, 2, 1, 0.
        workers(4)
        finished = []
        done = [threading.Event() for _ in range(4)]
        scene_pass = frames._ClipPass.scene

        def reversed_order(self, i, noise):
            if i < 3:
                assert done[i + 1].wait(20), f"scene {i + 1} never finished"
            scene_pass(self, i, noise)
            finished.append(i)
            if i < 4:
                done[i].set()

        monkeypatch.setattr(frames._ClipPass, "scene", reversed_order)
        got = FrameFeatures.extract(self.SCRIPT, self.STRENGTHS)
        assert [i for i in finished if i < 4] == [3, 2, 1, 0]
        assert_same_bits(got, self.EXPECTED)

    @pytest.mark.timeout(30)
    def test_more_workers_than_cores_with_rapid_switching(self, workers):
        workers(8)
        script = hand_script(LENGTHS * 3)
        strengths_ = degradations(script.n_frames)
        expected = frames_oracle.extract(script, strengths_)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = FrameFeatures.extract(script, strengths_)
        finally:
            sys.setswitchinterval(interval)
        assert_same_bits(got, expected)

    def test_render_scene_is_the_whole_scene_render(self):
        renderer = FrameRenderer(self.SCRIPT)
        for scene in self.SCRIPT.scenes:
            got = renderer.render_scene(scene)
            expected = frames_oracle.render_scene(self.SCRIPT.name, scene)
            for a, b in zip(got, expected):
                assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


class TestFailureAndThreads:
    @pytest.mark.timeout(10)
    def test_failing_scene_raises_and_leaves_nothing(self, workers, monkeypatch):
        workers(2)
        stream_scene = FrameRenderer.stream_scene

        def failing(self, scene):
            if scene.scene_id == 3:
                raise RuntimeError("scene 3 failed")
            return stream_scene(self, scene)

        monkeypatch.setattr(FrameRenderer, "stream_scene", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="scene 3 failed"):
            clips.clip_features("test-271", "mpeg1", mbps(1.5))
        assert threading.active_count() == threads
        assert not [key for key in clips._feature_cache if key[0] == "test-271"]

    def test_wrapped_calls_stay_on_the_calling_thread(self, workers, monkeypatch):
        workers(2)
        seen = []

        def recording(name, function):
            def wrapper(*args, **kwargs):
                seen.append((name, threading.current_thread()))
                return function(*args, **kwargs)

            return wrapper

        for owner in (Mpeg1Encoder, WmvEncoder):
            monkeypatch.setattr(owner, "encode", recording("encode", owner.encode))
        extract = FrameFeatures.__dict__["extract"].__func__
        monkeypatch.setattr(
            FrameFeatures, "extract", classmethod(recording("extract", extract))
        )
        for name in ("get_script", "encode_clip"):
            monkeypatch.setattr(clips, name, recording(name, getattr(clips, name)))

        clips.warm_clip_caches(
            [("test-283", None, None), ("test-283", "mpeg1", mbps(1.5)), ("test-283", "wmv", None)]
        )
        assert {name for name, _ in seen} == {"encode", "extract", "get_script", "encode_clip"}
        assert [name for name, _ in seen].count("extract") == 1
        assert {thread for _, thread in seen} == {threading.current_thread()}


class TestOneCpu:
    def test_starts_no_thread(self, monkeypatch):
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        key = ("test-300", "mpeg1", 1.5)
        (features,) = FrameFeatures.extract(clips.get_script("test-300"), [strengths(*key)])
        assert feature_digest(features) == PINNED[key]

    def test_one_scene_starts_no_thread(self, workers, monkeypatch):
        workers(4)

        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        script = hand_script((B + 1,))
        expected = frames_oracle.extract(script, [None])
        assert_same_bits(FrameFeatures.extract(script, [None]), expected)

    def test_pool_process_builds_on_one_thread(self):
        # Every worker of a process pool warms the same clips at once.
        with ProcessPoolExecutor(1) as pool:
            assert pool.submit(frames._worker_count).result(timeout=60) == 1

    def test_worker_count_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert frames._worker_count() == 3
