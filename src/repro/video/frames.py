"""Synthetic frame rendering and feature extraction.

The VQM methodology is *reduced reference*: quality is judged from
per-frame feature streams (spatial detail, motion, chroma), not from
full frames. We therefore render deterministic synthetic frames whose
feature statistics are controlled by the scene script, extract the
ANSI-style features once, and cache only the features.

Rendering model (per scene): two drifting sinusoidal gratings whose
spatial frequency follows ``spatial_detail`` and whose phase velocity
follows ``motion``, over a mean level set by ``brightness``, plus a
small deterministic noise texture. Chroma planes are near-constant per
scene. Frames are float32 in [0, 1], luma at 64x48 (a 5x downsample of
the paper's 320x240 — a documented substitution; features are scale-
normalized so this only reduces compute).

Encoded (decoded-after-compression) variants are produced by applying
a per-frame degradation: a blend toward a blurred frame plus
quantization noise, with strength driven by the codec model's
quantizer track. Extracting features from degraded frames gives the
encoding-quality floor seen in the paper's fixed-reference
experiments.

The stencils are plain numpy. :func:`sobel` and :func:`box_blur`
reproduce ``scipy.ndimage.sobel`` and ``uniform_filter(size=(1, 3,
3))`` in ``nearest`` mode bit for bit on non-negative float32 stacks:
the same passes in the same axis order, the same float64 operations
in the same order, each pass rounded to float32.
:meth:`FrameFeatures.extract` renders a clip once for all the versions
asked of it: each scene is rendered, blurred and given its degradation
noise once and every version shares them, and one Sobel pass per
version and scene serves both SI and HV.

Scenes are independent, so ``extract`` featurises them concurrently:
the calling thread and a thread pool take scenes in order, one worker
per CPU the process may use (numpy releases the GIL in these ufuncs
and reductions). With one CPU or one scene, or in a process-pool
worker, it runs inline and starts no thread. Inside a scene every
stage streams blocks of :data:`BLOCK_FRAMES` frames. Per-frame work
(render, blur, degradation, mean/std, the SI/HV reductions) needs
nothing outside its block; the time pass of the Sobel stencil and TI
read one frame either side, so each block carries a one-frame halo,
which is the edge frame itself at the scene's ends (``nearest``
padding). The TI across each cut is stitched in after the pool joins,
from each scene's first and last frame per version.

The result is bit for bit that of a whole-scene pass, one scene after
another: every element goes through the same float operations in the
same order, every per-frame reduction runs over the same contiguous
frame layout, and every random stream is drawn in the same order —
each scene's own stream by the worker that takes the scene
(:class:`SceneStream`), the shared :data:`DEGRADATION_SEED` stream
scene by scene, since a worker takes a scene and draws its piece of
that stream under one lock. Drawing a stream in pieces gives the
numbers of one whole draw.

Memory: the calling thread owns every array that grows with a scene or
the clip; workers allocate only block-sized scratch, and at most one
scene per worker is in flight. glibc still keeps a few MB per pool
thread in that thread's own malloc arena after the build, where the
calling thread cannot reuse them: RSS after building two ``lost``
versions reads 43–46 MB on two CPUs against 39 MB inline. Workers
call nothing in :mod:`repro.video.clips` (its caller holds the cache
lock) and none of the encoders or ``extract`` itself.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.video.scenes import Scene, SceneScript

#: Internal analysis resolution (luma). Chroma is subsampled 2x.
FRAME_HEIGHT = 48
FRAME_WIDTH = 64

#: Seed of the quantization-noise stream every degraded version draws.
DEGRADATION_SEED = 7


def _scene_rng(script_name: str, scene_id: int) -> np.random.Generator:
    """Deterministic per-scene random stream (stable across processes).

    Uses CRC32 rather than ``hash()`` — Python string hashing is
    salted per process, which would make "identical" clips differ
    between runs.
    """
    seed = zlib.crc32(f"{script_name}:{scene_id}".encode()) & 0x7FFFFFFF
    return np.random.default_rng(seed)


class FrameRenderer:
    """Renders the frames of a scene script, scene by scene."""

    def __init__(
        self,
        script: SceneScript,
        height: int = FRAME_HEIGHT,
        width: int = FRAME_WIDTH,
    ):
        self.script = script
        self.height = height
        self.width = width

    def stream_scene(self, scene: Scene) -> "SceneStream":
        """Start rendering one scene; see :class:`SceneStream`."""
        return SceneStream(self.script.name, scene, self.height, self.width)

    def render_scene(self, scene: Scene) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Render one scene.

        Returns ``(y, u, v)`` where ``y`` has shape
        ``(n_frames, height, width)`` and the chroma planes are half
        resolution.
        """
        stream = self.stream_scene(scene)
        n = scene.n_frames
        y = stream.luma(n)
        u = stream.chroma(0.5 + scene.chroma_u, n)
        v = stream.chroma(0.5 + scene.chroma_v, n)
        return y, u, v

    def render_frame(self, frame_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Render a single frame (used by exactness tests)."""
        scene = self.script.scene_of_frame(frame_id)
        offset = 0
        for s in self.script.scenes:
            if s.scene_id == scene.scene_id:
                break
            offset += s.n_frames
        y, u, v = self.render_scene(scene)
        local = frame_id - offset
        return y[local], u[local], v[local]


class SceneStream:
    """One scene's frames, rendered block by block from its random stream.

    The scene's stream is drawn in a fixed order: four uniforms (here),
    then the luma noise of every frame (:meth:`luma`), then the u noise
    of every frame and then the v noise (:meth:`chroma`). Drawing a
    stream in pieces gives the numbers of one whole draw, so any split
    into blocks renders the same frames bit for bit, as long as each
    method is called for the frames in order.
    """

    def __init__(self, script_name: str, scene: Scene, height: int, width: int):
        rng = _scene_rng(script_name, scene.scene_id)
        yy, xx = np.mgrid[0:height, 0:width].astype(np.float32)
        xx /= width
        yy /= height
        # Spatial frequencies grow with detail; phase velocity with motion.
        f1 = 2.0 + 8.0 * scene.spatial_detail + rng.uniform(0, 1.5)
        f2 = 3.0 + 10.0 * scene.spatial_detail + rng.uniform(0, 2.0)
        angle1 = rng.uniform(0, np.pi)
        angle2 = rng.uniform(0, np.pi)
        self._phase1 = 2 * np.pi * f1 * (np.cos(angle1) * xx + np.sin(angle1) * yy)
        self._phase2 = 2 * np.pi * f2 * (np.cos(angle2) * xx - np.sin(angle2) * yy)
        self._omega1 = 0.05 + 0.45 * scene.motion
        self._omega2 = 0.08 + 0.6 * scene.motion
        self._amp1 = 0.22 * (0.3 + 0.7 * scene.spatial_detail)
        self._amp2 = 0.13 * (0.3 + 0.7 * scene.spatial_detail)
        self._brightness = scene.brightness
        self._chroma_shape = (height // 2, width // 2)
        self._rng = rng
        self._rendered = 0

    def luma(self, count: int) -> np.ndarray:
        """Luma of the next ``count`` frames, float32 in [0, 1]."""
        start = self._rendered
        self._rendered += count
        t = np.arange(start, start + count, dtype=np.float32)[:, None, None]
        # Built in place, one float64 operation at a time in the order of
        # ``brightness + amp1 * g1 + amp2 * g2 + noise``.
        y = np.add(self._phase1, self._omega1 * t)
        np.sin(y, out=y)
        g2 = np.subtract(self._phase2, self._omega2 * t)
        np.sin(g2, out=g2)
        y *= self._amp1
        y += self._brightness
        g2 *= self._amp2
        y += g2
        # g2 is spent: the float64 noise draw reuses it.
        noise = self._rng.standard_normal(out=g2).astype(np.float32)
        noise *= 0.015
        y += noise
        luma = np.empty(y.shape, dtype=np.float32)
        np.clip(y, 0.0, 1.0, out=luma, casting="same_kind")
        return luma

    def chroma(self, level: float, count: int) -> np.ndarray:
        """The next ``count`` frames of a chroma plane around ``level``.

        Call it for every frame of u before the first frame of v.
        """
        plane = np.full((count,) + self._chroma_shape, level, dtype=np.float32)
        plane += self._rng.standard_normal(plane.shape).astype(np.float32) * 0.01
        return plane


# ----------------------------------------------------------------------
# numpy stencils, bit for bit those of scipy.ndimage in ``nearest`` mode
# ----------------------------------------------------------------------

def _taps(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left, centre and right views along an axis padded by one sample each side."""
    n = a.shape[axis] - 2
    views = []
    for start in (0, 1, 2):
        index = [slice(None)] * a.ndim
        index[axis] = slice(start, start + n)
        views.append(a[tuple(index)])
    return views[0], views[1], views[2]


def _smooth(a: np.ndarray, axis: int) -> np.ndarray:
    """``[1, 2, 1]`` pass along a padded axis, rounded to float32.

    ``ndimage.correlate1d`` folds the symmetric kernel to ``2c + (l +
    r)`` in float64. ``c + c`` is exact in float32 and addition
    commutes, so ``(l + r) + 2c`` below is the same float64 number.
    """
    left, centre, right = _taps(a, axis)
    acc = np.add(left, right, dtype=np.float64)
    acc += centre + centre
    return acc.astype(np.float32)


def _sobel_padded(padded: np.ndarray, axis: int) -> np.ndarray:
    """Sobel derivative along ``axis`` of an edge-padded stack (see :func:`sobel`)."""
    left, _, right = _taps(padded, axis)
    grad = np.subtract(right, left)
    for other in range(padded.ndim):
        if other != axis:
            grad = _smooth(grad, other)
    return grad


def sobel(y: np.ndarray, axis: int) -> np.ndarray:
    """``ndimage.sobel(y, axis, mode="nearest")`` of a non-negative float32 stack.

    A derivative pass ``x[k+1] - x[k-1]`` along ``axis`` in float32 —
    the float64 difference rounded once to float32 is the same number,
    since 53 >= 2*24 + 2 — then a ``[1, 2, 1]`` pass over each other
    axis in increasing order, time included. Padding every axis by one
    edge sample up front is ``nearest`` mode for every pass.
    """
    return _sobel_padded(np.pad(y, 1, mode="edge"), axis)


def _running_mean3(a: np.ndarray, axis: int) -> np.ndarray:
    """3-tap mean along a padded axis, as ``ndimage.uniform_filter1d`` computes it.

    A float64 running sum — the first window added up from 0.0, then
    ``+= entering - leaving`` — divided by 3 at every output, rounded
    to float32. Dividing the increments by 3 before summing would round
    differently. The sum runs one output index at a time, vectorized
    over the other axes.
    """
    lines = np.moveaxis(a, axis, 0)
    out = np.empty((lines.shape[0] - 2,) + lines.shape[1:], dtype=np.float32)
    total = np.zeros(lines.shape[1:], dtype=np.float64)
    total += lines[0]
    total += lines[1]
    total += lines[2]
    np.divide(total, 3.0, out=out[0], casting="same_kind")
    step = np.empty_like(total)
    for k in range(1, out.shape[0]):
        np.subtract(lines[k + 2], lines[k - 1], out=step, dtype=np.float64)
        total += step
        np.divide(total, 3.0, out=out[k], casting="same_kind")
    return np.moveaxis(out, 0, axis)


def box_blur(y: np.ndarray) -> np.ndarray:
    """``ndimage.uniform_filter(y, size=(1, 3, 3), mode="nearest")`` of a float32 stack.

    Rows first, then columns. The row pass keeps the padded columns,
    which are then the ``nearest`` padding of the column pass.
    """
    padded = np.pad(y, ((0, 0), (1, 1), (1, 1)), mode="edge")
    return _running_mean3(_running_mean3(padded, 1), 2)


def degrade_stack(
    y: np.ndarray,
    strength: np.ndarray,
    blurred: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Apply codec-style degradation to a luma stack.

    ``strength`` is per-frame in [0, 1]: 0 = transparent coding, 1 =
    coarsest quantization. Degradation blends toward ``blurred``
    (:func:`box_blur` of ``y``: loss of spatial detail) and injects
    quantization noise scaled from ``noise``, a float32 standard-normal
    draw of ``y``'s shape.
    """
    if strength.shape[0] != y.shape[0]:
        raise ValueError("one strength value per frame required")
    s = np.clip(strength, 0.0, 1.0).astype(np.float32)[:, None, None]
    degraded = (1.0 - 0.8 * s) * y
    degraded += 0.8 * s * blurred
    degraded += 0.03 * s * noise
    return np.clip(degraded, 0.0, 1.0, out=degraded)


# ----------------------------------------------------------------------
# feature extraction
# ----------------------------------------------------------------------

def edge_features(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SI and HV per frame from one Sobel pass.

    SI is :func:`spatial_information`. HV is the ratio of
    horizontal/vertical edge energy to total edge energy, an ANSI
    T1.801.03-style edge-orientation feature: blur shifts edge energy
    away from crisp H/V structure.
    """
    return _padded_edge_features(np.pad(y, 1, mode="edge"))


def _padded_edge_features(padded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`edge_features` of a stack padded by one sample along every axis."""
    gx = _sobel_padded(padded, 2)
    gy = _sobel_padded(padded, 1)
    magnitude = np.sqrt(gx * gx + gy * gy)
    si = magnitude.std(axis=(1, 2))
    angle = np.arctan2(np.abs(gy), np.abs(gx))
    # "HV" energy: gradient within 0.225 rad of an axis.
    hv_mask = (angle < 0.225) | (angle > np.pi / 2 - 0.225)
    magnitude += 1e-9
    hv = (magnitude * hv_mask).sum(axis=(1, 2)) / magnitude.sum(axis=(1, 2))
    return si, hv


def spatial_information(y: np.ndarray) -> np.ndarray:
    """SI feature per frame: std of the Sobel gradient magnitude.

    This is the classic ITU-T P.910 / ANSI T1.801.03 spatial
    information measure.
    """
    return edge_features(y)[0]


def temporal_information(y: np.ndarray) -> np.ndarray:
    """TI feature: rms luma difference to the previous frame.

    First frame of the stack gets TI = 0 (no predecessor inside the
    stack); callers stitch scene stacks together.
    """
    ti = np.zeros(y.shape[0], dtype=np.float32)
    if y.shape[0] > 1:
        diff = y[1:] - y[:-1]
        ti[1:] = np.sqrt((diff * diff).mean(axis=(1, 2)))
    return ti


#: Feature streams that differ between versions of one clip.
_LUMA_FIELDS = ("y_mean", "y_std", "si", "hv", "ti")

#: Frames per block. Every stage of a scene streams blocks of this
#: many frames, so the scratch of a scene's worker does not grow with
#: the scene. Measured on the ``lost`` and ``dark`` builds: smaller
#: blocks pay more per-call overhead, larger ones only more memory.
BLOCK_FRAMES = 32


def _worker_count() -> int:
    """Threads a clip build may use: one per CPU this process may run on.

    A process started by :mod:`multiprocessing` is one of a pool that
    its parent sized to the CPUs, and every pool worker builds the same
    clips at the same moment, so it builds on its own thread alone.
    """
    if multiprocessing.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _luma_windows(
    stream: SceneStream, n: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(start, stop, window)`` per block of a scene's luma.

    ``window`` holds frames ``start - 1`` to ``stop`` of the scene: the
    block and a one-frame halo each side, the edge frame itself at the
    scene's ends (``nearest`` padding along time).
    """
    block = stream.luma(min(BLOCK_FRAMES, n))
    before = block[:1]
    start = 0
    while block is not None:
        stop = start + len(block)
        following = stream.luma(min(BLOCK_FRAMES, n - stop)) if stop < n else None
        after = block[-1:] if following is None else following[:1]
        yield start, stop, np.concatenate((before, block, after))
        before, block, start = block[-1:], following, stop


class _ClipPass:
    """The state of one :meth:`FrameFeatures.extract` call.

    The calling thread owns every array that grows with a scene or the
    clip: the output streams, one :data:`DEGRADATION_SEED` noise buffer
    per worker and each version's first and last frame per scene.
    Workers write disjoint slices of them and allocate only block-sized
    scratch.
    """

    def __init__(
        self,
        script: SceneScript,
        degradations: Sequence[Optional[np.ndarray]],
        workers: int,
    ):
        n = script.n_frames
        for strength in degradations:
            if strength is not None and len(strength) != n:
                raise ValueError(f"degradation length {len(strength)} != frames {n}")
        self.script = script
        self.renderer = FrameRenderer(script)
        self.degradations = list(degradations)
        self.workers = workers
        self.starts = np.cumsum([0] + [scene.n_frames for scene in script.scenes])
        self.streams = [
            {name: np.zeros(n, dtype=np.float32) for name in _LUMA_FIELDS}
            for _ in degradations
        ]
        self.u_mean = np.empty(n, dtype=np.float32)
        self.v_mean = np.empty(n, dtype=np.float32)
        shape = (self.renderer.height, self.renderer.width)
        # [version, scene, first/last] frame, for the TI across each cut.
        self.ends = np.empty(
            (len(degradations), len(script.scenes), 2) + shape, dtype=np.float32
        )
        self.noise_buffers: list[Optional[np.ndarray]] = [None] * workers
        if any(strength is not None for strength in degradations):
            longest = max(scene.n_frames for scene in script.scenes)
            self.noise_buffers = [
                np.empty((longest,) + shape, dtype=np.float32) for _ in range(workers)
            ]
        self.rng = np.random.default_rng(DEGRADATION_SEED)
        self.draw = np.empty((BLOCK_FRAMES,) + shape, dtype=np.float64)
        self.lock = threading.Lock()
        self.next_scene = 0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        """Featurise every scene: the calling thread and ``workers - 1`` more."""
        if self.workers <= 1:
            self.work(0)
        else:
            with ThreadPoolExecutor(
                self.workers - 1, thread_name_prefix="frame-features"
            ) as pool:
                for slot in range(1, self.workers):
                    pool.submit(self.work, slot)
                self.work(0)
        error, self.error = self.error, None  # no cycle through the traceback
        if error is not None:
            raise error
        self.stitch_cuts()

    def work(self, slot: int) -> None:
        """Take scenes in order until none is left or one has failed.

        Taking a scene and drawing its noise happen under one lock, so
        the shared stream is drawn scene by scene in order whichever
        worker takes which scene. The first error is kept for
        :meth:`run` to raise; the other workers stop after their
        current scene.
        """
        buffer = self.noise_buffers[slot]
        try:
            while True:
                with self.lock:
                    i = self.next_scene
                    if self.error is not None or i == len(self.script.scenes):
                        return
                    self.next_scene += 1
                    noise = self.noise(i, buffer)
                self.scene(i, noise)
        except BaseException as exc:  # re-raised by run() after the join
            with self.lock:
                if self.error is None:
                    self.error = exc

    def noise(self, i: int, buffer: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Scene ``i``'s quantization noise, the next piece of the shared stream.

        Drawn into ``buffer`` in blocks through a float64 scratch, each
        rounded to float32 as a whole draw would be.
        """
        if buffer is None:
            return None
        n = self.script.scenes[i].n_frames
        noise = buffer[:n]
        for start in range(0, n, BLOCK_FRAMES):
            block = self.draw[: min(BLOCK_FRAMES, n - start)]
            self.rng.standard_normal(out=block)
            noise[start : start + len(block)] = block
        return noise

    def scene(self, i: int, noise: Optional[np.ndarray]) -> None:
        """Every feature of scene ``i`` except the TI across its opening cut."""
        scene = self.script.scenes[i]
        n, first = scene.n_frames, self.starts[i]
        stream = self.renderer.stream_scene(scene)
        for start, stop, window in _luma_windows(stream, n):
            halo = np.clip(np.arange(start - 1, stop + 1), 0, n - 1)
            if noise is not None:
                blurred = box_blur(window)
                grain = noise[halo]
            frames_out = slice(first + start, first + stop)
            for k, strength in enumerate(self.degradations):
                frames = window
                if strength is not None:
                    frames = degrade_stack(window, strength[first + halo], blurred, grain)
                core = frames[1:-1]
                out = self.streams[k]
                out["y_mean"][frames_out] = core.mean(axis=(1, 2))
                out["y_std"][frames_out] = core.std(axis=(1, 2))
                out["si"][frames_out], out["hv"][frames_out] = _padded_edge_features(
                    np.pad(frames, ((0, 0), (1, 1), (1, 1)), mode="edge")
                )
                # A scene's first frame differs from its edge copy by 0.
                out["ti"][frames_out] = temporal_information(frames[:-1])[1:]
                if start == 0:
                    self.ends[k, i, 0] = core[0]
                if stop == n:
                    self.ends[k, i, 1] = core[-1]
        for level, means in (
            (0.5 + scene.chroma_u, self.u_mean),
            (0.5 + scene.chroma_v, self.v_mean),
        ):
            for start in range(0, n, BLOCK_FRAMES):
                count = min(BLOCK_FRAMES, n - start)
                plane = stream.chroma(level, count)
                means[first + start : first + start + count] = plane.mean(axis=(1, 2))

    def stitch_cuts(self) -> None:
        """TI across each scene cut: a scene's first frame against the last before it."""
        for k, out in enumerate(self.streams):
            for i in range(1, len(self.script.scenes)):
                cut_diff = self.ends[k, i, 0] - self.ends[k, i - 1, 1]
                out["ti"][self.starts[i]] = float(np.sqrt((cut_diff * cut_diff).mean()))


@dataclass
class FrameFeatures:
    """Per-frame reduced-reference feature streams for one clip version.

    All arrays have length ``n_frames``. ``ti[k]`` is the temporal
    difference between frame ``k`` and frame ``k-1`` (0 for frame 0 and
    at scene cuts it is the genuine cross-cut difference).
    """

    clip_name: str
    y_mean: np.ndarray
    y_std: np.ndarray
    si: np.ndarray
    hv: np.ndarray
    ti: np.ndarray
    u_mean: np.ndarray
    v_mean: np.ndarray
    scene_ids: np.ndarray

    @property
    def n_frames(self) -> int:
        """Number of frames."""
        return len(self.y_mean)

    @classmethod
    def extract(
        cls,
        script: SceneScript,
        degradations: Sequence[Optional[np.ndarray]],
    ) -> "list[FrameFeatures]":
        """Render the clip once and extract the features of each version.

        ``degradations`` holds one per-frame strength array per version
        (from a codec model); ``None`` is the pristine source. Each
        scene is rendered, blurred and drawn its noise (the
        :data:`DEGRADATION_SEED` stream) once and every version shares
        them, so a version's features do not depend on what else is
        extracted with it. Scenes are featurised concurrently, one
        thread per usable CPU (see the module docstring); the result
        does not depend on the thread count. Returns one
        :class:`FrameFeatures` per entry.
        """
        job = _ClipPass(script, degradations, min(_worker_count(), len(script.scenes)))
        job.run()
        scene_ids = script.scene_ids()
        return [
            cls(
                clip_name=script.name,
                u_mean=job.u_mean.copy(),
                v_mean=job.v_mean.copy(),
                scene_ids=scene_ids.copy(),
                **out,
            )
            for out in job.streams
        ]

    # ------------------------------------------------------------------
    # temporal feature composition for display sequences
    # ------------------------------------------------------------------
    def ti_between(self, i: int, j: int) -> float:
        """Temporal difference between displaying frame ``i`` then ``j``.

        * same frame — a freeze: TI is 0;
        * consecutive frames — the measured TI;
        * a skip within a scene — coherent motion accumulates roughly
          linearly, so we sum the per-step TIs and saturate at the
          decorrelation bound (two independent textures differ by
          about ``sqrt(std_i^2 + std_j^2)`` rms). Validated against
          directly rendered frame differences in the test suite.
        * across a scene cut — full decorrelation.
        """
        if j < i:
            i, j = j, i
        if i == j:
            return 0.0
        # Pure function of the (i, j) pair and immutable feature arrays;
        # memoized because the VQM tool re-queries the same transitions
        # for every display sequence of the same clip.
        cache = self.__dict__.get("_ti_cache")
        if cache is None:
            cache = {}
            self.__dict__["_ti_cache"] = cache
        key = (i, j)
        hit = cache.get(key)
        if hit is not None:
            return hit
        bound = float(np.sqrt(self.y_std[i] ** 2 + self.y_std[j] ** 2))
        if self.scene_ids[i] != self.scene_ids[j]:
            value = bound
        else:
            steps = self.ti[i + 1 : j + 1]
            composed = float(np.sum(np.abs(steps.astype(np.float64))))
            value = min(composed, bound)
        cache[key] = value
        return value

    @classmethod
    def composite(
        cls,
        versions: "list[FrameFeatures]",
        selection: np.ndarray,
    ) -> "FrameFeatures":
        """Per-frame mix of several versions of the same clip.

        ``selection[f]`` indexes into ``versions`` for frame ``f`` —
        what a multi-rate server's output looks like to the quality
        meter: each frame carries the features of whichever encoding
        served it.
        """
        if not versions:
            raise ValueError("need at least one version")
        n = versions[0].n_frames
        if any(v.n_frames != n for v in versions):
            raise ValueError("versions must have equal frame counts")
        selection = np.asarray(selection, dtype=np.int64)
        if selection.shape != (n,):
            raise ValueError("selection must have one entry per frame")
        if selection.min() < 0 or selection.max() >= len(versions):
            raise ValueError("selection indexes outside versions")

        def gather(attr: str) -> np.ndarray:
            stacked = np.stack([getattr(v, attr) for v in versions])
            return stacked[selection, np.arange(n)]

        return cls(
            clip_name=versions[0].clip_name,
            y_mean=gather("y_mean"),
            y_std=gather("y_std"),
            si=gather("si"),
            hv=gather("hv"),
            ti=gather("ti"),
            u_mean=gather("u_mean"),
            v_mean=gather("v_mean"),
            scene_ids=versions[0].scene_ids,
        )

    def ti_for_display_sequence(self, display: np.ndarray) -> np.ndarray:
        """TI stream of a rendered display sequence.

        ``display[k]`` is the source frame index shown at presentation
        slot ``k`` (repeats model renderer freezes). Element 0 is 0.
        """
        display = np.asarray(display)
        n = len(display)
        out = np.zeros(n, dtype=np.float32)
        for k in range(1, n):
            out[k] = self.ti_between(int(display[k - 1]), int(display[k]))
        return out
