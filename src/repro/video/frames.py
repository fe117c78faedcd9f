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
"""

from __future__ import annotations

import zlib
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

    def render_scene(self, scene: Scene) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Render one scene.

        Returns ``(y, u, v)`` where ``y`` has shape
        ``(n_frames, height, width)`` and the chroma planes are half
        resolution.
        """
        rng = _scene_rng(self.script.name, scene.scene_id)
        n, h, w = scene.n_frames, self.height, self.width
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)
        xx /= w
        yy /= h
        t = np.arange(n, dtype=np.float32)[:, None, None]

        # Spatial frequencies grow with detail; phase velocity with motion.
        f1 = 2.0 + 8.0 * scene.spatial_detail + rng.uniform(0, 1.5)
        f2 = 3.0 + 10.0 * scene.spatial_detail + rng.uniform(0, 2.0)
        angle1 = rng.uniform(0, np.pi)
        angle2 = rng.uniform(0, np.pi)
        omega1 = 0.05 + 0.45 * scene.motion
        omega2 = 0.08 + 0.6 * scene.motion

        # Built in place, one float64 operation at a time in the order of
        # ``brightness + amp1 * g1 + amp2 * g2 + noise``.
        y = np.add(
            2 * np.pi * f1 * (np.cos(angle1) * xx + np.sin(angle1) * yy),
            omega1 * t,
        )
        np.sin(y, out=y)
        g2 = np.subtract(
            2 * np.pi * f2 * (np.cos(angle2) * xx - np.sin(angle2) * yy),
            omega2 * t,
        )
        np.sin(g2, out=g2)
        amp1 = 0.22 * (0.3 + 0.7 * scene.spatial_detail)
        amp2 = 0.13 * (0.3 + 0.7 * scene.spatial_detail)
        y *= amp1
        y += scene.brightness
        g2 *= amp2
        y += g2
        y += rng.standard_normal((n, h, w)).astype(np.float32) * 0.015
        luma = np.empty(y.shape, dtype=np.float32)
        np.clip(y, 0.0, 1.0, out=luma, casting="same_kind")

        ch, cw = h // 2, w // 2
        u = np.full((n, ch, cw), 0.5 + scene.chroma_u, dtype=np.float32)
        v = np.full((n, ch, cw), 0.5 + scene.chroma_v, dtype=np.float32)
        u += rng.standard_normal((n, ch, cw)).astype(np.float32) * 0.01
        v += rng.standard_normal((n, ch, cw)).astype(np.float32) * 0.01
        return luma, u, v

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

    def iter_scenes(self) -> Iterator[tuple[Scene, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(scene, y, u, v)`` for each scene in order."""
        for scene in self.script.scenes:
            y, u, v = self.render_scene(scene)
            yield scene, y, u, v


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
    padded = np.pad(y, 1, mode="edge")
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
        extracted with it. Returns one :class:`FrameFeatures` per entry.
        """
        n = script.n_frames
        for strength in degradations:
            if strength is not None and len(strength) != n:
                raise ValueError(f"degradation length {len(strength)} != frames {n}")
        streams = [
            {name: np.zeros(n, dtype=np.float32) for name in _LUMA_FIELDS}
            for _ in degradations
        ]
        last_frames: list[Optional[np.ndarray]] = [None] * len(degradations)
        u_mean = np.empty(n, dtype=np.float32)
        v_mean = np.empty(n, dtype=np.float32)
        degraded = any(strength is not None for strength in degradations)
        rng = np.random.default_rng(DEGRADATION_SEED)

        cursor = 0
        for scene, y, u, v in FrameRenderer(script).iter_scenes():
            sl = slice(cursor, cursor + scene.n_frames)
            u_mean[sl] = u.mean(axis=(1, 2))
            v_mean[sl] = v.mean(axis=(1, 2))
            if degraded:
                blurred = box_blur(y)
                noise = rng.standard_normal(y.shape).astype(np.float32)
            for k, strength in enumerate(degradations):
                frames = y
                if strength is not None:
                    frames = degrade_stack(y, strength[sl], blurred, noise)
                out = streams[k]
                out["y_mean"][sl] = frames.mean(axis=(1, 2))
                out["y_std"][sl] = frames.std(axis=(1, 2))
                out["si"][sl], out["hv"][sl] = edge_features(frames)
                out["ti"][sl] = temporal_information(frames)
                if last_frames[k] is not None:
                    cut_diff = frames[0] - last_frames[k]
                    out["ti"][cursor] = float(np.sqrt((cut_diff * cut_diff).mean()))
                last_frames[k] = frames[-1]
            cursor += scene.n_frames

        scene_ids = script.scene_ids()
        return [
            cls(
                clip_name=script.name,
                u_mean=u_mean.copy(),
                v_mean=v_mean.copy(),
                scene_ids=scene_ids.copy(),
                **out,
            )
            for out in streams
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
