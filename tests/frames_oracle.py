"""Whole-scene feature extraction, kept as a reference oracle for tests.

This is :meth:`repro.video.frames.FrameFeatures.extract` as it was
before scenes were streamed in frame blocks on a thread pool: every
scene is rendered, blurred, degraded and featurised as one whole
stack, one scene after another, on the calling thread. The stencils
(:func:`box_blur`, :func:`sobel`, :func:`degrade_stack`,
:func:`temporal_information`) are the production ones, which are
checked against ``scipy.ndimage`` on their own. Test-only: nothing in
``src/`` imports it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.video.frames import (
    DEGRADATION_SEED,
    FRAME_HEIGHT,
    FRAME_WIDTH,
    FrameFeatures,
    _scene_rng,
    box_blur,
    degrade_stack,
    sobel,
    temporal_information,
)
from repro.video.scenes import Scene, SceneScript

_LUMA_FIELDS = ("y_mean", "y_std", "si", "hv", "ti")


def render_scene(
    script_name: str, scene: Scene, h: int = FRAME_HEIGHT, w: int = FRAME_WIDTH
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(y, u, v)`` of a whole scene, drawn as one stack."""
    rng = _scene_rng(script_name, scene.scene_id)
    n = scene.n_frames
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)
    xx /= w
    yy /= h
    t = np.arange(n, dtype=np.float32)[:, None, None]

    f1 = 2.0 + 8.0 * scene.spatial_detail + rng.uniform(0, 1.5)
    f2 = 3.0 + 10.0 * scene.spatial_detail + rng.uniform(0, 2.0)
    angle1 = rng.uniform(0, np.pi)
    angle2 = rng.uniform(0, np.pi)
    omega1 = 0.05 + 0.45 * scene.motion
    omega2 = 0.08 + 0.6 * scene.motion

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


def edge_features(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SI and HV per frame of a whole stack."""
    gx = sobel(y, 2)
    gy = sobel(y, 1)
    magnitude = np.sqrt(gx * gx + gy * gy)
    si = magnitude.std(axis=(1, 2))
    angle = np.arctan2(np.abs(gy), np.abs(gx))
    hv_mask = (angle < 0.225) | (angle > np.pi / 2 - 0.225)
    magnitude += 1e-9
    hv = (magnitude * hv_mask).sum(axis=(1, 2)) / magnitude.sum(axis=(1, 2))
    return si, hv


def extract(
    script: SceneScript, degradations: Sequence[Optional[np.ndarray]]
) -> list[FrameFeatures]:
    """One :class:`FrameFeatures` per entry of ``degradations``, scene by scene."""
    n = script.n_frames
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
    for scene in script.scenes:
        y, u, v = render_scene(script.name, scene)
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
        FrameFeatures(
            clip_name=script.name,
            u_mean=u_mean.copy(),
            v_mean=v_mean.copy(),
            scene_ids=scene_ids.copy(),
            **out,
        )
        for out in streams
    ]
