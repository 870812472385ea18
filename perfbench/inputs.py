"""Seeded inputs: synthetic DAS records with earthquakes at known times,
and the helper that lands them as per-minute files through the program.

Synthesis uses :mod:`repro.synthetic` (input generation only) and is not
part of any timed figure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.storage import DASMetadata, timestamp_add_seconds, write_das_file
from repro.storage.dasfile import das_filename
from repro.synthetic import SceneSpec, synthesize_scene

START_STAMP = "170620100545"


@dataclass(frozen=True)
class Geometry:
    channels: int
    minutes: int
    samples_per_minute: int

    @property
    def fs(self) -> float:
        return self.samples_per_minute / 60.0

    @property
    def samples(self) -> int:
        return self.minutes * self.samples_per_minute


@dataclass
class Record:
    geometry: Geometry
    raw: np.ndarray  # (channels, samples) float32, as stored
    event_times: list[float]  # earthquake origin times, seconds


def earthquake_record(geometry: Geometry, seed: int, n_events: int) -> Record:
    """Band-limited noise plus ``n_events`` earthquakes, one per equal
    slot of the record, at seeded times away from the slot edges."""
    rng = np.random.default_rng(seed)
    duration = geometry.samples / geometry.fs
    slot = duration / n_events
    times, events = [], []
    for k in range(n_events):
        t = k * slot + rng.uniform(0.25, 0.6) * slot
        times.append(float(t))
        events.append(
            (
                "earthquake",
                dict(
                    origin_time=float(t),
                    epicenter_channel=float(rng.uniform(0, geometry.channels)),
                    amplitude=float(rng.uniform(5.0, 7.0)),
                    peak_freq=5.0,
                ),
            )
        )
    scene = SceneSpec(
        n_channels=geometry.channels,
        fs=geometry.fs,
        noise_band=(0.5, 0.4 * geometry.fs),
        events=events,
        seed=int(rng.integers(2**31)),
    )
    raw = synthesize_scene(scene, geometry.minutes, geometry.samples_per_minute)
    return Record(geometry, raw, times)


def minute_stamp(index: int) -> str:
    return timestamp_add_seconds(START_STAMP, 60 * index)


def minute_name(index: int) -> str:
    return das_filename(minute_stamp(index))


def write_minute(path: str, record: Record, index: int, **layout) -> str:
    """Write minute ``index`` of ``record`` through ``write_das_file``."""
    g = record.geometry
    lo = index * g.samples_per_minute
    return write_das_file(
        path,
        record.raw[:, lo : lo + g.samples_per_minute],
        DASMetadata(
            sampling_frequency=g.fs,
            spatial_resolution=2.0,
            timestamp=minute_stamp(index),
            n_channels=g.channels,
        ),
        channel_groups=False,
        **layout,
    )


def write_minutes(directory: str, record: Record, **layout) -> list[str]:
    return [
        write_minute(os.path.join(directory, minute_name(m)), record, m, **layout)
        for m in range(record.geometry.minutes)
    ]


def mapped(directory: str, name: str, array: np.ndarray) -> np.ndarray:
    """Keep a reference array on disk, memory-mapped: its pages are
    file-backed, so they never count in the timed phase's memory."""
    path = os.path.join(directory, name + ".npy")
    np.save(path, array)
    return np.load(path, mmap_mode="r")
