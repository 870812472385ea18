"""Correctness checks: program outputs against references the benchmark
computes itself (numpy/scipy), or against properties the method must
have.  Each check raises :class:`CheckFailed` on a mismatch.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import filtfilt
from scipy.signal.windows import tukey

from perfbench.runner import CheckFailed

CODA_S = 4.0  # seconds after an injected origin in which its similarity must peak
SLACK_S = 2.0  # widening of a detected event's span for the detector's window
EVENT_TOL = 1e-6  # streamed against batch event times and peak similarity


def sta_lta_reference(x: np.ndarray, nsta: int, nlta: int) -> np.ndarray:
    """Trailing-window STA/LTA of ``x**2`` per row; the first
    ``nlta - 1`` columns, whose long window is not yet full, are 0."""
    energy = np.asarray(x, dtype=np.float64) ** 2
    csum = np.zeros(energy.shape[:-1] + (energy.shape[-1] + 1,))
    np.cumsum(energy, axis=-1, out=csum[..., 1:])
    out = np.zeros_like(energy)
    end = np.arange(nlta, energy.shape[-1] + 1)
    sta = (csum[..., end] - csum[..., end - nsta]) / nsta
    lta = (csum[..., end] - csum[..., end - nlta]) / nlta
    out[..., nlta - 1 :] = sta / lta
    return out


def detect_reference(raw: np.ndarray, taper: float, b, a, nsta: int, nlta: int) -> np.ndarray:
    """Whole-record taper, zero-phase band-pass, STA/LTA."""
    x = np.asarray(raw, dtype=np.float64) * tukey(raw.shape[-1], 2.0 * taper)[None, :]
    return sta_lta_reference(filtfilt(b, a, x, axis=-1), nsta, nlta)


def check_close(what: str, got: np.ndarray, want: np.ndarray, rtol: float, atol: float) -> None:
    """``|got - want| <= atol + rtol * |want|`` everywhere, compared a few
    rows at a time to keep the check's own memory small."""
    got = np.asarray(got)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    for lo in range(0, got.shape[0], 4):
        g, w = got[lo : lo + 4], np.asarray(want[lo : lo + 4])
        if not np.all(np.isfinite(g)):
            raise CheckFailed(f"{what}: non-finite values")
        err = np.abs(g - w) - rtol * np.abs(w)
        worst = float(err.max()) if err.size else 0.0
        if worst > atol:
            raise CheckFailed(f"{what}: off by {worst:.3g} beyond rtol {rtol}, atol {atol}")


def check_exact(what: str, got: np.ndarray, want: np.ndarray) -> None:
    got = np.asarray(got)
    if got.shape != want.shape or not np.array_equal(got, want):
        raise CheckFailed(f"{what}: not bit-exact (shape {got.shape} vs {want.shape})")


def check_similarity(simi: np.ndarray, centers: np.ndarray, fs: float,
                     event_times: list[float]) -> None:
    """Local similarity must lie in [-1, 1], and every injected event
    must stand out: the channel-mean similarity somewhere in
    ``[t, t + CODA_S]`` exceeds every column far (>= 2 coda lengths)
    from any event."""
    simi = np.asarray(simi)
    if simi.ndim != 2 or simi.shape[1] != centers.size:
        raise CheckFailed(f"similarity: shape {simi.shape} vs {centers.size} centers")
    if not np.all(np.isfinite(simi)) or simi.min() < -1 - 1e-9 or simi.max() > 1 + 1e-9:
        raise CheckFailed("similarity: values outside [-1, 1]")
    score = simi.mean(axis=0)
    t = centers / fs
    quiet = np.ones(t.size, dtype=bool)
    for ev in event_times:
        quiet &= np.abs(t - (ev + CODA_S / 2)) > 2 * CODA_S
    if not quiet.any():
        raise CheckFailed("similarity: record has no quiet columns")
    floor = float(score[quiet].max())
    for ev in event_times:
        near = (t >= ev) & (t <= ev + CODA_S)
        if not near.any() or float(score[near].max()) <= floor:
            raise CheckFailed(f"similarity: event at {ev:.2f}s not found")


def check_events_found(events, event_times: list[float]) -> None:
    """Each injected origin time lies inside some detected event's span
    (widened by ``SLACK_S`` for the detector's window)."""
    for ev in event_times:
        if not any(
            e.event.t_start - SLACK_S <= ev <= e.event.t_end + SLACK_S for e in events
        ):
            raise CheckFailed(f"events: injected event at {ev:.2f}s missing")


def event_key(e) -> tuple:
    return (e.j_start, e.j_end, e.event.kind, e.event.channel_lo, e.event.channel_hi,
            e.event.n_cells)


def check_event_log(got, want) -> None:
    """Reloaded event log equals the batch detection, event by event."""
    if [event_key(e) for e in got] != [event_key(e) for e in want]:
        raise CheckFailed(f"events: {len(got)} logged differ from {len(want)} in batch")
    for g, w in zip(got, want):
        for attr in ("t_start", "t_end", "peak_similarity"):
            if abs(getattr(g.event, attr) - getattr(w.event, attr)) > EVENT_TOL:
                raise CheckFailed(f"events: {attr} differs at {event_key(g)}")
