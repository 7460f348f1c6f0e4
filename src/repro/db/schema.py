"""Typed records stored in the video database catalog, and the id
formats that key them.

:func:`merged_corpus_id` and :func:`session_id_for` are the one place
the corpus and session id formats are built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.errors import StorageError

__all__ = ["ClipRecord", "TrackRecord", "LabelRecord", "SessionRecord",
           "merged_corpus_id", "session_id_for"]


def merged_corpus_id(clip_ids: list[str]) -> str:
    """The id of the corpus over ``clip_ids`` (in order), and the history
    key multi-clip sessions store their feedback under."""
    return "merged:" + "+".join(clip_ids)


def session_id_for(user_id: str, corpus_id: str, event_name: str) -> str:
    """The durable id of one user's feedback history on one history key
    and event: what the quality ledger and the service key sessions by."""
    return f"{user_id}:{corpus_id}:{event_name}"


@dataclass(frozen=True)
class ClipRecord:
    """Catalog entry for one surveillance clip (paper: "organized with
    the corresponding metadata such as the time and place")."""

    clip_id: str
    location: str = ""
    camera: str = ""
    start_time: str = ""  # ISO-8601 wall-clock time of frame 0
    fps: float = 25.0
    n_frames: int = 0
    width: int = 0
    height: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.clip_id:
            raise StorageError("clip_id must be non-empty")
        if self.fps <= 0:
            raise StorageError(f"clip {self.clip_id}: fps must be > 0")

    def extra_json(self) -> str:
        return json.dumps(self.extra, sort_keys=True)

    @staticmethod
    def extra_from_json(text: str) -> dict:
        return json.loads(text) if text else {}


@dataclass(frozen=True)
class TrackRecord:
    """One stored vehicle track: span, size, vehicle class, and the
    compact polynomial trajectory model of paper Section 3.2."""

    clip_id: str
    track_id: int
    first_frame: int
    last_frame: int
    n_points: int
    degree: int
    coeff_x: tuple[float, ...]
    coeff_y: tuple[float, ...]
    shift: float
    scale: float
    rms_error: float
    vehicle_class: str = ""

    def curves(self):
        """Rebuild the (x(t), y(t)) polynomial curves."""
        from repro.trajectory.curve import PolynomialCurve

        return (
            PolynomialCurve(np.asarray(self.coeff_x), shift=self.shift,
                            scale=self.scale),
            PolynomialCurve(np.asarray(self.coeff_y), shift=self.shift,
                            scale=self.scale),
        )

    def position_at(self, frame: float) -> np.ndarray:
        cx, cy = self.curves()
        return np.array([cx(float(frame)), cy(float(frame))])


@dataclass(frozen=True)
class LabelRecord:
    """One relevance-feedback label from one user in one round."""

    clip_id: str
    event_name: str
    bag_id: int
    user_id: str
    round_index: int
    relevant: bool


@dataclass(frozen=True)
class SessionRecord:
    """Durable description of one relevance-feedback session.

    Enough to reconstruct the session on any worker: which clips make
    up the corpus, which engine ranks it, and the engine parameters.
    The feedback itself lives in the ``labels`` table keyed by the same
    ``(corpus_id, event, user_id)`` triple, so reconstruction replays
    it automatically.
    """

    session_id: str
    user_id: str
    corpus_id: str
    event_name: str
    clip_ids: tuple[str, ...]
    engine: str = "mil_ocsvm"
    top_k: int = 20
    params: dict = field(default_factory=dict)
    created_at: str = ""
    last_seen_at: str = ""

    def params_json(self) -> str:
        return json.dumps(self.params, sort_keys=True)

    def clip_ids_json(self) -> str:
        return json.dumps(list(self.clip_ids))
