"""Kinematic traffic world.

Vehicles are rigid rectangles moving in a 2-D image-coordinate plane
(x grows right, y grows down, units are pixels, one step is one video
frame).  Each vehicle follows a :class:`Route` (a polyline of waypoints at a
nominal speed); an optional controller — normally an incident script from
:mod:`repro.sim.incidents` — can override the desired velocity for a window
of frames.  Acceleration is bounded so trajectories look like real traffic
rather than teleporting points, which matters because the event features of
the paper (velocity change, heading change) are derivatives of positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.utils import as_rng, check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.incidents import Controller, IncidentRecord

#: Per-kind (length, width, render intensity) templates, in pixels / gray
#: levels.  Lengths are along the direction of travel.
VEHICLE_TEMPLATES: dict[str, tuple[float, float, float]] = {
    "car": (14.0, 7.0, 210.0),
    "suv": (17.0, 9.0, 180.0),
    "truck": (24.0, 10.0, 235.0),
}


@dataclass(frozen=True)
class VehicleSpec:
    """Static description of a vehicle (identity, class, geometry)."""

    vid: int
    kind: str = "car"
    length: float = 14.0
    width: float = 7.0
    intensity: float = 210.0

    @classmethod
    def of_kind(cls, vid: int, kind: str) -> "VehicleSpec":
        """Build a spec from the per-kind template table."""
        if kind not in VEHICLE_TEMPLATES:
            raise ConfigurationError(
                f"unknown vehicle kind {kind!r}; expected one of "
                f"{sorted(VEHICLE_TEMPLATES)}"
            )
        length, width, intensity = VEHICLE_TEMPLATES[kind]
        return cls(vid=vid, kind=kind, length=length, width=width,
                   intensity=intensity)


@dataclass(frozen=True)
class VehicleState:
    """Snapshot of one vehicle in one frame (what the renderer consumes)."""

    vid: int
    kind: str
    x: float
    y: float
    vx: float
    vy: float
    length: float
    width: float
    intensity: float

    @property
    def pos(self) -> np.ndarray:
        return np.array([self.x, self.y])

    @property
    def speed(self) -> float:
        return float(np.hypot(self.vx, self.vy))

    def half_extents(self) -> tuple[float, float]:
        """Axis-aligned half width/height given the dominant travel axis.

        Vehicles are rendered as axis-aligned rectangles; a vehicle moving
        mostly vertically is drawn tall, one moving horizontally is drawn
        wide.  Heading memory is kept by the caller via velocity.
        """
        if abs(self.vx) >= abs(self.vy):
            return self.length / 2.0, self.width / 2.0
        return self.width / 2.0, self.length / 2.0


class Route:
    """A polyline route traversed at a nominal speed.

    The desired velocity always points at the current waypoint; a waypoint
    is consumed once the vehicle is within ``reach`` pixels of it.  The
    route is ``finished`` after the final waypoint is consumed.
    """

    def __init__(self, waypoints: Sequence[Sequence[float]], speed: float,
                 reach: float = 6.0) -> None:
        pts = np.asarray(waypoints, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 1:
            raise ConfigurationError(
                f"waypoints must be an (N, 2) array with N >= 1, got shape "
                f"{pts.shape}"
            )
        check_positive("speed", speed)
        check_positive("reach", reach)
        self.waypoints = pts
        self.speed = float(speed)
        self.reach = float(reach)
        self._index = 0

    @property
    def finished(self) -> bool:
        return self._index >= len(self.waypoints)

    @property
    def target(self) -> np.ndarray | None:
        if self.finished:
            return None
        return self.waypoints[self._index]

    def desired_velocity(self, pos: np.ndarray) -> np.ndarray:
        """Velocity toward the current waypoint at the nominal speed."""
        while not self.finished:
            delta = self.waypoints[self._index] - pos
            dist = float(np.hypot(*delta))
            if dist > self.reach:
                return delta / dist * self.speed
            self._index += 1
        return np.zeros(2)

    @classmethod
    def straight(cls, start: Sequence[float], end: Sequence[float],
                 speed: float) -> "Route":
        return cls([start, end], speed)


class Vehicle:
    """One simulated vehicle: spec + kinematic state + route + controller."""

    def __init__(
        self,
        spec: VehicleSpec,
        route: Route,
        spawn_frame: int = 0,
        controller: "Controller | None" = None,
    ) -> None:
        self.spec = spec
        self.route = route
        self.spawn_frame = int(spawn_frame)
        self.controller = controller
        self.pos = route.waypoints[0].astype(float).copy()
        # Vehicles enter the world already moving at route speed.
        self.vel = route.desired_velocity(self.pos)
        self.retired = False

    @property
    def vid(self) -> int:
        return self.spec.vid

    @property
    def speed(self) -> float:
        return float(np.hypot(*self.vel))

    def active_at(self, frame: int) -> bool:
        return not self.retired and frame >= self.spawn_frame

    def state(self) -> VehicleState:
        return VehicleState(
            vid=self.spec.vid,
            kind=self.spec.kind,
            x=float(self.pos[0]),
            y=float(self.pos[1]),
            vx=float(self.vel[0]),
            vy=float(self.vel[1]),
            length=self.spec.length,
            width=self.spec.width,
            intensity=self.spec.intensity,
        )


@dataclass
class SimulationResult:
    """Everything a downstream pipeline needs from one simulated clip."""

    name: str
    n_frames: int
    width: int
    height: int
    states: list[list[VehicleState]]
    incidents: "list[IncidentRecord]"
    metadata: dict = field(default_factory=dict)

    def trajectory_of(self, vid: int) -> np.ndarray:
        """(frame, x, y) rows for one vehicle, in frame order."""
        rows = [
            (f, s.x, s.y)
            for f, frame_states in enumerate(self.states)
            for s in frame_states
            if s.vid == vid
        ]
        return np.asarray(rows, dtype=float).reshape(-1, 3)

    def vehicle_ids(self) -> list[int]:
        seen: dict[int, None] = {}
        for frame_states in self.states:
            for s in frame_states:
                seen.setdefault(s.vid, None)
        return list(seen)

    def max_concurrency(self) -> int:
        return max((len(fs) for fs in self.states), default=0)


def segment_bounds(n_frames: int, segment_frames: int
                   ) -> list[tuple[int, int]]:
    """Split ``n_frames`` into contiguous ``[lo, hi)`` ingest segments.

    Every segment holds ``segment_frames`` frames except possibly the
    last; the bounds tile the clip exactly (no gaps, no overlap).
    """
    check_positive("segment_frames", segment_frames)
    if n_frames < 0:
        raise ConfigurationError(f"n_frames must be >= 0, got {n_frames}")
    return [(lo, min(lo + segment_frames, n_frames))
            for lo in range(0, n_frames, segment_frames)]


class TrafficWorld:
    """Discrete-time world that advances all vehicles one frame at a time.

    The world applies, in order: controller override (incident scripts),
    car-following speed reduction (so normal traffic never rear-ends), an
    acceleration bound, and Euler integration.  Vehicles are retired once
    their route finishes or they leave the bounds by a margin.
    """

    #: Extra margin (pixels) outside the frame before a vehicle is retired.
    EXIT_MARGIN = 40.0

    def __init__(
        self,
        width: int,
        height: int,
        *,
        max_accel: float = 1.0,
        follow_gap: float = 26.0,
        speed_jitter: float = 0.05,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        check_positive("width", width)
        check_positive("height", height)
        check_positive("max_accel", max_accel)
        self.width = int(width)
        self.height = int(height)
        self.max_accel = float(max_accel)
        self.follow_gap = float(follow_gap)
        self.speed_jitter = float(speed_jitter)
        self.rng = as_rng(seed)
        self.frame = 0
        self.vehicles: list[Vehicle] = []
        self.incidents: list["IncidentRecord"] = []

    def add_vehicle(self, vehicle: Vehicle) -> None:
        if any(v.vid == vehicle.vid for v in self.vehicles):
            raise ConfigurationError(
                f"duplicate vehicle id {vehicle.vid}"
            )
        self.vehicles.append(vehicle)

    def add_vehicles(self, vehicles: Iterable[Vehicle]) -> None:
        for v in vehicles:
            self.add_vehicle(v)

    def record_incident(self, record: "IncidentRecord") -> None:
        self.incidents.append(record)

    def active_vehicles(self) -> list[Vehicle]:
        return [v for v in self.vehicles if v.active_at(self.frame)]

    def _car_following_scale(self, vehicle: Vehicle,
                             active: list[Vehicle]) -> float:
        """Scale factor (0..1] applied to desired speed to keep headway.

        A vehicle slows when another vehicle is ahead of it (in its own
        direction of travel, roughly in its lane) within ``follow_gap``.
        """
        if vehicle.speed < 1e-9:
            return 1.0
        heading = vehicle.vel / vehicle.speed
        lateral = np.array([-heading[1], heading[0]])
        scale = 1.0
        for other in active:
            if other.vid == vehicle.vid:
                continue
            delta = other.pos - vehicle.pos
            ahead = float(delta @ heading)
            side = abs(float(delta @ lateral))
            if 0.0 < ahead < self.follow_gap and side < vehicle.spec.width:
                scale = min(scale, max(0.15, ahead / self.follow_gap))
        return scale

    def step(self) -> list[VehicleState]:
        """Advance one frame; return the states of all active vehicles."""
        active = self.active_vehicles()
        desired: dict[int, np.ndarray] = {}
        for vehicle in active:
            dv = None
            if vehicle.controller is not None:
                dv = vehicle.controller.desired_velocity(
                    vehicle, self.frame, self
                )
            if dv is None:
                dv = vehicle.route.desired_velocity(vehicle.pos)
                dv = dv * self._car_following_scale(vehicle, active)
                if self.speed_jitter > 0:
                    dv = dv * (
                        1.0 + self.rng.normal(0.0, self.speed_jitter)
                    )
            desired[vehicle.vid] = np.asarray(dv, dtype=float)

        states: list[VehicleState] = []
        for vehicle in active:
            accel = desired[vehicle.vid] - vehicle.vel
            norm = float(np.hypot(*accel))
            limit = self.max_accel
            if vehicle.controller is not None:
                limit = max(limit, vehicle.controller.accel_limit())
            if norm > limit:
                accel = accel / norm * limit
            vehicle.vel = vehicle.vel + accel
            vehicle.pos = vehicle.pos + vehicle.vel
            states.append(vehicle.state())
            self._maybe_retire(vehicle)
        self.frame += 1
        return states

    def _maybe_retire(self, vehicle: Vehicle) -> None:
        controlled = (
            vehicle.controller is not None
            and vehicle.controller.holds(self.frame)
        )
        if vehicle.route.finished and not controlled:
            vehicle.retired = True
            return
        m = self.EXIT_MARGIN
        x, y = vehicle.pos
        if x < -m or x > self.width + m or y < -m or y > self.height + m:
            vehicle.retired = True

    def run(self, n_frames: int, name: str = "sim",
            metadata: dict | None = None) -> SimulationResult:
        """Run the world for ``n_frames`` frames and collect all states."""
        check_positive("n_frames", n_frames)
        states = [self.step() for _ in range(int(n_frames))]
        return SimulationResult(
            name=name,
            n_frames=int(n_frames),
            width=self.width,
            height=self.height,
            states=states,
            incidents=list(self.incidents),
            metadata=dict(metadata or {}),
        )
