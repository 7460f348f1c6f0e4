"""Workload generators that mirror the paper's two evaluation clips.

* :func:`tunnel` — clip 1: a sparse one-way tunnel, 2504 frames in the
  paper, where "speeding vehicles lost control and hit on the sidewalls";
  accidents involve a single vehicle (wall crashes, sudden stops).
* :func:`intersection` — clip 2: a busy road intersection, 592 frames in
  the paper, where accidents "often involve two or more vehicles"
  (collisions at the conflict points).
* :func:`highway` — extra workload for the paper's "U-turns and speeding"
  remark (Section 4), used by the other-events benchmark.

All generators are deterministic given ``seed`` and return a
:class:`~repro.sim.world.SimulationResult`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.incidents import (
    BenignBrake,
    LaneChange,
    Speeding,
    SuddenStop,
    UTurn,
    YieldBrake,
    make_collision_pair,
)
from repro.sim.world import Route, SimulationResult, TrafficWorld, Vehicle, VehicleSpec
from repro.sim.incidents import WallCrash
from repro.utils import as_rng

#: Relative frequency of vehicle classes in generated traffic.
_KIND_WEIGHTS = (("car", 0.6), ("suv", 0.3), ("truck", 0.1))


def _pick_kind(rng: np.random.Generator) -> str:
    kinds = [k for k, _ in _KIND_WEIGHTS]
    probs = [w for _, w in _KIND_WEIGHTS]
    return str(rng.choice(kinds, p=probs))


def _add_benign_maneuvers(
    vehicles: list[Vehicle],
    rng: np.random.Generator,
    fraction: float,
    lane_offset_for,
) -> None:
    """Give a fraction of uncontrolled vehicles a normal-driving maneuver.

    These distractors (moderate braking, lane drifts) are what keeps the
    initial square-sum heuristic honest: without them every feature spike
    in the clip would be a real incident and the Initial round would be
    unrealistically accurate.  ``lane_offset_for(vehicle)`` returns the
    signed lateral offset of a safe lane drift for that vehicle.
    """
    free = [v for v in vehicles if v.controller is None]
    rng.shuffle(free)
    n = int(round(fraction * len(free)))
    for i, vehicle in enumerate(free[:n]):
        start = vehicle.spawn_frame + int(rng.uniform(20, 55))
        if i % 2 == 0:
            # Phantom-jam brake: dive almost to a stop, creep briefly,
            # resume.  At a single sampling point this is nearly
            # indistinguishable from an incident stop — only the window
            # *shape* (V-shaped vs stop-and-stay) differs.
            vehicle.controller = BenignBrake(
                start,
                dip=float(rng.uniform(0.02, 0.15)),
                ramp=int(rng.uniform(3, 6)),
                hold=int(rng.uniform(5, 12)),
            )
        else:
            vehicle.controller = LaneChange(start, lane_offset_for(vehicle))


def _spawn_frames(rng: np.random.Generator, n_frames: int,
                  interval: tuple[float, float], margin: int) -> list[int]:
    """Random spawn times, leaving ``margin`` frames of tail room."""
    if interval[0] > interval[1] or interval[0] <= 0:
        raise ConfigurationError(f"bad spawn interval {interval!r}")
    frames: list[int] = []
    t = float(rng.uniform(*interval)) * 0.3
    while t < n_frames - margin:
        frames.append(int(t))
        t += float(rng.uniform(*interval))
    return frames


def tunnel(
    *,
    n_frames: int = 2500,
    width: int = 320,
    height: int = 240,
    seed: int = 0,
    spawn_interval: tuple[float, float] = (45.0, 75.0),
    speed: float = 3.0,
    n_wall_crashes: int = 7,
    n_sudden_stops: int = 5,
    benign_fraction: float = 0.9,
) -> SimulationResult:
    """One-way two-lane tunnel with single-vehicle accidents (clip 1)."""
    rng = as_rng(seed)
    cy = height / 2.0
    lanes = (cy - 9.0, cy + 9.0)
    walls = {lanes[0]: cy - 27.0, lanes[1]: cy + 27.0}

    world = TrafficWorld(width, height, seed=rng)
    spawns = _spawn_frames(rng, n_frames, spawn_interval, margin=180)

    vehicles: list[Vehicle] = []
    for vid, frame in enumerate(spawns):
        lane_y = lanes[vid % 2]
        v_speed = float(np.clip(rng.normal(speed, 0.3), 1.8, 4.5))
        route = Route.straight((-30.0, lane_y), (width + 30.0, lane_y),
                               v_speed)
        spec = VehicleSpec.of_kind(vid, _pick_kind(rng))
        vehicles.append(Vehicle(spec, route, spawn_frame=frame))

    n_incidents = n_wall_crashes + n_sudden_stops
    if n_incidents > 0:
        if n_incidents > len(vehicles):
            raise ConfigurationError(
                f"scenario too short: {n_incidents} incidents requested but "
                f"only {len(vehicles)} vehicles spawn"
            )
        # Spread incident carriers evenly over the clip so every retrieval
        # round has relevant material, then shuffle which incident type
        # lands where.
        carrier_idx = np.unique(
            np.linspace(1, len(vehicles) - 2, n_incidents).round().astype(int)
        )
        extra = rng.permutation(
            [i for i in range(len(vehicles)) if i not in set(carrier_idx)]
        )
        carriers = list(carrier_idx) + list(extra)[: n_incidents - len(carrier_idx)]
        types = ["wall_crash"] * n_wall_crashes + ["sudden_stop"] * n_sudden_stops
        rng.shuffle(types)
        for idx, incident_type in zip(carriers, types):
            vehicle = vehicles[idx]
            start = vehicle.spawn_frame + int(rng.uniform(25, 60))
            lane_y = vehicle.route.waypoints[0][1]
            if incident_type == "wall_crash":
                vehicle.controller = WallCrash(start, walls[lane_y],
                                               hold=60)
            else:
                vehicle.controller = SuddenStop(start, hold=25)

    cy_center = cy

    def _tunnel_drift(vehicle):
        # Drift into the other lane (toward the road center, never a wall).
        lane_y = vehicle.route.waypoints[0][1]
        return 2.0 * (cy_center - lane_y)

    _add_benign_maneuvers(vehicles, rng, benign_fraction, _tunnel_drift)

    world.add_vehicles(vehicles)
    return world.run(
        n_frames,
        name="tunnel",
        metadata={
            "location": "tunnel",
            "camera": "cam-tunnel-01",
            "lanes": lanes,
            "walls": tuple(sorted(walls.values())),
            "scenario": "tunnel",
            "seed": seed,
        },
    )


def intersection(
    *,
    n_frames: int = 600,
    width: int = 320,
    height: int = 240,
    seed: int = 1,
    spawn_interval: tuple[float, float] = (150.0, 230.0),
    speed: float = 2.8,
    n_collisions: int = 5,
    n_near_misses: int = 4,
    benign_fraction: float = 0.3,
    turn_fraction: float = 0.45,
) -> SimulationResult:
    """Four-approach intersection with multi-vehicle collisions (clip 2).

    A ``turn_fraction`` of the through traffic turns left or right at the
    crossing — normal behaviour with a large heading change, which is the
    main thing the initial square-sum heuristic confuses with a crash.
    """
    rng = as_rng(seed)
    cx, cy = width / 2.0, height / 2.0
    approaches = {
        "E": ((-30.0, cy + 8.0), (width + 30.0, cy + 8.0)),
        "W": ((width + 30.0, cy - 8.0), (-30.0, cy - 8.0)),
        "S": ((cx - 8.0, -30.0), (cx - 8.0, height + 30.0)),
        "N": ((cx + 8.0, height + 30.0), (cx + 8.0, -30.0)),
    }
    #: direction -> (right-turn exit, left-turn exit)
    turn_exits = {"E": ("S", "N"), "W": ("N", "S"),
                  "S": ("W", "E"), "N": ("E", "W")}
    order = ["E", "S", "W", "N"]

    def _route_for(direction: str, v_speed: float) -> Route:
        start, end = approaches[direction]
        if rng.random() >= turn_fraction:
            return Route.straight(start, end, v_speed)
        exit_dir = turn_exits[direction][int(rng.random() < 0.5)]
        exit_start, exit_end = approaches[exit_dir]
        # Corner waypoint: the crossing of the entry lane and exit lane.
        if direction in ("E", "W"):
            corner = (exit_start[0], start[1])
        else:
            corner = (start[0], exit_start[1])
        return Route([start, corner, exit_end], v_speed)

    world = TrafficWorld(width, height, seed=rng)
    vid = 0
    vehicles: list[Vehicle] = []
    for direction in order:
        for frame in _spawn_frames(rng, n_frames, spawn_interval, margin=90):
            v_speed = float(np.clip(rng.normal(speed, 0.25), 1.8, 4.0))
            route = _route_for(direction, v_speed)
            spec = VehicleSpec.of_kind(vid, _pick_kind(rng))
            vehicles.append(Vehicle(spec, route, spawn_frame=frame))
            vid += 1

    # Conflict pairs: one vehicle on a horizontal approach, one on a
    # vertical approach, spawned so both reach the conflict point of their
    # lanes around the same target frame.  The first ``n_collisions``
    # pairs actually collide; the next ``n_near_misses`` pairs resolve
    # with a panic brake (hard negatives for the heuristic).
    pairings = [("E", "S"), ("W", "N"), ("E", "N"), ("W", "S")]
    n_pairs = n_collisions + n_near_misses
    targets = np.linspace(90, max(120, n_frames - 110), max(n_pairs, 1))
    pair_kinds = (["collision"] * n_collisions + ["near_miss"] * n_near_misses)
    rng.shuffle(pair_kinds)
    for i in range(n_pairs):
        pair = pairings[i % len(pairings)]
        target_frame = float(targets[i])
        pair_vids = []
        # Conflict point: x from the vertical lane, y from the horizontal
        # lane of this pairing.
        vert = pair[0] if pair[0] in ("S", "N") else pair[1]
        horiz = pair[0] if pair[0] in ("E", "W") else pair[1]
        conflict = np.array([approaches[vert][0][0],
                             approaches[horiz][0][1]])
        for direction in pair:
            start, end = (np.asarray(p, dtype=float)
                          for p in approaches[direction])
            dist = float(np.hypot(*(conflict - start)))
            travel = dist / speed
            spawn_frame = max(0, int(round(target_frame - travel)))
            route = Route.straight(start, end, speed)
            spec = VehicleSpec.of_kind(vid, _pick_kind(rng))
            vehicles.append(Vehicle(spec, route, spawn_frame=spawn_frame))
            pair_vids.append(vid)
            vid += 1
        window = (int(target_frame - 45), int(target_frame + 45))
        if pair_kinds[i] == "collision":
            ctrl_a, ctrl_b = make_collision_pair(pair_vids[0], pair_vids[1],
                                                 window, trigger_dist=15.0,
                                                 hold=45)
            vehicles[-2].controller = ctrl_a
            vehicles[-1].controller = ctrl_b
        else:
            # One vehicle yields with a panic stop; the other sails on.
            vehicles[-1].controller = YieldBrake(pair_vids[0],
                                                 window=window)

    # A lateral +8 drift moves every approach away from its oncoming lane
    # (the lateral axis is the right-hand perpendicular of the heading).
    _add_benign_maneuvers(vehicles, rng, benign_fraction, lambda v: 8.0)

    world.add_vehicles(vehicles)
    return world.run(
        n_frames,
        name="intersection",
        metadata={
            "location": "intersection",
            "camera": "cam-intersection-01",
            "center": (cx, cy),
            "scenario": "intersection",
            "seed": seed,
        },
    )


def curve(
    *,
    n_frames: int = 1200,
    width: int = 320,
    height: int = 240,
    seed: int = 3,
    spawn_interval: tuple[float, float] = (55.0, 85.0),
    speed: float = 2.6,
    n_sudden_stops: int = 4,
    benign_fraction: float = 0.4,
) -> SimulationResult:
    """A curved road: every vehicle turns *continuously* and normally.

    The stress case for the theta feature: on a bend, steady heading
    change is ordinary driving, so an accident query must key on the
    conjunction with velocity change, not on theta alone.  Incidents are
    sudden stops on the bend.
    """
    rng = as_rng(seed)
    # A wide arc sweeping through the frame: centre below the bottom
    # edge, so traffic enters right, curves over the top, exits left.
    cx_arc, cy_arc = width / 2.0, float(height + 70)
    radius = 210.0
    angles = np.linspace(0.15 * np.pi, 0.85 * np.pi, 28)
    arc = np.column_stack([
        cx_arc + radius * np.cos(angles),
        cy_arc - radius * np.sin(angles),
    ])[::-1]  # rightmost point first: traffic flows right-to-left

    world = TrafficWorld(width, height, seed=rng)
    spawns = _spawn_frames(rng, n_frames, spawn_interval, margin=150)
    vehicles: list[Vehicle] = []
    for vid, frame in enumerate(spawns):
        v_speed = float(np.clip(rng.normal(speed, 0.25), 1.6, 3.6))
        route = Route(arc, v_speed, reach=10.0)
        spec = VehicleSpec.of_kind(vid, _pick_kind(rng))
        vehicles.append(Vehicle(spec, route, spawn_frame=frame))

    if n_sudden_stops > len(vehicles):
        raise ConfigurationError(
            f"scenario too short: {n_sudden_stops} stops requested but "
            f"only {len(vehicles)} vehicles spawn"
        )
    carriers = np.unique(
        np.linspace(1, max(1, len(vehicles) - 2),
                    n_sudden_stops).round().astype(int))
    for idx in carriers:
        start = vehicles[idx].spawn_frame + int(rng.uniform(35, 70))
        vehicles[idx].controller = SuddenStop(start, hold=25)

    _add_benign_maneuvers(vehicles, rng, benign_fraction, lambda v: 10.0)

    world.add_vehicles(vehicles)
    return world.run(
        n_frames,
        name="curve",
        metadata={
            "location": "curve",
            "camera": "cam-curve-01",
            "scenario": "curve",
            "seed": seed,
        },
    )


def highway(
    *,
    n_frames: int = 800,
    width: int = 320,
    height: int = 240,
    seed: int = 2,
    spawn_interval: tuple[float, float] = (45.0, 75.0),
    speed: float = 2.6,
    n_uturns: int = 5,
    n_speeding: int = 4,
) -> SimulationResult:
    """Two-way highway with U-turn and speeding events (Section 4 remark)."""
    rng = as_rng(seed)
    cy = height / 2.0
    east_y, west_y = cy + 10.0, cy - 10.0

    world = TrafficWorld(width, height, seed=rng)
    vehicles: list[Vehicle] = []
    vid = 0
    for lane, (start_x, end_x, lane_y) in enumerate(
        [(-30.0, width + 30.0, east_y), (width + 30.0, -30.0, west_y)]
    ):
        for frame in _spawn_frames(rng, n_frames, spawn_interval, margin=120):
            v_speed = float(np.clip(rng.normal(speed, 0.2), 1.6, 3.6))
            route = Route.straight((start_x, lane_y), (end_x, lane_y),
                                   v_speed)
            spec = VehicleSpec.of_kind(vid, _pick_kind(rng))
            vehicles.append(Vehicle(spec, route, spawn_frame=frame))
            vid += 1

    n_events = n_uturns + n_speeding
    if n_events > len(vehicles):
        raise ConfigurationError(
            f"scenario too short: {n_events} events requested but only "
            f"{len(vehicles)} vehicles spawn"
        )
    carriers = np.unique(
        np.linspace(0, len(vehicles) - 1, n_events).round().astype(int)
    )
    extra = [i for i in range(len(vehicles)) if i not in set(carriers)]
    carriers = list(carriers) + extra[: n_events - len(carriers)]
    types = ["u_turn"] * n_uturns + ["speeding"] * n_speeding
    rng.shuffle(types)
    for idx, event_type in zip(carriers, types):
        vehicle = vehicles[idx]
        if event_type == "u_turn":
            start = vehicle.spawn_frame + int(rng.uniform(35, 60))
            vehicle.controller = UTurn(start, duration=20)
        else:
            start = vehicle.spawn_frame + int(rng.uniform(5, 15))
            vehicle.controller = Speeding(start, duration=150, factor=2.2)

    world.add_vehicles(vehicles)
    return world.run(
        n_frames,
        name="highway",
        metadata={
            "location": "highway",
            "camera": "cam-highway-01",
            "scenario": "highway",
            "seed": seed,
        },
    )
