"""Synthetic traffic world: the data substitute for the paper's two clips.

The paper evaluates on two real surveillance clips (a tunnel and a Taiwan
road intersection) that are not publicly available.  This package builds a
kinematic traffic micro-simulator with scripted incidents (wall crashes,
sudden stops, multi-vehicle collisions, U-turns, speeding) and a raster
renderer that produces noisy grayscale frames, so the full vision /
tracking / retrieval pipeline can be exercised end to end.

Public entry points:

* :func:`repro.sim.scenarios.tunnel` — clip-1-like workload.
* :func:`repro.sim.scenarios.intersection` — clip-2-like workload.
* :func:`repro.sim.scenarios.highway` — U-turn / speeding workload.
* :class:`repro.sim.render.Renderer` — states -> frames.
"""

from repro.sim.world import (
    Route,
    SimulationResult,
    TrafficWorld,
    Vehicle,
    VehicleSpec,
    VehicleState,
    segment_bounds,
)
from repro.sim.incidents import (
    CollisionCrash,
    IncidentRecord,
    Speeding,
    SuddenStop,
    UTurn,
    WallCrash,
)
from repro.sim.scenarios import (
    curve,
    highway,
    intersection,
    tunnel,
)
from repro.sim.render import Renderer, render_clip
from repro.sim.ground_truth import GroundTruth
from repro.sim.camera import CameraModel
from repro.sim.road_network import RoadNetwork, city_grid
from repro.sim.stats import TrafficStats, traffic_statistics

__all__ = [
    "Route",
    "SimulationResult",
    "TrafficWorld",
    "Vehicle",
    "VehicleSpec",
    "VehicleState",
    "segment_bounds",
    "IncidentRecord",
    "SuddenStop",
    "WallCrash",
    "CollisionCrash",
    "UTurn",
    "Speeding",
    "tunnel",
    "intersection",
    "highway",
    "curve",
    "city_grid",
    "RoadNetwork",
    "Renderer",
    "render_clip",
    "GroundTruth",
    "CameraModel",
    "TrafficStats",
    "traffic_statistics",
]
