"""Unit tests for scripted incidents and their ground-truth records."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import (
    Route,
    Speeding,
    SuddenStop,
    TrafficWorld,
    UTurn,
    Vehicle,
    VehicleSpec,
    WallCrash,
)
from repro.sim.incidents import IncidentRecord, make_collision_pair


def _world(width=300, height=120):
    return TrafficWorld(width, height, seed=0, speed_jitter=0.0)


def _drive(world, n):
    speeds = []
    for _ in range(n):
        states = world.step()
        speeds.append({s.vid: s for s in states})
    return speeds


class TestIncidentRecord:
    def test_overlaps(self):
        rec = IncidentRecord("collision", (1, 2), 10, 20)
        assert rec.overlaps(0, 10)
        assert rec.overlaps(20, 30)
        assert rec.overlaps(12, 15)
        assert not rec.overlaps(21, 40)
        assert not rec.overlaps(0, 9)

    def test_involves(self):
        rec = IncidentRecord("collision", (1, 2), 10, 20)
        assert rec.involves(1) and rec.involves(2)
        assert not rec.involves(3)


class TestSuddenStop:
    def test_vehicle_stops_then_resumes(self):
        world = _world()
        route = Route.straight((0.0, 60.0), (290.0, 60.0), speed=3.0)
        vehicle = Vehicle(VehicleSpec(0), route,
                          controller=SuddenStop(start=10, hold=15))
        world.add_vehicle(vehicle)
        frames = _drive(world, 70)
        speeds = [f[0].speed for f in frames if 0 in f]
        # Moving at the start, fully stopped somewhere, moving again later.
        assert speeds[5] > 2.0
        assert min(speeds) < 0.1
        assert speeds[-1] > 2.0

    def test_incident_recorded_once_with_window(self):
        world = _world()
        route = Route.straight((0.0, 60.0), (290.0, 60.0), speed=3.0)
        world.add_vehicle(
            Vehicle(VehicleSpec(0), route,
                    controller=SuddenStop(start=10, hold=15))
        )
        _drive(world, 70)
        assert len(world.incidents) == 1
        rec = world.incidents[0]
        assert rec.kind == "sudden_stop"
        assert rec.vehicle_ids == (0,)
        assert rec.frame_start == 10
        assert rec.frame_end > rec.frame_start

    def test_rejects_bad_hold(self):
        with pytest.raises(Exception):
            SuddenStop(start=5, hold=0)


class TestWallCrash:
    def test_vehicle_reaches_wall_and_stops(self):
        world = _world()
        route = Route.straight((0.0, 60.0), (290.0, 60.0), speed=3.0)
        wall_y = 30.0
        vehicle = Vehicle(VehicleSpec(0), route,
                          controller=WallCrash(start=10, wall_y=wall_y,
                                               hold=30))
        world.add_vehicle(vehicle)
        frames = _drive(world, 80)
        assert len(world.incidents) == 1
        rec = world.incidents[0]
        assert rec.kind == "wall_crash"
        # At the recorded crash time the vehicle is at the wall and slow.
        crash_states = [f[0] for f in frames[rec.frame_end - 5:] if 0 in f]
        assert crash_states, "vehicle vanished before the crash settled"
        assert abs(crash_states[0].y - wall_y) < 6.0
        assert crash_states[-1].speed < 0.5

    def test_vehicle_towed_after_hold(self):
        world = _world()
        route = Route.straight((0.0, 60.0), (290.0, 60.0), speed=3.0)
        vehicle = Vehicle(VehicleSpec(0), route,
                          controller=WallCrash(start=5, wall_y=30.0, hold=20))
        world.add_vehicle(vehicle)
        _drive(world, 120)
        assert vehicle.retired


class TestCollision:
    def _collision_world(self, trigger_dist=15.0):
        world = _world(width=200, height=200)
        # Perpendicular routes crossing at (100, 100) at the same speed and
        # equal distances, so the two vehicles meet at the center.
        route_a = Route.straight((20.0, 100.0), (180.0, 100.0), speed=2.0)
        route_b = Route.straight((100.0, 20.0), (100.0, 180.0), speed=2.0)
        ctrl_a, ctrl_b = make_collision_pair(0, 1, window=(10, 80),
                                             trigger_dist=trigger_dist,
                                             hold=25)
        world.add_vehicle(Vehicle(VehicleSpec(0), route_a, controller=ctrl_a))
        world.add_vehicle(Vehicle(VehicleSpec(1), route_b, controller=ctrl_b))
        return world

    def test_collision_triggers_and_records_both_vehicles(self):
        world = self._collision_world()
        _drive(world, 100)
        assert len(world.incidents) == 1
        rec = world.incidents[0]
        assert rec.kind == "collision"
        assert set(rec.vehicle_ids) == {0, 1}

    def test_vehicles_stop_after_collision(self):
        world = self._collision_world()
        frames = _drive(world, 70)
        rec = world.incidents[0]
        late = [f for f in frames[rec.frame_end:] if 0 in f and 1 in f]
        assert late, "both vehicles should persist for the hold period"
        assert late[-1][0].speed < 0.5
        assert late[-1][1].speed < 0.5

    def test_no_trigger_outside_window(self):
        world = _world(width=200, height=200)
        route_a = Route.straight((20.0, 100.0), (180.0, 100.0), speed=2.0)
        route_b = Route.straight((100.0, 20.0), (100.0, 180.0), speed=2.0)
        # Watch window long past the actual crossing time.
        ctrl_a, ctrl_b = make_collision_pair(0, 1, window=(500, 600))
        world.add_vehicle(Vehicle(VehicleSpec(0), route_a, controller=ctrl_a))
        world.add_vehicle(Vehicle(VehicleSpec(1), route_b, controller=ctrl_b))
        _drive(world, 120)
        assert world.incidents == []

    def test_rejects_degenerate_window(self):
        with pytest.raises(ConfigurationError):
            make_collision_pair(0, 1, window=(50, 50))


class TestUTurn:
    def test_direction_reverses(self):
        world = _world()
        route = Route.straight((0.0, 60.0), (290.0, 60.0), speed=3.0)
        vehicle = Vehicle(VehicleSpec(0), route,
                          controller=UTurn(start=10, duration=15))
        world.add_vehicle(vehicle)
        frames = _drive(world, 60)
        early_vx = frames[5][0].vx
        with_vehicle = [f for f in frames[40:] if 0 in f]
        assert with_vehicle, "vehicle should still be in frame after turning"
        late_vx = with_vehicle[0][0].vx
        assert early_vx > 1.0
        assert late_vx < -1.0
        assert world.incidents[0].kind == "u_turn"

    def test_incident_window_matches_duration(self):
        world = _world()
        route = Route.straight((0.0, 60.0), (290.0, 60.0), speed=3.0)
        world.add_vehicle(
            Vehicle(VehicleSpec(0), route, controller=UTurn(10, duration=15))
        )
        _drive(world, 40)
        rec = world.incidents[0]
        assert (rec.frame_start, rec.frame_end) == (10, 25)


class TestSpeeding:
    def test_speed_exceeds_nominal(self):
        world = _world()
        route = Route.straight((0.0, 60.0), (290.0, 60.0), speed=2.0)
        vehicle = Vehicle(VehicleSpec(0), route,
                          controller=Speeding(start=5, duration=60,
                                              factor=2.0))
        world.add_vehicle(vehicle)
        frames = _drive(world, 40)
        speeds = [f[0].speed for f in frames if 0 in f]
        assert max(speeds) > 3.2
        assert world.incidents[0].kind == "speeding"

    def test_rejects_factor_below_one(self):
        with pytest.raises(ConfigurationError):
            Speeding(start=0, duration=10, factor=0.9)
