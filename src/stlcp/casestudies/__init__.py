"""Desk-scale experiment scenarios: hall temperature control and
leader-follower robot motion planning."""

from .temperature import (
    TemperatureScenario,
    build_temperature_spec,
    gen_temperature_dataset,
    temperature_reformulate,
)
from .robot import (
    RobotScenario,
    FollowerExperiment,
    LeaderGenStats,
    build_robot_specs,
    gen_robot_leader_dataset,
    mean_path_predictor,
    robot_system,
    run_follower_experiment,
)

__all__ = [
    "TemperatureScenario",
    "build_temperature_spec",
    "gen_temperature_dataset",
    "temperature_reformulate",
    "RobotScenario",
    "FollowerExperiment",
    "LeaderGenStats",
    "build_robot_specs",
    "gen_robot_leader_dataset",
    "mean_path_predictor",
    "robot_system",
    "run_follower_experiment",
]
