"""Evaluation reproduction: scenarios and per-figure entry points."""

from .chaos import ChaosPoint, ChaosResult, chaos
from .transport_chaos import (TransportChaosResult, TransportChaosSpec,
                              TransportOutcome, transport_chaos)
from .figures import (Figure3Result, Figure4Result, Figure5Result,
                      Figure6Result, Table1Result, figure3, figure4,
                      figure5, figure6, table1)
from .runner import (ScenarioOutcome, default_jobs, derive_run_seed,
                     parallel_map, reduce_run, run_scenario_outcome,
                     run_scenarios)
from .scenarios import (SPEED_33_KMH, SPEED_50_KMH, TankRunResult,
                        TankScenario, build_app, build_tracker_definition,
                        run_tank_scenario)
from .sizing import (DeploymentPlan, grid_spacing_for_coverage,
                     hops_per_second, magnetic_detection_range,
                     motes_for_area, paper_case_study, plan_deployment,
                     seconds_per_hop)

__all__ = [
    "ChaosPoint",
    "ChaosResult",
    "DeploymentPlan",
    "Figure3Result",
    "Figure4Result",
    "Figure5Result",
    "Figure6Result",
    "SPEED_33_KMH",
    "SPEED_50_KMH",
    "ScenarioOutcome",
    "Table1Result",
    "TankRunResult",
    "TankScenario",
    "TransportChaosResult",
    "TransportChaosSpec",
    "TransportOutcome",
    "build_app",
    "build_tracker_definition",
    "chaos",
    "default_jobs",
    "derive_run_seed",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "grid_spacing_for_coverage",
    "hops_per_second",
    "magnetic_detection_range",
    "motes_for_area",
    "paper_case_study",
    "parallel_map",
    "plan_deployment",
    "reduce_run",
    "run_scenario_outcome",
    "run_scenarios",
    "seconds_per_hop",
    "table1",
    "transport_chaos",
]
