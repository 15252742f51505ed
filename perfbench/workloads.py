"""The benchmark's workloads: the inputs each builds in set-up and its timed body.

Every workload is a deterministic manufactured problem with dt = h/2, so
the ``--seed`` argument does not change its inputs.  Each uses only the
package's public functions, looked up on their modules at call time so that
the traced run can wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from mixedflow import analysis, harness, mesh_fem, solver
from mixedflow.assembly import DiscretizationOptions
from mixedflow.solver import MarchConfig, NewtonConfig

NEWTON_TOL = 1e-6
STUDY_LEVELS = (4, 8, 16)


@dataclass
class MarchRecord:
    """One finished march, as the checks need it."""

    problem: str
    n: int
    dt: float
    final_time: float
    tol: float
    data: object
    mesh: object
    state: object
    diagnostics: list


@dataclass
class Outcome:
    """What one round of a workload produced."""

    marches: list
    err_rho: float
    err_m: float
    reports: tuple = ()   # (convergence, dependence) reports of study-small


@dataclass(frozen=True)
class Workload:
    name: str
    levels: int        # time levels one round attempts
    marches: int       # marches one round makes
    reported: str      # problem whose finest march gives err_rho_l2 / err_m_ls
    finest: int
    c_rho: float       # first-order bounds: error <= c * dt
    c_m: float
    prepare: Callable[[], dict]
    body: Callable[[dict, list], Outcome]


def _march_workload(name, problem, n, final_time, options, c_rho, c_m):
    dt = 0.5 / n

    def prepare():
        return {"data": harness.builtin_problem(problem),
                "mesh": mesh_fem.build_mesh(n),
                "march": MarchConfig(dt=dt, final_time=final_time),
                "newton": NewtonConfig(tol=NEWTON_TOL),
                "options": options}

    def body(inp, captured):
        state, diags = solver.march(inp["data"], inp["mesh"], inp["march"],
                                    inp["newton"], inp["options"])
        err_rho, err_m = analysis.final_time_errors(state, inp["data"], inp["mesh"])
        rec = MarchRecord(problem, n, dt, final_time, NEWTON_TOL, inp["data"],
                          inp["mesh"], state, diags)
        return Outcome([rec], err_rho, err_m)

    return Workload(name, round(final_time / dt), 1, problem, n, c_rho, c_m,
                    prepare, body)


def _prepare_study():
    common = dict(levels=STUDY_LEVELS, newton_tol=NEWTON_TOL)
    return {"convergence": harness.StudyConfig(study="convergence",
                                               problem="example1", **common),
            "dependence": harness.StudyConfig(study="dependence", **common)}


def _study_body(inp, captured):
    conv = harness.run_convergence(inp["convergence"])
    dep = harness.run_dependence(inp["dependence"])
    finest = conv.levels[-1]
    return Outcome(list(captured), finest.err_rho, finest.err_m, (conv, dep))


# c_rho and c_m are about twice the error constants err/dt that each
# configuration shows over N = 4..64, so a change that costs accuracy fails.
WORKLOADS = {w.name: w for w in (
    _march_workload("march-n64", "example1", 64, 0.125, DiscretizationOptions(),
                    c_rho=1.0, c_m=1.5),
    Workload("study-small", levels=3 * sum(2 * n for n in STUDY_LEVELS),
             marches=3 * len(STUDY_LEVELS), reported="example1",
             finest=STUDY_LEVELS[-1], c_rho=0.2, c_m=0.3,
             prepare=_prepare_study, body=_study_body),
    _march_workload("march-bc", "example2_F2", 32, 1.0,
                    DiscretizationOptions(momentum_bc="exact", pin_rho_boundary=True),
                    c_rho=3.0, c_m=0.2),
)}


def capture_harness_marches(records: list) -> None:
    """Record every march the harness makes, so its final states can be checked."""
    real = harness.march

    def march(data, mesh, march_config, newton_config=None, options=None,
              linear_solver=None):
        state, diags = real(data, mesh, march_config, newton_config, options,
                            linear_solver)
        tol = (newton_config or NewtonConfig()).tol
        records.append(MarchRecord(data.name, mesh.n_cells_per_side,
                                   march_config.dt, march_config.final_time, tol,
                                   data, mesh, state, diags))
        return state, diags

    harness.march = march


def warm_up() -> None:
    """One tiny march, so lazy imports and first-call costs fall outside timing."""
    solver.march(harness.builtin_problem("example1"), mesh_fem.build_mesh(4),
                 MarchConfig(dt=0.125, final_time=0.25))
