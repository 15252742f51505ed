"""Mixed P1-P1 finite element solver for slightly compressible porous-media
flow whose momentum law spans the pre-Darcy, Darcy and post-Darcy regimes."""

from .constitutive import CoefficientVector, GeneralizedPolynomial, PowerSpec
from .mesh_fem import (ScalarP1Space, StructuredTriMesh, VectorP1Space,
                       build_mesh, l2_project, norm)
from .assembly import (Assembler, DiscretizationOptions, ExactSolution,
                       ProblemData, SystemState)
from .solver import (LinearSolveFailure, LinearSolver, MarchConfig,
                     NewtonConfig, NonConvergence, march, newton_solve)
from .analysis import LevelResult, final_time_errors, rates
from .harness import (StudyConfig, builtin_problem, run_convergence,
                      run_dependence, run_single)
from .verify import (InequalityReport, gronwall_check, inequality_suite,
                     run_verify)

__version__ = "0.1.0"
