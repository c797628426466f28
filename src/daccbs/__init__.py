"""Certificate-driven closed-loop multi-agent path finding.

A fleet controller that answers one movement query per timestep by running an
adaptive-horizon conflict-based search, filtering its output through a
conflict-free certificate plan whose budget decreases monotonically, and
splitting the fleet into independently plannable groups whenever the budget
slack permits.
"""

from .backup import BackupDefect, BackupError, LacamBackup
from .cbs import ConstraintTreeNode, SearchOutcome, run_adaptive, run_classic_cbs
from .certificate import (
    Certificate,
    CertificateError,
    advance,
    build_candidate,
    init_certificate,
    repair,
    try_improve,
    try_improve_member,
)
from .clock import WallClock, WorkClock
from .controller import MODES, ControllerConfig, FleetController
from .factorization import (
    BudgetInvariantError,
    partition,
    reachable_region,
    should_refactor,
    slackness,
)
from .grid import (
    INF,
    DistanceField,
    Graph,
    InfeasibleInstanceError,
    InstanceError,
    MapFormatError,
    MapfInstance,
    goal_distance_field,
    load_map,
    load_scenario,
    parse_map,
    parse_scenario,
)
from .lowlevel import ConstraintError, ConstraintSet, plan_constrained
from .oracle import OracleLimitError, exhaustive_exclusion_check, optimal_soc
from .simulate import EpisodeResult, MovementDefect, run_episode, soc_increment
from .trajectory import (
    JointTrajectory,
    Trajectory,
    detect_first_conflict,
    is_conflict_free,
    soc,
)

__version__ = "0.1.0"

__all__ = [
    "BackupDefect",
    "BackupError",
    "BudgetInvariantError",
    "Certificate",
    "CertificateError",
    "ConstraintError",
    "ConstraintSet",
    "ConstraintTreeNode",
    "ControllerConfig",
    "DistanceField",
    "EpisodeResult",
    "FleetController",
    "Graph",
    "INF",
    "InfeasibleInstanceError",
    "InstanceError",
    "JointTrajectory",
    "LacamBackup",
    "MODES",
    "MapFormatError",
    "MapfInstance",
    "MovementDefect",
    "OracleLimitError",
    "SearchOutcome",
    "Trajectory",
    "WallClock",
    "WorkClock",
    "advance",
    "build_candidate",
    "detect_first_conflict",
    "exhaustive_exclusion_check",
    "goal_distance_field",
    "init_certificate",
    "is_conflict_free",
    "load_map",
    "load_scenario",
    "optimal_soc",
    "parse_map",
    "parse_scenario",
    "partition",
    "plan_constrained",
    "reachable_region",
    "repair",
    "run_adaptive",
    "run_classic_cbs",
    "run_episode",
    "should_refactor",
    "slackness",
    "soc",
    "soc_increment",
    "try_improve",
    "try_improve_member",
]
