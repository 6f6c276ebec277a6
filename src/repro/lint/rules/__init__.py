"""Rule registry: every RPL rule, instantiated once, keyed by code.

RPL004, RPL006, RPL007, RPL011, RPL013 and RPL015-RPL018 are retired:
a type, a census or a run now decides what they guessed from the AST
(see ``tests/test_model_contracts.py``). Their codes are not reused.
"""

from .base import ProgramRule, Rule, Violation
from .rpl001_wallclock import WallClockRule
from .rpl002_randomness import RandomnessRule
from .rpl003_purity import SuperstepPurityRule
from .rpl005_exceptions import ExceptionDisciplineRule
from .rpl008_set_iteration import SetIterationRule
from .rpl009_concurrency import ConcurrencyRule
from .rpl010_recovery_sites import RecoverySiteRule
from .rpl012_determinism import DeterminismTaintRule
from .rpl014_chaos_safety import ChaosSafetyRule
from .rpl019_worker_sharing import WorkerSharingRule
from .rpl020_bounded_retry import BoundedRetryRule

__all__ = [
    "Rule",
    "ProgramRule",
    "Violation",
    "ALL_RULES",
    "RULES_BY_CODE",
]

ALL_RULES = (
    WallClockRule(),
    RandomnessRule(),
    SuperstepPurityRule(),
    ExceptionDisciplineRule(),
    SetIterationRule(),
    ConcurrencyRule(),
    RecoverySiteRule(),
    DeterminismTaintRule(),
    ChaosSafetyRule(),
    WorkerSharingRule(),
    BoundedRetryRule(),
)

RULES_BY_CODE = {rule.code: rule for rule in ALL_RULES}
