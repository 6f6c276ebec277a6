"""Rule registry: every RPL rule, instantiated once, keyed by code.

RPL004, RPL006, RPL007 and RPL011-RPL020 are retired: a type, a
census or a run now decides what they guessed from the AST (see
``tests/test_model_contracts.py``, ``tests/test_golden_manifest.py``
and ``tests/test_bounded_waits.py``). Their codes are not reused.
"""

from .base import Rule, Violation
from .rpl001_wallclock import WallClockRule
from .rpl002_randomness import RandomnessRule
from .rpl003_purity import SuperstepPurityRule
from .rpl005_exceptions import ExceptionDisciplineRule
from .rpl008_set_iteration import SetIterationRule
from .rpl009_concurrency import ConcurrencyRule
from .rpl010_recovery_sites import RecoverySiteRule

__all__ = [
    "Rule",
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
)

RULES_BY_CODE = {rule.code: rule for rule in ALL_RULES}
