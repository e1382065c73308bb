"""The reprolint rule pack: the repo's invariants as AST rules,
plus the project-wide dataflow rules layered on the flow package."""

import typing as t

from ..engine import ProjectRule, Rule
from .codec import CODEC_SCOPE, StrBytesMixingRule
from .determinism import (
    SIM_SCOPE,
    AmbientRandomRule,
    OsEntropyRule,
    SeededRandomRule,
    WallClockRule,
)
from .flow_rules import (
    DeadlineUnclampedRule,
    LeakOnErrorPathRule,
    RngStreamRegistryRule,
    WireSchemaRule,
)
from .process import (
    FinalizedGeneratorRule,
    UninvokedProcessRule,
    YieldLiteralRule,
)
from .robustness import (
    SilentExceptRule,
    UnboundedCacheFieldRule,
    UnboundedQueueRule,
)
from .sim_safety import REALNET_EXEMPT, BlockingCallRule, ForbiddenImportRule

_ALL_RULES: t.Tuple[t.Type[Rule], ...] = (
    WallClockRule,
    AmbientRandomRule,
    SeededRandomRule,
    OsEntropyRule,
    ForbiddenImportRule,
    BlockingCallRule,
    StrBytesMixingRule,
    UninvokedProcessRule,
    YieldLiteralRule,
    FinalizedGeneratorRule,
    SilentExceptRule,
    UnboundedQueueRule,
    UnboundedCacheFieldRule,
)

_ALL_PROJECT_RULES: t.Tuple[t.Type[ProjectRule], ...] = (
    LeakOnErrorPathRule,
    DeadlineUnclampedRule,
    RngStreamRegistryRule,
    WireSchemaRule,
)

RULES: t.Dict[str, t.Type[Rule]] = {rule.id: rule for rule in _ALL_RULES}

PROJECT_RULES: t.Dict[str, t.Type[ProjectRule]] = {
    rule.id: rule for rule in _ALL_PROJECT_RULES}


def default_rules() -> t.Tuple[t.Type[Rule], ...]:
    """The full per-module rule pack, in reporting order."""
    return _ALL_RULES


def default_project_rules() -> t.Tuple[t.Type[ProjectRule], ...]:
    """The full project-rule (dataflow) pack, in reporting order."""
    return _ALL_PROJECT_RULES


__all__ = [
    "CODEC_SCOPE",
    "PROJECT_RULES",
    "REALNET_EXEMPT",
    "RULES",
    "SIM_SCOPE",
    "AmbientRandomRule",
    "BlockingCallRule",
    "DeadlineUnclampedRule",
    "FinalizedGeneratorRule",
    "ForbiddenImportRule",
    "LeakOnErrorPathRule",
    "OsEntropyRule",
    "RngStreamRegistryRule",
    "SeededRandomRule",
    "SilentExceptRule",
    "StrBytesMixingRule",
    "UnboundedCacheFieldRule",
    "UnboundedQueueRule",
    "UninvokedProcessRule",
    "WallClockRule",
    "WireSchemaRule",
    "YieldLiteralRule",
    "default_project_rules",
    "default_rules",
]
