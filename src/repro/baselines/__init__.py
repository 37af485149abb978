"""Baselines the paper positions itself against: the classic primary-key
snapshot diff (ApexSQL/Redgate-class tools, §1–2) and the trivial
explanation E_empty (Def. 3.11 remark), which lives with the explanation
model in ``repro.core``."""
from ..core.explanation import trivial_explanation
from .keyed_diff import KeyedDiff, keyed_diff

__all__ = ["KeyedDiff", "keyed_diff", "trivial_explanation"]
