"""Elimination options shared by ``qe``, ``qe_star`` and ``skolemize``.
The one elimination engine lives in ``cutqe``; the pure ordered-group
language runs there with an empty membership vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .normalform import DEFAULT_DNF_BUDGET


@dataclass
class QeOptions:
    dnf_budget: int = DEFAULT_DNF_BUDGET
    depth_budget: int = 64
    # test hook: deliberately emit a wrong bound-pair condition
    inject_bug: bool = False
