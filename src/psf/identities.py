"""Randomized identity sweeps: replay seeded build scripts and assert
the exact g-laws plus the structural inequalities on every product.

The heavy checks (full normality, singularity classification, the
poset separation oracle) run on a configurable subsample; the g-law
ledger and the link inequality run everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .complexes import Complex
from .buildscript import random_script, replay
from .enumeration import g2 as _g2
from .enumeration import g3 as _g3
from .separation import separates_link, separates_link_poset
from .verify import (
    classify_vertices,
    is_normal_pseudomanifold,
    is_pseudomanifold,
)


@dataclass
class IdentityReport:
    checked: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def record(self, invariant: str, ok: bool, message: str = "") -> None:
        self.checked[invariant] = self.checked.get(invariant, 0) + 1
        if not ok:
            self.failed[invariant] = self.failed.get(invariant, 0) + 1
            if len(self.failures) < 50:
                self.failures.append(f"{invariant}: {message}")

    @property
    def ok(self) -> bool:
        return not self.failed

    def summary_lines(self) -> list[str]:
        lines = []
        for name in sorted(self.checked):
            bad = self.failed.get(name, 0)
            status = "all exact" if bad == 0 else f"{bad} FAILED"
            lines.append(f"{name}: {self.checked[name]} checks, {status}")
        return lines


LAW_NAMES = {
    "connected_sum": "law_connected_sum",
    "handle_addition": "law_handle",
    "vertex_fold": "law_vertex_fold",
    "edge_fold": "law_edge_fold",
    "facet_subdivision": "law_facet_subdivision",
}


def run_identity_suite(
    scripts: int = 100,
    max_ops: int = 12,
    base_seed: int = 2024,
    deep_every: int = 10,
    fault_hook: Optional[Callable[[int, Complex], Optional[Complex]]] = None,
) -> IdentityReport:
    """Replay ``scripts`` random build scripts and check every invariant.

    ``fault_hook`` may substitute a final complex, which is how the
    harness itself is tested for sensitivity.  ``scripts``, ``max_ops``
    and ``deep_every`` must be at least 1: every ``deep_every``-th script
    gets the deep checks.
    """
    if scripts < 1:
        raise ValueError(f"scripts must be at least 1, got {scripts}")
    if max_ops < 1:
        raise ValueError(f"max_ops must be at least 1, got {max_ops}")
    if deep_every < 1:
        raise ValueError(f"deep_every must be at least 1, got {deep_every}")
    report = IdentityReport()
    for index in range(scripts):
        doc = random_script(base_seed + index, max_ops=max_ops)
        result = replay(doc)
        final = result.final

        for row in result.ledger:
            if row.checked:
                report.record(
                    LAW_NAMES[row.op],
                    row.ok,
                    f"script {index} step {row.step}: delta=({row.delta_g2},{row.delta_g3})"
                    f" expected=({row.expected_g2},{row.expected_g3})",
                )

        if fault_hook is not None:
            replacement = fault_hook(index, final)
            if replacement is not None:
                final = replacement

        report.record(
            "pseudomanifold_closed",
            is_pseudomanifold(final),
            f"script {index}: final complex fails the ridge condition",
        )

        if final.dim >= 3:
            bound = _g2(final)
            ok = all(_g2(final.link((v,))) <= bound for v in final.vertices)
            report.record(
                "link_g2_inequality", ok, f"script {index}: link g2 exceeds complex g2"
            )

        deep = index % deep_every == 0
        if deep:
            report.record(
                "normality_preserved",
                is_normal_pseudomanifold(final).normal,
                f"script {index}: final complex is not a normal pseudomanifold",
            )
            _check_separation_agreement(report, final, index)
            _check_star_bound(report, final, index)
    return report


def _check_separation_agreement(report: IdentityReport, k: Complex, index: int) -> None:
    missing = sorted(k.missing_simplices(k.dim))[:2]
    for tau in missing:
        for x in tau:
            fast = separates_link(k, x, tau)
            slow_separates, slow_comps = separates_link_poset(k, x, tau)
            agree = fast.separates == slow_separates
            if agree and fast.separates:
                agree = set(fast.sides) == set(slow_comps)
            report.record(
                "separation_oracle_agreement",
                agree and len(slow_comps) in (1, 2),
                f"script {index}: oracles disagree at vertex {x} of {tau}",
            )


def _check_star_bound(report: IdentityReport, k: Complex, index: int) -> None:
    if k.dim != 4:
        return
    verdicts = classify_vertices(k)
    if any(v.status == "unknown" for v in verdicts.values()):
        return
    singular = [v for v, verdict in verdicts.items() if verdict.singular]
    if not singular or len(singular) > 2:
        return
    for t in singular:
        if _g2(k) != _g2(k.link((t,))):
            continue
        star = k.star((t,))
        report.record(
            "g3_star_lower_bound",
            _g3(k) >= _g3(star),
            f"script {index}: g3 of the complex is below g3 of the star of {t}",
        )
