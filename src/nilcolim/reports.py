"""JSON analysis reports: assembly, serialization, and strict parsing.

Reports carry ``schema: 1`` and a verdict field in every document.  Output
is deterministic: keys are sorted, no timestamps, and any sampling seed is
recorded in the report itself.  ``parse_report`` rejects unknown fields so
schema drift fails loudly.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # annotations only: a report needs none of these modules loaded
    from .colimit import ConjectureReport, KernelReport, LemmaSuiteReport, Theorem1Report
    from .coset_enum import CosetTable
    from .groups import FiniteGroup
    from .snf import SNFResult
    from .symplectic import StructureReport

SCHEMA_VERSION = 1

_SECTION_FIELDS = {
    "group": {"spec", "order", "abelian", "conjugacy_classes", "generators", "generator_names"},
    "symplectic": {
        "mode", "status", "r", "elements", "element_names", "c", "c_name",
        "c_order", "nontrivial", "expanded", "budget", "violation", "structure",
    },
    "violation": {"kind", "positions", "detail"},
    "d2": {"order", "derived_order", "antidiagonal_generates", "projection_kernel_ok"},
    "n2": {
        "q", "state", "coset_count", "high_water", "limit", "kernel_order",
        "k_order", "torsion_free",
    },
    "theorem1": {
        "verdict", "s_order", "d2_order", "n2_order", "state", "d2_members_in_parent_d2",
    },
    "homology": {"k", "q", "rank", "torsion", "description", "h1_consistent"},
    "hom_count": {"n", "q", "count", "burnside_agrees"},
    "conjecture": {
        "q", "nilpotency_class", "predicted_iso", "state", "coset_count",
        "actual_iso", "verdict",
    },
    "verdict": {"answer", "reason", "certificate"},
    "certificate": {
        "type", "r", "elements", "element_names", "c", "c_name", "c_order",
        "word", "order", "kernel_order",
    },
}

_TOP_FIELDS = {
    "schema", "command", "seed", "group", "symplectic", "d2", "n2",
    "theorem1", "lemmas", "homology", "hom_count", "conjecture",
    "verdict", "budgets",
}


def group_section(G: FiniteGroup, spec_text: str, classes: Optional[int]) -> dict:
    return {
        "spec": spec_text,
        "order": G.order,
        "abelian": G.is_abelian,
        "conjugacy_classes": classes,
        "generators": list(G.generators),
        "generator_names": [G.name(g) for g in G.generators],
    }


def symplectic_section(
    mode: str,
    result,
    G: FiniteGroup,
    budget: Optional[int] = None,
    structure: Optional[StructureReport] = None,
) -> dict:
    from .symplectic import ExhaustedNone, NotFoundWithinBudget, SymplecticSequence, Violation

    base = {
        "mode": mode,
        "status": "",
        "r": None,
        "elements": None,
        "element_names": None,
        "c": None,
        "c_name": None,
        "c_order": None,
        "nontrivial": None,
        "expanded": None,
        "budget": budget,
        "violation": None,
        "structure": structure_section(structure) if structure else None,
    }
    if isinstance(result, SymplecticSequence):
        base.update(
            status="found" if mode == "find" else "certified",
            r=result.r,
            elements=list(result.elements),
            element_names=result.names(),
            c=result.c,
            c_name=G.name(result.c),
            c_order=G.element_order(result.c),
            nontrivial=result.nontrivial,
        )
    elif isinstance(result, Violation):
        base.update(
            status="violation",
            violation={
                "kind": result.kind,
                "positions": list(result.positions),
                "detail": result.detail,
            },
        )
    elif isinstance(result, ExhaustedNone):
        base.update(status="exhausted-none", expanded=result.expanded)
    elif isinstance(result, NotFoundWithinBudget):
        base.update(status="budget-exceeded", expanded=result.expanded)
    elif result is None:
        base.update(status="skipped")
    else:
        raise TypeError(f"unexpected symplectic result {result!r}")
    return base


def structure_section(rep: StructureReport) -> dict:
    return rep._asdict()


def d2_section(order: int, derived_order: int, antidiag: Optional[bool], proj_ok: Optional[bool]) -> dict:
    return {
        "order": order,
        "derived_order": derived_order,
        "antidiagonal_generates": antidiag,
        "projection_kernel_ok": proj_ok,
    }


def n2_section(t: CosetTable, q: int, kernel: Optional[KernelReport]) -> dict:
    return {
        "q": q,
        "state": t.state,
        "coset_count": t.coset_count,
        "high_water": t.high_water,
        "limit": t.limit,
        "kernel_order": kernel.kernel_order if kernel else None,
        "k_order": kernel.k_order if kernel else None,
        "torsion_free": kernel.kernel_is_torsion_free if kernel else None,
    }


def theorem1_section(rep: Theorem1Report) -> dict:
    return {
        "verdict": rep.verdict,
        "s_order": rep.s_order,
        "d2_order": rep.d2_order,
        "n2_order": rep.n2_order,
        "state": rep.state,
        "d2_members_in_parent_d2": rep.d2_members_in_parent_d2,
    }


def lemmas_section(rep: LemmaSuiteReport) -> dict:
    return {**rep._asdict(), "all_passed": rep.all_passed}


def homology_section(k: int, q: int, res: SNFResult, h1_consistent: Optional[bool]) -> dict:
    return {
        "k": k,
        "q": q,
        "rank": res.rank,
        "torsion": list(res.torsion),
        "description": res.describe(),
        "h1_consistent": h1_consistent,
    }


def conjecture_section(rep: ConjectureReport) -> dict:
    return {
        "q": rep.q,
        "nilpotency_class": rep.nclass,
        "predicted_iso": rep.predicted_iso,
        "state": rep.state,
        "coset_count": rep.coset_count,
        "actual_iso": rep.actual_iso,
        "verdict": rep.verdict,
    }


def verdict_section(answer: str, reason: str, certificate: Optional[dict]) -> dict:
    return {"answer": answer, "reason": reason, "certificate": certificate}


NOT_EVALUATED = verdict_section(
    "INCONCLUSIVE", "verdict not evaluated by this command", None
)


def make_report(command: str, seed: int, **sections) -> dict:
    report = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "group": None,
        "symplectic": None,
        "d2": None,
        "n2": None,
        "theorem1": None,
        "lemmas": None,
        "homology": None,
        "hom_count": None,
        "conjecture": None,
        "verdict": NOT_EVALUATED,
        "budgets": None,
    }
    for key, value in sections.items():
        if key not in report:
            raise KeyError(f"unknown report section {key!r}")
        report[key] = value
    return report


def dumps_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def parse_report(text: str) -> dict:
    """Parse and validate a report; unknown fields are rejected."""
    from .colimit import LemmaSuiteReport
    from .symplectic import StructureReport

    fields = {
        **_SECTION_FIELDS,
        "structure": set(StructureReport._fields),
        "lemmas": {*LemmaSuiteReport._fields, "all_passed"},
    }
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("report must be a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ValueError(f"unknown top-level fields: {sorted(unknown)}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {doc.get('schema')!r}")
    for key in ("group", "symplectic", "d2", "n2", "theorem1", "lemmas",
                "homology", "hom_count", "conjecture", "verdict"):
        section = doc.get(key)
        if section is None:
            continue
        _check_fields(key, section, fields)
    sym = doc.get("symplectic")
    if sym:
        if sym.get("violation") is not None:
            _check_fields("violation", sym["violation"], fields)
        if sym.get("structure") is not None:
            _check_fields("structure", sym["structure"], fields)
    verdict = doc.get("verdict")
    if verdict and verdict.get("certificate") is not None:
        _check_fields("certificate", verdict["certificate"], fields)
    return doc


def _check_fields(section_name: str, section: dict, fields: dict):
    if not isinstance(section, dict):
        raise ValueError(f"section {section_name!r} must be an object")
    unknown = set(section) - fields[section_name]
    if unknown:
        raise ValueError(f"unknown fields in {section_name!r}: {sorted(unknown)}")
