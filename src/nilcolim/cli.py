"""Command-line front end.

Exit codes: 0 for definitive results, 1 for input errors, 2 for inconclusive
outcomes (verdict INCONCLUSIVE, enumeration limit exceeded, search budget
exhausted, conjecture probe inconclusive).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

# Only the modules that the argparse defaults and _INPUT_ERRORS need are
# imported here; each command imports the modules it runs, so that a process
# compiles and executes only those (a checkout often has no bytecode cache).
from .budgets import (
    DEFAULT_COSET_LIMIT,
    DEFAULT_MAX_SIMPLICES,
    DEFAULT_SEARCH_BUDGET,
    BudgetExceededError,
)
from .constructions import SpecError, build, parse_group_spec, seeded_gl_sequence_in_sym
from .groups import GroupTooLargeError, InvalidTableError, conjugacy_classes

# the class count is one table gather per class, but reports have always left
# it out past this order: raising the cap would add it to every report for
# orders 2049-4096, such as ``info product:(extraspecial:2:5),(cyclic:2)``
_CLASSES_MAX_ORDER = 2048

_INPUT_ERRORS = (
    SpecError,
    InvalidTableError,
    GroupTooLargeError,
    BudgetExceededError,
    FileNotFoundError,
    ValueError,
)


def _group_info(spec_text: str):
    from .reports import group_section

    G = build(spec_text)
    classes = None
    if G.materialized and G.order <= _CLASSES_MAX_ORDER:
        classes = len(conjugacy_classes(G))
    return G, group_section(G, spec_text, classes)


def cmd_info(args) -> tuple[dict, int]:
    from .reports import make_report

    _, section = _group_info(args.spec)
    return make_report("info", args.seed, group=section), 0


def _seeded_gl(spec_text: str):
    """``--seed-gl``: the transvection sequence seeded in a sym:k spec."""
    spec = parse_group_spec(spec_text)
    if spec.kind != "sym":
        raise SpecError("--seed-gl applies to sym:k specs (k >= 16)")
    return seeded_gl_sequence_in_sym(spec.params[0])


def cmd_symplectic(args) -> tuple[dict, int]:
    from .reports import make_report, symplectic_section
    from .symplectic import (
        NotFoundWithinBudget,
        SymplecticSequence,
        check_symplectic,
        find_symplectic,
        structure_report,
    )

    if args.mode == "check" and args.seed_gl:
        raise SpecError("--seed-gl applies to symplectic find, not check")
    G, gsec = _group_info(args.spec)
    code = 0
    if args.mode == "check":
        if not args.ids:
            raise SpecError("symplectic check needs --ids")
        ids = [int(x) for x in args.ids.replace(",", " ").split()]
        result = check_symplectic(G, ids)
        mode = "check"
    elif args.seed_gl:
        G, ids = _seeded_gl(args.spec)
        result = check_symplectic(G, ids)
        mode = "seeded"
    else:
        result = find_symplectic(G, args.r, args.budget)
        mode = "find"
        if isinstance(result, NotFoundWithinBudget):
            code = 2
    structure = None
    if isinstance(result, SymplecticSequence):
        structure = structure_report(result)
    section = symplectic_section(mode, result, G, args.budget, structure)
    return make_report("symplectic", args.seed, group=gsec, symplectic=section), code


def cmd_n2(args) -> tuple[dict, int]:
    from .colimit import epsilon_kernel
    from .coset_enum import todd_coxeter
    from .presentations import build_presentation
    from .reports import make_report, n2_section

    G, gsec = _group_info(args.spec)
    t = todd_coxeter(build_presentation(G, args.q), args.limit)
    kern = epsilon_kernel(G, t) if t.closed else None
    report = make_report(
        "n2", args.seed, group=gsec, n2=n2_section(t, args.q, kern)
    )
    return report, (0 if t.closed else 2)


def cmd_verdict(args) -> tuple[dict, int]:
    from .colimit import (
        D2_MEMBERS_MAX_ORDER,
        d2,
        d2_antidiagonal_generation,
        d2_projection_kernel_is_derived,
        kpi1_verdict,
        lemma_suite,
    )
    from .reports import (
        d2_section,
        lemmas_section,
        make_report,
        n2_section,
        symplectic_section,
        theorem1_section,
        verdict_section,
    )
    from .symplectic import SymplecticSequence, structure_report

    G, gsec = _group_info(args.spec)
    seed_sequence = None
    if args.seed_gl:
        G, seed_sequence = _seeded_gl(args.spec)
    v = kpi1_verdict(G, args.budget, args.limit, seed_sequence)

    sym_sec = None
    if v.search is not None or seed_sequence is not None:
        result = v.search
        structure = structure_report(result) if isinstance(result, SymplecticSequence) else None
        sym_sec = symplectic_section(
            "seeded" if seed_sequence is not None else "find",
            result, G, args.budget, structure,
        )
    d2_sec = None
    if G.materialized and G.order <= D2_MEMBERS_MAX_ORDER:
        sub = (v.theorem1 and v.theorem1.parent_d2) or d2(G)
        d2_sec = d2_section(
            sub.order,
            sub.derived_order,
            d2_antidiagonal_generation(G, sub),
            d2_projection_kernel_is_derived(G, sub),
        )
    thm_sec = None
    lem_sec = None
    if v.theorem1 is not None:
        thm_sec = theorem1_section(v.theorem1)
        if v.theorem1.table is not None and v.theorem1.table.closed:
            lem_sec = lemmas_section(
                lemma_suite(v.theorem1.sequence, v.theorem1.table, args.seed)
            )
    n2_sec = None
    if v.g_table is not None:
        kern = v.kernel if v.g_table.closed else None
        n2_sec = n2_section(v.g_table, 2, kern)
    report = make_report(
        "verdict",
        args.seed,
        group=gsec,
        symplectic=sym_sec,
        d2=d2_sec,
        theorem1=thm_sec,
        lemmas=lem_sec,
        n2=n2_sec,
        verdict=verdict_section(v.answer, v.reason, v.certificate),
        budgets=v.budgets,
    )
    return report, (2 if v.answer == "INCONCLUSIVE" else 0)


def cmd_homology(args) -> tuple[dict, int]:
    from .bar_complex import homology, presented_h1
    from .reports import homology_section, make_report

    G, gsec = _group_info(args.spec)
    res = homology(G, args.q, args.dim, args.max_simplices)
    consistent = None
    if args.dim == 1 and args.q == 2 and G.cayley_columns():
        consistent = res == presented_h1(G)
    report = make_report(
        "homology",
        args.seed,
        group=gsec,
        homology=homology_section(args.dim, args.q, res, consistent),
    )
    return report, 0


def cmd_hom_count(args) -> tuple[dict, int]:
    from .bar_complex import hom_count
    from .reports import make_report

    G, gsec = _group_info(args.spec)
    count = hom_count(G, args.n, args.q)
    burnside = None
    if args.n == 2 and args.q == 2 and gsec["conjugacy_classes"] is not None:
        burnside = count == gsec["conjugacy_classes"] * G.order
    report = make_report(
        "hom_count",
        args.seed,
        group=gsec,
        hom_count={"n": args.n, "q": args.q, "count": count, "burnside_agrees": burnside},
    )
    return report, 0


def cmd_conjecture(args) -> tuple[dict, int]:
    from .colimit import conjecture_probe
    from .reports import conjecture_section, make_report

    G, gsec = _group_info(args.spec)
    rep = conjecture_probe(G, args.q, args.limit)
    report = make_report(
        "conjecture", args.seed, group=gsec, conjecture=conjecture_section(rep)
    )
    return report, (2 if rep.verdict == "inconclusive" else 0)


_DISPATCH = {
    "info": cmd_info,
    "symplectic": cmd_symplectic,
    "n2": cmd_n2,
    "verdict": cmd_verdict,
    "homology": cmd_homology,
    "hom-count": cmd_hom_count,
    "conjecture": cmd_conjecture,
}


def _render_text(report: dict) -> str:
    from .reports import NOT_EVALUATED

    lines = []
    g = report.get("group")
    if g:
        classes = g["conjugacy_classes"]
        lines.append(
            f"group {g['spec']}: order {g['order']}, abelian {g['abelian']}"
            + (f", {classes} conjugacy classes" if classes is not None else "")
        )
    sym = report.get("symplectic")
    if sym:
        lines.append(f"symplectic [{sym['mode']}]: {sym['status']}")
        if sym["elements"] is not None:
            lines.append(
                f"  elements {sym['elements']} = {sym['element_names']}"
            )
            lines.append(
                f"  c = {sym['c']} ({sym['c_name']}), order {sym['c_order']}, "
                f"nontrivial {sym['nontrivial']}"
            )
        if sym["violation"]:
            v = sym["violation"]
            lines.append(f"  violation {v['kind']} at positions {v['positions']}: {v['detail']}")
        if sym["structure"]:
            s = sym["structure"]
            lines.append(
                f"  span order {s['span_order']}; [S,S]=<c> {s['derived_equals_c_span']}; "
                f"c central {s['c_in_center']}; bilinear {s['bilinearity_ok']}"
            )
    d2s = report.get("d2")
    if d2s:
        lines.append(
            f"d2: order {d2s['order']} (= |G| x {d2s['derived_order']}), "
            f"antidiagonal generates {d2s['antidiagonal_generates']}, "
            f"projection kernel ok {d2s['projection_kernel_ok']}"
        )
    n2s = report.get("n2")
    if n2s:
        line = (
            f"n2 (q={n2s['q']}): {n2s['state']}, cosets {n2s['coset_count']}, "
            f"high water {n2s['high_water']} (limit {n2s['limit']})"
        )
        if n2s["kernel_order"] is not None:
            line += f", kernel order {n2s['kernel_order']}"
        if n2s["k_order"] is not None:
            line += f", |k| = {n2s['k_order']}"
        lines.append(line)
    thm = report.get("theorem1")
    if thm:
        lines.append(
            f"theorem1: {thm['verdict']} (|S|={thm['s_order']}, |D2(S)|={thm['d2_order']}, "
            f"|N2(S)|={thm['n2_order']}, state {thm['state']})"
        )
    lem = report.get("lemmas")
    if lem:
        lines.append(
            f"lemmas: all passed {lem['all_passed']} "
            f"(k_i equal {lem['k_values_equal']}, powers {lem['power_identity_ok']}, "
            f"merge {lem['merge_identity_ok']} on {lem['merge_pairs_checked']} pairs, "
            f"ad-bc {lem['adbc_law_ok']}, k central {lem['k_central']}, "
            f"ker = <k> {lem['kernel_is_k_span']}, |k| = {lem['k_order']})"
        )
    hom = report.get("homology")
    if hom:
        line = f"H_{hom['k']} = {hom['description']}"
        if hom["h1_consistent"] is not None:
            line += f"; matches abelianized presentation: {hom['h1_consistent']}"
        lines.append(line)
    hc = report.get("hom_count")
    if hc:
        line = f"|Hom(Z^{hc['n']}, G)| = {hc['count']}"
        if hc["burnside_agrees"] is not None:
            line += f" (classes x order check: {hc['burnside_agrees']})"
        lines.append(line)
    conj = report.get("conjecture")
    if conj:
        lines.append(
            f"conjecture probe (q={conj['q']}): class {conj['nilpotency_class']}, "
            f"predicted iso {conj['predicted_iso']}, state {conj['state']}, "
            f"cosets {conj['coset_count']}, verdict {conj['verdict']}"
        )
    verdict = report.get("verdict")
    if verdict and verdict is not NOT_EVALUATED and verdict["answer"] != "INCONCLUSIVE":
        lines.append(f"verdict: {verdict['answer']} ({verdict['reason']})")
    elif verdict and verdict["reason"] != NOT_EVALUATED["reason"]:
        lines.append(f"verdict: {verdict['answer']} ({verdict['reason']})")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcolim",
        description="Commuting-structure invariants of finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.add_argument("--seed", type=int, default=0, help="seed for any sampling")

    p = sub.add_parser("info", help="order, abelianness, conjugacy classes")
    p.add_argument("spec")
    common(p)

    p = sub.add_parser("symplectic", help="find or check symplectic sequences")
    p.add_argument("mode", choices=["find", "check"])
    p.add_argument("spec")
    p.add_argument("--r", type=int, default=2, help="number of partner pairs")
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    p.add_argument("--ids", help="comma/space separated element ids (check mode)")
    p.add_argument("--seed-gl", action="store_true", dest="seed_gl",
                   help="use the gl:4:2 transvection image in sym:k")
    common(p)

    p = sub.add_parser("n2", help="enumerate the abelian-subgroup colimit")
    p.add_argument("spec")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--limit", type=int, default=DEFAULT_COSET_LIMIT)
    common(p)

    p = sub.add_parser("verdict", help="aspherical-or-not verdict with certificate")
    p.add_argument("spec")
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    p.add_argument("--limit", type=int, default=DEFAULT_COSET_LIMIT)
    p.add_argument("--seed-gl", action="store_true", dest="seed_gl")
    common(p)

    p = sub.add_parser("homology", help="integral homology of the commuting complex")
    p.add_argument("spec")
    p.add_argument("--dim", type=int, default=1, help="homology degree k in {0,1,2}")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--max-simplices", type=int, default=DEFAULT_MAX_SIMPLICES)
    common(p)

    p = sub.add_parser("hom-count", help="count commuting tuples")
    p.add_argument("spec")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--q", type=int, default=2)
    common(p)

    p = sub.add_parser("conjecture", help="probe the nilpotency characterization")
    p.add_argument("spec")
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--limit", type=int, default=DEFAULT_COSET_LIMIT)
    common(p)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _DISPATCH[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        from .reports import dumps_report

        sys.stdout.write(dumps_report(report))
    else:
        sys.stdout.write(_render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
