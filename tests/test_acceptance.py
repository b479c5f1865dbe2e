"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each criterion is exact (integer equality / boolean) unless marked
behavioral; stated wall-clock bounds are asserted with time.monotonic.
The terminal summary (conftest) prints one PASS/FAIL line per criterion.
"""

import subprocess
import sys
import time

from nilcolim import build, conjugacy_classes, derived_subgroup
from nilcolim.bar_complex import h1_consistency, hom_count, homology
from nilcolim.cli import main
from nilcolim.colimit import (
    conjecture_probe,
    d2,
    d2_antidiagonal_generation,
    d2_projection_kernel,
    kpi1_verdict,
    lemma_suite,
    theorem1_verify,
)
from nilcolim.constructions import embed_gl_in_sym, gl_symplectic_sequence
from nilcolim.coset_enum import todd_coxeter
from nilcolim.presentations import build_presentation
from nilcolim.reports import parse_report
from nilcolim.symplectic import SymplecticSequence, check_symplectic

import oracles as O

# JSON outputs captured once per invocation, re-run and compared by criterion 10
_json_runs: dict[tuple, str] = {}


def run_cli_json(*argv) -> tuple[int, str]:
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([*argv, "--json"])
    out = buf.getvalue()
    _json_runs.setdefault(tuple(argv), out)
    return code, out


def test_criterion_1_extraspecial_verification():
    """Theorem 1 on both extraspecial groups: orders, kernel, verdict, time."""
    for p, r, n2_expected, bound in [(2, 2, 64, 10.0), (3, 2, 729, 120.0)]:
        start = time.monotonic()
        G = build(f"extraspecial:{p}:{r}")
        v = kpi1_verdict(G)
        assert v.answer == "NOT_K_PI_1"
        assert isinstance(v.search, SymplecticSequence) and v.search.nontrivial
        thm = v.theorem1
        assert thm.verdict == "PASS"
        assert thm.n2_order == n2_expected == p ** (2 * r + 1) * p
        # |D2| by brute-force pair enumeration, independently of d2()
        oracle_d2 = O.d2_pair_set(G.multiply, 0, range(G.order))
        assert len(oracle_d2) == thm.d2_order == n2_expected
        assert thm.kernel.kernel_order == p
        assert thm.kernel.k_order == p
        lemmas = lemma_suite(thm.sequence, thm.table)
        assert lemmas.kernel_is_k_span and lemmas.k_order == p
        # byte-identical CLI evidence for criterion 10
        code, out = run_cli_json("verdict", f"extraspecial:{p}:{r}")
        assert code == 0
        doc = parse_report(out)
        assert doc["verdict"]["answer"] == "NOT_K_PI_1"
        assert doc["n2"]["coset_count"] == n2_expected
        elapsed = time.monotonic() - start
        assert elapsed < bound, f"extraspecial:{p}:{r} took {elapsed:.1f}s"


def test_criterion_2_gl_sym_pipeline():
    """Transvection sequence in gl:4:2, its image in sym:16, theorem 1 on the span."""
    start = time.monotonic()
    gl, ids = gl_symplectic_sequence(4, 2)
    seq = check_symplectic(gl, ids)
    assert isinstance(seq, SymplecticSequence) and seq.nontrivial

    emb = embed_gl_in_sym(4, 2)
    sym16 = emb.target
    image_ids = [emb.image_of(e) for e in ids]
    image_seq = check_symplectic(sym16, image_ids)
    assert isinstance(image_seq, SymplecticSequence) and image_seq.nontrivial
    for e in image_ids:
        perm = sym16.key_of(e)
        assert len(perm) == 16 and O.perm_parity(perm) == 0

    thm = theorem1_verify(seq)
    assert thm.verdict == "PASS"
    assert thm.s_order == 32
    assert thm.d2_order == 64 and thm.n2_order == 64
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"gl pipeline took {elapsed:.1f}s"


ABELIAN_SPECS = [f"cyclic:{n}" for n in range(1, 17)] + [
    "product:(cyclic:2),(cyclic:2)",
    "product:(cyclic:2),(cyclic:4)",
    "product:(cyclic:3),(cyclic:3)",
    "product:(product:(cyclic:2),(cyclic:2)),(cyclic:2)",
]


def test_criterion_3_abelian_controls():
    """Abelian groups: the colimit enumeration closes at |G| and K_PI_1 holds."""
    for spec in ABELIAN_SPECS:
        G = build(spec)
        assert G.is_abelian
        t = todd_coxeter(build_presentation(G, 2))
        assert t.closed and t.coset_count == G.order, spec
        v = kpi1_verdict(G)
        assert v.answer == "K_PI_1", spec
    code, out = run_cli_json("verdict", "cyclic:12")
    assert code == 0 and parse_report(out)["verdict"]["answer"] == "K_PI_1"


def test_criterion_4_lemma_suite():
    """Word-traced relations in the colimit of the 32-element extraspecial group."""
    start = time.monotonic()
    G = build("extraspecial:2:2")
    v = kpi1_verdict(G)
    thm = v.theorem1
    rep = lemma_suite(thm.sequence, thm.table)
    assert rep.k_values_equal                      # k_i = k_j
    assert rep.power_identity_ok and rep.c_order == 2   # k^m for m in {1, 2}
    assert rep.merge_identity_ok and rep.merge_exhaustive
    assert rep.merge_pairs_checked == 128          # 64 pairs for each partner pair
    assert rep.adbc_law_ok                         # exponents 0..2 cover {0, 1}
    assert rep.k_central
    assert rep.kernel_is_k_span and rep.k_order == 2
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"lemma suite took {elapsed:.1f}s"


D2_SUITE = [
    "cyclic:4", "cyclic:9", "cyclic:16", "product:(cyclic:2),(cyclic:4)",
    "product:(cyclic:6),(cyclic:6)",        # order 36
    "sym:3", "dihedral:4", "quaternion", "extraspecial:2:2",
    "dihedral:6", "alt:4", "sym:4",         # orders 12, 12, 24
    "product:(sym:3),(cyclic:2)",           # order 12
    "dihedral:18",                          # order 36
    "product:(dihedral:4),(cyclic:2)",      # order 16
    "product:(quaternion),(cyclic:3)",      # order 24
    "perm:(1 2 3 4 5 6 7);(2 4 3 7 5 6)",  # F21, order 21
    "dihedral:36",                          # order 72
]


def test_criterion_5_d2_properties():
    """D2 order, antidiagonal generation, and the projection kernel, order <= 72."""
    for spec in D2_SUITE:
        G = build(spec)
        assert G.order <= 72, spec
        sub = d2(G)
        derived = derived_subgroup(G)
        assert sub.order == G.order * derived.order, spec
        oracle = O.d2_pair_set(G.multiply, 0, range(G.order))
        assert sub.members == frozenset(oracle), spec
        assert d2_antidiagonal_generation(G), spec
        kernel = d2_projection_kernel(sub)
        assert kernel == frozenset((0, y) for y in derived.members), spec


def test_criterion_6_hom_counts():
    """Commuting pair counts vs brute force and the class-counting identity."""
    for spec in D2_SUITE:
        G = build(spec)
        got = hom_count(G, 2)
        assert got == O.commuting_pair_count(G.multiply, range(G.order)), spec
        assert got == len(conjugacy_classes(G)) * G.order, spec
    # the triple count for the quaternion group against the pre-built oracle
    q8 = build("quaternion")
    oracle_triples = O.commuting_tuple_count(O.q8_mult, range(8), 3)
    assert oracle_triples == 176
    assert hom_count(q8, 3) == 176
    code, out = run_cli_json("hom-count", "quaternion", "--n", "3")
    assert code == 0 and parse_report(out)["hom_count"]["count"] == 176


def test_criterion_7_h1_consistency():
    """H1 of the commuting complex against the abelianized colimit presentation."""
    start = time.monotonic()
    for spec in ["cyclic:6", "sym:3", "dihedral:4", "quaternion", "extraspecial:2:2"]:
        assert h1_consistency(build(spec)), spec
    # frozen homology values, recomputed from the hand-SNF amalgam oracles
    q8_res = homology(build("quaternion"), 2, 1)
    assert q8_res.rank == 0 and q8_res.torsion == (2, 2, 4)   # Z/4 + Z/2 + Z/2
    s3_res = homology(build("sym:3"), 2, 1)
    assert s3_res.rank == 0 and s3_res.torsion == (2, 2, 6)   # (Z/2)^3 + Z/3
    for spec, expected in [("quaternion", (2, 2, 4)), ("sym:3", (2, 2, 6))]:
        G = build(spec)
        P = build_presentation(G, 2)
        rows = []
        for w in O.colimit_pair_relators(G.multiply, G.order, 2):  # every pair
            vec = [0] * P.num_generators
            for s in w:
                vec[abs(s) - 1] += 1 if s > 0 else -1
            rows.append(vec)
        rank, torsion = O.abelian_invariants(P.num_generators, rows)
        assert rank == 0 and tuple(torsion) == expected
    code, out = run_cli_json("homology", "sym:3", "--dim", "1")
    assert code == 0 and parse_report(out)["homology"]["h1_consistent"] is True
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"H1 consistency took {elapsed:.1f}s"


def test_criterion_8_nonclosure_robustness():
    """`n2 sym:3 --limit 100000`: limit-exceeded, exit code 2, stats, no crash."""
    proc = subprocess.run(
        [sys.executable, "-m", "nilcolim.cli", "n2", "sym:3",
         "--limit", "100000", "--json"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    doc = parse_report(proc.stdout)
    n2 = doc["n2"]
    assert n2["state"] == "limit-exceeded"
    assert n2["high_water"] == 100000
    assert n2["coset_count"] <= n2["high_water"]
    assert n2["limit"] == 100000
    _json_runs.setdefault(("subprocess-n2-sym3",), proc.stdout)


def test_criterion_9_conjecture_probe():
    """Nilpotency characterization instances: Q8 and D8 at q=3, extraspecial at q=2."""
    for spec in ["quaternion", "dihedral:4"]:
        rep = conjecture_probe(build(spec), 3)
        assert rep.nclass == 2 and rep.predicted_iso
        assert rep.state == "closed" and rep.coset_count == build(spec).order
        assert rep.verdict == "agree", spec
    rep = conjecture_probe(build("extraspecial:2:2"), 2)
    assert rep.nclass == 2 and not rep.predicted_iso
    assert rep.coset_count == 64 and rep.actual_iso is False
    assert rep.verdict == "agree"
    code, out = run_cli_json("conjecture", "quaternion", "--q", "3")
    assert code == 0 and parse_report(out)["conjecture"]["verdict"] == "agree"


def test_criterion_10_determinism():
    """Re-running every captured analysis yields byte-identical JSON."""
    # in-process reruns of everything criteria 1-9 captured
    baseline = dict(_json_runs)
    assert baseline, "earlier criteria must have captured CLI runs"
    extra = [
        ("n2", "cyclic:16"),
        ("symplectic", "find", "quaternion"),
        ("symplectic", "check", "extraspecial:2:2", "--ids", "1,2,3,4"),
        ("homology", "quaternion", "--dim", "1"),
        ("info", "gl:4:2"),
    ]
    for argv in extra:
        run_cli_json(*argv)
    baseline = dict(_json_runs)
    for argv, first in baseline.items():
        if argv == ("subprocess-n2-sym3",):
            continue
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            main([*argv, "--json"])
        assert buf.getvalue() == first, f"non-deterministic output for {argv}"
    # subprocess-level byte determinism for the flagship verdict
    cmd = [sys.executable, "-m", "nilcolim.cli", "verdict", "extraspecial:2:2", "--json"]
    a = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    b = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    # and for the non-closing enumeration captured in criterion 8
    cmd = [sys.executable, "-m", "nilcolim.cli", "n2", "sym:3",
           "--limit", "100000", "--json"]
    rerun = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert rerun.stdout == _json_runs[("subprocess-n2-sym3",)]
