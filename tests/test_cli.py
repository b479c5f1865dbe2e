"""CLI commands: outputs, exit codes, JSON schema round-trips."""

import json
import subprocess
import sys

import pytest

from nilcolim.cli import main
from nilcolim.reports import parse_report


# modules that importing the CLI or running a command must leave unloaded
HEAVY = ("numpy", "dataclasses", "inspect")

# the nilcolim modules that ``import nilcolim.cli`` loads: the argparse
# defaults and the input errors need no more
CLI_IMPORT = {"cli", "budgets", "constructions", "groups", "permutations"}
COLIMIT_PATH = {"reports", "symplectic", "presentations", "coset_enum", "colimit"}
HOMOLOGY_PATH = {"reports", "presentations", "bar_complex", "snf"}
# the most that each command may load on top of CLI_IMPORT
COMMAND_MODULES = {
    "info quaternion": {"reports"},
    "symplectic find extraspecial:2:2": {"reports", "symplectic"},
    "homology extraspecial:2:2": HOMOLOGY_PATH,
    "hom-count sym:4": HOMOLOGY_PATH,
    "n2 extraspecial:2:2": COLIMIT_PATH,
    "verdict extraspecial:2:2": COLIMIT_PATH,
    "conjecture quaternion --q 3": COLIMIT_PATH,
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, parse_report(out), out


def test_info_quaternion(capsys):
    code, doc, _ = run_json(capsys, "info", "quaternion")
    assert code == 0
    assert doc["group"]["order"] == 8
    assert doc["group"]["abelian"] is False
    assert doc["group"]["conjugacy_classes"] == 5


def test_info_cyclic(capsys):
    code, doc, _ = run_json(capsys, "info", "cyclic:5")
    assert code == 0
    assert doc["group"]["order"] == 5 and doc["group"]["abelian"] is True


def test_info_bad_table(tmp_path, capsys):
    bad = tmp_path / "bad.tbl"
    bad.write_text("2\n1 0\n0 1\n")
    code = main(["info", f"table:{bad}"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def test_info_table_file(tmp_path, capsys):
    rows = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    path = tmp_path / "z3.tbl"
    path.write_text("3\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    code, doc, _ = run_json(capsys, "info", f"table:{path}")
    assert code == 0 and doc["group"]["order"] == 3


def test_bad_spec_exit_code(capsys):
    assert main(["info", "nonsense:1"]) == 1


def test_symplectic_check(capsys):
    code, doc, _ = run_json(capsys, "symplectic", "check", "extraspecial:2:2",
                            "--ids", "1,2,3,4")
    assert code == 0
    sym = doc["symplectic"]
    assert sym["status"] == "certified" and sym["nontrivial"] is True
    assert sym["c_order"] == 2
    assert sym["structure"]["span_order"] == 32


def test_symplectic_check_violation(capsys):
    code, doc, _ = run_json(capsys, "symplectic", "check", "quaternion",
                            "--ids", "1 2 3 4")
    assert code == 0
    assert doc["symplectic"]["status"] == "violation"
    assert doc["symplectic"]["violation"]["kind"] in (
        "must-commute", "commutator-mismatch", "repeated-element"
    )


def test_symplectic_check_identity_rejected(capsys):
    assert main(["symplectic", "check", "quaternion", "--ids", "0,1,2,3"]) == 1


def test_symplectic_check_bad_ids_rejected(capsys):
    assert main(["symplectic", "check", "quaternion", "--ids", "1,2,3,99"]) == 1
    assert main(["symplectic", "check", "quaternion", "--ids", "1,2,x,4"]) == 1


def test_symplectic_find_quaternion_exhausts(capsys):
    code, doc, _ = run_json(capsys, "symplectic", "find", "quaternion", "--r", "2")
    assert code == 0
    assert doc["symplectic"]["status"] == "exhausted-none"


def test_symplectic_find_budget_exhausted_exit(capsys):
    code, doc, _ = run_json(capsys, "symplectic", "find", "sym:4",
                            "--r", "2", "--budget", "2")
    if doc["symplectic"]["status"] == "budget-exceeded":
        assert code == 2
    else:
        assert code == 0


def test_symplectic_find_budget_spent_on_a_frames_last_node(capsys):
    # the full search of cyclic:4 takes 9 nodes; the 3rd is the last of a frame
    code, doc, _ = run_json(capsys, "symplectic", "find", "cyclic:4", "--budget", "3")
    assert code == 2
    assert doc["symplectic"]["status"] == "budget-exceeded"
    assert doc["symplectic"]["expanded"] == 3


def test_symplectic_find_seeded(capsys):
    code, doc, _ = run_json(capsys, "symplectic", "find", "sym:16", "--seed-gl")
    assert code == 0
    sym = doc["symplectic"]
    assert sym["mode"] == "seeded" and sym["nontrivial"] is True
    assert sym["structure"]["span_order"] == 32


def test_symplectic_find_lazy_without_seed_is_input_error(capsys):
    assert main(["symplectic", "find", "sym:16"]) == 1


def test_symplectic_check_rejects_seed_gl_before_any_work(capsys, monkeypatch):
    """--seed-gl only selects the seeded sequence of ``symplectic find``."""
    import nilcolim.cli as cli_module

    def no_build(spec):
        raise AssertionError(f"built {spec}")

    monkeypatch.setattr(cli_module, "build", no_build)
    assert main(["symplectic", "check", "sym:16", "--seed-gl", "--ids", "1,2"]) == 1
    assert "--seed-gl applies to symplectic find" in capsys.readouterr().err


def test_n2_closed(capsys):
    code, doc, _ = run_json(capsys, "n2", "extraspecial:2:2")
    assert code == 0
    n2 = doc["n2"]
    assert n2["state"] == "closed" and n2["coset_count"] == 64
    assert n2["kernel_order"] == 2 and n2["torsion_free"] is False


def test_n2_limit_exceeded(capsys):
    code, doc, _ = run_json(capsys, "n2", "sym:3", "--limit", "100000")
    assert code == 2
    n2 = doc["n2"]
    assert n2["state"] == "limit-exceeded"
    assert n2["coset_count"] == 100000 and n2["high_water"] == 100000


def test_n2_q3(capsys):
    code, doc, _ = run_json(capsys, "n2", "quaternion", "--q", "3")
    assert code == 0 and doc["n2"]["coset_count"] == 8


def test_n2_too_large_is_input_error(capsys):
    assert main(["n2", "gl:4:2"]) == 1
    assert main(["n2", "sym:16"]) == 1


def test_verdict_extraspecial(capsys):
    code, doc, _ = run_json(capsys, "verdict", "extraspecial:2:2")
    assert code == 0
    assert doc["verdict"]["answer"] == "NOT_K_PI_1"
    cert = doc["verdict"]["certificate"]
    assert cert["type"] == "symplectic-sequence" and cert["c_order"] == 2
    assert doc["theorem1"]["verdict"] == "PASS"
    assert doc["lemmas"]["all_passed"] is True
    assert doc["n2"]["coset_count"] == 64
    assert doc["d2"]["order"] == 64


def test_verdict_computes_d2_once_per_group(capsys, monkeypatch):
    import nilcolim.colimit as colimit

    groups = []
    real_d2 = colimit.d2

    def counted_d2(G):
        groups.append(G)
        return real_d2(G)

    # cmd_verdict imports d2 from colimit when it runs, so it sees the patch
    monkeypatch.setattr(colimit, "d2", counted_d2)
    code, doc, _ = run_json(capsys, "verdict", "extraspecial:2:2")
    assert code == 0 and doc["d2"]["order"] == 64
    # the sequence spans G, so S is G: one group, one D2
    assert len(groups) == len({id(G) for G in groups}) == 1
    groups.clear()
    code, doc, _ = run_json(capsys, "verdict", "extraspecial:2:3")
    assert code == 0 and doc["theorem1"]["s_order"] == 32
    # once for the span S inside theorem 1, once for the group itself
    assert len(groups) == len({id(G) for G in groups}) == 2


def test_verdict_abelian(capsys):
    code, doc, _ = run_json(capsys, "verdict", "cyclic:12")
    assert code == 0
    assert doc["verdict"]["answer"] == "K_PI_1"
    assert doc["n2"]["coset_count"] == 12


def test_verdict_inconclusive(capsys):
    code, doc, _ = run_json(capsys, "verdict", "sym:3", "--limit", "20000")
    assert code == 2
    assert doc["verdict"]["answer"] == "INCONCLUSIVE"
    assert doc["budgets"]["coset_limit_hit"] == 20000


def test_verdict_seeded_sym16(capsys):
    code, doc, _ = run_json(capsys, "verdict", "sym:16", "--seed-gl")
    assert code == 0
    assert doc["verdict"]["answer"] == "NOT_K_PI_1"
    assert doc["theorem1"]["s_order"] == 32


def test_homology_s3(capsys):
    code, doc, _ = run_json(capsys, "homology", "sym:3", "--dim", "1")
    assert code == 0
    hom = doc["homology"]
    assert hom["rank"] == 0 and hom["torsion"] == [2, 2, 6]
    assert hom["h1_consistent"] is True


def test_homology_dim_1_computes_h1_once(capsys, monkeypatch):
    import nilcolim.bar_complex as bar_complex

    calls = {"build_complex": 0, "smith_normal_form": 0}

    def counted(name):
        real = getattr(bar_complex, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(bar_complex, name, wrapper)

    counted("build_complex")
    counted("smith_normal_form")
    code, doc, _ = run_json(capsys, "homology", "extraspecial:2:2", "--dim", "1")
    assert code == 0 and doc["homology"]["h1_consistent"] is True
    # d_1 and d_2 of one complex, then the abelianized relator matrix
    assert calls == {"build_complex": 1, "smith_normal_form": 3}


def test_homology_budget_error(capsys):
    assert main(["homology", "extraspecial:2:2", "--dim", "1",
                 "--max-simplices", "10"]) == 1


def test_negative_simplex_budget_is_input_error(capsys):
    assert main(["homology", "extraspecial:2:2", "--max-simplices", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: simplex budget must be >= 0, got -5" in captured.err


@pytest.mark.parametrize("argv", [
    ["homology", "sym:3", "--q", "1", "--dim", "1"],
    ["hom-count", "cyclic:3", "--q", "1"],
    ["hom-count", "cyclic:3", "--q", "1", "--n", "0"],
])
def test_q_below_two_is_input_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: q must be >= 2, got 1" in captured.err


def test_hom_count_of_zero_tuples_stays_lazy(capsys):
    """|Hom(Z^0, G)| = 1 without materializing G, even for sym:16."""
    code, doc, _ = run_json(capsys, "hom-count", "sym:16", "--n", "0")
    assert code == 0
    assert doc["hom_count"]["count"] == 1


def test_hom_count(capsys):
    code, doc, _ = run_json(capsys, "hom-count", "sym:3", "--n", "2")
    assert code == 0
    assert doc["hom_count"]["count"] == 18
    assert doc["hom_count"]["burnside_agrees"] is True


def test_conjecture(capsys):
    code, doc, _ = run_json(capsys, "conjecture", "quaternion", "--q", "3")
    assert code == 0
    assert doc["conjecture"]["verdict"] == "agree"
    code, doc, _ = run_json(capsys, "conjecture", "sym:3", "--q", "2", "--limit", "5000")
    assert code == 2
    assert doc["conjecture"]["verdict"] == "inconclusive"


def test_json_byte_determinism(capsys):
    _, _, raw1 = run_json(capsys, "verdict", "extraspecial:2:2")
    _, _, raw2 = run_json(capsys, "verdict", "extraspecial:2:2")
    assert raw1 == raw2


def test_report_roundtrip_and_strictness(capsys):
    _, doc, raw = run_json(capsys, "verdict", "cyclic:6")
    assert json.loads(raw) == doc
    doc_bad = dict(doc)
    doc_bad["surprise"] = 1
    with pytest.raises(ValueError, match="unknown top-level"):
        parse_report(json.dumps(doc_bad))
    doc_bad = json.loads(raw)
    doc_bad["group"]["surprise"] = 1
    with pytest.raises(ValueError, match="unknown fields"):
        parse_report(json.dumps(doc_bad))
    doc_bad = json.loads(raw)
    doc_bad["schema"] = 99
    with pytest.raises(ValueError, match="schema"):
        parse_report(json.dumps(doc_bad))


def test_text_output_mentions_key_facts(capsys):
    code, out = run(capsys, "verdict", "extraspecial:2:2")
    assert code == 0
    assert "NOT_K_PI_1" in out
    assert "theorem1: PASS" in out
    code, out = run(capsys, "info", "quaternion")
    assert "order 8" in out


def test_cli_import_leaves_numpy_unloaded():
    """Start-up cost: importing the CLI must not import numpy (about 0.1 s),
    nor ``dataclasses`` and the ``inspect`` it loads (records are NamedTuples)."""
    code = f"import sys, nilcolim.cli; print([m for m in {HEAVY!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verdict_and_table_info_leave_numpy_unloaded(tmp_path):
    """No command on the verdict path or the table loader imports numpy,
    ``dataclasses`` or ``inspect``."""
    rows = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    path = tmp_path / "z4.tbl"
    path.write_text("4\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    code = (
        "import contextlib, io, sys\n"
        "from nilcolim.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verdict', 'extraspecial:2:2']),\n"
        f"             main(['info', {f'table:{path}'!r}])]\n"
        f"print(codes, [m for m in {HEAVY!r} if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"


def _loaded_submodules(code: str) -> set[str]:
    """The nilcolim submodules loaded after running ``code`` in a fresh process."""
    code += "\nprint(' '.join(m[9:] for m in sys.modules if m.startswith('nilcolim.')))"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_package_import_loads_no_submodule():
    assert _loaded_submodules("import sys, nilcolim") == set()


def test_cli_import_loads_only_what_parsing_needs():
    assert _loaded_submodules("import sys, nilcolim.cli") == CLI_IMPORT


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_only_the_modules_it_runs(command):
    code = (
        "import contextlib, io, sys\n"
        "from nilcolim.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main({command.split()!r})\n"
    )
    extra = _loaded_submodules(code) - CLI_IMPORT
    assert extra <= COMMAND_MODULES[command], extra - COMMAND_MODULES[command]
