import os
import shlex
from pathlib import Path

import pytest

from quandlekit import cli
from quandlekit.cli import main
from quandlekit.specs import bundled_path, read_data_file, resolve_diagram, resolve_rack

from conftest import brute_force_colorings, brute_force_sheets, brute_force_shadows


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def payload(stdout):
    return [line for line in stdout.splitlines() if not line.startswith("#")]


# --- check -----------------------------------------------------------------------


def test_check_dihedral(capsys):
    code, out, _ = run(capsys, "check", "dihedral:3")
    assert code == 0
    assert "kei (order 3, orbits 1)" in out
    assert "#data class kei 3 1" in out


def test_check_trivial(capsys):
    code, out, _ = run(capsys, "check", "trivial:4")
    assert code == 0
    assert "kei (order 4, orbits 4)" in out


def test_check_bad_table(tmp_path, capsys):
    bad = tmp_path / "badtable.txt"
    bad.write_text("rack 3\n0 0 0\n1 1 1\n1 2 2\n")
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert "not-a-rack" in out
    assert "R1" in out


def test_check_alexander_builtin(capsys):
    code, out, _ = run(capsys, "check", "alexander:2:1,0,1:0,1")
    assert code == 0
    assert "kei (order 4" in out


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "does-not-exist.txt")
    assert code == 2
    assert "error" in err


def test_check_malformed_builtin(capsys):
    code, _, err = run(capsys, "check", "dihedral:x")
    assert code == 2


# --- color -----------------------------------------------------------------------


def test_color_trefoil_count(capsys):
    code, out, _ = run(capsys, "color", "trefoil.pd", "dihedral:3", "--count")
    assert code == 0
    assert "colorings: 9" in out
    assert "#data colorings 9" in out


def test_color_shadow_count(capsys):
    code, out, _ = run(capsys, "color", "trefoil.pd", "dihedral:3", "--shadow", "--count")
    assert code == 0
    assert "shadow-colorings: 27" in out


def test_color_unknot(capsys):
    code, out, _ = run(capsys, "color", "unknot.pd", "dihedral:5", "--count")
    assert code == 0
    assert "colorings: 5" in out


def test_color_count_does_not_enumerate(monkeypatch, capsys):
    from quandlekit import coloring

    def refuse(*args):
        raise AssertionError("must not build the coloring list")

    names = ("enumerate_colorings", "enumerate_shadow_colorings", "enumerate_surface_colorings")
    for module in (cli, coloring):
        for name in names:
            monkeypatch.setattr(module, name, refuse, raising=False)
    cases = [
        (("trefoil.pd", "dihedral:3"), "colorings", 9),
        (("trefoil.pd", "dihedral:3", "--shadow"), "shadow-colorings", 27),
        (("trefoil.pd", "dihedral:3", "--shadow", "--surjective"), "shadow-colorings", 18),
        (("trefoil.pd", "dihedral:3", "--surjective"), "colorings", 6),
        (("sphere.surf", "dihedral:3", "--count"), "surface-colorings", 3),
        (("sphere.surf", "dihedral:3", "--surjective"), "surface-colorings", 0),
        (("trefoil_shadow.surf", "dihedral:3", "--surjective"), "surface-colorings", 24),
    ]
    for argv, label, count in cases:
        code, out, _ = run(capsys, "color", *argv)
        assert code == 0, argv
        assert payload(out) == [f"{label}: {count}"], argv
        assert f"#data {label} {count}" in out, argv
        # Arc and sheet listings format their rows straight from the search;
        # a shadow listing reads enumerate_shadow_colorings.
        if "--shadow" not in argv:
            code, out, _ = run(capsys, "color", *argv, "--list")
            assert code == 0, argv
            assert len(payload(out)) == 1 + count, argv


def test_color_list_and_surjective(capsys):
    code, out, _ = run(capsys, "color", "trefoil.pd", "dihedral:3", "--list", "--surjective")
    assert code == 0
    assert "colorings: 6" in out
    listed = [l for l in payload(out) if ":" in l and not l.startswith("colorings")]
    assert len(listed) == 6


def test_color_list_rows_match_brute_force(tmp_path, capsys):
    """Every --list form prints the brute force's rows, in order.

    Arc, shadow and sheet rows, with and without --surjective, by connected
    and multi-orbit quandles and by a rack that is not a quandle.
    """
    cycle = tmp_path / "cycle.txt"
    cycle.write_text("rack 3\n1 1 1\n2 2 2\n0 0 0\n")
    quandles = ["dihedral:3", "dihedral:4", "trivial:3", "alexander:2:1,0,1:0,1",
                "alexander:2:1,1,1:0,1"]
    cases = [("trefoil.pd", q, "colorings", False) for q in quandles + [str(cycle)]]
    cases += [("torus:2:4", q, "colorings", False) for q in quandles]
    cases += [("trefoil.pd", q, "shadow-colorings", True) for q in quandles]
    cases += [("torus:2:4", q, "shadow-colorings", True) for q in ("dihedral:4", "trivial:3")]
    cases += [("trefoil_shadow.surf", q, "surface-colorings", False)
              for q in ("dihedral:3", "dihedral:4", "trivial:3")]
    cases += [("sphere.surf", q, "surface-colorings", False) for q in quandles]
    for diagram, rack, label, shadow in cases:
        target, X = resolve_diagram(diagram), resolve_rack(rack)
        if shadow:
            found = [(c, " ".join(map(str, c)) + " | " + " ".join(map(str, r)))
                     for c, r in sorted(brute_force_shadows(target, X))]
        else:
            oracle = brute_force_sheets if label == "surface-colorings" else brute_force_colorings
            found = [(c, " ".join(map(str, c))) for c in sorted(oracle(target, X))]
        for surjective in (False, True):
            rows = [row for c, row in found if not surjective or len(set(c)) == X.size]
            argv = ["color", diagram, rack, "--list"] + ["--shadow"] * shadow
            code, out, _ = run(capsys, *argv + ["--surjective"] * surjective)
            assert code == 0, argv
            body = [line for line in payload(out) if not line.startswith("note:")]
            want = [f"{label}: {len(rows)}"] + [f"{i}: {row}" for i, row in enumerate(rows)]
            assert body == want, (argv, surjective)


def test_color_torus_builtin(capsys):
    code, out, _ = run(capsys, "color", "torus:2:6", "dihedral:3", "--count")
    assert code == 0
    assert "colorings: 9" in out


def test_color_surface_data(capsys):
    code, out, _ = run(capsys, "color", "sphere.surf", "dihedral:3", "--count")
    assert code == 0
    assert "surface-colorings: 3" in out
    code, _, err = run(capsys, "color", "sphere.surf", "dihedral:3", "--shadow")
    assert code == 2


def test_color_rack_note(capsys, tmp_path):
    rack = tmp_path / "cyclic.txt"
    rack.write_text("rack 3\n1 1 1\n2 2 2\n0 0 0\n")
    code, out, _ = run(capsys, "color", "unknot.pd", str(rack), "--count")
    assert code == 0
    assert "framed-diagram data" in out


def test_color_deep_surface_search(tmp_path, capsys):
    big = tmp_path / "big.surf"
    big.write_text("surface\nsheets 3000\n")
    code, out, _ = run(capsys, "color", str(big), "trivial:1")
    assert code == 0
    assert "#data surface-colorings 1" in out


# --- invariant --------------------------------------------------------------------


def test_invariant_trefoil(capsys):
    code, out, _ = run(
        capsys, "invariant", "trefoil.pd", "dihedral:3", "theta_R3.cochain",
        "--mode", "shadow",
    )
    assert code == 0
    assert "9 + 18t" in out
    assert "#data invariant 3 9 18 0" in out


def test_invariant_braid_t26(capsys):
    code, out, _ = run(
        capsys, "invariant", "--braid", "2: 1 1 1 1 1 1", "dihedral:3",
        "theta_R3.cochain", "--mode", "shadow",
    )
    assert code == 0
    assert "9 + 18t^2" in out


def test_invariant_surface(capsys):
    code, out, _ = run(
        capsys, "invariant", "sphere.surf", "dihedral:3", "theta_R3.cochain",
        "--mode", "surface",
    )
    assert code == 0
    assert payload(out)[0] == "3"


def test_invariant_mode_inference(capsys):
    code, out, _ = run(capsys, "invariant", "trefoil.pd", "dihedral:3", "theta_R3.cochain")
    assert code == 0
    assert "9 + 18t" in out
    code, out, _ = run(
        capsys, "invariant", "trefoil_shadow.surf", "dihedral:3", "theta_R3.cochain"
    )
    assert code == 0
    assert "9 + 18t" in out


def test_invariant_non_cocycle(tmp_path, capsys):
    chi = tmp_path / "chi.cochain"
    chi.write_text("cochain 3 3\n0 1 2 1\n")
    code, _, err = run(
        capsys, "invariant", "trefoil.pd", "dihedral:3", str(chi), "--mode", "shadow"
    )
    assert code == 1
    code, out, _ = run(
        capsys, "invariant", "trefoil.pd", "dihedral:3", str(chi),
        "--mode", "shadow", "--unsafe-no-cocycle-check",
    )
    assert code == 0
    assert "not a knot invariant" in out


def test_invariant_rejects_entry_outside_quandle(tmp_path, capsys):
    bad = tmp_path / "bad.cochain"
    bad.write_text("cochain 2 3\n0 -1 1\n")
    code, out, err = run(capsys, "invariant", "trefoil.pd", "dihedral:3", str(bad))
    assert code == 1
    assert "entry outside the quandle" in err
    assert "#data invariant" not in out
    code, out, _ = run(
        capsys, "invariant", "trefoil.pd", "dihedral:3", str(bad),
        "--unsafe-no-cocycle-check",
    )
    assert code == 0
    assert "not a knot invariant" in out


def test_invariant_needs_some_diagram(capsys):
    code, _, err = run(capsys, "invariant", "dihedral:3", "theta_R3.cochain")
    assert code == 2


# --- homology ---------------------------------------------------------------------


def test_homology_r_degree1(capsys):
    code, out, _ = run(capsys, "homology", "dihedral:3", "--degree", "1", "--theory", "R")
    assert code == 0
    assert "= Z" in out
    assert "#data homology 1" in out


def test_homology_q_degree3(capsys):
    code, out, _ = run(capsys, "homology", "dihedral:3", "--degree", "3", "--theory", "Q")
    assert code == 0
    assert "= Z_3" in out
    assert "#data homology 0 3" in out


def test_homology_trivial2(capsys):
    code, out, _ = run(capsys, "homology", "trivial:2", "--degree", "2", "--theory", "Q")
    assert code == 0
    assert "= Z^2" in out


def test_homology_mod_prime(capsys):
    code, out, _ = run(
        capsys, "homology", "dihedral:3", "--degree", "3", "--theory", "Q", "--mod", "3"
    )
    assert code == 0
    assert "Z_3" in out
    assert "#data homology-mod 3 1" in out


def test_homology_mod_composite(capsys):
    code, out, _ = run(
        capsys, "homology", "dihedral:3", "--degree", "3", "--theory", "Q", "--mod", "6"
    )
    assert code == 0
    assert "Z_3" in out


def test_homology_budget_exit(capsys):
    os.environ["QUANDLEKIT_BUDGET"] = "10"
    try:
        code, _, err = run(capsys, "homology", "trivial:13", "--degree", "3", "--theory", "R")
        assert code == 3
        assert "budget" in err
    finally:
        del os.environ["QUANDLEKIT_BUDGET"]


# --- cocycles ---------------------------------------------------------------------


def test_cocycles_verify_theta(capsys):
    code, out, _ = run(
        capsys, "cocycles", "dihedral:3", "--degree", "3", "--mod", "3",
        "--verify", "theta_R3.cochain",
    )
    assert code == 0
    assert "cocycle: yes; coboundary: no" in out
    assert "#data verify 1 0" in out


def test_cocycles_verify_zero(tmp_path, capsys):
    z = tmp_path / "zero.cochain"
    z.write_text("cochain 3 3\n")
    code, out, _ = run(
        capsys, "cocycles", "dihedral:3", "--degree", "3", "--mod", "3", "--verify", str(z)
    )
    assert code == 0
    assert "cocycle: yes; coboundary: yes" in out


def test_cocycles_verify_non_cocycle(tmp_path, capsys):
    chi = tmp_path / "chi.cochain"
    chi.write_text("cochain 3 3\n0 1 2 1\n")
    code, out, _ = run(
        capsys, "cocycles", "dihedral:3", "--degree", "3", "--mod", "3", "--verify", str(chi)
    )
    assert code == 1
    assert "cocycle: no" in out


def test_cocycles_verify_rejects_entry_outside_quandle(tmp_path, capsys):
    bad = tmp_path / "bad.cochain"
    bad.write_text(read_data_file("theta_R3.cochain") + "7 8 9 1\n")
    code, out, _ = run(
        capsys, "cocycles", "dihedral:3", "--degree", "3", "--mod", "3", "--verify", str(bad)
    )
    assert code == 1
    assert "cocycle: no (entry outside the quandle at (7,8,9))" in out
    assert "#data verify 0 -" in out


def test_cocycles_dimensions(capsys):
    code, out, _ = run(capsys, "cocycles", "dihedral:3", "--degree", "2", "--mod", "3")
    assert code == 0
    assert "cocycles: dimension" in out
    code, out, _ = run(capsys, "cocycles", "trivial:2", "--degree", "2", "--mod", "4")
    assert code == 0
    assert "composite" in out


def test_cocycles_degree_mismatch(tmp_path, capsys):
    code, _, err = run(
        capsys, "cocycles", "dihedral:3", "--degree", "2", "--mod", "3",
        "--verify", "theta_R3.cochain",
    )
    assert code == 2


# --- generic behavior ----------------------------------------------------------------


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "invariant", "6_1.pd", "dihedral:3", "theta_R3.cochain")
    _, out2, _ = run(capsys, "invariant", "6_1.pd", "dihedral:3", "theta_R3.cochain")
    assert out1 == out2


def test_file_digest_echo(tmp_path, capsys):
    table = tmp_path / "k.txt"
    table.write_text("rack 1\n0\n")
    _, out, _ = run(capsys, "check", str(table))
    assert f"# input {table} sha256:" in out


def test_force_file_flag(tmp_path, capsys):
    weird = tmp_path / "dihedral:3"
    os.makedirs(tmp_path, exist_ok=True)
    weird.write_text("rack 1\n0\n")
    code, out, _ = run(capsys, "check", str(weird), "--file")
    assert code == 0
    assert "order 1" in out


def test_malformed_builtin_rack_specs_exit_2(capsys):
    for spec in ("dihedral:0", "trivial:0", "dihedral:-2"):
        code, _, err = run(capsys, "check", spec)
        assert code == 2, spec
        assert f"error: bad {spec.split(':')[0]} spec {spec!r}: " in err, spec
    code, _, err = run(capsys, "check", "alexander:0:1,1:1")
    assert code == 2
    assert "error: bad alexander spec 'alexander:0:1,1:1': modulus must be positive" in err
    code, _, _ = run(capsys, "color", "torus:3:0", "dihedral:3", "--count")
    assert code == 2


def readme_commands():
    """The ``quandlekit ...`` lines of the README "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("quandlekit ")]


def test_readme_commands_run(capsys):
    lines = readme_commands()
    assert lines
    for line in lines:
        code, out, _ = run(capsys, *shlex.split(line)[1:])
        assert code == 0, line
        assert sum(row.startswith("#data ") for row in out.splitlines()) == 1, line


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["color"])
    assert exc.value.code == 2


def test_bundled_path_resolves():
    path = bundled_path("theta_R3.cochain")
    assert os.path.exists(path)


def test_braid_file_and_inline_spec(tmp_path, capsys):
    braid_file = tmp_path / "tref.braid"
    braid_file.write_text("braid 2 1 1 1\n")
    code, out, _ = run(capsys, "color", str(braid_file), "dihedral:3", "--count")
    assert code == 0
    assert "colorings: 9" in out
    # comments and blank lines are fine, and letters may span lines
    braid_file.write_text("# trefoil\n\nbraid 2  # strands\n1 1\n\n1 # last\n")
    code, out, _ = run(capsys, "color", str(braid_file), "dihedral:3", "--count")
    assert code == 0
    assert "colorings: 9" in out
    code, out, _ = run(capsys, "color", "braid:2: 1 1 1", "dihedral:3", "--count")
    assert code == 0
    assert "colorings: 9" in out


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "quandlekit", "check", "dihedral:3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "kei (order 3, orbits 1)" in proc.stdout


def test_cli_import_loads_no_thread_pool():
    import subprocess
    import sys

    code = "import sys, quandlekit.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
