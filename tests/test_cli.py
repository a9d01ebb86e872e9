import os
import shlex
from pathlib import Path

import pytest

from quandlekit import cli
from quandlekit.cli import main
from quandlekit.diagram import BraidWord, braid_closure
from quandlekit.specs import bundled_path, read_data_file, resolve_diagram, resolve_rack

from conftest import (
    brute_force_colorings, brute_force_sheets, brute_force_shadows, run_cli_guarded,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def payload(stdout):
    return [line for line in stdout.splitlines() if not line.startswith("#")]


# --- argument parsing ----------------------------------------------------------------


_PARSE_CASES = [
    ["--help"], [], ["bogus"], ["-x"],
    *([cmd, "--help"] for cmd in ("check", "color", "invariant", "homology", "cocycles")),
    *([cmd] for cmd in ("check", "color", "invariant", "homology", "cocycles")),
    ["check", "dihedral:3", "--bogus"],
    ["color", "trefoil.pd", "dihedral:3", "--bogus"],
    ["invariant", "trefoil.pd", "dihedral:3", "c.cochain", "--mode", "4"],
    ["homology", "dihedral:3", "--degree", "two"],
    ["homology", "dihedral:3", "--degree", "2", "--theory", "X"],
    ["cocycles", "dihedral:3", "--degree", "2", "--mod", "3", "extra"],
]


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=" ".join)
def test_main_parses_as_the_full_parser(capsys, argv):
    # main builds only the named subcommand's parser; help, usage errors and
    # their exit codes are those of the parser with every subcommand.
    with pytest.raises(SystemExit) as full:
        cli._build_parser().parse_args(argv)
    want = capsys.readouterr()
    with pytest.raises(SystemExit) as got:
        main(argv)
    assert (got.value.code, capsys.readouterr()) == (full.value.code, want)


def test_main_builds_only_the_named_subparser(monkeypatch, capsys):
    import argparse

    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert run(capsys, "check", "dihedral:3")[0] == 0
    assert built == ["check"]
    with pytest.raises(SystemExit):
        main(["bogus"])
    assert built == ["check", "check", "color", "invariant", "homology", "cocycles"]


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


def test_builtin_specs_skip_the_axiom_check(tmp_path, capsys, monkeypatch):
    # The builtins are quandles by construction; only a table file is checked.
    from quandlekit import algebra

    checked = []

    def refuse(table):
        checked.append(len(table))
        raise AssertionError("check_axioms called")

    monkeypatch.setattr(algebra, "check_axioms", refuse)
    phi_s4 = tmp_path / "phi_S4.cochain"
    phi_s4.write_text(_GOLDEN_FILES["phi_S4"])
    for argv, line in [
        (["check", "dihedral:300"], "#data class kei 300 2"),
        (["check", "trivial:5"], "#data class kei 5 5"),
        (["check", "alexander:2:1,1,1:0,1"], "#data class quandle 4 1"),
        (["color", "trefoil.pd", "dihedral:258", "--count"], "#data colorings 774"),
        (["color", "torus:3:4", "alexander:3:1,0,0,1:2", "--count"], "#data colorings 729"),
        (["invariant", "trefoil.pd", "dihedral:3", "theta_R3.cochain"], None),
        (["invariant", "trefoil.pd", "alexander:2:1,1,1:0,1", str(phi_s4)], None),
    ]:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert line is None or line in out.splitlines(), (argv, out)
    assert checked == []
    table = tmp_path / "r3.rack"
    table.write_text("rack 3\n0 2 1\n2 1 0\n1 0 2\n")
    with pytest.raises(AssertionError, match="check_axioms called"):
        main(["check", str(table)])
    assert checked == [3]


def test_check_of_a_large_dihedral_kei_is_linear():
    proc = run_cli_guarded("check", "dihedral:300", cpu_s=1)
    assert proc.returncode == 0
    assert "#data class kei 300 2" in proc.stdout.splitlines()


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "does-not-exist.txt")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
@pytest.mark.parametrize("argv", [
    ("check", "{spec}"),
    ("color", "trefoil.pd", "{spec}"),
    ("color", "{spec}", "dihedral:3"),
    ("invariant", "torus:3:6", "dihedral:3", "{spec}"),
    ("cocycles", "dihedral:3", "--degree", "3", "--mod", "3", "--verify", "{spec}"),
])
def test_unreadable_spec_path_is_a_parse_error(tmp_path, capsys, argv, kind):
    """Rack, diagram, cochain and --verify paths that cannot be read as text."""
    spec = tmp_path
    if kind == "not UTF-8":
        spec = tmp_path / "spec.txt"
        spec.write_bytes(b"\xffrack 3\n")
    args = [a.format(spec=spec) for a in argv]
    code, out, err = run(capsys, *args)
    assert code == 2
    assert "error: " in err and str(spec) in err
    assert payload(out) == []
    # Only regular files are digested.
    assert (f"# input {spec} sha256:" in out) == (kind == "not UTF-8")


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

    listing = coloring.enumerate_shadow_colorings
    names = ("enumerate_colorings", "enumerate_shadow_colorings", "enumerate_surface_colorings",
             "Coloring", "ShadowColoring", "SurfaceColoring")
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
        # coloring._listing formats arc and sheet rows straight from the
        # search, shadow rows from the region core's table that
        # enumerate_shadow_colorings keeps: no coloring objects.
        with monkeypatch.context() as m:
            m.setattr(coloring, "enumerate_shadow_colorings", listing)
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
        # Torus specs resolve to their braid word; the oracles need its closure.
        target, X = resolve_diagram(diagram), resolve_rack(rack)
        if isinstance(target, BraidWord):
            target = braid_closure(target)
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


def test_color_list_streams_its_rows(capsys):
    """A listing formats each row as it is written; it builds no list of rows.

    In process, under tracemalloc, with stdout in a StringIO, the 20 736
    shadow rows of T(3,6) by R12 (1.3 MB of stdout) peak at about 3.3 MB; a
    list of every row string took the peak to about 5.5 MB.
    """
    import contextlib
    import io
    import tracemalloc

    run(capsys, "color", "trefoil.pd", "dihedral:3", "--shadow", "--list")  # warm caches
    with contextlib.redirect_stdout(io.StringIO()) as sink:
        tracemalloc.start()
        try:
            code = main(["color", "torus:3:6", "dihedral:12", "--shadow", "--list"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    out = sink.getvalue()
    assert code == 0
    assert "#data shadow-colorings 20736" in out and "\n20735: " in out
    assert peak < 4.5e6, peak


def test_color_list_keeps_only_the_root_fibers(capsys):
    """An arc listing keeps one fiber per orbit root, never its rows.

    In process, under tracemalloc, with stdout sent to a sink that discards
    what it gets, the 91 125 rows of T(3,6) by R45 (one orbit, so one kept
    fiber of 2 025 words) peak at about 0.4 MB; keeping every word for the
    count line took the peak to about 6.5 MB.
    """
    import contextlib
    import io
    import tracemalloc

    class Sink(io.TextIOBase):
        def __init__(self):
            self.rows, self.data = 0, []

        def write(self, text):
            self.rows += text[:1].isdigit()
            if text.startswith("#data"):
                self.data.append(text)
            return len(text)

    run(capsys, "color", "trefoil.pd", "dihedral:3", "--list")  # warm caches
    with contextlib.redirect_stdout(Sink()) as sink:
        tracemalloc.start()
        try:
            code = main(["color", "torus:3:6", "dihedral:45", "--list"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert sink.data == ["#data colorings 91125"] and sink.rows == 91125
    assert peak < 1.5e6, peak


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
    # The way out is named as the command line spells it, not as the library does.
    assert err.startswith("error: cochain fails the quandle cocycle condition (")
    assert "; pass --unsafe-no-cocycle-check to compute a non-invariant\n" in err
    assert "check=False" not in err
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


def test_invariant_cochain_degree_must_match_the_mode(tmp_path, capsys):
    phi = tmp_path / "phi.cochain"
    phi.write_text("cochain 2 3\n")
    for args, message in (
        ((str(phi), "--mode", "shadow"), "mode shadow needs a degree-3 cochain"),
        (("theta_R3.cochain", "--mode", "2"), "mode 2 needs a degree-2 cochain"),
    ):
        code, out, err = run(capsys, "invariant", "trefoil.pd", "dihedral:3", *args)
        assert code == 2, args
        assert f"error: {message}, but the cochain has degree" in err, args
        assert "#data invariant" not in out, args


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


def test_homology_names_the_alexander_quandle(capsys):
    # The label is the normalised spec: quotient made monic, T as t mod it.
    cases = [("alexander:3:1,0,1:2", "H_2^Q(alexander:3:1,0,1:2) = Z_3"),
             ("alexander:3:1,0,1:1,1", "H_2^Q(alexander:3:1,0,1:1,1) = 0"),
             ("alexander:3:-2,1:2", "H_2^Q(alexander:3:1,1:2) = 0")]
    for spec, line in cases:
        code, out, _ = run(capsys, "homology", spec, "--degree", "2", "--theory", "Q")
        assert (code, payload(out)) == (0, [line]), spec


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


@pytest.mark.parametrize("argv", [
    ["homology", "dihedral:3", "--degree", "9013"],
    ["homology", "dihedral:3", "--degree", "9013", "--mod", "6"],
    ["homology", "dihedral:3", "--degree", "5000"],
    ["cocycles", "dihedral:3", "--degree", "9013", "--mod", "3"],
    ["cocycles", "dihedral:3", "--degree", "30000000", "--mod", "3"],
], ids=" ".join)
def test_huge_degree_is_refused_by_name(argv):
    # The budget compares without forming |X|^n, and names the size as a power.
    proc = run_cli_guarded(*argv, cpu_s=3)
    assert proc.returncode == 3
    assert f"error: chain basis of size 3^{argv[3]} exceeds the budget" in proc.stderr
    assert len(proc.stderr) < 200


def test_huge_degree_verify_is_refused(tmp_path):
    path = tmp_path / "big.cochain"
    path.write_text("cochain 9013 3\n")
    proc = run_cli_guarded("cocycles", "dihedral:3", "--degree", "9013", "--mod", "3",
                           "--verify", str(path), cpu_s=3)
    assert proc.returncode == 3


def test_one_element_quandle_answers_at_degree_100():
    # C_100 of trivial:1 counts 100^2 budget units, the work of its boundary.
    proc = run_cli_guarded("homology", "trivial:1", "--degree", "100", cpu_s=3)
    assert proc.returncode == 0
    assert "#data homology 0" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["homology", "trivial:1", "--degree", "8000", "--theory", "R"],
    ["homology", "trivial:1", "--degree", "8000", "--theory", "D"],
    ["cocycles", "trivial:1", "--degree", "8000", "--mod", "2"],
], ids=" ".join)
def test_one_element_quandle_is_counted_by_boundary_work(argv):
    # One 8000-tuple, but its boundary builds 2 x 7999 tuples of length 7999.
    proc = run_cli_guarded(*argv, cpu_s=1)
    assert proc.returncode in (0, 3)


@pytest.mark.parametrize("command", ["homology", "cocycles"])
def test_large_prime_modulus_answers(capsys, command):
    # 2^61 - 1 is prime; it divides no torsion of R3, so it reads as Z_5 does.
    p = 2**61 - 1
    proc = run_cli_guarded(command, "dihedral:3", "--degree", "2", "--mod", str(p), cpu_s=3)
    assert proc.returncode == 0
    code, out, _ = run(capsys, command, "dihedral:3", "--degree", "2", "--mod", "5")
    assert code == 0
    data = [line.replace(" 5 ", f" {p} ") for line in out.splitlines() if line.startswith("#data")]
    assert [line for line in proc.stdout.splitlines() if line.startswith("#data")] == data


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


def test_cochain_with_a_repeated_tuple_is_a_parse_error(tmp_path, capsys):
    # A repeated tuple was once read as its last value, so this file verified
    # as the cochain with (0, 1, 2) -> 2; each tuple may appear at most once.
    dup = tmp_path / "dup.cochain"
    dup.write_text("cochain 3 3\n0 1 2 1\n0 1 2 2\n")
    for argv in (("cocycles", "dihedral:3", "--degree", "3", "--mod", "3", "--verify"),
                 ("invariant", "trefoil.pd", "dihedral:3")):
        code, out, err = run(capsys, *argv, str(dup))
        assert code == 2, argv
        assert "error: cochain line '0 1 2 2' repeats the tuple (0, 1, 2)" in err, argv
        assert "#data" not in out, argv


def test_cocycles_dimensions(capsys):
    code, out, _ = run(capsys, "cocycles", "dihedral:3", "--degree", "2", "--mod", "3")
    assert code == 0
    assert "cocycles: dimension" in out
    code, out, _ = run(capsys, "cocycles", "trivial:2", "--degree", "2", "--mod", "4")
    assert code == 0
    assert "composite" in out


@pytest.mark.parametrize(
    "rack, degree, mod, data",
    [
        ("dihedral:3", 3, 6, "5 6"),
        ("dihedral:3", 4, 6, "9 12"),
        ("alexander:2:1,1,1:0,1", 3, 4, "11 12"),
        ("dihedral:5", 3, 10, "17 20"),
        ("dihedral:4", 3, 4, "14 12"),
        ("trivial:2", 2, 4, "2 0"),
        # Its cocycles took over 77 s on a dense Smith form of [delta | 6I].
        ("dihedral:5", 4, 6, "64 80"),
    ],
)
def test_cocycles_composite_modulus_counts(capsys, rack, degree, mod, data):
    # A composite modulus lists the fewest cocycle generators.
    code, out, _ = run(capsys, "cocycles", rack, "--degree", str(degree), "--mod", str(mod))
    assert code == 0
    assert f"#data cocycles {data}" in out.splitlines()


def test_cocycles_degree_mismatch(tmp_path, capsys):
    code, _, err = run(
        capsys, "cocycles", "dihedral:3", "--degree", "2", "--mod", "3",
        "--verify", "theta_R3.cochain",
    )
    assert code == 2


@pytest.mark.parametrize("header, message", [
    ("cochain 0 3", "cochain degree must be at least 1"),
    ("cochain -1 3", "cochain degree must be at least 1"),
    ("cochain 2 0", "cochain modulus must be at least 1"),
    ("cochain 3 -3", "cochain modulus must be at least 1"),
    ("cochain x 3", "non-integer degree/modulus in cochain header"),
])
def test_cochain_header_values_are_parse_errors(tmp_path, capsys, header, message):
    phi = tmp_path / "phi.cochain"
    phi.write_text(header + "\n")
    for argv in (("invariant", "trefoil.pd", "dihedral:3", str(phi)),
                 ("cocycles", "dihedral:3", "--degree", "3", "--mod", "3",
                  "--verify", str(phi))):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert f"error: {message}" in err, argv
        assert "#data" not in out, argv


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


@pytest.mark.parametrize("argv, code, message", [
    (("torus:4:3",), 2, "bad torus spec 'torus:4:3': only T(2, q) and T(3, q) are generated here"),
    (("torus:3:0",), 2, "bad torus spec 'torus:3:0': q must be nonzero"),
    (("braid:2:",), 2, "closure of an empty braid on several strands is split"),
    (("braid:3: 1 -1",), 2, "some strands never cross the others"),
    (("--braid", "3: 2 2"), 2, "some strands never cross the others"),
    (("braid:2: 3",), 2, "generator index 3 out of range 1..1"),
    (("braid:0:",), 2, "a braid needs at least one strand"),
    (("--braid", "2: 3"), 2, "generator index 3 out of range 1..1"),
    (("{split_braid}",), 2, "some strands never cross the others"),
])
def test_closure_spec_errors_come_before_any_output(tmp_path, capsys, argv, code, message):
    """A torus or braid spec that has no connected closure fails as it resolves.

    A split closure is malformed input (exit 2), from a spec, --braid or a
    braid file alike, as a split PD file is.
    """
    (tmp_path / "split.braid").write_text("braid 3 1 1 1\n")
    argv = tuple(a.format(split_braid=tmp_path / "split.braid") for a in argv)
    runs = [("invariant", *argv, "dihedral:3", "theta_R3.cochain")]
    if argv[0] != "--braid":
        runs.append(("color", *argv, "trefoil.pd", "--count"))  # the rack is never read
    for args in runs:
        got, out, err = run(capsys, *args)
        assert got == code, args
        assert f"error: {message}" in err, args
        headers = [line for line in out.splitlines() if not line.startswith("# input ")]
        assert headers == ["# quandlekit " + " ".join(args)], args


def test_torus_million_shadow_sum_within_one_cpu_second(capsys):
    import time

    started = time.process_time()
    code, out, _ = run(capsys, "invariant", "torus:3:1000000", "dihedral:3",
                       "theta_R3.cochain", "--mode", "shadow")
    assert time.process_time() - started < 1.0
    assert code == 0
    assert payload(out) == ["9 + 18t^2"]


def test_braid_specs_take_the_engine_by_the_path_rule(monkeypatch, capsys):
    """Small state spaces skip the closure and the search; large ones keep both."""
    from quandlekit import coloring, diagram, invariant, specs

    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    spied = (("braid_closure", diagram), ("_searcher", coloring),
             ("_transported", coloring))
    for name, owner in spied:
        wrapped = spy(name, getattr(owner, name))
        for module in (cli, coloring, diagram, invariant, specs):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    code, out, _ = run(capsys, "invariant", "torus:3:1000", "dihedral:3", "theta_R3.cochain")
    assert code == 0 and payload(out) == ["9 + 18t^2"]
    # The rule reads input sizes only, not the chain-basis budget.
    monkeypatch.setenv("QUANDLEKIT_BUDGET", "not-a-number")
    code, out, _ = run(capsys, "color", "torus:3:30", "dihedral:3", "--shadow", "--count")
    assert code == 0 and payload(out) == ["shadow-colorings: 81"]
    monkeypatch.delenv("QUANDLEKIT_BUDGET")
    # 30^3 = 27000 states, over the default budget, against 30 x 904 crossings.
    code, out, _ = run(capsys, "color", "torus:3:452", "dihedral:30", "--count")
    assert code == 0 and payload(out) == ["colorings: 90"]
    # A shadow count by a quandle is |X| times the arc count, so it is ruled
    # on the arc states: 27^3 against 27 x 2000 crossings.
    code, out, _ = run(capsys, "color", "torus:3:1000", "alexander:3:1,0,0,1:2",
                       "--shadow", "--count")
    assert code == 0 and payload(out) == ["shadow-colorings: 19683"]
    assert calls == []
    # 27^3 states against 27 x 8 crossings: the closure and the search.
    code, out, _ = run(capsys, "color", "torus:3:4", "alexander:3:1,0,0,1:2", "--count")
    assert code == 0 and payload(out) == ["colorings: 729"]
    assert calls[0] == "braid_closure" and "_searcher" in calls
    # Listings and surjective counts never take the engine: a listing reads
    # the search's ordered stream as words.
    for flag, search in (("--list", "_transported"), ("--surjective", "_searcher")):
        calls.clear()
        code, _, _ = run(capsys, "color", "torus:3:6", "dihedral:3", flag)
        assert code == 0
        assert calls[0] == "braid_closure" and search in calls, flag


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
    # a generator out of range is malformed input
    braid_file.write_text("braid 2 3\n")
    code, _, err = run(capsys, "color", str(braid_file), "dihedral:3", "--count")
    assert code == 2
    assert "error: generator index 3 out of range 1..1" in err


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


def test_cli_import_loads_no_dataclasses_inspect_or_hashlib():
    # The records generate no code (dataclasses would load inspect too) and
    # the "# input" digest imports hashlib where it is written.  A module
    # the interpreter's own start-up loaded does not count.
    import subprocess
    import sys

    code = (
        "import sys; heavy = ('dataclasses', 'inspect', 'hashlib'); "
        "before = {m for m in heavy if m in sys.modules}; import quandlekit.cli; "
        "print(sorted(m for m in heavy if m in sys.modules and m not in before))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# --- golden stdout of the count and sum paths --------------------------------------

_GOLDEN_FILES = {
    "phi_S4": "cochain 2 2\n0 1 1\n0 2 1\n1 0 1\n1 2 1\n2 0 1\n2 1 1\n",  # not a coboundary
    "chi": "cochain 3 3\n0 1 2 1\n",  # not a cocycle
    "bad2": "cochain 2 3\n0 1 1\n2 2 1\n",  # not a cocycle
    "cycle": "rack 3\n1 1 1\n2 2 2\n0 0 0\n",  # a rack, not a quandle
}
_GOLDEN_RACKS = {"S4": "alexander:2:1,1,1:0,1", "A9": "alexander:3:1,0,1:2",
                 "A27": "alexander:3:1,0,0,1:2"}


@pytest.mark.parametrize("command, code, digest", [
    # Counts: braid specs on the engine and on the search, pd files.
    ("color torus:3:30 dihedral:3 --count", 0, "8cf7bae238cdccaf"),
    ("color torus:2:7 dihedral:7", 0, "df175e213c2897b5"),
    ('color "braid:3: 1 -2 1 -2" dihedral:5 --count', 0, "3fca74d74273791e"),
    ("color trefoil.pd dihedral:3 --count", 0, "35547a9a0b69804b"),
    ("color torus:3:4 {A27} --count", 0, "a62bf66c6a0664e7"),
    ("color 7_4.pd dihedral:7 --count", 0, "977ac68e63c8cd8a"),
    # Shadow counts on both sides.
    ("color torus:3:30 dihedral:3 --shadow --count", 0, "c2bbdbac6721680c"),
    ("color torus:3:50 {A9} --shadow --count", 0, "e080555f0649f1b4"),
    ("color fig8.pd dihedral:5 --shadow --count", 0, "694dd8ea008db774"),
    ("color torus:3:4 {A27} --shadow --count", 0, "205833c408ae3858"),
    # Surjective counts, with and without --shadow.
    ("color trefoil.pd dihedral:3 --surjective", 0, "f7caf2aa733e12fb"),
    ("color torus:3:6 dihedral:3 --surjective", 0, "3e41178625a5da64"),
    ("color torus:2:5 dihedral:5 --shadow --surjective", 0, "1bfafd84ef44ec75"),
    ("color 7_4.pd dihedral:7 --shadow --surjective", 0, "4e3471a00a138773"),
    ("color torus:3:30 dihedral:3 --shadow --surjective", 0, "89f80976edf91011"),
    # Surface counts.
    ("color sphere.surf dihedral:3 --count", 0, "9a8f4046b3066162"),
    ("color trefoil_shadow.surf dihedral:3 --count", 0, "7b9b57666073c335"),
    ("color trefoil_shadow.surf dihedral:3 --surjective", 0, "ad671253c1e6a31a"),
    # Checked sums in modes 2, shadow and surface.
    ("invariant torus:2:3 {S4} {phi_S4}", 0, "727a74222892c81b"),
    ("invariant torus:2:5 {S4} {phi_S4} --mode 2", 0, "ba41835b638579b3"),
    ("invariant fig8.pd {S4} {phi_S4} --mode 2", 0, "727a74222892c81b"),
    ('invariant "braid:3: 1 -2 1 -2" {S4} {phi_S4}', 0, "727a74222892c81b"),
    ("invariant torus:3:1000 dihedral:3 theta_R3.cochain --mode shadow", 0, "922f896013ffeddb"),
    ("invariant torus:3:4 dihedral:3 theta_R3.cochain --mode shadow", 0, "922f896013ffeddb"),
    ("invariant 7_4.pd dihedral:3 theta_R3.cochain --mode shadow", 0, "9613972df9318c75"),
    ('invariant --braid "3: 1 -2 1 -2" dihedral:3 theta_R3.cochain', 0, "9ba774204e810d6f"),
    ("invariant trefoil_shadow.surf dihedral:3 theta_R3.cochain --mode surface", 0,
     "9613972df9318c75"),
    ("invariant sphere.surf dihedral:3 theta_R3.cochain", 0, "2b5ccc64b9f5f37a"),
    # Unchecked sums of non-cocycles, and the refused check.
    ("invariant trefoil.pd dihedral:3 {chi} --mode shadow --unsafe-no-cocycle-check", 0,
     "c296d77493633fd1"),
    ("invariant torus:3:2 dihedral:3 {chi} --mode shadow --unsafe-no-cocycle-check", 0,
     "516d994177fa421b"),
    ("invariant torus:3:2 dihedral:3 {bad2} --unsafe-no-cocycle-check", 0, "7f57f932bf285874"),
    ("invariant torus:2:5 dihedral:3 {bad2} --unsafe-no-cocycle-check", 0, "0e489ee4f5d6e0ce"),
    ("invariant trefoil_shadow.surf dihedral:3 {chi} --unsafe-no-cocycle-check", 0,
     "c296d77493633fd1"),
    ("invariant torus:2:5 dihedral:3 {bad2}", 1, "e3b0c44298fc1c14"),
    # A rack that is not a quandle.
    ("color torus:2:3 {cycle} --count", 0, "e8db68867e038a4d"),
    ("color trefoil.pd {cycle} --count", 0, "e8db68867e038a4d"),
    ("color torus:2:3 {cycle} --surjective", 0, "e8db68867e038a4d"),
    ("color torus:2:3 {cycle} --shadow --count", 1, "e3b0c44298fc1c14"),
    ("invariant torus:2:3 {cycle} {bad2} --unsafe-no-cocycle-check", 0, "3138ba66fba0a86b"),
    ("invariant trefoil.pd {cycle} {bad2} --unsafe-no-cocycle-check", 0, "3138ba66fba0a86b"),
    # Listings.
    ("color torus:3:6 dihedral:3 --list --surjective", 0, "92bae781e629f3e2"),
    ("color torus:2:3 dihedral:3 --shadow --list", 0, "fbf855aae8e318fe"),
    ("color trefoil.pd {A27} --shadow --list", 0, "38dd4ed3e848329a"),
    ("color torus:3:12 {A9} --shadow --list --surjective", 0, "4e3471a00a138773"),
    # Transported listings: one orbit, two orbits, colors past ASCII, sheets.
    ("color 7_4.pd {A27} --list", 0, "22e1c7f61294f72a"),
    ("color trefoil.pd dihedral:4 --list", 0, "abfcd40ac405e884"),
    ("color trefoil.pd dihedral:129 --list", 0, "598e1ab337736f52"),
    ("color trefoil_shadow.surf dihedral:3 --list", 0, "ed3a83f0632c6f39"),
    # More than 256 colors.
    ("color trefoil.pd dihedral:258 --list", 0, "54a70ec177ff854f"),
    # Listings from several root fibers, and --surjective on the root fibers.
    ("color torus:3:6 trivial:4 --list", 0, "087738c37dc6f2b4"),
    ("color torus:3:6 trivial:3 --list --surjective", 0, "db1da5fa7eb92dad"),
    ("color torus:3:6 dihedral:4 --list --surjective", 0, "23be7fd3ecc043d2"),
    ("color torus:3:6 dihedral:24 --list --surjective", 0, "45b9a0b47d5d7fa7"),
    ("color torus:2:3 {cycle} --list", 0, "f084b79856cd36b4"),
    ("color trefoil_shadow.surf trivial:3 --list", 0, "93915aef623f0f4c"),
    ("color trefoil_shadow.surf dihedral:4 --list --surjective", 0, "41bd9ae14aa3677a"),
    ("color trefoil_shadow.surf dihedral:6 --list --surjective", 0, "1b4e19d8a2e2fb12"),
])
def test_count_and_sum_stdout_is_golden(tmp_path, capsys, command, code, digest):
    """Exit code and stdout of count and sum commands, whichever path they take.

    digest is the first 16 hex digits of the sha256 of stdout without its
    '# ' header lines (they name the temporary input files).
    """
    import hashlib

    paths = {}
    for name, text in _GOLDEN_FILES.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    argv = shlex.split(command.format(**_GOLDEN_RACKS, **paths))
    got, out, _ = run(capsys, *argv)
    body = "".join(line for line in out.splitlines(True) if not line.startswith("# "))
    assert (got, hashlib.sha256(body.encode()).hexdigest()[:16]) == (code, digest)
