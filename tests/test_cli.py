"""End-to-end command line checks, run in process through main(), except
where argument parsing itself must refuse, which runs a subprocess."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicox import acceptance, cli, oracles
from epicox.cli import main
from epicox.construction import build_C
from epicox.errors import FalsificationError
from epicox.graphs import all_labeled_graphs, find_epimorphism

PATH3_TEXT = "n 3 irreflexive\ne 0 1\ne 1 2\n"
EDGE_TEXT = "n 2 irreflexive\ne 0 1\n"
TWO_POINTS_TEXT = "n 2 irreflexive\n"
ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def path3_file(tmp_path):
    f = tmp_path / "path3.txt"
    f.write_text(PATH3_TEXT)
    return str(f)


@pytest.fixture
def edge_file(tmp_path):
    f = tmp_path / "edge.txt"
    f.write_text(EDGE_TEXT)
    return str(f)


def test_reduce_f_text(path3_file, capsys):
    assert main(["reduce-f", path3_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n 4 reflexive base 3")
    assert "e 0 2" in out  # the complement edge


def test_reduce_f_json(path3_file, capsys):
    assert main(["reduce-f", path3_file, "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["n"] == 4 and d["base"] == 3


def test_reduce_f_rejects_isolated(tmp_path):
    f = tmp_path / "iso.txt"
    f.write_text(TWO_POINTS_TEXT)
    assert main(["reduce-f", str(f)]) == 2


def test_reduce_f_output_file(path3_file, tmp_path):
    out = tmp_path / "out.json"
    assert main(["reduce-f", path3_file, "--json", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 4


@pytest.mark.parametrize("command", ["reduce-f", "k-graph"])
@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_unwritable_output_is_input_error(path3_file, tmp_path, capsys,
                                          command, target):
    out = tmp_path if target == "directory" else tmp_path / "no" / "out.txt"
    assert main([command, path3_file, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: cannot write {out}: ")


def test_json_graph_input(tmp_path, capsys):
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    assert main(["reduce-f", str(f)]) == 0
    assert "n 4" in capsys.readouterr().out


def test_missing_file_is_input_error(capsys):
    assert main(["reduce-f", "/no/such/file"]) == 2


def test_bad_json_is_input_error(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{broken")
    assert main(["reduce-f", str(f)]) == 2


@pytest.mark.parametrize("content", [
    "n 3 base x\n", "n 2\ne a b\n", '{"n": 2, "base": "x"}', '{"n": 1.5}',
    '{"n": 2, "edges": [[0, 0.5]]}'])
def test_malformed_integer_is_input_error(tmp_path, capsys, content):
    f = tmp_path / "graph"
    f.write_text(content)
    assert main(["reduce-f", str(f)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b'{"n": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # nested too deep
    b'{"n": ' + b"1" * 5000 + b"}",  # past Python's int-string digit limit
    b"\xff\xfen 2\ne 0 1\n",  # not UTF-8
], ids=["deep nesting", "long integer", "invalid utf-8"])
def test_unreadable_bytes_are_input_errors(tmp_path, capsys, content):
    f = tmp_path / "graph"
    f.write_bytes(content)
    assert main(["reduce-f", str(f)]) == 2
    assert capsys.readouterr().err.strip()


def test_non_boolean_reflexive_is_input_error(tmp_path, capsys):
    f = tmp_path / "graph.json"
    f.write_text('{"n": 2, "reflexive": "false"}')
    assert main(["reduce-f", str(f)]) == 2
    assert "reflexive" in capsys.readouterr().err


def test_pointed_input_rejected(tmp_path):
    f = tmp_path / "pointed.txt"
    f.write_text("n 3 base 2\ne 0 1\n")
    assert main(["reduce-f", str(f)]) == 2


# JSON values of every kind, and near-valid graphs weighted in so that some
# inputs get past the parser and the reduction
_json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12)
_small = st.integers(-1, 4)
_graph_dict = st.fixed_dictionaries(
    {"n": st.one_of(_small, _json_value)},
    optional={"edges": st.one_of(st.lists(st.lists(_small, min_size=2,
                                                   max_size=2), max_size=6),
                                 _json_value),
              "reflexive": st.one_of(st.just(False), _json_value),
              "base": st.one_of(st.none(), _json_value)})
_graph_text = st.builds(
    lambda n, edges: f"n {n}\n" + "".join(f"e {u} {v}\n" for u, v in edges),
    _small, st.lists(st.tuples(_small, _small), max_size=6))
_graph_tokens = st.lists(st.sampled_from(
    ["n", "e", "0", "1", "2", "3", "-1", "x", "1.5", "irreflexive",
     "reflexive", "base", "#", "\n"]), max_size=30).map(" ".join)
_graph_input = st.one_of(
    st.binary(max_size=200),
    st.one_of(st.text(max_size=200), _graph_tokens,
              _graph_text).map(str.encode),
    _graph_dict.map(lambda d: json.dumps(d).encode()))


@settings(max_examples=300, deadline=None)
@given(content=_graph_input)
def test_any_input_exits_cleanly(tmp_path_factory, content):
    """Any file exits 0 or 2 with no exception escaping, and 2 always
    comes with a message."""
    f = tmp_path_factory.mktemp("fuzz") / "graph"
    f.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["reduce-f", str(f)])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().strip()


def test_emit_presentation_text(edge_file, capsys):
    assert main(["emit-presentation", edge_file]) == 0
    out = capsys.readouterr().out
    assert "v0_1" in out and "v1_4" in out


def test_emit_presentation_json(edge_file, capsys):
    assert main(["emit-presentation", edge_file, "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert len(d["generators"]) == 8
    assert len(d["relators"]) == 25


def test_build_coxeter_text(edge_file, capsys):
    assert main(["build-coxeter", edge_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("rank 8")


def test_build_coxeter_json(edge_file, capsys):
    assert main(["build-coxeter", edge_file, "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["n"] == 8
    # 6 finite labels inside each block, 5 across for an adjacent pair
    assert len(d["labels"]) == 17


def test_ks_classes(edge_file, capsys):
    assert main(["ks-classes", edge_file]) == 0
    out = capsys.readouterr().out
    assert "class 0" in out and "class 1" in out


def test_ks_classes_json(edge_file, capsys):
    assert main(["ks-classes", edge_file, "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert len(d["classes"]) == 2
    assert d["classes"][0] == [["v0_1", "v0_2", "v0_3", "v0_4"]]


def test_k_graph_text(edge_file, capsys):
    assert main(["k-graph", edge_file, "--radius", "2"]) == 0
    out = capsys.readouterr().out
    assert "n 2 reflexive" in out
    assert "w 0 1:" in out


def test_k_graph_json(edge_file, capsys):
    assert main(["k-graph", edge_file, "--radius", "2", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["reflexive"] is True
    assert d["witnesses"]["0-1"][0] == ["v0_1", "v0_3"]


def test_verify_l4(capsys):
    assert main(["verify-l4"]) == 0
    out = capsys.readouterr().out
    assert "order 120" in out
    assert "simple True" in out


def test_sweep_ball_cap_exits_2(monkeypatch, capsys):
    # criterion 6 runs the sweep; k-graph answers from the certificate
    monkeypatch.setattr(oracles, "SWEEP_BALL_CAP", 1000)
    oracles._centralizer_core.cache_clear()
    assert main(["acceptance", "--criterion", "6"]) == 2
    assert "cap exceeded" in capsys.readouterr().err


def test_sweep_radius_ceiling_refused_before_the_ball(monkeypatch, tmp_path,
                                                      capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("ball built above the radius ceiling")

    f = tmp_path / "two.txt"
    f.write_text(TWO_POINTS_TEXT)
    monkeypatch.setattr(oracles, "ball_levels", unreachable)
    assert oracles.SWEEP_MAX_RADIUS == 8
    assert main(["k-graph", str(f), "--radius", "9"]) == 2
    assert "cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["k-graph", "n 1\n", "--radius", "9"],
    ["k-graph", "n 2\ne 0 1\n", "--radius", "9"],
    ["check-theorem", "--max-vertices", "1", "--radius", "9"]],
    ids=["one vertex", "edge", "check-theorem"])
def test_radius_ceiling_refused_for_any_input(monkeypatch, tmp_path, capsys,
                                              argv):
    """The radius is refused before any input is read, whatever the input;
    none of these has a non-adjacent pair, so no other check could refuse
    it."""
    def unreachable(*args, **kwargs):
        raise AssertionError("input read before the radius was checked")

    if argv[0] == "k-graph":
        f = tmp_path / "graph.txt"
        f.write_text(argv[1])
        argv = [argv[0], str(f), *argv[2:]]
    monkeypatch.setattr(cli, "_read_source", unreachable)
    monkeypatch.setattr(acceptance, "all_labeled_graphs", unreachable)
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "cap exceeded: sweep radius 9 is above the ceiling of 8\n")


@pytest.mark.parametrize("argv", [
    # complete graph: no pair needs the sweep, so nothing but argument
    # checking can refuse the radius
    ["k-graph", "GRAPH", "--radius", "-1"],
    ["check-theorem", "--max-vertices", "-1"]])
def test_negative_arguments_exit_2(tmp_path, argv):
    f = tmp_path / "edge.txt"
    f.write_text(EDGE_TEXT)
    argv = [str(f) if a == "GRAPH" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "epicox.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stderr and "Traceback" not in proc.stderr


def test_check_theorem_tiny(capsys):
    assert main(["check-theorem", "--max-vertices", "1", "--radius", "2"]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out


def test_check_theorem_fault_injection(capsys):
    rc = main(["check-theorem", "--max-vertices", "2", "--radius", "2",
               "--inject-fault"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "injected relator fault detected" in out
    assert "verdict: FAIL" in out


@pytest.mark.parametrize("vertices,counts", [
    (2, "graphs: 4\nordered pairs: 16\nepimorphisms: 17\n"),
    (3, "graphs: 12\nordered pairs: 144\nepimorphisms: 375\n"),
    (4, "graphs: 76\nordered pairs: 5776\nepimorphisms: 33535\n")])
def test_check_theorem_fault_caught_by_matrices(capsys, vertices, counts):
    """The one-shot matrix relator oracle catches the injected fault, and
    the whole output, counts, failing pair and verdict, is pinned."""
    rc = main(["check-theorem", "--max-vertices", str(vertices),
               "--radius", "2", "--inject-fault"])
    assert rc == 3
    assert capsys.readouterr().out == counts + (
        "pair 1 -> 1: injected relator fault detected (expected failure)\n"
        "verdict: FAIL\n")


def _first_epis(max_vertices):
    """The first base-preserving epimorphism of every ordered pair that has
    one, keyed by the pair's indices, and the pair count."""
    pointed = [build_C(g).pointed for g in all_labeled_graphs(max_vertices)]
    firsts = {}
    for i, p in enumerate(pointed):
        for j, q in enumerate(pointed):
            f = find_epimorphism(p, q)
            if f is not None:
                firsts[i, j] = f
    return firsts, len(pointed) ** 2


def _in_pair_order(messages):
    """A report's failures for messages keyed by (source, target)."""
    return [(i, j, message) for (i, j), message in sorted(messages.items())]


def test_check_theorem_catches_wrong_induced_map(monkeypatch, capsys):
    """Negative control: an induced map that sends class 0 to the base
    fails every pair whose target has a class, since an onto map hits
    class 0, on the pair's first epimorphism; check-theorem exits 3."""
    induced = acceptance.induced_k_map

    def class_0_to_base(source_system, target, phi):
        got = induced(source_system, target, phi)
        base = len(target.classes)
        return dataclasses.replace(
            got, image=tuple(base if x == 0 else x for x in got.image))

    monkeypatch.setattr(acceptance, "induced_k_map", class_0_to_base)
    report = acceptance.theorem_report(2)
    firsts, pairs = _first_epis(2)
    want = {}
    for (i, j), f in firsts.items():
        base = f.target_size - 1
        if base:
            wrong = tuple(base if x == 0 else x for x in f.image)
            want[i, j] = f"induced map {wrong}, expected {f.image}"
    assert report.pair_count == pairs and want
    assert report.failures == _in_pair_order(want)
    assert main(["check-theorem", "--max-vertices", "2"]) == 3
    assert capsys.readouterr().out.endswith("".join(
        f"pair {i} -> {j}: {message}\n"
        for (i, j), message in sorted(want.items())) + "verdict: FAIL\n")


def test_check_theorem_checks_the_induced_map_on_every_pair(monkeypatch):
    """Negative control for the first-epimorphism rule, which alone makes
    every pair check its induced map: with the map wrong (class 0 sent to
    the base) only out of the last source, the triangle, each of its three
    pairs into a target with a class fails on its first epimorphism, the
    only one of the pair that is examined.  Every other pair passes."""
    induced = acceptance.induced_k_map
    graphs = all_labeled_graphs(3)
    triangle = len(graphs) - 1

    def wrong_out_of_triangle(source_system, target, phi):
        got = induced(source_system, target, phi)
        if source_system.graph != graphs[triangle]:
            return got
        base = len(target.classes)
        return dataclasses.replace(
            got, image=tuple(base if x == 0 else x for x in got.image))

    monkeypatch.setattr(acceptance, "induced_k_map", wrong_out_of_triangle)
    report = acceptance.theorem_report(3)
    firsts, pairs = _first_epis(3)
    want = {}
    for (i, j), f in firsts.items():
        base = f.target_size - 1
        if i == triangle and base:
            wrong = tuple(base if x == 0 else x for x in f.image)
            want[i, j] = f"induced map {wrong}, expected {f.image}"
    assert report.pair_count == pairs and len(want) == 3
    assert report.failures == _in_pair_order(want)


def test_check_theorem_catches_missed_generators(monkeypatch, capsys):
    """Negative control: a generator check that never passes fails every
    pair with an epimorphism, on its first one; check-theorem exits 3."""
    monkeypatch.setattr(acceptance, "is_onto_generators", lambda phi: False)
    report = acceptance.theorem_report(2)
    firsts, pairs = _first_epis(2)
    assert report.pair_count == pairs
    assert report.failures == _in_pair_order({
        pair: f"lift of onto map missed generators: {f.image}"
        for pair, f in firsts.items()})
    assert main(["check-theorem", "--max-vertices", "2"]) == 3
    assert capsys.readouterr().out.endswith("verdict: FAIL\n")


def test_fault_injection_checks_the_pairs_around_the_fault(monkeypatch):
    """Negative control: with the generator check never passing and the
    fault injected, every pair with an epimorphism still fails on its
    first one, before and after the pair that takes the fault (1 -> 1 at
    <= 2 vertices), which reports the fault instead."""
    monkeypatch.setattr(acceptance, "is_onto_generators", lambda phi: False)
    report = acceptance.theorem_report(2, inject_fault=True)
    firsts, _ = _first_epis(2)
    want = {pair: f"lift of onto map missed generators: {f.image}"
            for pair, f in firsts.items()}
    assert (0, 0) in want and (1, 0) in want
    want[1, 1] = "injected relator fault detected (expected failure)"
    assert report.failures == _in_pair_order(want)


def test_check_theorem_passes_at_four_vertices(capsys):
    """The whole check at <= 4 vertices, where no other tier-1 test runs
    the theorem."""
    assert main(["check-theorem", "--max-vertices", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("graphs: 76\nordered pairs: 5776\n"
                            "epimorphisms: 33535\nverdict: PASS\n")
    assert captured.err == ""


def test_check_theorem_refuses_a_fault_it_cannot_place(capsys):
    """Without a map that keeps a block, the injected fault is never placed,
    so the negative control is refused instead of passing vacuously."""
    assert main(["check-theorem", "--max-vertices", "0",
                 "--inject-fault"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") \
        and "fault could not be placed" in captured.err


def test_check_theorem_vertex_ceiling_refused_before_enumeration(
        monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("graphs enumerated above the ceiling")

    monkeypatch.setattr(acceptance, "all_labeled_graphs", unreachable)
    assert acceptance.THEOREM_MAX_VERTICES == 5
    assert main(["check-theorem", "--max-vertices", "6"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "ceiling of 5" in err
    # the ceiling itself is admitted
    with pytest.raises(AssertionError, match="enumerated"):
        acceptance.theorem_report(5)


def test_acceptance_single_criterion(capsys):
    assert main(["acceptance", "--criterion", "1"]) == 0
    out = capsys.readouterr().out
    assert "criterion 1" in out and "PASS" in out


def _falsified():
    raise FalsificationError("planted counterexample")


@pytest.mark.parametrize("criterion,code", [
    (_falsified, 3),
    # a plain failure exits 1 even when its detail mentions falsification
    (lambda: (False, "no falsification here"), 1)])
def test_acceptance_exit_code_follows_exception(monkeypatch, capsys,
                                                criterion, code):
    (number, name, _), *rest = acceptance.CRITERIA
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [(number, name, criterion), *rest])
    assert main(["acceptance", "--criterion", "1"]) == code
    assert "criterion 1 [one-block group structure]: FAIL" in \
        capsys.readouterr().out


def test_acceptance_options_do_not_carry_over(monkeypatch, capsys):
    """Each call starts from the table's defaults: a --criterion given to
    one call must not reach the next."""
    ran = []

    def stub(number):
        def criterion(*radius):  # criterion 6 alone is given the radius
            ran.append(number)
            return True, "stub"
        return criterion

    monkeypatch.setattr(acceptance, "CRITERIA", [
        (number, name, stub(number))
        for number, name, _ in acceptance.CRITERIA])
    assert main(["acceptance", "--criterion", "1"]) == 0
    assert ran == [1]
    assert main(["acceptance"]) == 0
    assert ran == [1] + [number for number, _, _ in acceptance.CRITERIA]
    assert len(ran) == 10
    capsys.readouterr()


def test_acceptance_unknown_criterion(capsys):
    assert main(["acceptance", "--criterion", "12"]) == 2


def test_stdin_input(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(PATH3_TEXT))
    assert main(["reduce-f", "-"]) == 0
    assert "n 4" in capsys.readouterr().out


# --- one subparser per command, read as the full parser --------------------


def _run_main(argv):
    """stdout, stderr and exit code of main(argv), argparse's exits
    included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def _parity_cases(graph):
    yield ["--help"]
    yield []
    yield ["bogus"]
    for command in cli._SUBCOMMANDS:
        yield [command, "--help"]
    yield ["k-graph"]
    yield ["reduce-f"]
    yield ["k-graph", graph, "--bogus"]
    yield ["check-theorem", "--bogus"]
    yield ["verify-l4", "extra"]
    yield ["k-graph", graph, "--radius", "99"]
    yield ["check-theorem", "--max-vertices", "1", "--radius", "99"]
    yield ["acceptance", "--criterion", "1", "--radius", "99"]


def test_command_parser_reads_as_the_full_parser(monkeypatch, tmp_path):
    """Help, usage, errors and exit codes of main are those of main with
    every subcommand built, on every case where the parser speaks."""
    f = tmp_path / "edge.txt"
    f.write_text(EDGE_TEXT)
    cases = list(_parity_cases(str(f)))
    got = [_run_main(argv) for argv in cases]
    full = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full)
    want = [_run_main(argv) for argv in cases]
    for argv, g, w in zip(cases, got, want):
        assert g == w, argv
    # the cases reach help, argparse's refusals and the radius check
    assert {code for _, _, code in got} == {0, 2}
    assert sum("invalid choice" in err for _, err, _ in got) == 1
    assert sum("unrecognized arguments" in err for _, err, _ in got) == 3
    assert sum("cap exceeded" in err for _, err, _ in got) == 3


@pytest.mark.parametrize("argv,builds", [
    (["k-graph", "GRAPH", "--bogus"], 2),
    (["check-theorem", "--max-vertices", "-1"], 2),
    (["--help"], 9),
    (["k-graph", "GRAPH"], 0),
    (["check-theorem", "--max-vertices", "1"], 0)])
def test_a_command_builds_only_its_own_subparser(monkeypatch, tmp_path,
                                                 argv, builds):
    """No parser for a well-formed command line; the top-level parser and
    one subparser when a command's line is refused; all eight for
    --help."""
    f = tmp_path / "edge.txt"
    f.write_text(EDGE_TEXT)
    argv = [str(f) if a == "GRAPH" else a for a in argv]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    _run_main(argv)
    assert len(built) == builds


def test_import_builds_no_parser(tmp_path):
    """Neither importing the command line nor a cold well-formed command
    imports argparse, or the gettext and locale modules it brings."""
    f = tmp_path / "edge.txt"
    f.write_text(EDGE_TEXT)
    code = ("import contextlib, io, json, sys\n"
            "def loaded():\n"
            "    return [m for m in ('argparse', 'gettext', 'locale')\n"
            "            if m in sys.modules]\n"
            "import epicox.cli\n"
            "seen = [loaded()]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = epicox.cli.main(argv)\n"
            "    seen.append((code, loaded()))\n"
            "print(seen)\n")
    commands = [["k-graph", str(f), "--json"],
                ["check-theorem", "--max-vertices", "1"]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[[], (0, []), (0, [])]\n")


# --- help and refusals, pinned as argparse wrote them before the table -----


_GOLDEN = json.loads((ROOT / "tests" / "cli_help_golden.json").read_text())


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != _GOLDEN["python"],
    reason="argparse's help layout differs between Python versions")
def test_help_and_refusals_read_as_pinned(monkeypatch):
    """stdout, stderr and exit code of --help, every <command> --help and
    four refusals, at 80 columns, as captured before the argument table
    existed (tests/cli_help_golden.json)."""
    monkeypatch.setenv("COLUMNS", "80")
    cases = _GOLDEN["cases"]
    assert [c["argv"] for c in cases[:len(cli._SUBCOMMANDS) + 1]] == [
        ["--help"], *([command, "--help"] for command in cli._SUBCOMMANDS)]
    for case in cases:
        assert _run_main(case["argv"]) == (
            case["stdout"], case["stderr"], case["code"]), case["argv"]


# --- the reader of well-formed command lines, against argparse --------------


_FULL_PARSER = cli.build_parser()


def _argparse_namespace(argv):
    """What the full argparse parser makes of argv; a refusal fails."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return _FULL_PARSER.parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses what the reader took: {argv}\n"
                        + err.getvalue())


def _readme_examples():
    """The argument lists of the README's command line examples."""
    text = (ROOT / "README.md").read_text()
    return [line.split("#")[0].split()[1:] for line in text.splitlines()
            if line.startswith("epicox ")]


_BENCH_ARGV = [["k-graph", "graph.txt", "--json", "--radius", "6"],
               ["check-theorem", "--max-vertices", "3", "--radius", "6"]]


def test_reader_takes_the_bench_and_readme_command_lines():
    """The reader answers the benchmark's two command lines and every
    README example itself, with argparse's namespace."""
    examples = _readme_examples()
    assert len(examples) == 11
    for argv in _BENCH_ARGV + examples:
        got = cli._read_args(argv)
        assert got is not None, argv
        assert vars(got) == vars(_argparse_namespace(argv)), argv


_FLAGS = sorted({flag for _, _, arguments in cli._SUBCOMMANDS.values()
                 for arg in arguments for flag in arg.flags
                 if flag.startswith("-")})
_ODD_TOKENS = ["-", "--", "-h", "--help", "--max-v", "--rad", "--radius=6",
               "-ox", "-o-", "", "x", "graph.txt", "--bogus", "k-graph"]
_NUMBERS = ["0", "6", "9", "007", "99", "-1", "+3", " 3", "3 ", "\u0663",
            "1_0", "1.5", "0x1", "9" * 5000]
_any_token = st.sampled_from(_FLAGS + _ODD_TOKENS + _NUMBERS)


def _piece(arg):
    """One well-formed use of an argument: a file name for a positional,
    the flag alone for a switch, else the flag and a value."""
    if not arg.flags[0].startswith("-"):
        return st.tuples(st.sampled_from(["graph.txt", "-", ""]))
    if arg.action == "store_true":
        return st.tuples(st.sampled_from(arg.flags))
    values = ["0", "6", "007"] if arg.type else ["out.txt", ""]
    return st.tuples(st.sampled_from(arg.flags), st.sampled_from(values))


_odd_piece = st.one_of(
    st.tuples(_any_token),
    st.tuples(st.sampled_from(_FLAGS),
              st.sampled_from(_NUMBERS + _ODD_TOKENS)))


def _command_line(command):
    """Argument lists for one command: its positionals, most often once
    each, and well-formed uses of its options with odd pieces mixed in,
    in any order."""
    arguments = cli._SUBCOMMANDS.get(command, ("", None, ()))[2]
    positionals = [_piece(arg) for arg in arguments
                   if not arg.flags[0].startswith("-")]
    options = [_piece(arg) for arg in arguments
               if arg.flags[0].startswith("-")]
    given = st.sampled_from([1, 1, 1, 0, 2]).flatmap(
        lambda k: st.tuples(*(positionals * k)))
    rest = st.lists(st.one_of(*options, *options, *options, _odd_piece)
                    if options else _odd_piece, max_size=4)
    return st.tuples(given, rest).flatmap(
        lambda parts: st.permutations([*parts[0], *parts[1]])).map(
        lambda pieces: [command, *(t for piece in pieces for t in piece)])


_argv = st.sampled_from([*cli._SUBCOMMANDS, "bogus", "-h"]).flatmap(
    _command_line)


@settings(max_examples=1500, deadline=None)
@given(argv=_argv)
def test_reader_matches_argparse(argv):
    """Whenever the reader takes a command line, argparse takes it too and
    sets the same attributes to the same values."""
    got = cli._read_args(argv)
    if got is not None:
        assert vars(got) == vars(_argparse_namespace(argv))


def test_reader_leaves_a_radius_past_the_digit_limit_to_argparse():
    """int() refuses 5,000 digits with a ValueError; the reader declines
    and argparse refuses the value, exit 2."""
    argv = ["k-graph", "graph.txt", "--radius", "9" * 5000]
    assert cli._read_args(argv) is None
    out, err, code = _run_main(argv)
    assert (out, code) == ("", 2)
    assert "argument --radius: invalid _nonnegative_int value" in err
