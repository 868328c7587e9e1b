"""Command line: parsing round trips, dispatch, exit codes, golden files."""

import os

import pytest

from qtilt import cli
from qtilt.cli import (Workspace, dispatch, parse_algebra_file,
                       parse_module_file, serialize_algebra, serialize_module)
from qtilt.errors import ParseError

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden")


def data(name):
    return os.path.join(DATA, name)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# --- parsing ------------------------------------------------------------------

def test_parse_kronecker_file():
    name, alg = parse_algebra_file(read(data("kronecker.alg")))
    assert name == "kron"
    assert alg.dim == 4
    assert len(alg.quiver.arrows) == 2


def test_parse_error_unknown_arrow_has_line():
    text = "algebra x\nfield Q\nvertices 1 2\narrow a : 2 -> 1\nrelation 1 b*a\n"
    with pytest.raises(ParseError) as err:
        parse_algebra_file(text)
    assert str(err.value).startswith("line 5: ")


def test_parse_error_short_relation_rejected():
    text = "algebra x\nfield Q\nvertices 1 2\narrow a : 2 -> 1\nrelation 1 a\n"
    with pytest.raises(ParseError):
        parse_algebra_file(text)


def test_algebra_round_trip():
    text = read(data("kronecker.alg"))
    name, alg = parse_algebra_file(text)
    canon = serialize_algebra(alg)
    name2, alg2 = parse_algebra_file(canon)
    assert serialize_algebra(alg2) == canon
    assert alg2.dim == alg.dim


def test_relation_round_trip_with_coefficients():
    text = ("algebra sq\nfield Q\nvertices 1 2 3 4\n"
            "arrow f : 4 -> 2\narrow g : 4 -> 3\n"
            "arrow p : 2 -> 1\narrow q : 3 -> 1\n"
            "relation 1 p*f + -3/2 q*g\n")
    name, alg = parse_algebra_file(text)
    canon = serialize_algebra(alg)
    _, alg2 = parse_algebra_file(canon)
    assert serialize_algebra(alg2) == canon
    assert alg2.dim == alg.dim == 9


def test_module_round_trip():
    ws = Workspace()
    _, alg = parse_algebra_file(read(data("kronecker.alg")))
    ws.add_algebra("kron", alg)
    name, over, rep = parse_module_file(read(data("p2_kron.mod")), ws)
    assert name == "p2" and over == "kron"
    assert rep.dim_vector() == (2, 1)
    out = serialize_module(rep, name, over)
    ws2 = Workspace()
    ws2.add_algebra("kron", alg)
    name2, _, rep2 = parse_module_file(out, ws2)
    assert rep2.dim_vector() == rep.dim_vector()
    assert all(rep2.mats[k] == rep.mats[k] for k in rep.mats)


def test_module_with_bad_shape_rejected():
    ws = Workspace()
    _, alg = parse_algebra_file(read(data("kronecker.alg")))
    ws.add_algebra("kron", alg)
    bad = "module m over kron\ndim 1=1 2=1\nmap a0 = [[1, 2]]\n"
    with pytest.raises(ParseError):
        parse_module_file(bad, ws)


# --- dispatch ------------------------------------------------------------------

def run(argv):
    return dispatch(argv)


def test_info_kronecker():
    code, text = run(["info", data("kronecker.alg")])
    assert code == 0
    assert "dimension 4" in text
    assert "gldim 1" in text


def test_unknown_command_exits_2():
    code, _ = run(["frobnicate"])
    assert code == 2


def test_missing_file_exits_2():
    code, text = run(["info", data("nope.alg")])
    assert code == 2
    assert text.startswith("error")


@pytest.mark.parametrize("exc", [AssertionError("broken invariant"),
                                 ZeroDivisionError("inverting zero")])
def test_internal_crash_exits_4(monkeypatch, exc):
    def crash(args, ws):
        raise exc
    monkeypatch.setattr(cli, "_cmd_info", crash)
    code, text = run(["info", data("kronecker.alg")])
    assert code == 4
    assert text == f"internal {type(exc).__name__}: {exc}\n"


def test_ext_command():
    code, text = run(["ext", data("kronecker.alg"), data("s2_kron.mod"),
                      data("s1_kron.mod"), "--p", "1"])
    assert code == 0
    assert "ext_dim 2" in text


def test_tau_finite_a2():
    code, text = run(["tau-finite", data("a2.alg"), "--n", "1"])
    assert code == 0
    assert "verdict tau_finite pass l=2" in text


def test_tau_finite_kron_undetermined():
    code, text = run(["tau-finite", data("kronecker.alg"), "--n", "1",
                      "--max-iter", "4"])
    assert code == 3
    assert "undetermined" in text


def test_tau_minus_writes_module(tmp_path):
    out = tmp_path / "p3.mod"
    code, text = run(["tau-minus", data("kronecker.alg"),
                      data("s1_kron.mod"), "--n", "1", "-o", str(out)])
    assert code == 0
    assert "dim_vector (3,2)" in text
    ws = Workspace()
    _, alg = parse_algebra_file(read(data("kronecker.alg")))
    ws.add_algebra("kron", alg)
    _, _, rep = parse_module_file(out.read_text(), ws)
    assert rep.dim_vector() == (3, 2)


def test_tensor_roundtrip_through_files(tmp_path):
    gamma = tmp_path / "gamma.alg"
    code, text = run(["tensor", data("kronecker.alg"), data("kronecker.alg"),
                      "-o", str(gamma)])
    assert code == 0
    assert "dimension 16" in text
    code, text = run(["info", str(gamma)])
    assert code == 0
    assert "dimension 16" in text
    assert "arrows 8" in text
    assert "relations 4" in text
    assert "gldim 2" in text


def test_apr_check_pass_and_fail():
    code, text = run(["apr-check", data("kronecker.alg"),
                      "--vertex", "1", "--n", "1"])
    assert code == 0
    assert "verdict full pass" in text
    code, text = run(["apr-check", data("kronecker.alg"),
                      "--vertex", "2", "--n", "1"])
    assert code == 1


def test_apr_tilt_present():
    code, text = run(["apr-tilt", data("kronecker.alg"),
                      "--vertex", "1", "--n", "1", "--present"])
    assert code == 0
    assert "summand 1 dim (3,2)" in text
    assert "summand 2 dim (2,1)" in text
    assert "presentation_vertices 2" in text
    assert "presentation_arrows 2" in text
    assert "presentation_relations 0" in text


def test_verify_tilting_command(tmp_path):
    tmod = tmp_path / "t.mod"
    code, _ = run(["apr-tilt", data("kronecker.alg"), "--vertex", "1",
                   "--n", "1", "-o", str(tmod)])
    assert code == 0
    code, text = run(["verify-tilting", data("kronecker.alg"), str(tmod),
                      "--m", "1"])
    assert code == 0
    assert "verdict tilting pass" in text


@pytest.mark.parametrize("pieces, m, code, want", [
    ("t1 P2 P2", 1, 0, "verdict pd pass pd=1 m=1\n"
     "verdict self_orthogonal pass Ext^1=0\n"
     "verdict coresolution pass length=2\nverdict tilting pass m=1\n"),
    ("S2 S1 S2", 1, 1, "verdict pd pass pd=1 m=1\n"
     "verdict self_orthogonal fail Ext^1=4\n"
     "verdict coresolution fail stage=0 approximation not injective\n"
     "verdict tilting fail m=1\n"),
    ("P1 P2 P1", 0, 0, "verdict pd pass pd=0 m=0\n"
     "verdict self_orthogonal pass none\n"
     "verdict coresolution pass length=1\nverdict tilting pass m=0\n")],
    ids=["apr-tilt", "not-tilting", "regular"])
def test_verify_tilting_on_a_repeated_summand(tmp_path, pieces, m, code,
                                              want):
    """A module with a repeated summand gives the lines it gave when
    verify_tilting decomposed the module itself: T is resolved as the sum
    of its summands with their multiplicities (Ext^1 of S1 + S2^2 is
    2 * 2), and the coresolution runs on the basic summands."""
    from qtilt.homengine import tau_n_minus
    from qtilt.repcore import direct_sum, proj, simple
    _, kron = parse_algebra_file(read(data("kronecker.alg")))
    make = {"t1": lambda: tau_n_minus(proj(kron, "1"), 1),
            "P1": lambda: proj(kron, "1"), "P2": lambda: proj(kron, "2"),
            "S1": lambda: simple(kron, "1"), "S2": lambda: simple(kron, "2")}
    tmod = tmp_path / "t.mod"
    tmod.write_text(serialize_module(
        direct_sum([make[p]() for p in pieces.split()]), "t"))
    assert run(["verify-tilting", data("kronecker.alg"), str(tmod),
                "--m", str(m)]) == (code, want)


def test_count_apr_command():
    code, text = run(["count-apr", data("kronecker.alg"), "--n", "1"])
    assert code == 0
    assert "count 1" in text
    assert "witness 1" in text


@pytest.mark.parametrize("n", ["0", "-3"])
def test_count_apr_rejects_n_below_one_without_a_simple_projective(
        tmp_path, n):
    """n is checked before the vertex loop: the loop algebra has no simple
    projective, and still exits 2 as Kronecker does."""
    loop = tmp_path / "loop.alg"
    loop.write_text("algebra loop\nfield Q\nvertices 1\n"
                    "arrow x : 1 -> 1\nrelation 1 x*x\n")
    for alg in (str(loop), data("kronecker.alg")):
        assert run(["count-apr", alg, "--n", n]) == (
            2, "error n must be at least 1\n")


def test_kunneth_command():
    code, text = run(["kunneth", data("kronecker.alg"), data("a2.alg"),
                      data("s2_kron.mod"), data("s1_kron.mod"),
                      data("s2_a2.mod"), data("s1_a2.mod"), "--pmax", "2"])
    assert code == 0
    assert "verdict kunneth_q2 pass" in text


def test_props_command():
    code, text = run(["props", data("kronecker.alg"), data("a2.alg"),
                      "--modules", "2"])
    assert code == 0
    assert "verdict radical_formula pass" in text
    assert "verdict gldim_additivity pass" in text


def test_resolve_command():
    code, text = run(["resolve", data("kronecker.alg"), data("s2_kron.mod")])
    assert code == 0
    assert "length 1" in text
    assert "terminated true" in text
    assert "term0 P(2)" in text
    assert "term1 P(1)+P(1)" in text


def test_cotilt_command():
    code, text = run(["cotilt-check", data("kronecker.alg"),
                      "--vertex", "2", "--n", "1"])
    assert code == 0
    assert "summand 2 dim (2,3)" in text


# --- determinism and golden transcripts ----------------------------------------

def test_output_deterministic():
    args = ["apr-tilt", data("kronecker.alg"), "--vertex", "1", "--n", "1",
            "--present"]
    assert run(args) == run(args)


def golden_check(name, argv):
    """Compare a command's output with its transcript; a missing
    transcript is a failure, never a fresh golden."""
    path = os.path.join(GOLDEN, name)
    assert os.path.exists(path), f"golden transcript {name} is missing"
    code, text = run(argv)
    assert read(path) == text
    return code


def kron_square_file(tmp_path):
    gamma = tmp_path / "gamma.alg"
    code, _ = run(["tensor", data("kronecker.alg"), data("kronecker.alg"),
                   "-o", str(gamma)])
    assert code == 0
    return str(gamma)


def test_golden_info_gamma(tmp_path):
    golden_check("info_gamma.txt", ["info", kron_square_file(tmp_path)])


def test_golden_apr_tilt_kron():
    golden_check("apr_tilt_kron.txt",
                 ["apr-tilt", data("kronecker.alg"), "--vertex", "1",
                  "--n", "1", "--present"])


def test_golden_apr_tilt_kron2(tmp_path):
    # the 2-APR tilt of the Kronecker square, with its presentation's
    # relations and their coefficients
    assert golden_check("apr_tilt_kron2.txt",
                        ["apr-tilt", kron_square_file(tmp_path), "--vertex",
                         "(1,1)", "--n", "2", "--present"]) == 0


def test_golden_resolve_and_tau_kron2(tmp_path):
    # matrices printed by tau and tau-minus on kron^2 (transcripts recorded
    # before free modules stopped carrying arrow matrices)
    module = tmp_path / "m.mod"
    assert run(["tensor-mod", data("kronecker.alg"), data("kronecker.alg"),
                data("i1_kron.mod"), data("s2_kron.mod"),
                "-o", str(module)])[0] == 0
    gamma = kron_square_file(tmp_path)
    assert golden_check("resolve_kron2.txt",
                        ["resolve", gamma, str(module)]) == 0
    tau = tmp_path / "tau_kron2.mod"
    back = tmp_path / "tau_minus_kron2.mod"
    assert run(["tau", gamma, str(module), "--n", "2", "-o", str(tau)]) == (
        0, f"n 2\ndim_vector (6,9,8,12)\nzero false\nwrote {tau}\n")
    assert read(str(tau)) == read(os.path.join(GOLDEN, "tau_kron2.mod"))
    assert run(["tau-minus", gamma, str(tau), "--n", "2",
                "-o", str(back)])[0] == 0
    assert read(str(back)) == read(os.path.join(GOLDEN,
                                                "tau_minus_kron2.mod"))


def test_golden_bb_tilt_kron2(tmp_path):
    # the 2-BB tilt at the simple (1,1), presented
    assert golden_check("bb_tilt_kron2.txt",
                        ["bb-tilt", kron_square_file(tmp_path), "--vertex",
                         "(1,1)", "--n", "2", "--present"]) == 0


def test_golden_cotilt_check_kron2(tmp_path):
    assert golden_check("cotilt_check_kron2.txt",
                        ["cotilt-check", kron_square_file(tmp_path),
                         "--vertex", "(2,2)", "--n", "2"]) == 0


def test_golden_count_apr_kron2(tmp_path):
    assert golden_check("count_apr_kron2.txt",
                        ["count-apr", kron_square_file(tmp_path),
                         "--n", "2"]) == 0


def test_one_ideal_closure_per_algebra(tmp_path, monkeypatch):
    """The tilt path closes an ideal once per algebra it builds: the parse
    of the input, and on `--present` the presentation; the opposites
    reverse the parsed algebra's span."""
    from qtilt import quivercore
    gamma = kron_square_file(tmp_path)
    made = []
    init = quivercore.IdealClosure.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(quivercore.IdealClosure, "__init__", counted)
    for argv, closures in [
            (["apr-tilt", gamma, "--vertex", "(1,1)", "--n", "2",
              "--present"], 2),
            (["count-apr", gamma, "--n", "2"], 1)]:
        made.clear()
        assert run(argv)[0] == 0
        assert len(made) == closures, argv[0]


@pytest.mark.parametrize("name,left,seed", [
    ("props_kron_a3nil_s3.txt", "kronecker.alg", "3"),
    ("props_a2_a3nil_s5.txt", "a2.alg", "5")])
def test_golden_props_with_relations(name, left, seed):
    # the a3nil factor has a relation, so its random modules are quotients
    # of projective sums; the module radical and top verdicts read them
    assert golden_check(name, ["props", data(left), data("a3nil.alg"),
                               "--seed", seed]) == 0


def test_golden_check_fails_on_missing_transcript():
    with pytest.raises(AssertionError, match="missing"):
        golden_check("no_such_transcript.txt", ["info", data("a2.alg")])
    assert not os.path.exists(os.path.join(GOLDEN, "no_such_transcript.txt"))


def test_prime_field_algebra_file_round_trip(tmp_path):
    text = "algebra k5\nfield F5\nvertices 1 2\narrow a : 2 -> 1\n"
    name, alg = parse_algebra_file(text)
    assert alg.field.char == 5
    assert serialize_algebra(alg).splitlines()[1] == "field F5"
    code, out = run(["info", str(_write(tmp_path, "k5.alg", text))])
    assert code == 0 and "field F5" in out


def test_field_override_flag(tmp_path):
    text = "algebra kq\nfield Q\nvertices 1 2\narrow a : 2 -> 1\n"
    path = _write(tmp_path, "kq.alg", text)
    code, out = run(["info", str(path), "--field", "F7"])
    assert code == 0 and "field F7" in out


def test_info_bad_field_flag_is_usage_error():
    for spec in ("F4", "F561", "Fx", "R"):
        code, out = run(["info", data("a2.alg"), "--field", spec])
        assert code == 2, (spec, out)
        assert out.startswith("error "), (spec, out)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_tensor_mod_command(tmp_path):
    out = tmp_path / "prod.mod"
    algout = tmp_path / "prod.alg"
    code, text = run(["tensor-mod", data("kronecker.alg"), data("a2.alg"),
                      data("p2_kron.mod"), data("s1_a2.mod"),
                      "-o", str(out), "--algebra-out", str(algout)])
    assert code == 0
    assert "total_dimension 3" in text
    code, text = run(["info", str(algout), str(out)])
    assert code == 0
    assert "dimension 12" in text


def test_repeated_module_file_is_loaded_once():
    """tensor-mod, ext and kunneth accept one module file in two argument
    places; tensor-mod then forms the tensor square."""
    code, text = run(["tensor-mod", data("kronecker.alg"),
                      data("kronecker.alg"), data("i1_kron.mod"),
                      data("i1_kron.mod")])
    assert code == 0
    dims = (1, 2)     # dim vector of i1_kron.mod
    outer = ",".join(str(a * b) for a in dims for b in dims)
    assert f"module_dim_vector ({outer})" in text
    assert "total_dimension 9" in text
    code, text = run(["ext", data("kronecker.alg"), data("s1_kron.mod"),
                      data("s1_kron.mod"), "--p", "0"])
    assert code == 0
    assert "ext_dim 1" in text
    code, text = run(["kunneth", data("kronecker.alg"), data("a2.alg"),
                      data("s2_kron.mod"), data("s2_kron.mod"),
                      data("s1_a2.mod"), data("s1_a2.mod"), "--pmax", "2"])
    assert code == 0
    assert text.count("verdict kunneth_q") == 3
    assert " fail " not in text


def test_present_endo_command(tmp_path):
    tmod = tmp_path / "t.mod"
    code, _ = run(["apr-tilt", data("kronecker.alg"), "--vertex", "1",
                   "--n", "1", "-o", str(tmod)])
    assert code == 0
    code, text = run(["present-endo", data("kronecker.alg"), str(tmod)])
    assert code == 0
    assert "endo_dimension 4" in text
    assert "presentation_vertices 2" in text
    assert "presentation_relations 0" in text


def test_present_endo_on_the_zero_module_is_an_input_error(tmp_path):
    """End(0) has no summand to present: a typed error, exit 2, not an
    internal crash."""
    zmod = tmp_path / "z.mod"
    zmod.write_text("module z over kron\ndim 1=0 2=0\n")
    code, text = run(["present-endo", data("kronecker.alg"), str(zmod)])
    assert code == 2
    assert text.startswith("error ") and "summand" in text


def test_workspace_duplicate_names_rejected():
    from qtilt.errors import WorkspaceError
    ws = Workspace()
    _, alg = parse_algebra_file(read(data("kronecker.alg")))
    ws.add_algebra("kron", alg)
    with pytest.raises(WorkspaceError):
        ws.add_algebra("kron", alg)


def test_info_repeated_file_is_loaded_once():
    """info prints a file's block at every naming of it, algebra and
    module files alike, and parses the file once."""
    code, alg_block = run(["info", data("kronecker.alg")])
    assert code == 0
    code, text = run(["info", data("kronecker.alg"), data("kronecker.alg")])
    assert (code, text) == (0, alg_block * 2)
    code, text = run(["info", data("kronecker.alg"), data("s1_kron.mod"),
                      data("s2_kron.mod"), data("s1_kron.mod")])
    assert code == 0
    s1 = "module s1 over kron\ndim_vector (1,0)\ntotal_dimension 1\n"
    s2 = "module s2 over kron\ndim_vector (0,1)\ntotal_dimension 1\n"
    assert text == alg_block + s1 + s2 + s1


def test_info_module_without_algebra_exits_2():
    code, text = run(["info", data("p2_kron.mod")])
    assert code == 2
    assert "not loaded" in text


def test_seed_default_read_at_each_dispatch(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_cmd_props",
                        lambda args, ws: seen.append(args.seed) or [])
    argv = ["props", data("kronecker.alg"), data("a2.alg")]
    monkeypatch.setenv("QTILT_SEED", "5")
    assert run(argv) == (0, "")
    monkeypatch.setenv("QTILT_SEED", "7")
    assert run(argv) == (0, "")
    assert run(argv + ["--seed", "3"]) == (0, "")
    monkeypatch.delenv("QTILT_SEED")
    assert run(argv) == (0, "")
    assert seen == [5, 7, 3, 0]
    monkeypatch.setenv("QTILT_SEED", "x")
    assert run(argv) == (2, "error QTILT_SEED is not an integer\n")
    assert len(seen) == 4


@pytest.mark.parametrize("argv", [
    ["apr-tilt", data("kronecker.alg"), "--vertex", "1", "--n", "1"],
    ["bb-tilt", data("kronecker.alg"), "--vertex", "1", "--n", "1"],
    ["verify-tilting", data("kronecker.alg"), data("p2_kron.mod"), "--m", "1"],
    ["present-endo", data("kronecker.alg"), data("p2_kron.mod")],
])
def test_tilting_commands_take_no_seed(argv):
    assert run(argv)[0] in (0, 1)
    assert run(argv + ["--seed", "1"]) == (2, "")


def test_props_seed_picks_only_the_random_modules():
    """Every verdict passes under seeds 0 and 5; the one line that differs
    is the detail naming the random modules' dimensions."""
    argv = ["props", data("kronecker.alg"), data("a2.alg")]
    (code0, text0), (code5, text5) = (run(argv + ["--seed", s])
                                      for s in ("0", "5"))
    assert code0 == code5 == 0
    differ = [(a, b) for a, b in zip(text0.splitlines(), text5.splitlines())
              if a != b]
    assert differ == [
        ("verdict dimension_additivity pass pd1+0,id1+1,pd1+0,id0+0",
         "verdict dimension_additivity pass pd1+1,id1+0,pd0+1,id1+0")]


CYCLE_ALG = ("algebra cyc\nfield Q\nvertices 1 2\narrow a : 1 -> 2\n"
             "arrow b : 2 -> 1\nrelation 1 a*b\n")
# the sum of the two (1,1) modules a = 1 and b = 1, which are not
# isomorphic and have one map each way
CYCLE_PAIR = ("module t over cyc\ndim 1=2 2=2\nmap a = [[1, 0], [0, 0]]\n"
              "map b = [[0, 0], [0, 1]]\n")


def test_isomorphism_past_its_budget_is_inconclusive(tmp_path, monkeypatch):
    """Decomposing T compares its two pieces on the isomorphism grid; with
    the grid's budget below its 5 points, verify-tilting exits 3."""
    from qtilt import repcore
    argv = ["verify-tilting", str(_write(tmp_path, "cyc.alg", CYCLE_ALG)),
            str(_write(tmp_path, "t.mod", CYCLE_PAIR)), "--m", "2"]
    assert run(argv)[0] == 1
    monkeypatch.setattr(repcore, "ISO_GRID_LIMIT", 4)
    assert run(argv) == (3, "inconclusive hom space dimension 1 exceeds the "
                            "exhaustive search budget\n")


@pytest.mark.parametrize("argv", [
    ["tau-finite", data("kronecker.alg"), "--n", "1", "--max-iter", "-2"],
    ["tau-finite", data("kronecker.alg"), "--n", "1", "--max-iter", "0"],
    ["gldim", data("kronecker.alg"), "--max-resolution", "-1"],
    ["resolve", data("kronecker.alg"), data("s1_kron.mod"),
     "--max-resolution", "-1"],
])
def test_non_positive_bounds_are_usage_errors(argv):
    code, text = run(argv)
    assert code == 2
    assert text.startswith("error ") and ">= " in text


def test_gldim_accepts_the_least_bound_it_needs():
    code, text = run(["gldim", data("kronecker.alg"), "--max-resolution", "1"])
    assert code == 0
    assert "gldim 1" in text


@pytest.mark.parametrize("argv, bound", [
    (["resolve", data("kronecker.alg"), data("s2_kron.mod")], "1"),
    (["ext", data("kronecker.alg"), data("s2_kron.mod"), data("s1_kron.mod"),
      "--p", "1"], "1"),
    (["tau", data("kronecker.alg"), data("s1_kron.mod"), "--n", "1"], "0"),
    (["tau-minus", data("kronecker.alg"), data("i1_kron.mod"), "--n", "1"],
     "0"),
])
def test_a_resolution_ending_at_the_bound_is_determined(argv, bound):
    """A resolution whose last term sits exactly at --max-resolution is
    terminated there: each command prints what it prints at the default
    bound and exits 0."""
    want = run(argv)
    assert want[0] == 0
    assert run(argv + ["--max-resolution", bound]) == want


def test_resolve_at_the_bound_prints_the_terminated_resolution():
    code, text = run(["resolve", data("kronecker.alg"), data("s2_kron.mod"),
                      "--max-resolution", "1"])
    assert (code, text) == (0, "length 1\nterminated true\nterm0 P(2)\n"
                               "term1 P(1)+P(1)\n")
    code, text = run(["resolve", data("kronecker.alg"), data("s2_kron.mod"),
                      "--max-resolution", "0"])
    assert code == 3
    assert text.endswith("verdict resolution undetermined bound=0\n")


K3_ALG ="algebra k3\nfield Q\nvertices 1 2 3\narrow a : 2 -> 1\n"


@pytest.mark.parametrize("dims, bad", [("1=0 2=0 3=-2", "-2"),
                                       ("1=0 2=-1", "-1")])
def test_negative_dimension_in_a_module_file_exits_2(tmp_path, dims, bad):
    """A negative entry on the dim line is a parse error at that line,
    whether its vertex carries arrows (2) or not (3)."""
    alg, mod = tmp_path / "k3.alg", tmp_path / "m.mod"
    alg.write_text(K3_ALG)
    mod.write_text(f"module m over k3\ndim {dims}\n")
    for argv in (["info", str(alg), str(mod)], ["resolve", str(alg), str(mod)],
                 ["tau", str(alg), str(mod), "--n", "1"],
                 ["ext", str(alg), str(mod), str(mod), "--p", "0"]):
        code, text = run(argv)
        assert code == 2, argv
        assert text == f"error line 2: bad dimension {bad}\n"


@pytest.mark.parametrize("argv", [
    ["kunneth", data("kronecker.alg"), data("a2.alg"), data("s2_kron.mod"),
     data("s1_kron.mod"), data("s2_a2.mod"), data("s1_a2.mod"), "--pmax", "-1"],
    ["props", data("kronecker.alg"), data("a2.alg"), "--modules", "-1"],
    ["verify-tilting", data("kronecker.alg"), data("p2_kron.mod"), "--m", "-1"],
])
def test_negative_budgets_are_usage_errors(argv):
    code, text = run(argv)
    assert code == 2
    assert text.startswith("error ") and ">= 0, got -1" in text


def test_props_with_no_modules_is_valid():
    code, text = run(["props", data("kronecker.alg"), data("a2.alg"),
                      "--modules", "0"])
    assert code == 0
    assert "verdict radical_formula pass" in text


# --- an acyclic object graph ---------------------------------------------------

def test_commands_leave_no_cyclic_garbage(tmp_path):
    """Reference counting alone frees each command's work: with the cyclic
    collector off, after one warm-up command (which builds the argument
    parser), no command on kron^2 leaves objects that only a full
    collection would free."""
    import gc
    gamma = kron_square_file(tmp_path)
    tilt = str(tmp_path / "tilt.mod")
    commands = [
        ["apr-tilt", gamma, "--vertex", "(1,1)", "--n", "2", "--present",
         "-o", tilt],
        ["count-apr", gamma, "--n", "2"],
        ["bb-tilt", gamma, "--vertex", "(1,1)", "--n", "2"],
        ["verify-tilting", gamma, tilt, "--m", "2"],
        ["tau-finite", gamma, "--n", "2", "--max-iter", "3"]]
    run(["count-apr", gamma, "--n", "1"])
    gc.collect()
    gc.disable()
    try:
        left = []
        for argv in commands:
            code, _ = run(argv)
            left.append((argv[0], code, gc.collect()))
    finally:
        gc.enable()
    assert left == [("apr-tilt", 0, 0), ("count-apr", 0, 0),
                    ("bb-tilt", 0, 0), ("verify-tilting", 0, 0),
                    ("tau-finite", 3, 0)]


# --- the resolution bound reaches every check ---------------------------------

LOCAL_ALG = ("algebra loc\nfield Q\nvertices 1\narrow x : 1 -> 1\n"
             "arrow y : 1 -> 1\nrelation 1 x*x\nrelation 1 x*y\n"
             "relation 1 y*x\nrelation 1 y*y\n")


def _local_simple(tmp_path):
    """k<x,y>/(x,y)^2 and its simple, whose k-th syzygy is S^(2^k): its
    projective dimension is infinite."""
    alg, mod = tmp_path / "loc.alg", tmp_path / "s.mod"
    alg.write_text(LOCAL_ALG)
    mod.write_text("module s over loc\ndim 1=1\n")
    return str(alg), str(mod)


def test_verify_tilting_decomposes_before_the_pd_check(tmp_path):
    """The summands are read off the module file before T is resolved: a
    decomposable module over F_p is refused for its characteristic
    (exit 2), also where its pd runs past a bound below m."""
    alg, mod = tmp_path / "loc.alg", tmp_path / "s2.mod"
    alg.write_text(LOCAL_ALG.replace("field Q", "field F7"))
    mod.write_text("module s over loc\ndim 1=2\n")
    for bound in ("2", "8"):
        assert run(["verify-tilting", str(alg), str(mod), "--m", "3",
                    "--max-resolution", bound]) == (
            2, "error idempotent splitting needs characteristic zero\n")


def test_verify_tilting_reads_the_resolution_bound(tmp_path):
    """A pd past a bound at or above m fails the pd verdict; past a bound
    below m it is undetermined, exit 3.  Either way the resolution stops
    at the bound."""
    import time
    alg, mod = _local_simple(tmp_path)
    start = time.perf_counter()
    code, text = run(["verify-tilting", alg, mod, "--m", "1",
                      "--max-resolution", "4"])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "verdict pd fail pd=infinite(>4) m=1\n" in text
    assert "verdict tilting fail m=1\n" in text
    # at a bound equal to m, self-Ext is read below the bound only
    code, text = run(["verify-tilting", alg, mod, "--m", "4",
                      "--max-resolution", "4"])
    assert code == 1
    assert "verdict pd fail pd=infinite(>4) m=4\n" in text
    code, text = run(["verify-tilting", alg, mod, "--m", "3",
                      "--max-resolution", "2"])
    assert code == 3 and text.startswith("inconclusive ")


@pytest.mark.parametrize("argv", [
    ["apr-check", "--vertex", "1", "--n", "2"],
    ["apr-tilt", "--vertex", "1", "--n", "2"],
    ["bb-check", "--vertex", "1", "--n", "2"],
    ["bb-tilt", "--vertex", "1", "--n", "2"],
    ["cotilt-check", "--vertex", "1", "--n", "2"],
    ["count-apr", "--n", "2"]], ids=lambda argv: argv[0])
def test_checks_resolve_within_the_bound(monkeypatch, argv):
    """Every resolution a tilting check grows, its pd included, is asked
    for at most --max-resolution steps."""
    from qtilt import homengine
    bounds = []
    real = homengine.min_proj_resolution
    monkeypatch.setattr(homengine, "min_proj_resolution",
                        lambda m, maxlen: bounds.append(maxlen)
                        or real(m, maxlen))
    code, _ = run([argv[0], data("kronecker.alg"), *argv[1:],
                   "--max-resolution", "3"])
    assert code in (0, 1) and bounds and max(bounds) <= 3


@pytest.mark.parametrize("bound", ["1", "2"])
def test_bb_check_reads_no_global_dimension(bound):
    """On A3 with its path of length two set to zero (gl.dim 2), bb-check
    at the source with n = 3 prints the same verdicts and exit code at a
    bound below the global dimension as at a bound equal to it."""
    assert run(["bb-check", data("a3nil.alg"), "--vertex", "3", "--n", "3",
                "--max-resolution", bound]) == (
        1, "algebra a3nil\nvertex 3\nn 3\n"
           "verdict cogenerator_ext fail Ext^0=2,Ext^1=0,Ext^2=0\n"
           "verdict self_ext pass Ext^1=0,Ext^2=0,Ext^3=0\n"
           "verdict bb fail n=3\n")


def test_tau_finite_reads_the_resolution_bound(tmp_path):
    """A gl.dim past a bound at or above n fails the probe's requirement,
    exit 2; past a bound below n it is undetermined, exit 3.  Either way
    the resolutions stop at the bound."""
    import time
    alg, _ = _local_simple(tmp_path)
    start = time.perf_counter()
    code, text = run(["tau-finite", alg, "--n", "1", "--max-resolution", "3"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert text == ("error probe needs global dimension <= 1, found "
                    "infinite(>3)\n")
    code, text = run(["tau-finite", alg, "--n", "5", "--max-resolution", "3"])
    assert code == 3 and text.startswith("inconclusive ")


@pytest.mark.parametrize("n", [0, -1])
def test_tau_finite_checks_n_before_the_global_dimension(tmp_path, monkeypatch,
                                                          n):
    """n < 1 is a usage error named as such, exit 2, before any resolution
    is grown: on the Kronecker algebra (gl.dim 1) and on a semisimple one
    (gl.dim 0), where the gl.dim check would pass or name the wrong bound."""
    from qtilt import homengine
    semisimple = tmp_path / "ss.alg"
    semisimple.write_text("algebra ss\nfield Q\nvertices 1\n")
    monkeypatch.setattr(homengine, "gldim", lambda *a: pytest.fail(
        "the probe read the global dimension"))
    for alg in (data("kronecker.alg"), str(semisimple)):
        code, text = run(["tau-finite", alg, "--n", str(n)])
        assert (code, text) == (2, f"error probe needs n >= 1, got {n}\n")


def test_tau_finite_resolves_within_the_bound(monkeypatch):
    """Every resolution the probe grows, gldim's included, is asked for at
    most --max-resolution steps; the Kronecker probe stays undetermined."""
    from qtilt import homengine
    bounds = []
    real = homengine.min_proj_resolution
    monkeypatch.setattr(homengine, "min_proj_resolution",
                        lambda m, maxlen: bounds.append(maxlen)
                        or real(m, maxlen))
    code, text = run(["tau-finite", data("kronecker.alg"), "--n", "1",
                      "--max-iter", "4", "--max-resolution", "3"])
    assert code == 3 and "verdict tau_finite undetermined" in text
    assert bounds and max(bounds) <= 3


@pytest.mark.parametrize("cmd", ["info", "tensor", "props"])
def test_algebra_commands_read_the_resolution_bound(tmp_path, cmd):
    """info and tensor read gl.dim of k<x,y>/(x,y)^2 (and of its product
    with A2) to the bound, and props reads every dimension to it: each
    answers at once instead of resolving toward the default bound."""
    import time
    alg, _ = _local_simple(tmp_path)
    argv = [cmd, alg] + ([] if cmd == "info" else [data("a2.alg")])
    start = time.perf_counter()
    code, text = run(argv + ["--max-resolution", "4"])
    assert time.perf_counter() - start < 1
    assert code == 0
    if cmd == "props":
        assert "verdict gldim_additivity pass infinite factors\n" in text
    else:
        assert text.endswith("gldim infinite(>4)\n")


def test_props_compares_dimensions_to_the_bound():
    """A sum of factor dimensions past the bound is compared as the
    product's bounded search reads it, infinite(>bound), not failed."""
    code, text = run(["props", data("kronecker.alg"), data("a2.alg"),
                      "--max-resolution", "1"])
    assert code == 0
    assert "verdict gldim_additivity pass 1+1=infinite(>1)\n" in text
    assert "verdict dimension_additivity pass " in text


def test_kunneth_reads_the_resolution_bound(tmp_path):
    """Ext over k<x,y>/(x,y)^2 (x) A2 is read to the bound: degrees below
    it are compared, and a degree at it is undetermined, exit 3."""
    alg, mod = _local_simple(tmp_path)
    argv = ["kunneth", alg, data("a2.alg"), mod, mod, data("s2_a2.mod"),
            data("s1_a2.mod"), "--max-resolution", "4"]
    code, text = run(argv + ["--pmax", "3"])
    assert code == 0 and text.count("verdict kunneth_q") == 4
    code, text = run(argv)
    assert code == 3 and text.startswith("inconclusive ")


@pytest.mark.parametrize("argv", [
    ["info", data("kronecker.alg")],
    ["tensor", data("kronecker.alg"), data("a2.alg")],
    ["props", data("kronecker.alg"), data("a2.alg")]],
    ids=lambda argv: argv[0])
def test_algebra_commands_resolve_within_the_bound(monkeypatch, argv):
    """Every resolution info, tensor and props grow, gldim's included, is
    asked for at most --max-resolution steps."""
    from qtilt import homengine
    bounds = []
    real = homengine.min_proj_resolution
    monkeypatch.setattr(homengine, "min_proj_resolution",
                        lambda m, maxlen: bounds.append(maxlen)
                        or real(m, maxlen))
    code, _ = run(argv + ["--max-resolution", "3"])
    assert code == 0 and bounds and max(bounds) <= 3


def test_local_checks_stop_at_the_bound(tmp_path):
    """Over k<x,y>/(x,y)^2 the injective dimension is read to the bound,
    and an Ext degree past it is undetermined."""
    alg, _ = _local_simple(tmp_path)
    for cmd in ("apr-check", "cotilt-check"):
        code, text = run([cmd, alg, "--vertex", "1", "--n", "2",
                          "--max-resolution", "3"])
        assert code == 1 and "id=infinite(>3)" in text
    code, text = run(["bb-check", alg, "--vertex", "1", "--n", "2",
                      "--max-resolution", "1"])
    assert code == 3 and text.startswith("inconclusive ")
