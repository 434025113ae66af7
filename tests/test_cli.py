import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nodistill.certifier import Certificate, _certificate_digest, certify
from nodistill import families
from nodistill.cli import main
from nodistill.families import MapFamily, deterministic_family
from nodistill.measures import LambdaWitness
from nodistill.probvec import Axis, JointDist

from conftest import rand_dist, trivial_eve
from oracles import secret_bit, tensor


@pytest.fixture
def workdir(tmp_path):
    sb = tensor(secret_bit(), trivial_eve())
    (tmp_path / "sb.json").write_text(sb.dumps())
    eka = JointDist(
        (Axis("A", 2), Axis("B", 2), Axis("E", 2)),
        {(0, 0, 0): F(1, 2), (1, 1, 1): F(1, 2)},
    )
    (tmp_path / "eka.json").write_text(eka.dumps())
    triv = JointDist((Axis("A", 1), Axis("B", 1), Axis("E", 1)), {(0, 0, 0): F(1)})
    (tmp_path / "triv.json").write_text(triv.dumps())
    (tmp_path / "fam1.json").write_text(deterministic_family(1, 1, cap=1).dumps())
    (tmp_path / "fam22.json").write_text(deterministic_family(2, 2, cap=2).dumps())
    bad = {
        "axes": [{"party": "A", "size": 2}, {"party": "B", "size": 2}, {"party": "E", "size": 1}],
        "entries": [{"index": [0, 0, 0], "p": "-1/2"}],
    }
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# -- lambda ------------------------------------------------------------------------


def test_lambda_secret_bit(workdir, capsys):
    code, out, _ = run(capsys, "lambda", workdir / "sb.json")
    assert code == 0 and out == "1/1\n"


def test_lambda_eve_knows_all(workdir, capsys):
    code, out, _ = run(capsys, "lambda", workdir / "eka.json")
    assert code == 0 and out == "0/1\n"


def test_lambda_negative_entry_exits_2(workdir, capsys):
    code, _, err = run(capsys, "lambda", workdir / "bad.json")
    assert code == 2 and "non-negative" in err


def test_lambda_without_an_a_axis_names_the_axes(workdir, capsys):
    no_a = JointDist((Axis("X", 2), Axis("B", 2), Axis("E", 1)), {(0, 0, 0): F(1)})
    (workdir / "no_a.json").write_text(no_a.dumps())
    code, out, err = run(capsys, "lambda", workdir / "no_a.json")
    assert (code, out) == (2, "")
    assert err == "error: no axis labeled 'A' (have ['X', 'B', 'E'])\n"


def test_lambda_zero_mass_exits_2(workdir, capsys):
    zero = JointDist((Axis("A", 2), Axis("B", 2), Axis("E", 1)), {})
    (workdir / "zero.json").write_text(zero.dumps())
    code, _, err = run(capsys, "lambda", workdir / "zero.json")
    assert code == 2 and "undefined" in err


def test_lambda_missing_party_axis_exits_2(workdir, capsys):
    odd = JointDist((Axis("X", 2), Axis("B", 2), Axis("E", 1)), {(0, 0, 0): F(1)})
    (workdir / "odd.json").write_text(odd.dumps())
    code, _, err = run(capsys, "lambda", workdir / "odd.json")
    assert code == 2 and "labeled" in err


def test_lambda_refuses_a_ternary_b_alphabet(workdir, capsys):
    g = JointDist((Axis("A", 2), Axis("B", 3), Axis("E", 1)), {(0, 2, 0): F(1)})
    (workdir / "b3.json").write_text(g.dumps())
    code, out, err = run(capsys, "lambda", workdir / "b3.json")
    assert (code, out, err) == (2, "", "error: B alphabet must be binary, got size 3\n")


def test_lambda_names_a_before_b_when_neither_is_binary(workdir, capsys):
    g = JointDist((Axis("A", 3), Axis("B", 4), Axis("E", 1)), {(2, 2, 0): F(1)})
    (workdir / "a3b4.json").write_text(g.dumps())
    code, out, err = run(capsys, "lambda", workdir / "a3b4.json")
    assert (code, out, err) == (2, "", "error: A alphabet must be binary, got size 3\n")


# -- lambda-max ---------------------------------------------------------------------


def test_lambda_max_product_is_half(workdir, capsys):
    prod = JointDist(
        (Axis("A", 2), Axis("B", 2), Axis("E", 1)),
        {(a, b, 0): F(1, 4) for a in range(2) for b in range(2)},
    )
    (workdir / "prod.json").write_text(prod.dumps())
    code, out, _ = run(capsys, "lambda-max", workdir / "prod.json")
    assert code == 0 and out.startswith("lower bound 1/2\n")


def test_lambda_max_secret_bit(workdir, capsys):
    code, out, _ = run(capsys, "lambda-max", workdir / "sb.json")
    assert code == 0 and out.startswith("lower bound 1/1\n")


def test_lambda_max_refine_rounds(workdir, capsys):
    # stage 1 finds 1/2 here; one refinement pass reaches 6/11
    p = JointDist(
        (Axis("A", 2), Axis("B", 2), Axis("E", 2)),
        {
            (0, 0, 0): F(4, 11), (0, 0, 1): F(2, 11), (0, 1, 0): F(3, 11),
            (1, 0, 1): F(1, 11), (1, 1, 0): F(1, 11),
        },
    )
    (workdir / "p.json").write_text(p.dumps())
    code0, out0, _ = run(capsys, "lambda-max", workdir / "p.json")
    code1, out1, _ = run(capsys, "lambda-max", workdir / "p.json", "--refine-rounds", 1)
    assert code0 == 0 and code1 == 0
    head0, _, _ = out0.partition("\n")
    head1, _, body1 = out1.partition("\n")
    assert head0.startswith("lower bound ") and head1.startswith("lower bound ")
    value0 = F(head0.removeprefix("lower bound "))
    value1 = F(head1.removeprefix("lower bound "))
    assert value1 > value0
    witness = LambdaWitness.from_json_dict(json.loads(body1))
    assert witness.value == value1
    assert witness.recheck(p) == value1


def test_lambda_max_exits_4_when_a_refined_witness_fails_its_recheck(workdir, capsys, monkeypatch):
    # the input of test_lambda_max_refine_rounds, whose refinement finds a better witness
    p = JointDist(
        (Axis("A", 2), Axis("B", 2), Axis("E", 2)),
        {
            (0, 0, 0): F(4, 11), (0, 0, 1): F(2, 11), (0, 1, 0): F(3, 11),
            (1, 0, 1): F(1, 11), (1, 1, 0): F(1, 11),
        },
    )
    (workdir / "p.json").write_text(p.dumps())
    monkeypatch.setattr(LambdaWitness, "recheck", lambda self, p: self.value + 1)
    code, out, err = run(capsys, "lambda-max", workdir / "p.json", "--refine-rounds", 1)
    assert (code, out) == (4, "")
    assert err == "solver failure: refinement produced a witness that fails its exact recheck\n"


def test_lambda_max_refines_an_eleven_symbol_eve_alphabet(workdir, capsys):
    # the input of test_lambda_max_refine_rounds with Eve's symbol 0 split into
    # 6 equal copies and symbol 1 into 5: every map pair keeps its fraction, so
    # refinement still reaches 6/11, with one LP per refit and no 2^11 branches
    p = {
        (0, 0, 0): F(4, 11), (0, 0, 1): F(2, 11), (0, 1, 0): F(3, 11),
        (1, 0, 1): F(1, 11), (1, 1, 0): F(1, 11),
    }
    copies = (range(0, 6), range(6, 11))
    split = JointDist(
        (Axis("A", 2), Axis("B", 2), Axis("E", 11)),
        {(a, b, c): v / len(copies[e]) for (a, b, e), v in p.items() for c in copies[e]},
    )
    (workdir / "e11.json").write_text(split.dumps())
    code0, out0, _ = run(capsys, "lambda-max", workdir / "e11.json")
    code1, out1, err1 = run(capsys, "lambda-max", workdir / "e11.json", "--refine-rounds", 1)
    assert (code0, code1, err1) == (0, 0, "")
    head0, _, _ = out0.partition("\n")
    head1, _, body1 = out1.partition("\n")
    assert (head0, head1) == ("lower bound 1/2", "lower bound 6/11")
    witness = LambdaWitness.from_json_dict(json.loads(body1))
    assert witness.recheck(split) == witness.value == F(6, 11)


def test_lambda_max_negative_refine_rounds_exits_2(workdir, capsys):
    code, out, err = run(capsys, "lambda-max", workdir / "sb.json", "--refine-rounds", -1)
    assert code == 2 and out == ""
    assert err == "error: refine_rounds must be >= 0, got -1\n"


def test_lambda_max_takes_no_pair_budget(workdir, capsys):
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["lambda-max", str(workdir / "sb.json"), "--max-pairs", "1"])
    assert time.perf_counter() - t0 < 2
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: unrecognized arguments: --max-pairs 1\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["lambda-max", "d.json", "--max-pairs", "1"],
         "nodistill: error: unrecognized arguments: --max-pairs 1"),
        ([], "nodistill: error: the following arguments are required: command"),
        (["certify"], "nodistill certify: error: the following arguments are required: g"),
        (["certify", "g.json", "--gen", "all"],
         "nodistill certify: error: argument --gen: invalid choice: 'all' "
         "(choose from 'deterministic', 'random')"),
        (["lambda-max", "d.json", "--refine-rounds", "x"],
         "nodistill lambda-max: error: argument --refine-rounds: invalid int value: 'x'"),
    ],
    ids=["unknown-flag", "no-command", "missing-argument", "bad-choice", "bad-int"],
)
def test_an_argparse_refusal_is_one_stderr_line(capsys, argv, err):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, got = capsys.readouterr()
    assert (out, got.splitlines()) == ("", [err])


@pytest.mark.parametrize(
    "argv, usage",
    [(["--help"], "usage: nodistill [-h]"), (["verify", "--help"], "usage: nodistill verify [-h]")],
    ids=["top", "verify"],
)
def test_help_goes_to_stdout(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(usage) and err == ""


def test_lambda_max_p442_pinned(workdir, capsys):
    """A 4x4 input: all 81 x 81 map pairs are searched, and the output is pinned."""
    p = rand_dist(random.Random(44), (4, 4, 2), denom_max=5)
    (workdir / "p442.json").write_text(p.dumps())
    code, out, _ = run(capsys, "lambda-max", workdir / "p442.json")
    assert code == 0
    assert out.partition("\n")[0] == "lower bound 84/131"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e1b17d5a0938741332a4be6ca0e8187bd922775a82d221e6ca14bc24398af99d"
    )


@pytest.mark.parametrize(
    "flags, bound, digest",
    [
        ((), "96/175", "a2ec9f20a98b05a5bdd0a402f474f595e639ac684c072434eb879acc98730f4a"),
        (("--refine-rounds", 1), "36600/62401",
         "f655053a52a8a5a773ae6b185d2e36e96fe665237f5cb322af8967e4f569fc9a"),
    ],
    ids=["exhaustive", "refined"],
)
def test_lambda_max_p253_pinned(workdir, capsys, flags, bound, digest):
    """A 2x5 input, so the two sides' tables differ in size: the output is pinned,
    and with refinement so is the choice of the best fully deterministic seed."""
    p = rand_dist(random.Random(25), (2, 5, 3))
    (workdir / "p253.json").write_text(p.dumps())
    code, out, _ = run(capsys, "lambda-max", workdir / "p253.json", *flags)
    assert code == 0
    assert out.partition("\n")[0] == f"lower bound {bound}"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("flags", [(), ("--refine-rounds", 1)], ids=["exhaustive", "refined"])
def test_lambda_max_refuses_a_huge_a_alphabet_before_building_anything(
    workdir, capsys, monkeypatch, flags
):
    from nodistill import measures

    def built(*args, **kwargs):
        pytest.fail("the search built its per-symbol tables")

    monkeypatch.setattr(measures, "_entries_by_a", built)
    g = JointDist((Axis("A", 10**12), Axis("B", 2), Axis("E", 1)), {(0, 0, 0): F(1)})
    (workdir / "wide.json").write_text(g.dumps())
    t0 = time.perf_counter()
    code, out, err = run(capsys, "lambda-max", workdir / "wide.json", *flags)
    assert time.perf_counter() - t0 < 2
    assert (code, out) == (3, "")
    assert err == (
        "refused: |A| + |B| = 1000000000000 + 2 = 1000000000002 exceeds the bound 12: "
        "the search would range over 3^1000000000002 map pairs\n"
    )


@pytest.mark.parametrize("size_a, refused", [(10, False), (11, True)])
def test_lambda_max_search_bound(workdir, capsys, size_a, refused):
    # |A| + |B| = 12 is searched; one more symbol is refused
    from nodistill import measures

    g = JointDist((Axis("A", size_a), Axis("B", 2), Axis("E", 1)), {(0, 0, 0): F(1)})
    if refused:
        (workdir / "g.json").write_text(g.dumps())
        code, out, err = run(capsys, "lambda-max", workdir / "g.json")
        assert (code, out) == (3, "")
        assert err == (
            "refused: |A| + |B| = 11 + 2 = 13 exceeds the bound 12: "
            "the search would range over 3^13 map pairs\n"
        )
    else:
        # the whole 3^12 search takes about 0.4 s: its first pair shows it is not refused
        assert next(measures._stage1_pairs(g)) == (0, 1, (0,) * 10, (0, 0))


# -- certify / verify -----------------------------------------------------------------


def test_certify_trivial_undistillable(workdir, capsys):
    out_path = workdir / "cert.json"
    code, out, _ = run(
        capsys, "certify", workdir / "triv.json", "--family", workdir / "fam1.json",
        "--out", out_path,
    )
    assert code == 0 and out == "UNDISTILLABLE\n"
    code, out, _ = run(
        capsys, "verify", workdir / "triv.json", workdir / "fam1.json", out_path
    )
    assert code == 0 and "valid" in out


def test_certify_secret_bit_inconclusive(workdir, capsys):
    code, out, _ = run(
        capsys, "certify", workdir / "sb.json", "--family", workdir / "fam22.json"
    )
    assert code == 0
    assert out.startswith("INCONCLUSIVE optimum=")
    value = out.strip().split("=")[1]
    num, den = map(int, value.split("/"))
    assert F(num, den) >= F(1, 4)


def test_certify_gen_flags(workdir, capsys):
    code, out, _ = run(
        capsys, "certify", workdir / "sb.json", "--gen", "deterministic", "--M", 2
    )
    assert code == 0 and out.startswith("INCONCLUSIVE")


def test_certify_dump_lp_builds_the_program_once(workdir, capsys, monkeypatch):
    from nodistill import certifier

    build_lp = certifier.build_lp
    calls = []

    def counted(setup):
        calls.append(setup)
        return build_lp(setup)

    monkeypatch.setattr(certifier, "build_lp", counted)
    code, out, _ = run(
        capsys, "certify", workdir / "eka.json", "--family", workdir / "fam22.json",
        "--dump-lp", workdir / "lp.txt", "--out", workdir / "cert.json",
    )
    assert code == 0 and out == "INCONCLUSIVE optimum=1/4\n"
    assert len(calls) == 1
    # the bytes the command wrote when it built the program twice
    digests = [hashlib.sha256((workdir / f).read_bytes()).hexdigest() for f in ("lp.txt", "cert.json")]
    assert digests == [
        "730df743144ae420077bb418b712801068b0ea6ec6eae45fd89ac36f122f7990",
        "158ef7cdb70644665497580c1395a5976444242fff5967e120f0f7b2b949be4b",
    ]


WRITES = ("certify-out", "certify-dump-lp", "gen-family-out")
UNWRITABLE = {"missing-directory": "No such file or directory", "a-directory": "Is a directory"}


@pytest.mark.parametrize(
    "write, target", [(write, target) for write in WRITES for target in UNWRITABLE],
    ids=[f"{write}-{target}" for write in WRITES for target in UNWRITABLE],
)
def test_an_unwritable_output_path_is_an_input_error(workdir, capsys, write, target):
    certify = ("certify", workdir / "triv.json", "--family", workdir / "fam1.json")
    # what the file holds, and the command with its flag up to the path
    kind, argv = {
        "certify-out": ("certificate", (*certify, "--out")),
        "certify-dump-lp": ("program", (*certify, "--dump-lp")),
        "gen-family-out": ("family", ("gen-family", "--a-copy", 1, "--b-copy", 1, "--gen",
                                      "deterministic", "--M", 1, "--out")),
    }[write]
    path = workdir / "missing" / "out.json" if target == "missing-directory" else workdir
    code, out, err = run(capsys, *argv, path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {kind} {path}: ") and UNWRITABLE[target] in err
    assert err.count("\n") == 1 and err.endswith("\n")


CERTIFY_TRIV = ("certify", "triv.json", "--family", "fam1.json")
# a flag given the empty string, and the start of the line that refuses it
EMPTY_FLAG_VALUES = {
    "certify-family": (("certify", "triv.json", "--family", "", "--gen", "deterministic", "--M", 1),
                       "error: --family and --gen cannot be combined\n"),
    "certify-lambda0": ((*CERTIFY_TRIV, "--lambda0", ""), "error: malformed rational: ''\n"),
    "verify-lambda0": (("verify", "triv.json", "fam1.json", "cert.json", "--lambda0", ""),
                       "error: malformed rational: ''\n"),
    "certify-out": ((*CERTIFY_TRIV, "--out", ""), "error: cannot write certificate : "),
    "certify-dump-lp": ((*CERTIFY_TRIV, "--dump-lp", ""), "error: cannot write program : "),
    "gen-family-out": (("gen-family", "--a-copy", 1, "--b-copy", 1, "--gen", "deterministic",
                        "--M", 1, "--out", ""), "error: cannot write family : "),
}


@pytest.mark.parametrize("case", list(EMPTY_FLAG_VALUES))
def test_an_empty_flag_value_is_refused(workdir, capsys, monkeypatch, case):
    """An empty value is a value: it is read, and refused, not taken for an absent flag."""
    monkeypatch.chdir(workdir)
    assert run(capsys, *CERTIFY_TRIV, "--out", "cert.json")[0] == 0
    files = sorted(workdir.iterdir())
    argv, refusal = EMPTY_FLAG_VALUES[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(refusal) and err.count("\n") == 1 and err.endswith("\n")
    assert sorted(workdir.iterdir()) == files


def test_certify_guard_refusal_exits_3(workdir, capsys):
    code, _, err = run(capsys, "certify", workdir / "eka.json", "--gen", "deterministic", "--M", 20)
    assert code == 3 and "exceeds" in err


# the first words of the size guard's two refusals
GUARD_REFUSALS = ("d + M = ", "|A| = ")
HUGE = 10**30
# 4 * |A| * |B| * 2^(d + M) variables and (d + M) * 2^(d + M) selector rows, as powers of two
HUGE_REFUSAL = (
    f"d + M = {HUGE} + 1 = {HUGE + 1} exceeds the bound 16: the program would have "
    f"2^{HUGE + 3} or more variables and about 2^{HUGE + 100} or more selector rows"
)


@pytest.fixture
def huge_eve(workdir):
    """A one-entry g whose adversary axis has 10^30 symbols."""
    g = JointDist((Axis("A", 1), Axis("B", 1), Axis("E", HUGE)), {(0, 0, 0): F(1)})
    (workdir / "huge.json").write_text(g.dumps())
    return workdir / "huge.json"


def test_certify_guard_refuses_a_huge_adversary_axis(huge_eve, capsys):
    code, out, err = run(capsys, "certify", huge_eve, "--gen", "deterministic", "--M", 1)
    assert (code, out) == (3, "")
    assert err == f"refused: {HUGE_REFUSAL}\n"


def test_verify_refuses_to_rebuild_a_huge_program(huge_eve, workdir, capsys):
    from nodistill.certifier import UNDISTILLABLE, Certificate, _certificate_digest, problem_fingerprint

    g = JointDist.loads(huge_eve.read_text())
    fam = deterministic_family(1, 1, cap=1)
    cert = Certificate(UNDISTILLABLE, F(0), F(1, 2), problem_fingerprint(g, fam, F(1, 2)), dual=())
    cert = replace(cert, digest=_certificate_digest(cert))
    (workdir / "huge_cert.json").write_text(cert.dumps())
    code, out, err = run(capsys, "verify", huge_eve, workdir / "fam1.json", workdir / "huge_cert.json")
    assert (code, out) == (3, "")
    assert err == f"refused: {HUGE_REFUSAL}\n"


WIDE = 10**12
# 4 * 10^12 * 1 * 2^(1 + 1) variables, though d + M = 2 is well inside the bound
WIDE_REFUSAL = (
    f"|A| = {WIDE} and |B| = 1 at d + M = 2: the program would have 16000000000000 variables, "
    "more than the 1048576 the bound 16 allows"
)


@pytest.fixture
def wide_a(workdir, monkeypatch):
    """A one-entry g whose A axis has 10^12 symbols; drawing any family for it fails the test."""
    from nodistill import families

    def drawn(*args, **kwargs):
        raise AssertionError("a family was drawn before the size guard refused it")

    monkeypatch.setattr(families, "deterministic_family", drawn)
    monkeypatch.setattr(families, "random_filter_family", drawn)
    g = JointDist((Axis("A", WIDE), Axis("B", 1), Axis("E", 1)), {(0, 0, 0): F(1)})
    (workdir / "wide.json").write_text(g.dumps())
    return workdir / "wide.json"


@pytest.mark.parametrize("gen", ["random", "deterministic"])
def test_certify_guard_bounds_the_variable_count(wide_a, capsys, gen):
    code, out, err = run(capsys, "certify", wide_a, "--gen", gen, "--M", 1)
    assert (code, out) == (3, "")
    assert err == f"refused: {WIDE_REFUSAL}\n"


def test_verify_refuses_to_rebuild_a_program_of_too_many_variables(wide_a, workdir, capsys):
    from nodistill.certifier import UNDISTILLABLE, problem_fingerprint

    g = JointDist.loads(wide_a.read_text())
    fam = MapFamily.loads((workdir / "fam1.json").read_text())
    cert = Certificate(UNDISTILLABLE, F(0), F(1, 2), problem_fingerprint(g, fam, F(1, 2)), dual=())
    cert = replace(cert, digest=_certificate_digest(cert))
    (workdir / "wide_cert.json").write_text(cert.dumps())
    code, out, err = run(capsys, "verify", wide_a, workdir / "fam1.json", workdir / "wide_cert.json")
    assert (code, out) == (3, "")
    assert err == f"refused: {WIDE_REFUSAL}\n"


@pytest.mark.parametrize(
    "entry, reason",
    [
        ({"g": "huge.json", "family": {"gen": "deterministic", "M": 1}}, HUGE_REFUSAL),
        ({"g": "triv.json", "family": "fam16.json"},
         "d + M = 1 + 16 = 17 exceeds the bound 16: the program would have 524288 variables "
         "and about 2228224 selector rows"),
        ({"g": "wide.json", "family": {"gen": "deterministic", "M": 1}}, WIDE_REFUSAL),
        ({"g": "wide.json", "family": {"gen": "random", "M": 1}}, WIDE_REFUSAL),
    ],
    ids=["huge", "small", "wide-deterministic", "wide-random"],
)
def test_batch_guard_refusal_is_an_exit_3_row(huge_eve, wide_a, workdir, capsys, entry, reason):
    (workdir / "fam16.json").write_text(deterministic_family(1, 1, cap=16).dumps())
    path = workdir / "manifest_guard.json"
    path.write_text(json.dumps([entry]))
    code, out, _ = run(capsys, "batch", path)
    assert code == 3
    assert out.splitlines()[1:] == [f"{entry['g']}\t?\t?\tERROR\t{reason}"]


HUGE_M_REFUSAL = (
    "d + M = 2 + 100000000 = 100000002 exceeds the bound 16: the program would have "
    "2^100000006 or more variables and about 2^100000028 or more selector rows"
)


@pytest.mark.parametrize("gen", ["random", "deterministic"])
def test_certify_refuses_a_huge_random_family_before_drawing_it(workdir, capsys, gen):
    t0 = time.perf_counter()
    code, out, err = run(
        capsys, "certify", workdir / "eka.json", "--gen", gen, "--M", 100_000_000
    )
    assert time.perf_counter() - t0 < 2
    assert (code, out) == (3, "")
    assert err == f"refused: {HUGE_M_REFUSAL}\n"


def test_a_two_axis_g_is_an_input_error_before_the_random_family_guard(workdir, capsys):
    g = JointDist((Axis("A", 2), Axis("B", 2)), {(0, 0): F(1)})
    (workdir / "g2.json").write_text(g.dumps())
    code, out, err = run(
        capsys, "certify", workdir / "g2.json", "--gen", "random", "--M", 100_000_000
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: g must have exactly three axes ordered (A, B, adversary), got ('A', 'B')\n"
    )


@pytest.mark.parametrize("gen", ["random", "deterministic"])
def test_batch_refuses_a_huge_random_family_before_drawing_it(workdir, capsys, gen):
    path = workdir / "manifest_huge_m.json"
    path.write_text(json.dumps([{"g": "eka.json", "family": {"gen": gen, "M": 100_000_000}}]))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "batch", path)
    assert time.perf_counter() - t0 < 2
    assert code == 3
    assert out.splitlines()[1:] == [f"eka.json\t?\t?\tERROR\t{HUGE_M_REFUSAL}"]


@pytest.mark.parametrize(
    "flags, flag",
    [(("--gen", "random", "--M", 1), "--gen"), (("--M", 1), "--M"),
     (("--seed", 1), "--seed"), (("--denom-bound", 2), "--denom-bound")],
    ids=["gen", "M", "seed", "denom-bound"],
)
def test_certify_refuses_generator_flags_beside_a_family_file(workdir, capsys, flags, flag):
    code, out, err = run(capsys, "certify", workdir / "triv.json", "--family", workdir / "fam1.json",
                         *flags)
    assert (code, out, err) == (2, "", f"error: --family and {flag} cannot be combined\n")


def test_certify_exits_4_when_the_solver_output_fails_its_check(workdir, capsys, monkeypatch):
    from nodistill import ratlp

    solve = ratlp.solve

    def off_by_one(problem):
        sol = solve(problem)
        sol.objective_value += 1
        return sol

    monkeypatch.setattr(ratlp, "solve", off_by_one)
    code, out, err = run(capsys, "certify", workdir / "triv.json", "--family", workdir / "fam1.json")
    assert (code, out) == (4, "")
    assert err == "solver failure: solver output failed its independent optimality check\n"


def bad_map_family(workdir, side, coeffs):
    """fam1.json with one map's coefficient matrix replaced."""
    fam = json.loads((workdir / "fam1.json").read_text())
    fam["pairs"][0][side]["coeffs"] = coeffs
    path = workdir / "bad_map.json"
    path.write_text(json.dumps(fam))
    return path


@pytest.mark.parametrize(
    "side, coeffs, reason",
    [
        ("map_a", [["1/1", "0/1"], ["0/1", "1/1"], ["0/1", "0/1"]],
         "map has 3 rows but output axis 'A' has size 2"),
        ("map_b", [["1/1"], ["0/1"]], "map row has 1 columns but input axis size is 2"),
        ("map_a", [["1/1", "-1/1"], ["0/1", "1/1"]], "negative map coefficient -1"),
    ],
    ids=["rows", "columns", "negative"],
)
def test_certify_refuses_a_malformed_map(workdir, capsys, side, coeffs, reason):
    path = bad_map_family(workdir, side, coeffs)
    code, out, err = run(capsys, "certify", workdir / "triv.json", "--family", path)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read family {path}: {reason}\n"


@pytest.mark.parametrize(
    "sizes, reason",
    [
        ((2, 2), "family pair 0: map_a input size 4 != 2*|A| = 2"),
        ((1, 2), "family pair 0: map_b input size 4 != 2*|B| = 2"),
    ],
    ids=["map_a", "map_b"],
)
def test_certify_refuses_a_family_for_other_alphabets(workdir, capsys, sizes, reason):
    path = workdir / "other.json"
    path.write_text(deterministic_family(*sizes, cap=1).dumps())
    code, out, err = run(capsys, "certify", workdir / "triv.json", "--family", path)
    assert (code, out) == (2, "")
    assert err == f"error: {reason}\n"


@pytest.mark.parametrize(
    "flags, reason",
    [
        ((), "need --family PATH or --gen deterministic|random"),
        (("--gen", "random"), "random family generation needs --M"),
        (("--gen", "deterministic"), "deterministic family generation needs --M"),
        (("--gen", "deterministic", "--M", 2, "--seed", 7, "--denom-bound", 3),
         "deterministic family generation does not read seed"),
        (("--gen", "deterministic", "--M", 2, "--denom-bound", 3),
         "deterministic family generation does not read denom_bound"),
        (("--gen", "random", "--M", -1), "family size must be >= 0, got -1"),
    ],
    ids=["no-family", "random-without-M", "deterministic-without-M", "deterministic-seed",
         "deterministic-denom-bound", "negative-M"],
)
def test_certify_refuses_missing_family_flags(workdir, capsys, flags, reason):
    code, out, err = run(capsys, "certify", workdir / "triv.json", *flags)
    assert (code, out) == (2, "")
    assert err == f"error: {reason}\n"


def test_certify_output_byte_deterministic(workdir, capsys):
    a, b = workdir / "a.json", workdir / "b.json"
    run(capsys, "certify", workdir / "sb.json", "--family", workdir / "fam22.json", "--out", a)
    run(capsys, "certify", workdir / "sb.json", "--family", workdir / "fam22.json", "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_verify_tampered_exits_nonzero(workdir, capsys):
    out_path = workdir / "cert2.json"
    run(capsys, "certify", workdir / "triv.json", "--family", workdir / "fam1.json",
        "--out", out_path)
    data = json.loads(out_path.read_text())
    data["optimum"] = "1/1000"
    out_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", workdir / "triv.json", workdir / "fam1.json", out_path)
    assert code == 1 and "INVALID" in out


def redigested(cert: Certificate) -> str:
    return replace(cert, digest=_certificate_digest(cert)).dumps()


@pytest.mark.parametrize(
    "g, fam, field, reason",
    [
        ("triv.json", "fam1.json", "dual", "undistillable certificate is missing dual multipliers"),
        ("sb.json", "fam22.json", "primal", "inconclusive certificate is missing a primal witness"),
    ],
    ids=["undistillable-without-dual", "inconclusive-without-primal"],
)
def test_verify_refuses_a_certificate_without_its_proof(workdir, capsys, g, fam, field, reason):
    path = workdir / "unproved.json"
    run(capsys, "certify", workdir / g, "--family", workdir / fam, "--out", path)
    path.write_text(redigested(replace(Certificate.loads(path.read_text()), **{field: None})))
    code, out, err = run(capsys, "verify", workdir / g, workdir / fam, path)
    assert (code, out, err) == (1, f"certificate INVALID: {reason}\n", "")


def test_verify_checks_an_inconclusive_witness(workdir, capsys):
    g, fam, path = workdir / "sb.json", workdir / "fam22.json", workdir / "witness.json"
    run(capsys, "certify", g, "--family", fam, "--out", path)
    cert = Certificate.loads(path.read_text())
    assert cert.verdict == "inconclusive"
    assert run(capsys, "verify", g, fam, path) == (0, "certificate valid\n", "")
    # the first witness entry's mass moves to the next selector block
    entries = dict(cert.primal.items())
    first = min(entries)
    entries[(*first[:-1], first[-1] + 1)] = entries.pop(first)
    path.write_text(redigested(replace(cert, primal=JointDist(cert.primal.axes, entries))))
    assert run(capsys, "verify", g, fam, path) == (
        1, "certificate INVALID: witness violates row 15 ('sel-i', 0, 5): 1/4 vs 0\n", ""
    )


STORED = Path(__file__).resolve().parent.parent / "perfbench" / "stored"


def test_verify_binds_the_certificate_lambda0(workdir, capsys):
    # the fingerprint is taken at the lambda0 checked against, so a certificate
    # restated at 3/4 and re-digested still matches the inputs at 1/2
    cert = Certificate.loads((STORED / "cert_unif-M5.json").read_text())
    (workdir / "forged.json").write_text(redigested(replace(cert, lambda0=F(3, 4))))
    code, out, err = run(
        capsys, "verify", STORED / "g_unif.json", STORED / "family_M5.json",
        workdir / "forged.json", "--lambda0", "1/2",
    )
    assert (code, out, err) == (
        1, "certificate INVALID: lambda0 mismatch: certificate states 3/4, checked at 1/2\n", ""
    )


def test_verify_refuses_a_program_over_the_bound_as_certify_does(workdir, capsys):
    from nodistill.certifier import UNDISTILLABLE, problem_fingerprint

    # 15 pairs on d = 2: d + M = 17; the certificate matches the inputs, so only the guard can fail
    fam_path = workdir / "fam15.json"
    fam_path.write_text(deterministic_family(2, 2, cap=15).dumps())
    g, fam = JointDist.loads((workdir / "eka.json").read_text()), MapFamily.loads(fam_path.read_text())
    cert = Certificate(UNDISTILLABLE, F(0), F(1, 2), problem_fingerprint(g, fam, F(1, 2)), dual=())
    (workdir / "forged.json").write_text(redigested(cert))
    t0 = time.perf_counter()
    runs = [run(capsys, "verify", workdir / "eka.json", fam_path, workdir / "forged.json"),
            run(capsys, "certify", workdir / "eka.json", "--family", fam_path)]
    assert time.perf_counter() - t0 < 2
    assert runs == [(3, "", (
        "refused: d + M = 2 + 15 = 17 exceeds the bound 16: the program would have 2097152 "
        "variables and about 2228224 selector rows\n"
    ))] * 2


@pytest.mark.parametrize(
    "g, fam, reason",
    [
        (JointDist((Axis("A", 2), Axis("B", 2)), {(0, 0): F(1)}), deterministic_family(1, 1, cap=1),
         "g must have exactly three axes ordered (A, B, adversary), got ('A', 'B')"),
        (JointDist((Axis("A", 1), Axis("B", 1), Axis("E", 1)), {(0, 0, 0): F(1)}),
         deterministic_family(2, 2, cap=1), "family pair 0: map_a input size 4 != 2*|A| = 2"),
    ],
    ids=["two-axis-g", "family-for-other-alphabets"],
)
def test_verify_of_inputs_that_define_no_program_is_an_input_error(workdir, capsys, g, fam, reason):
    # the certificate matches the inputs, so only the program's definition can fail
    from nodistill.certifier import UNDISTILLABLE, problem_fingerprint

    cert = Certificate(UNDISTILLABLE, F(0), F(1, 2), problem_fingerprint(g, fam, F(1, 2)), dual=())
    (workdir / "g.json").write_text(g.dumps())
    (workdir / "fam.json").write_text(fam.dumps())
    (workdir / "cert.json").write_text(redigested(cert))
    code, out, err = run(capsys, "verify", workdir / "g.json", workdir / "fam.json",
                         workdir / "cert.json")
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_verify_wrong_g_exits_nonzero(workdir, capsys):
    out_path = workdir / "cert3.json"
    run(capsys, "certify", workdir / "triv.json", "--family", workdir / "fam1.json",
        "--out", out_path)
    code, out, _ = run(capsys, "verify", workdir / "sb.json", workdir / "fam1.json", out_path)
    assert code == 1 and "fingerprint" in out


@pytest.mark.parametrize(
    "kind, doc, argv",
    [
        ("distribution", {"axes": 5, "entries": []}, ("lambda", "{bad}")),
        ("family", {"pairs": 5}, ("certify", "{dir}/triv.json", "--family", "{bad}")),
        (
            "certificate",
            {"verdict": "undistillable", "optimum": "0/1", "lambda0": "1/2",
             "fingerprint": "", "dual": 5},
            ("verify", "{dir}/triv.json", "{dir}/fam1.json", "{bad}"),
        ),
        ("certificate", [], ("verify", "{dir}/triv.json", "{dir}/fam1.json", "{bad}")),
    ],
    ids=["distribution", "family", "certificate", "certificate-list"],
)
def test_malformed_top_level_shape_exits_2(workdir, capsys, kind, doc, argv):
    bad = workdir / "shape.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(a.format(dir=workdir, bad=bad) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {kind} ") and err.count("\n") == 1


def axes_doc(*sizes):
    return [{"party": party, "size": size} for party, size in zip("ABE", sizes)]


@pytest.mark.parametrize(
    "kind, doc, argv",
    [
        (
            "distribution",
            {"axes": axes_doc(2, 2, 2.9), "entries": [{"index": [0, 0, 0], "p": "1/1"}]},
            ("lambda", "{bad}"),
        ),
        (
            "distribution",
            {"axes": axes_doc(2, 2, 2), "entries": [{"index": [0, 0.7, 0], "p": "1/1"}]},
            ("lambda", "{bad}"),
        ),
        (
            "distribution",
            {"axes": axes_doc(2, 2, 2), "entries": [{"index": [0, True, 0], "p": "1/1"}]},
            ("lambda", "{bad}"),
        ),
        (
            "family",
            {"pairs": [{
                "map_a": {"input": {"party": "A", "size": 1.0},
                          "output": {"party": "A", "size": 1}, "coeffs": [["1/1"]]},
                "map_b": {"input": {"party": "B", "size": 1},
                          "output": {"party": "B", "size": 1}, "coeffs": [["1/1"]]},
            }]},
            ("certify", "{dir}/triv.json", "--family", "{bad}"),
        ),
    ],
    ids=["float-size", "float-index", "bool-index", "map-float-size"],
)
def test_non_integer_size_or_index_exits_2(workdir, capsys, kind, doc, argv):
    bad = workdir / "inexact.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(a.format(dir=workdir, bad=bad) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {kind} ") and err.count("\n") == 1
    assert "must be an integer" in err


MAP_A = {"input": {"party": "A", "size": 1}, "output": {"party": "A", "size": 2},
         "coeffs": [["1/1"], ["0/1"]]}


@pytest.mark.parametrize(
    "kind, doc, argv, reason",
    [
        (
            "distribution",
            {"axes": [{"size": 2}], "entries": []},
            ("lambda", "{bad}"),
            "missing key 'party'",
        ),
        (
            "distribution",
            {"axes": axes_doc(2, 2, 1), "entries": [{"p": "1/1"}]},
            ("lambda", "{bad}"),
            "missing key 'index'",
        ),
        (
            "distribution",
            {"axes": axes_doc(2, 2, 1), "entries": [5]},
            ("lambda", "{bad}"),
            "distribution entry must be an object, got 5",
        ),
        (
            "distribution",
            {"axes": [5], "entries": []},
            ("lambda", "{bad}"),
            "axis must be an object, got 5",
        ),
        (
            "distribution",
            {"axes": 5, "entries": []},
            ("lambda", "{bad}"),
            "distribution axes must be a list, got 5",
        ),
        (
            "distribution",
            {"axes": axes_doc(2, 2, 1), "entries": 5},
            ("lambda", "{bad}"),
            "distribution entries must be a list, got 5",
        ),
        (
            "distribution",
            {"axes": axes_doc(2, 2, 1), "entries": [{"index": 5, "p": "1/1"}]},
            ("lambda", "{bad}"),
            "entry index must be a list, got 5",
        ),
        (
            "distribution",
            {"axes": [{"party": "A", "size": 2, "factors": 5}, *axes_doc(2, 2, 1)[1:]],
             "entries": []},
            ("lambda", "{bad}"),
            "axis factors must be a list, got 5",
        ),
        (
            "distribution",
            {"axes": [{"party": 5, "size": 2}, *axes_doc(2, 2, 1)[1:]], "entries": []},
            ("lambda", "{bad}"),
            "axis party must be a string, got 5",
        ),
        (
            "distribution",
            {"axes": axes_doc(2, 2, 1)},
            ("lambda", "{bad}"),
            "distribution JSON needs 'axes' and 'entries'",
        ),
        (
            "family",
            {"pairs": [{"map_a": {k: v for k, v in MAP_A.items() if k != "input"},
                        "map_b": MAP_A}]},
            ("certify", "{dir}/triv.json", "--family", "{bad}"),
            "missing key 'input'",
        ),
        (
            "certificate",
            {"optimum": "0/1", "lambda0": "1/2", "fingerprint": "", "dual": None},
            ("verify", "{dir}/triv.json", "{dir}/fam1.json", "{bad}"),
            "missing key 'verdict'",
        ),
    ],
    ids=["dist-party", "dist-index", "dist-entry-not-object", "dist-axis-not-object",
         "dist-axes-not-list", "dist-entries-not-list", "dist-index-not-list",
         "dist-factors-not-list", "dist-party-not-string", "dist-entries", "family-input",
         "cert-verdict"],
)
def test_missing_key_or_non_object_entry_exits_2(workdir, capsys, kind, doc, argv, reason):
    bad = workdir / "incomplete.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(a.format(dir=workdir, bad=bad) for a in argv))
    assert code == 2 and out == ""
    assert err == f"error: cannot read {kind} {bad}: {reason}\n"


@pytest.mark.parametrize(
    "axes, index, reason",
    [
        (axes_doc(2, 2, 1), [0, 2, 0], "index (0, 2, 0) out of range on axis 'B' (position 1, size 2)"),
        (axes_doc(2, 2, 1), [0, 0], "index (0, 0) has wrong arity for 3 axes"),
        ([*axes_doc(2, 2), {"party": "A", "size": 1}], [0, 0, 0], "duplicate axis label 'A'"),
        (axes_doc(2, 2, 0), [0, 0, 0], "axis 'E' must have size >= 1, got 0"),
        ([{"party": "A", "size": 2, "factors": [3]}, *axes_doc(2, 2, 1)[1:]], [0, 0, 0],
         "axis 'A': factors (3,) do not multiply to size 2"),
    ],
    ids=["index-out-of-range", "index-arity", "duplicate-label", "size-0", "factors"],
)
def test_inconsistent_distribution_exits_2(workdir, capsys, axes, index, reason):
    bad = workdir / "inconsistent.json"
    bad.write_text(json.dumps({"axes": axes, "entries": [{"index": index, "p": "1/1"}]}))
    code, out, err = run(capsys, "lambda", bad)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read distribution {bad}: {reason}\n"


def undistillable_cert_doc(workdir):
    code = main(["certify", str(workdir / "triv.json"), "--family", str(workdir / "fam1.json"),
                 "--out", str(workdir / "cert.json")])
    assert code == 0
    return json.loads((workdir / "cert.json").read_text())


@pytest.mark.parametrize(
    "kind, doc, reason",
    [
        ("family", 5, "family JSON must be an object, got 5"),
        ("family", {"pairs": 5}, "family pairs must be a list, got 5"),
        ("family", {"pairs": [5]}, "family pair must be an object, got 5"),
        ("family", {"pairs": [{"map_a": 5, "map_b": MAP_A}]}, "map must be an object, got 5"),
        ("family", {"pairs": [{"map_a": {**MAP_A, "coeffs": 5}, "map_b": MAP_A}]},
         "map coeffs must be a list of rows, got 5"),
        ("certificate", {"dual": 5},
         "certificate dual must be null or an object with a row_multipliers list, got 5"),
        ("certificate", {"dual": {"row_multipliers": 5}},
         "certificate dual must be null or an object with a row_multipliers list, "
         'got {"row_multipliers": 5}'),
    ],
    ids=["family-not-object", "pairs-not-list", "pair-not-object", "map-not-object",
         "coeffs-not-rows", "dual-not-object", "multipliers-not-list"],
)
def test_non_object_pair_map_or_dual_exits_2(workdir, capsys, kind, doc, reason):
    if kind == "certificate":
        doc = {**undistillable_cert_doc(workdir), **doc}
        capsys.readouterr()
        argv = ("verify", workdir / "triv.json", workdir / "fam1.json")
    else:
        argv = ("certify", workdir / "triv.json", "--family")
    bad = workdir / "malformed.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, bad)
    assert code == 2 and out == ""
    assert err == f"error: cannot read {kind} {bad}: {reason}\n"


@pytest.mark.parametrize(
    "kind, path, what",
    [
        ("distribution", (), "distribution"),
        ("distribution", ("axes", 0), "axis"),
        ("distribution", ("entries", 0), "distribution entry"),
        ("family", (), "family"),
        ("family", ("pairs", 0), "family pair"),
        ("family", ("pairs", 0, "map_b"), "map"),
        ("family", ("pairs", 0, "map_a", "input"), "axis"),
        ("certificate", (), "certificate"),
        ("certificate", ("dual",), "certificate dual"),
    ],
    ids=["distribution", "distribution-axis", "distribution-entry", "family", "family-pair",
         "family-map", "family-axis", "certificate", "certificate-dual"],
)
def test_an_unknown_key_in_an_input_file_exits_2(workdir, capsys, kind, path, what):
    """A key no reader reads is refused, as a manifest entry's is, before any
    verdict or digest is taken."""
    if kind == "certificate":
        doc = undistillable_cert_doc(workdir)
        capsys.readouterr()
    else:
        doc = json.loads((workdir / {"distribution": "triv.json", "family": "fam1.json"}[kind]).read_text())
    node = doc
    for key in path:
        node = node[key]
    node["extra"] = 1
    bad = workdir / "extra.json"
    bad.write_text(json.dumps(doc))
    argv = {
        "distribution": ("lambda-max", bad),
        "family": ("certify", workdir / "triv.json", "--family", bad),
        "certificate": ("verify", workdir / "triv.json", workdir / "fam1.json", bad),
    }[kind]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {kind} {bad}: {what} has unknown key 'extra'\n"


def test_a_certificate_primal_with_an_unknown_key_exits_2(workdir, capsys):
    code, _, _ = run(capsys, "certify", workdir / "sb.json", "--family", workdir / "fam22.json",
                     "--out", workdir / "cert.json")
    doc = json.loads((workdir / "cert.json").read_text())
    assert code == 0 and doc["verdict"] == "inconclusive"
    doc["primal"]["extra"] = 1
    bad = workdir / "extra.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", workdir / "sb.json", workdir / "fam22.json", bad)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read certificate {bad}: distribution has unknown key 'extra'\n"


@pytest.mark.parametrize(
    "kind, path",
    [
        ("distribution", ("entries", 0, "p")),
        ("family", ("pairs", 0, "map_a", "coeffs", 0, 0)),
        ("certificate", ("optimum",)),
        ("certificate", ("lambda0",)),
        ("certificate", ("dual", "row_multipliers", 0)),
    ],
    ids=["dist-p", "map-coeff", "cert-optimum", "cert-lambda0", "cert-multiplier"],
)
def test_json_number_for_a_rational_exits_2(workdir, capsys, kind, path):
    """Rationals are "num/den" strings in every input file; a JSON number is refused."""
    source = {"distribution": workdir / "triv.json", "family": workdir / "fam1.json"}
    if kind == "certificate":
        doc = undistillable_cert_doc(workdir)
        capsys.readouterr()
    else:
        doc = json.loads(source[kind].read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = int(node[path[-1]].split("/")[0])
    bad = workdir / "numeric.json"
    bad.write_text(json.dumps(doc))
    argv = {
        "distribution": ("certify", bad, "--family", workdir / "fam1.json"),
        "family": ("certify", workdir / "triv.json", "--family", bad),
        "certificate": ("verify", workdir / "triv.json", workdir / "fam1.json", bad),
    }[kind]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: cannot read {kind} {bad}: rational must be a string, got int\n"


@pytest.mark.parametrize("value", [0.5, True, None, ["1/2"], {"num": 1}],
                         ids=["float", "bool", "null", "list", "dict"])
def test_a_non_string_multiplier_exits_2(workdir, capsys, value):
    """A multiplier that is not a string is refused as such, even where earlier
    strings have been parsed and kept, and even when it cannot be hashed."""
    doc = undistillable_cert_doc(workdir)
    capsys.readouterr()
    multipliers = doc["dual"]["row_multipliers"]
    multipliers.append(multipliers[0])
    multipliers.append(value)
    bad = workdir / "typed.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", workdir / "triv.json", workdir / "fam1.json", bad)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read certificate {bad}: rational must be a string, got {type(value).__name__}\n"


# -- certificate fuzzing: one JSON node of a valid certificate changed ----------------

JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(-2, 2)
    | st.sampled_from(["", "0/1", "1/2", "-1/4", "1/0", "x", "undistillable", "inconclusive"])
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=4,
)


def json_paths(node, path=()):
    """The path of every node of a JSON document, the root's () first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, (*path, key))


@pytest.fixture(scope="module")
def fuzzed_inputs(tmp_path_factory):
    """(g path, family path, certificate JSON) of a valid inconclusive and a
    valid undistillable certificate, with a scratch certificate path."""
    base = tmp_path_factory.mktemp("fuzz")
    sb = tensor(secret_bit(), trivial_eve())
    uniform = JointDist((Axis("A", 2), Axis("B", 2), Axis("E", 1)),
                        {(a, b, 0): F(1, 4) for a in range(2) for b in range(2)})
    fam = deterministic_family(2, 2, cap=2)
    (base / "fam.json").write_text(fam.dumps())
    inputs = {}
    for name, g in (("inconclusive", sb), ("undistillable", uniform)):
        (base / f"{name}.json").write_text(g.dumps())
        cert = certify(g, fam)
        assert cert.verdict == name
        inputs[name] = (base / f"{name}.json", base / "fam.json", cert.to_json_dict())
    return inputs, base / "fuzzed.json"


@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_certificate_with_one_node_changed_is_judged_or_refused(fuzzed_inputs, capsys, data):
    """verify of a certificate with one JSON node replaced or deleted, and
    sometimes re-digested, exits 0, 1 with a verdict line or 2 with one
    stderr line: never a traceback."""
    inputs, path = fuzzed_inputs
    g, fam, doc = inputs[data.draw(st.sampled_from(sorted(inputs)))]
    doc = json.loads(json.dumps(doc))
    where = data.draw(st.sampled_from(list(json_paths(doc))))
    if where:
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[where[-1]]
        else:
            parent[where[-1]] = data.draw(JSON_VALUES)
    else:
        doc = data.draw(JSON_VALUES)
    if data.draw(st.booleans()):
        # reach the checks behind the digest
        try:
            doc["digest"] = _certificate_digest(Certificate.from_json_dict(doc))
        except (ValueError, KeyError, TypeError):
            pass
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code, out, err = run(capsys, "verify", g, fam, path)
    assert code in (0, 1, 2), (code, out, err)
    assert "Traceback" not in out + err
    if code == 0:
        assert (out, err) == ("certificate valid\n", "")
    elif code == 1:
        assert out.startswith("certificate INVALID: ") and out.count("\n") == 1 and err == ""
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


# -- distribution fuzzing: one JSON node of a valid distribution changed ---------------

# 10^12 as a size reaches the search bound's refusal without a search
DIST_VALUES = JSON_VALUES | st.just(10**12)


def change_one_node(data, doc):
    """A copy of doc with one JSON node replaced or deleted, or an "extra" key
    added to an object node: (the copy, the node's path, how)."""
    doc = json.loads(json.dumps(doc))
    where = data.draw(st.sampled_from(list(json_paths(doc))))
    node = doc
    for key in where[:-1]:
        node = node[key]
    target = node[where[-1]] if where else doc
    how = data.draw(st.sampled_from(["replace", "delete", "add-key"] if isinstance(target, dict)
                                    else ["replace", "delete"]))
    if how == "add-key":
        target["extra"] = data.draw(DIST_VALUES)
    elif not where:
        doc = data.draw(DIST_VALUES)
    elif how == "delete":
        del node[where[-1]]
    else:
        node[where[-1]] = data.draw(DIST_VALUES)
    return doc, where, how


@pytest.fixture(scope="module")
def fuzzed_dists(tmp_path_factory):
    """The JSON of two valid small distributions, with a scratch path."""
    base = tmp_path_factory.mktemp("dist-fuzz")
    bits = JointDist((Axis("A", 2), Axis("B", 2), Axis("E", 2)),
                     {(0, 0, 0): F(1, 3), (1, 1, 0): F(1, 6), (0, 1, 1): F(1, 4), (1, 1, 1): F(1, 4)})
    wide = JointDist((Axis("E", 2), Axis("B", 2), Axis("A", 3)),
                     {(0, 0, 2): F(1, 2), (1, 1, 0): F(1, 4), (0, 1, 1): F(1, 4)})
    return [bits.to_json_dict(), wide.to_json_dict()], base / "fuzzed.json"


@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_distribution_with_one_node_changed_is_judged_or_refused(fuzzed_dists, capsys, data):
    """lambda and lambda-max of a distribution with one JSON node replaced or
    deleted, or with an unknown key added, exit 0, 2 with one stderr line, or 3
    with the search bound's line: never a traceback."""
    docs, path = fuzzed_dists
    doc, where, how = change_one_node(data, data.draw(st.sampled_from(docs)))
    path.write_text(json.dumps(doc))
    for command in ("lambda", "lambda-max"):
        capsys.readouterr()
        code, out, err = run(capsys, command, path)
        assert code in (0, 2, 3), (command, code, out, err)
        assert "Traceback" not in out + err
        if code == 0:
            assert err == "" and out.endswith("\n")
        else:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n")
            assert err.startswith("refused: |A| + |B| = " if code == 3 else "error: "), err
    if how == "add-key":
        what = {"axes": "axis", "entries": "distribution entry"}[where[0]] if where else "distribution"
        assert (code, err) == (2, f"error: cannot read distribution {path}: {what} has unknown key 'extra'\n")


# -- family-file and manifest fuzzing: one JSON node of a valid input changed ----------


@pytest.fixture(scope="module")
def fuzzed_runs(tmp_path_factory):
    """A directory holding a g, a one-pair family file and their certificate,
    with the JSON of that family and of a manifest of one file family and
    one family of each generator."""
    base = tmp_path_factory.mktemp("run-fuzz")
    sb = tensor(secret_bit(), trivial_eve())
    fam = deterministic_family(2, 2, cap=1)
    (base / "sb.json").write_text(sb.dumps())
    (base / "fam.json").write_text(fam.dumps())
    (base / "cert.json").write_text(certify(sb, fam).dumps())
    manifest = [
        {"g": "sb.json", "family": "fam.json", "lambda0": "1/2"},
        {"g": "sb.json", "family": {"gen": "deterministic", "M": 1}},
        {"g": "sb.json", "family": {"gen": "random", "M": 1, "seed": 3, "denom_bound": 2}},
    ]
    return base, {"family": fam.to_json_dict(), "manifest": manifest}


@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_family_file_or_manifest_with_one_node_changed_is_judged_or_refused(fuzzed_runs, capsys,
                                                                               data):
    """certify --family and verify of a family file, and batch of a manifest,
    with one JSON node replaced or deleted, or with an unknown key added, exit
    0 or 2 (1 only from verify, 3 only with a size-guard refusal): never a
    traceback.  certify and verify refuse in one stderr line; batch refuses an
    entry in an ERROR row and an unreadable manifest in one stderr line."""
    base, docs = fuzzed_runs
    kind = data.draw(st.sampled_from(sorted(docs)))
    doc, _, _ = change_one_node(data, docs[kind])
    path = base / f"fuzzed_{kind}.json"
    path.write_text(json.dumps(doc))
    if kind == "family":
        runs = [("certify", base / "sb.json", "--family", path),
                ("verify", base / "sb.json", path, base / "cert.json")]
    else:
        runs = [("batch", path)]
    for argv in runs:
        capsys.readouterr()
        code, out, err = run(capsys, *argv)
        assert code in ((0, 1, 2, 3) if argv[0] == "verify" else (0, 2, 3)), (argv, code, out, err)
        assert "Traceback" not in out + err
        if argv[0] == "batch" and out:
            rows = [line.split("\t") for line in out.splitlines()[1:]]
            assert out.startswith("g\tfamily\tlambda0\tverdict\toptimum\n")
            assert all(len(row) == 5 for row in rows) and len(rows) == len(doc), out
            errors = [row[4] for row in rows if row[3] == "ERROR"]
            assert (code == 0) == (not errors)
            assert (code == 3) == any(e.startswith(GUARD_REFUSALS) for e in errors), out
            assert all(line.startswith("timing\t") for line in err.splitlines())
        elif code == 0:
            assert out in ("certificate valid\n", "UNDISTILLABLE\n") or out.startswith(
                "INCONCLUSIVE optimum="), out
        elif code == 1:
            assert out.startswith("certificate INVALID: ") and out.count("\n") == 1 and err == ""
        else:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n")
            assert err.startswith("refused: " if code == 3 else "error: "), err


def family_with_seed(workdir, seed):
    doc = json.loads((workdir / "fam1.json").read_text())
    doc["seed"] = seed
    path = workdir / "seeded.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("seed, shown", [(1.5, "1.5"), ("x", '"x"'), (True, "true")],
                         ids=["float", "string", "bool"])
def test_family_seed_must_be_an_integer(workdir, capsys, seed, shown):
    path = family_with_seed(workdir, seed)
    code, out, err = run(capsys, "certify", workdir / "triv.json", "--family", path)
    assert code == 2 and out == ""
    assert err == f"error: cannot read family {path}: family seed must be an integer, got {shown}\n"


@pytest.mark.parametrize("seed", [None, 7], ids=["null", "int"])
def test_family_seed_null_or_int_loads(workdir, capsys, seed):
    path = family_with_seed(workdir, seed)
    code, out, _ = run(capsys, "certify", workdir / "triv.json", "--family", path)
    assert code == 0 and out == "UNDISTILLABLE\n"


def test_certify_rejects_float_lambda0(workdir, capsys):
    code, _, err = run(
        capsys, "certify", workdir / "sb.json", "--family", workdir / "fam22.json",
        "--lambda0", "0.5",
    )
    assert code == 2 and "rational" in err


@pytest.mark.parametrize("text", [" 1/2 ", "1_0/20", "1/+2"])
def test_certify_rejects_loose_lambda0(workdir, capsys, text):
    code, _, err = run(
        capsys, "certify", workdir / "sb.json", "--family", workdir / "fam22.json",
        "--lambda0", text,
    )
    assert (code, err) == (2, f"error: malformed rational: {text!r}\n")


def test_certify_rejects_out_of_range_lambda0(workdir, capsys):
    code, _, err = run(
        capsys, "certify", workdir / "sb.json", "--family", workdir / "fam22.json",
        "--lambda0", "1/3",
    )
    assert code == 2


# -- batch -------------------------------------------------------------------------------


def manifest_rows(workdir):
    return [
        {"g": "triv.json", "family": {"gen": "deterministic", "M": 1}},
        {"g": "sb.json", "family": {"gen": "deterministic", "M": 2}},
    ]


def test_batch_empty_manifest(workdir, capsys):
    path = workdir / "empty.json"
    path.write_text("[]")
    code, out, _ = run(capsys, "batch", path)
    assert code == 0
    assert out == "g\tfamily\tlambda0\tverdict\toptimum\n"


def test_batch_table_matches_certify(workdir, capsys):
    path = workdir / "manifest.json"
    path.write_text(json.dumps(manifest_rows(workdir)))
    code, out, _ = run(capsys, "batch", path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("sb.json") and "inconclusive" in lines[1]
    assert lines[2].startswith("triv.json") and "undistillable" in lines[2]


def test_batch_duplicates_deterministic(workdir, capsys):
    rows = manifest_rows(workdir) + manifest_rows(workdir)
    path = workdir / "manifest2.json"
    path.write_text(json.dumps(rows))
    code1, out1, _ = run(capsys, "batch", path)
    code2, out2, _ = run(capsys, "batch", path)
    assert code1 == code2 == 0
    assert out1 == out2


def test_batch_reports_row_failures(workdir, capsys):
    rows = [{"g": "bad.json", "family": {"gen": "deterministic", "M": 1}}]
    path = workdir / "manifest3.json"
    path.write_text(json.dumps(rows))
    code, out, _ = run(capsys, "batch", path)
    assert code == 2 and "ERROR" in out


def test_batch_non_object_entry_is_an_error_row(workdir, capsys):
    rows = [
        5,
        {"g": "triv.json", "family": 7},
        {"g": "triv.json", "family": {"gen": "deterministic", "M": 1}},
    ]
    path = workdir / "manifest4.json"
    path.write_text(json.dumps(rows))
    code, out, _ = run(capsys, "batch", path)
    assert code == 2
    lines = out.splitlines()
    assert lines[1:] == [
        "?\t?\t?\tERROR\tmanifest entry must be an object, got 5",
        "triv.json\t?\t?\tERROR\tfamily must be a path or an object, got 7",
        'triv.json\t{"M":1,"gen":"deterministic"}\t1/2\tundistillable\t0/1',
    ]


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"gen": "random", "M": "2"}, "M"),
        ({"gen": "random", "M": 2, "denom_bound": 2.0}, "denom_bound"),
        ({"gen": "random", "M": 2, "seed": 1.5}, "seed"),
        ({"gen": "random", "M": True}, "M"),
    ],
    ids=["string-M", "float-denom-bound", "float-seed", "bool-M"],
)
def test_batch_non_integer_generator_field_is_an_error_row(workdir, capsys, spec, field):
    path = workdir / "manifest5.json"
    path.write_text(json.dumps([{"g": "sb.json", "family": spec}]))
    code, out, _ = run(capsys, "batch", path)
    assert code == 2
    value = json.dumps(spec[field])
    assert out.splitlines()[1:] == [
        f"sb.json\t?\t?\tERROR\tfamily {field} must be an integer, got {value}"
    ]


DEEP_LIST = json.loads("[" * 900 + "]" * 900)


@pytest.mark.parametrize(
    "entry, reason",
    [
        ({"g": "triv.json", "family": "fam1.json", "extra": 1},
         "manifest entry has unknown key 'extra'"),
        ({"g": "triv.json", "family": {"gen": "deterministic", "M": 1, "m": 2}},
         "family has unknown key 'm'"),
        ({"g": 5, "family": "fam1.json"}, "manifest g must be a path string, got 5"),
        ({"g": {"a": 1}, "family": "fam1.json"},
         'manifest g must be a path string, got {"a": 1}'),
        ({"g": "triv.json", "family": "fam1.json", "lambda0": 0.5},
         "rational must be a string, got float"),
        ({"g": "triv.json", "family": "fam1.json", "lambda0": 1},
         "rational must be a string, got int"),
        ({"family": "fam1.json"}, "missing key 'g'"),
        ({"g": "triv.json"}, "missing key 'family'"),
        ({"g": "triv.json", "family": {"M": 1}}, "missing key 'gen'"),
        ({"g": "triv.json", "family": {"gen": None, "M": 1}}, "family gen must be a string"),
        ({"g": "triv.json", "family": {"gen": {"a": 1}}}, "family gen must be a string"),
        ({"g": "triv.json", "family": {"gen": DEEP_LIST}}, "family gen must be a string"),
        ({"g": "triv.json", "family": {"gen": "cover"}}, "unknown generator 'cover'"),
        ({"g": "triv.json", "family": {"gen": "cover", "M": 1}}, "unknown generator 'cover'"),
        ({"g": "triv.json", "family": {"gen": "deterministic"}},
         "deterministic family generation needs --M"),
        ({"g": "triv.json", "family": {"gen": "deterministic", "M": 1, "seed": 7}},
         "deterministic family generation does not read seed"),
        ({"g": "triv.json", "family": {"gen": "deterministic", "M": 1, "denom_bound": 3}},
         "deterministic family generation does not read denom_bound"),
    ],
    ids=["unknown-key", "unknown-family-key", "g-not-string", "g-object", "lambda0-float",
         "lambda0-int", "no-g", "no-family", "no-gen", "gen-null", "gen-object", "gen-deep-list",
         "gen-unknown", "gen-unknown-with-M", "deterministic-without-size",
         "deterministic-seed", "deterministic-denom-bound"],
)
def test_batch_refuses_a_loose_entry(workdir, capsys, entry, reason):
    path = workdir / "manifest6.json"
    path.write_text(json.dumps([entry, {"g": "triv.json", "family": "fam1.json"}]))
    code, out, _ = run(capsys, "batch", path)
    assert code == 2
    # a g that is not a path string is labelled "?"
    label = entry.get("g") if isinstance(entry.get("g"), str) else "?"
    assert out.splitlines()[1:] == sorted(
        [f"{label}\t?\t?\tERROR\t{reason}", "triv.json\tfam1.json\t1/2\tundistillable\t0/1"]
    )


@pytest.mark.parametrize("kind", ["distribution", "family", "certificate", "manifest"])
def test_deeply_nested_json_is_an_input_error(workdir, capsys, kind):
    deep = workdir / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = {
        "distribution": ("lambda", deep),
        "family": ("certify", workdir / "sb.json", "--family", deep),
        "certificate": ("verify", workdir / "sb.json", workdir / "fam22.json", deep),
        "manifest": ("batch", deep),
    }[kind]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {kind} {deep}: maximum recursion depth exceeded")
    assert err.count("\n") == 1


def test_batch_manifest_must_be_a_list(workdir, capsys):
    path = workdir / "object.json"
    path.write_text(json.dumps({"g": "triv.json", "family": "fam1.json"}))
    code, out, err = run(capsys, "batch", path)
    assert (code, out) == (2, "")
    assert err == "error: manifest must be a JSON list of {g, family, lambda0} entries\n"


def test_batch_unreadable_manifest_exits_2(workdir, capsys):
    path = workdir / "broken.json"
    path.write_text("[")
    code, out, err = run(capsys, "batch", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read manifest {path}: Expecting value")
    code, _, err = run(capsys, "batch", workdir / "missing.json")
    assert code == 2 and err.startswith(f"error: cannot read manifest {workdir / 'missing.json'}: ")


# -- gen-family ---------------------------------------------------------------------------


def test_gen_family_writes_deterministic_file(workdir, capsys):
    out_path = workdir / "fam_gen.json"
    code, _, _ = run(
        capsys, "gen-family", "--a-copy", 2, "--b-copy", 2, "--gen", "deterministic",
        "--M", 3, "--out", out_path,
    )
    assert code == 0
    fam = deterministic_family(2, 2, cap=3)
    assert out_path.read_text() == fam.dumps()


def test_gen_family_random_seeded(workdir, capsys):
    code, out1, _ = run(
        capsys, "gen-family", "--a-copy", 1, "--b-copy", 1, "--gen", "random",
        "--M", 2, "--seed", 5, "--denom-bound", 3,
    )
    code2, out2, _ = run(
        capsys, "gen-family", "--a-copy", 1, "--b-copy", 1, "--gen", "random",
        "--M", 2, "--seed", 5, "--denom-bound", 3,
    )
    assert code == code2 == 0 and out1 == out2


@pytest.mark.parametrize(
    "flags, reason",
    [
        (("--gen", "deterministic", "--M", -1), "family size must be >= 0, got -1"),
        (("--gen", "random", "--M", 0), "family size m must be >= 1"),
        (("--gen", "random", "--M", 1, "--denom-bound", 0), "denom_bound must be >= 1"),
        (("--gen", "deterministic", "--M", 1, "--a-copy", 0), "--a-copy must be >= 1, got 0"),
        (("--gen", "random", "--M", 1, "--b-copy", -1), "--b-copy must be >= 1, got -1"),
        (("--gen", "random", "--M", 10**8, "--a-copy", -1), "--a-copy must be >= 1, got -1"),
    ],
    ids=["negative-M", "M", "denom-bound", "a-copy", "b-copy", "copy-size-before-the-guard"],
)
def test_gen_family_refuses_out_of_range_sizes(capsys, flags, reason):
    code, out, err = run(capsys, "gen-family", "--a-copy", 1, "--b-copy", 1, *flags)
    assert (code, out) == (2, "")
    assert err == f"error: {reason}\n"


@pytest.mark.parametrize(
    "flags, reason",
    [
        (("--gen", "deterministic", "--M", 1, "--seed", 7),
         "deterministic family generation does not read seed"),
        (("--gen", "deterministic", "--denom-bound", 3),
         "deterministic family generation does not read denom_bound"),
    ],
    ids=["deterministic-seed", "deterministic-denom-bound"],
)
def test_gen_family_refuses_a_flag_its_generator_does_not_read(capsys, flags, reason):
    code, out, err = run(capsys, "gen-family", "--a-copy", 1, "--b-copy", 1, *flags)
    assert (code, out, err) == (2, "", f"error: {reason}\n")


@pytest.fixture
def no_family_drawn(monkeypatch):
    """Fail the test if either generator draws a family."""

    def drawn(*args, **kwargs):
        pytest.fail("a family was drawn")

    monkeypatch.setattr(families, "deterministic_family", drawn)
    monkeypatch.setattr(families, "random_filter_family", drawn)


@pytest.mark.parametrize("gen", ["random", "deterministic"], ids=["random", "deterministic-M"])
def test_gen_family_refuses_a_size_no_g_can_certify_before_drawing(no_family_drawn, capsys, gen):
    t0 = time.perf_counter()
    code, out, err = run(
        capsys, "gen-family", "--a-copy", 2, "--b-copy", 2, "--gen", gen, "--M", 100_000_000
    )
    assert time.perf_counter() - t0 < 2
    assert (code, out) == (3, "")
    # guarded at d = 1, the least d any g has, with the copy sizes 2 and 2
    assert err == (
        "refused: d + M = 1 + 100000000 = 100000001 exceeds the bound 16: the program would "
        "have 2^100000005 or more variables and about 2^100000027 or more selector rows\n"
    )


DM_17_REFUSAL = (
    "d + M = 1 + 16 = 17 exceeds the bound 16: the program would have 524288 variables "
    "and about 2228224 selector rows"
)
WIDE_COPIES_REFUSAL = (
    "|A| = 64 and |B| = 128 at d + M = 6: the program would have 2097152 variables, "
    "more than the 1048576 the bound 16 allows"
)


@pytest.mark.parametrize(
    "copies, gen, m, refusal",
    [((1, 1), "random", 15, None), ((1, 1), "random", 16, DM_17_REFUSAL),
     ((1, 1), "deterministic", 15, None), ((1, 1), "deterministic", 16, DM_17_REFUSAL),
     ((64, 128), "random", 4, None), ((64, 128), "random", 5, WIDE_COPIES_REFUSAL),
     ((64, 128), "deterministic", 4, None), ((64, 128), "deterministic", 5, WIDE_COPIES_REFUSAL)],
    ids=["random-15", "random-16", "deterministic-15", "deterministic-16",
         "random-4", "random-5", "deterministic-4", "deterministic-5"],
)
def test_gen_family_guard_boundary(capsys, copies, gen, m, refusal):
    # guarded at d = 1, the least d any g has: at 1x1 copies d + M may reach 16; at 64x128
    # copies the 4 * 64 * 128 * 2^(1 + M) variables reach the 2^20 the bound allows at M = 4
    code, out, err = run(capsys, "gen-family", "--a-copy", copies[0], "--b-copy", copies[1],
                         "--gen", gen, "--M", m)
    if refusal:
        assert (code, out, err) == (3, "", f"refused: {refusal}\n")
    else:
        assert (code, err) == (0, "")
        assert len(MapFamily.loads(out)) == m


def test_gen_family_with_no_size_is_refused(no_family_drawn, capsys):
    # 3x3 copy alphabets have 529,984 deterministic pairs: none is drawn
    t0 = time.perf_counter()
    code, out, err = run(
        capsys, "gen-family", "--a-copy", 3, "--b-copy", 3, "--gen", "deterministic"
    )
    assert time.perf_counter() - t0 < 2
    assert (code, out, err) == (2, "", "error: deterministic family generation needs --M\n")


def test_gen_family_without_gen_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-family", "--a-copy", "1", "--b-copy", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", "nodistill gen-family: error: the following arguments are required: --gen\n"
    )


def test_gen_family_takes_no_family_flag(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-family", "--a-copy", "1", "--b-copy", "1", "--gen", "deterministic",
              "--family", str(workdir / "fam1.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: unrecognized arguments: --family {workdir / 'fam1.json'}\n")


def test_gen_family_guards_its_copy_sizes_before_drawing_every_pair(no_family_drawn, capsys):
    # the guard is applied at d = 1 with the copy sizes
    t0 = time.perf_counter()
    code, out, err = run(
        capsys, "gen-family", "--a-copy", 10**8, "--b-copy", 2, "--gen", "deterministic", "--M", 0
    )
    assert time.perf_counter() - t0 < 2
    assert (code, out) == (3, "")
    assert err == (
        "refused: |A| = 100000000 and |B| = 2 at d + M = 1: the program would have 1600000000 "
        "variables, more than the 1048576 the bound 16 allows\n"
    )


# A family spec each of certify --gen, a batch {"gen": ...} object and gen-family
# refuses alike: (|A| = a_copy, |B| = b_copy, d of g; the spec; the commands that
# read it; exit code; reason).
SHARED_REFUSALS = {
    "missing-size-deterministic": (
        (1, 1, 1), {"gen": "deterministic"}, ("certify", "batch", "gen-family"), 2,
        "deterministic family generation needs --M"),
    "missing-size-random": (
        (1, 1, 1), {"gen": "random"}, ("certify", "batch", "gen-family"), 2,
        "random family generation needs --M"),
    "unread-field": (
        (1, 1, 1), {"gen": "deterministic", "M": 1, "seed": 7}, ("certify", "batch", "gen-family"),
        2, "deterministic family generation does not read seed"),
    "negative-size": (
        (1, 1, 1), {"gen": "deterministic", "M": -1}, ("certify", "batch", "gen-family"), 2,
        "family size must be >= 0, got -1"),
    "M-over-the-bound": (
        (1, 1, 1), {"gen": "random", "M": 16}, ("certify", "batch", "gen-family"), 3,
        "d + M = 1 + 16 = 17 exceeds the bound 16: the program would have 524288 variables "
        "and about 2228224 selector rows"),
    "huge-copy-alphabets": (
        (10**12, 2, 1), {"gen": "random", "M": 1}, ("certify", "batch", "gen-family"), 3,
        "|A| = 1000000000000 and |B| = 2 at d + M = 2: the program would have 32000000000000 "
        "variables, more than the 1048576 the bound 16 allows"),
}


@pytest.mark.parametrize(
    "spec_id, command",
    [(spec_id, command) for spec_id, (_, _, commands, _, _) in SHARED_REFUSALS.items()
     for command in commands],
)
def test_generators_refuse_a_family_spec_alike(no_family_drawn, workdir, capsys, spec_id, command):
    sizes, spec, _, want_code, reason = SHARED_REFUSALS[spec_id]
    g = JointDist(tuple(map(Axis, "ABE", sizes)), {(0, 0, 0): F(1)})
    (workdir / "g.json").write_text(g.dumps())
    flags = [x for k, v in spec.items() for x in (f"--{k}", v)]
    t0 = time.perf_counter()
    if command == "batch":
        (workdir / "manifest.json").write_text(json.dumps([{"g": "g.json", "family": spec}]))
        code, out, _ = run(capsys, "batch", workdir / "manifest.json")
        assert out.splitlines()[1:] == [f"g.json\t?\t?\tERROR\t{reason}"]
    else:
        argv = ["certify", workdir / "g.json"] if command == "certify" else [
            "gen-family", "--a-copy", sizes[0], "--b-copy", sizes[1]]
        code, out, err = run(capsys, *argv, *flags)
        prefix = "refused" if want_code == 3 else "error"
        assert (out, err) == ("", f"{prefix}: {reason}\n")
    assert time.perf_counter() - t0 < 2
    assert code == want_code


@pytest.mark.parametrize(
    "flag, command",
    [("--cap", "certify"), ("--cap", "gen-family"),
     *(("--max-dm", command) for command in ("certify", "verify", "batch", "gen-family"))],
    ids=["certify", "gen-family", "max-dm-certify", "max-dm-verify", "max-dm-batch",
         "max-dm-gen-family"],
)
def test_the_cap_flag_is_refused_by_the_parser(no_family_drawn, workdir, capsys, flag, command):
    """The size has one spelling, M, and its bound none: the old --cap and
    --max-dm flags are unrecognized, and so are their keys in a manifest family."""
    argv = {
        "certify": ("certify", workdir / "triv.json", "--gen", "deterministic"),
        "verify": ("verify", workdir / "triv.json", workdir / "fam1.json", workdir / "cert.json"),
        "batch": ("batch", workdir / "manifest.json"),
        "gen-family": ("gen-family", "--a-copy", 1, "--b-copy", 1, "--gen", "deterministic"),
    }[command]
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv, flag, 3)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"nodistill: error: unrecognized arguments: {flag} 3\n")
    key = flag[2:].replace("-", "_")
    path = workdir / f"manifest_{key}.json"
    path.write_text(json.dumps([{"g": "triv.json", "family": {"gen": "deterministic", key: 1}}]))
    code, out, _ = run(capsys, "batch", path)
    assert (code, out.splitlines()[1:]) == (2, [f"triv.json\t?\t?\tERROR\tfamily has unknown key '{key}'"])


def test_one_parser_serves_every_command_of_a_process(workdir, capsys):
    """A refusal by the parser leaves nothing behind: a command run after it,
    and run again, prints what it prints in a fresh process."""
    argv = [str(a) for a in ("certify", workdir / "sb.json", "--gen", "deterministic", "--M", 2)]
    with pytest.raises(SystemExit):
        main(["certify", str(workdir / "sb.json"), "--gen", "deterministic", "--cap", "2"])
    capsys.readouterr()
    runs = [run(capsys, *argv)[:2] for _ in range(2)]
    src = Path(families.__file__).resolve().parents[1]
    fresh = subprocess.run(
        [sys.executable, "-c", "import sys; from nodistill.cli import main; sys.exit(main())", *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert runs == [(fresh.returncode, fresh.stdout)] * 2
    assert runs[0] == (0, "INCONCLUSIVE optimum=1/4\n")
