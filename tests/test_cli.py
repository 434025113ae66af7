import json
from fractions import Fraction as F

import pytest

from nodistill.cli import main
from nodistill.families import deterministic_family
from nodistill.measures import LambdaWitness
from nodistill.probvec import Axis, JointDist, secret_bit, tensor

from conftest import trivial_eve


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


def test_lambda_max_negative_refine_rounds_exits_2(workdir, capsys):
    code, out, err = run(capsys, "lambda-max", workdir / "sb.json", "--refine-rounds", -1)
    assert code == 2 and out == ""
    assert err == "error: refine_rounds must be >= 0, got -1\n"


def test_lambda_max_negative_max_pairs_exits_2(workdir, capsys):
    code, out, err = run(capsys, "lambda-max", workdir / "sb.json", "--max-pairs", -1)
    assert code == 2 and out == ""
    assert err == "error: max_pairs must be >= 0, got -1\n"


def test_lambda_max_zero_budget_status(workdir, capsys):
    code, out, _ = run(capsys, "lambda-max", workdir / "sb.json", "--max-pairs", 0)
    assert code == 0 and out.startswith("no witness searched")


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
        capsys, "certify", workdir / "sb.json", "--gen", "deterministic", "--cap", 2
    )
    assert code == 0 and out.startswith("INCONCLUSIVE")


def test_certify_guard_refusal_exits_3(workdir, capsys):
    code, _, err = run(
        capsys, "certify", workdir / "eka.json", "--gen", "deterministic", "--cap", 20,
        "--max-dm", 8,
    )
    assert code == 3 and "exceeds" in err


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
         "family-input", "cert-verdict"],
)
def test_missing_key_or_non_object_entry_exits_2(workdir, capsys, kind, doc, argv, reason):
    bad = workdir / "incomplete.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(a.format(dir=workdir, bad=bad) for a in argv))
    assert code == 2 and out == ""
    assert err == f"error: cannot read {kind} {bad}: {reason}\n"


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


def test_certify_rejects_out_of_range_lambda0(workdir, capsys):
    code, _, err = run(
        capsys, "certify", workdir / "sb.json", "--family", workdir / "fam22.json",
        "--lambda0", "1/3",
    )
    assert code == 2


# -- batch -------------------------------------------------------------------------------


def manifest_rows(workdir):
    return [
        {"g": "triv.json", "family": {"gen": "deterministic", "cap": 1}},
        {"g": "sb.json", "family": {"gen": "deterministic", "cap": 2}},
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
    rows = [{"g": "bad.json", "family": {"gen": "deterministic", "cap": 1}}]
    path = workdir / "manifest3.json"
    path.write_text(json.dumps(rows))
    code, out, _ = run(capsys, "batch", path)
    assert code == 2 and "ERROR" in out


def test_batch_non_object_entry_is_an_error_row(workdir, capsys):
    rows = [
        5,
        {"g": "triv.json", "family": 7},
        {"g": "triv.json", "family": {"gen": "deterministic", "cap": 1}},
    ]
    path = workdir / "manifest4.json"
    path.write_text(json.dumps(rows))
    code, out, _ = run(capsys, "batch", path)
    assert code == 2
    lines = out.splitlines()
    assert lines[1:] == [
        "?\t?\t?\tERROR\tmanifest entry must be an object, got 5",
        "triv.json\t?\t?\tERROR\tfamily must be a path or an object, got 7",
        'triv.json\t{"cap":1,"gen":"deterministic"}\t1/2\tundistillable\t0/1',
    ]


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"gen": "random", "M": "2"}, "M"),
        ({"gen": "random", "M": 2, "denom_bound": 2.0}, "denom_bound"),
        ({"gen": "random", "M": 2, "seed": 1.5}, "seed"),
        ({"gen": "random", "M": True}, "M"),
        ({"gen": "deterministic", "cap": True}, "cap"),
    ],
    ids=["string-M", "float-denom-bound", "float-seed", "bool-M", "bool-cap"],
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


# -- gen-family ---------------------------------------------------------------------------


def test_gen_family_writes_deterministic_file(workdir, capsys):
    out_path = workdir / "fam_gen.json"
    code, _, _ = run(
        capsys, "gen-family", "--a-copy", 2, "--b-copy", 2, "--gen", "deterministic",
        "--cap", 3, "--out", out_path,
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
