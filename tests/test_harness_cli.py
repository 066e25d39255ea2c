"""Sampling harness determinism, the verification reports, and the CLI."""

import json
import random

import pytest

from stabq import cli, harness
from stabq.engine import StabilityPoint, standard_heart_point
from stabq.exact import Gaussian


def test_sample_sigma_deterministic():
    p1 = harness.sample_sigma(("F2", 1), seed=5)
    p2 = harness.sample_sigma(("F2", 1), seed=5)
    assert p1 == p2
    p3 = harness.sample_sigma(("F2", 1), seed=6)
    assert p1 != p3  # overwhelmingly likely with rational charges


def test_sample_sigma_honors_anchor_and_shift():
    pt = harness.sample_sigma(("F5", -1, (0, -1, -2)), seed=2)
    assert (pt.family, pt.m, pt.shift) == ("F5", -1, (0, -1, -2))


def test_sample_sigma_callable_constraint():
    pred = lambda p: p.charges[0].re > 0
    pt = harness.sample_sigma(("F1", 0), constraints=pred, seed=9)
    assert pt.charges[0].re > 0


def test_sample_sigma_collinear_constraint_needs_f8():
    with pytest.raises(ValueError):
        harness.sample_sigma(("F1", 0), constraints="phi(M)=phi(M')")


def test_lemma_ids_cover_suites():
    assert len(harness.LEMMA_IDS) == 19
    assert "coverage" in harness.LEMMA_IDS
    with pytest.raises(ValueError):
        harness.verify_lemma("no-such-lemma", 1)


def test_verify_lemma_deterministic():
    r1 = harness.verify_lemma("(_,_,X)0", 40, seed=3)
    r2 = harness.verify_lemma("(_,_,X)0", 40, seed=3)
    d1, d2 = r1.to_json(), r2.to_json()
    d1.pop("wall_time"), d2.pop("wall_time")
    assert d1 == d2
    assert r1.attempted == 40 and r1.ok


def test_report_serialization():
    r = harness.verify_lemma("disjointness-TaTb", 10, seed=1)
    d = r.to_json()
    assert d["lemma"] == "disjointness-TaTb"
    assert d["ok"] == (not d["mismatches"])
    json.dumps(d)  # serializable


def _write_sigma(tmp_path):
    pt = standard_heart_point(
        (Gaussian.of(-1, 1), Gaussian.of(0, 1), Gaussian.of(1, 1))
    )
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(pt.to_json()))
    return str(path)


def test_cli_catalog_and_hom(capsys):
    assert cli.main(["catalog", "--lo", "-1", "--hi", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {"label": "M", "dim": [0, 1, 0], "kclass": [0, 1, 0]} in rows
    assert cli.main(["hom", "a[0]", "M"]) == 0
    assert "hom^1(a[0], M) = 1" in capsys.readouterr().out
    assert cli.main(["hom", "b[1]", "M"]) == 0
    assert "= 0" in capsys.readouterr().out


def test_cli_mutate(capsys):
    assert cli.main(["mutate", "a[0], M, b[1][-1]", "R0"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("(") and out.count(",") == 2
    assert cli.main(["mutate", "a[0], M", "R0"]) == 2
    assert cli.main(["mutate", "a[0], M, b[1][-1]", "Q9"]) == 2


def test_cli_classify_and_oracle(tmp_path, capsys):
    sigma = _write_sigma(tmp_path)
    assert cli.main(["classify", sigma]) == 0
    tags = [tuple(e) for e in json.loads(capsys.readouterr().out)]
    assert ("cell", "F8", 0) in tags
    assert cli.main(["oracle", sigma, "b[0]"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["object"] == "b[0]" and rep["semistable_in_heart"] in (True, False)


def test_cli_oracle_refuses_points_outside_standard_heart(tmp_path, capsys):
    std = standard_heart_point(
        (Gaussian.of(-1, 1), Gaussian.of(0, 1), Gaussian.of(1, 1))
    )
    others = {
        "f2": harness.sample_sigma(("F2", 0), seed=1),
        "shifted": standard_heart_point(std.charges, global_shift=1),
    }
    for name, pt in others.items():
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(pt.to_json()))
        assert cli.main(["oracle", str(path), "b[0]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("oracle: ") and captured.err.count("\n") == 1


def _assert_bad_input(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(argv[0] + ": ")
    assert captured.err.count("\n") == 1


def test_cli_bad_input_exits_2_without_traceback(tmp_path, capsys):
    good = json.loads(open(_write_sigma(tmp_path)).read())
    no_m = json.loads(json.dumps(good))
    del no_m["anchor"]["m"]
    bad_charge = json.loads(json.dumps(good))
    bad_charge["charges"][0] = {"re": "1", "im": "0"}
    files = {
        "no_m.json": json.dumps(no_m),
        "bad_charge.json": json.dumps(bad_charge),
        "list.json": "[1, 2]",
        "not_json.json": "{not json",
    }
    paths = [str(tmp_path / "missing.json")]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    for path in paths:
        _assert_bad_input(["classify", path], capsys)
        _assert_bad_input(["oracle", path, "b[0]"], capsys)
        if "bad_charge" not in path:  # a slice spec ignores "charges"
            _assert_bad_input(
                ["slice", "--spec", path, "-o", str(tmp_path / "s.svg")], capsys
            )
    sigma = _write_sigma(tmp_path)
    _assert_bad_input(["oracle", sigma, "zz"], capsys)
    _assert_bad_input(["hom", "zz", "M"], capsys)
    _assert_bad_input(["hom", "a[0]", "b[x]"], capsys)
    _assert_bad_input(["mutate", "a[0], M, q", "R0"], capsys)
    _assert_bad_input(["mutate", "a[0], a[0], a[0]", "R0"], capsys)
    _assert_bad_input(["verify", "no-such-lemma", "-n", "1"], capsys)
    spec = tmp_path / "spec.json"
    for bad in ({"regions": ["Nowhere"]}, {"resolution": 0},
                {"anchor": {"family": "F9", "m": 0, "shift": [0, 0, -1]}},
                {"z2": {"re": "1", "im": "-1"}}):
        spec.write_text(json.dumps(bad))
        _assert_bad_input(
            ["slice", "--spec", str(spec), "-o", str(tmp_path / "s.svg")], capsys
        )
    assert not (tmp_path / "s.svg").exists()


def test_cli_verify(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(
        ["verify", "coverage", "-n", "15", "--seed", "1", "-o", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload[0]["lemma"] == "coverage" and payload[0]["attempted"] == 15
    capsys.readouterr()


def test_cli_slice_deterministic(tmp_path):
    spec = {
        "regions": ["Ta", "Tb"],
        "anchor": {"family": "F8", "m": 0, "shift": [0, 0, -1]},
        "resolution": 4,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out1, out2 = tmp_path / "s1.svg", tmp_path / "s2.svg"
    assert cli.main(["slice", "--spec", str(spec_path), "-o", str(out1)]) == 0
    assert cli.main(["slice", "--spec", str(spec_path), "-o", str(out2)]) == 0
    svg1, svg2 = out1.read_text(), out2.read_text()
    assert svg1 == svg2 and svg1.startswith("<svg") and "<rect" in svg1
    csv = (tmp_path / "s1.csv").read_text().splitlines()
    assert csv[0] == "i,j,Ta,Tb"
    assert len(csv) == 1 + 4 * 4


def test_oracle_agreement_smoke():
    rep = harness.oracle_agreement(25, seed=11)
    assert rep.attempted == 25 and not rep.mismatches
