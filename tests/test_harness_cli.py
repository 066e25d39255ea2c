"""Sampling harness determinism, the verification reports, and the CLI."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabq import cli, engine, harness, regions
from stabq.engine import EngineError, StabilityPoint, standard_heart_point
from stabq.exact import ExactError, Gaussian, primitive_multiple
from stabq.triples import FAMILY_IDS


def test_sample_sigma_deterministic():
    p1 = harness.sample_sigma(("F2", 1), seed=5)
    p2 = harness.sample_sigma(("F2", 1), seed=5)
    assert p1 == p2
    p3 = harness.sample_sigma(("F2", 1), seed=6)
    assert p1 != p3  # overwhelmingly likely with rational charges


def test_sample_sigma_honors_anchor_and_shift():
    pt = harness.sample_sigma(("F5", -1, (0, -1, -2)), seed=2)
    assert (pt.family, pt.m, pt.shift) == ("F5", -1, (0, -1, -2))


def test_sample_sigma_rejects_an_anchor_no_point_has(monkeypatch):
    """A shift outside the shift set, a shift of the wrong arity or type,
    an unknown family, and a shift the phi(M)=phi(M') construction cannot
    use (an even third shift) raise ValueError naming the anchor before
    any draw."""
    def no_draw(*args):
        raise AssertionError("drew a charge for a bad anchor")

    monkeypatch.setattr(harness, "_rand_charge", no_draw)
    monkeypatch.setattr(harness, "_rand_shift", no_draw)
    for anchor in (("F5", 0, (0, 5, 5)), ("F5", 0, (0, 0)), ("F9", 0),
                   ("F5", 0, 5), ("F8", 0, (0, 0.0, -1.0))):
        with pytest.raises(ValueError, match=re.escape(repr(anchor))):
            harness.sample_sigma(anchor, seed=1)
    anchor = ("F8", 0, (0, 0, -2))
    with pytest.raises(ValueError, match=re.escape(repr(anchor))):
        harness.sample_sigma(anchor, "phi(M)=phi(M')", seed=1)


def test_sample_sigma_rejects_an_unknown_constraint():
    for bad in ("phi(M)=phi(Mp)", "", 3):
        with pytest.raises(ValueError, match="unknown constraint"):
            harness.sample_sigma(("F8", 0), constraints=bad, seed=3)


def test_sample_sigma_collinear_constraint_needs_f8():
    with pytest.raises(ValueError):
        harness.sample_sigma(("F1", 0), constraints="phi(M)=phi(M')")


def test_lemma_ids_cover_suites():
    assert len(harness.LEMMA_IDS) == 19
    assert "coverage" in harness.LEMMA_IDS
    with pytest.raises(ValueError):
        harness.verify_lemma("no-such-lemma", 1)


def test_lemma_ids_pinned():
    # the lemma-suite benchmark cycles through the ids by position, and
    # verify_lemma seeds its sampler from the name
    assert harness.LEMMA_IDS == (
        "(_,_,X)0",
        "(X,_,_)0",
        "T12lemma1",
        "T12lemma3",
        "T12Zcap(E_1)",
        "T43Zcap(E_1)",
        "middle M cap left M'",
        "middle M cap left M",
        "middle M cap left right M",
        "middle M' cap left M",
        "middle M' cap left M'",
        "middle M' cap left right middle M",
        "one inclusion",
        "semi-stability of a",
        "semi-stability of b",
        "semi-stability of a'",
        "semi-stability of b'",
        "disjointness-TaTb",
        "coverage",
    )


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


def _explain(path, label, capsys, *extra):
    assert cli.main(["explain", path, label, *extra]) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_explain(tmp_path, capsys):
    """On a standard-heart point where a phase gap above a[0] kills the
    rest of the a-chain: a closure verdict, a big-gap verdict and an
    unknown object whose hom bracket is empty; on a second one, an unknown
    object with a bounded bracket and a conditional phase."""
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(standard_heart_point(
        (Gaussian.of("1/3", 4), Gaussian.of("-6/5", "5/3"), Gaussian.of(0, 1))
    ).to_json()))
    path = str(path)
    assert _explain(path, "a[1]", capsys) == {
        "label": "a[1]", "window": 8, "status": "semistable",
        "phase": {"offset": 1, "charge": {"re": "-18", "im": "40"}},
        "rules": ["closure(a[0],M[-1],b[1][-2])[1]"], "witness": None,
    }
    assert _explain(path, "a[-3]", capsys, "--window", "4") == {
        "label": "a[-3]", "window": 4, "status": "unstable", "phase": None,
        "rules": ["big-gap"], "witness": "phase gap a[0]..x[1]",
    }
    assert _explain(path, "M'", capsys) == {
        "label": "M'", "window": 8, "status": "unknown", "phase": None,
        "rules": [], "witness": None, "conditional_phase": None,
        "bracket": None,
    }
    path = tmp_path / "bracket.json"
    path.write_text(json.dumps(standard_heart_point(
        (Gaussian.of("-1/2", "5/2"), Gaussian.of(0, 1), Gaussian.of("1/4", 4))
    ).to_json()))
    out = _explain(str(path), "b[3][1]", capsys)
    assert out["status"] == "unknown" and out["rules"] == []
    # the base object's phase and bracket, moved by the label's shift
    assert out["conditional_phase"] == {
        "offset": 2, "charge": {"re": "-1", "im": "76"}
    }
    assert out["bracket"] == [
        {"offset": 2, "charge": {"re": "0", "im": "46"}},
        {"offset": 2, "charge": {"re": "-1", "im": "26"}},
    ]


def _assert_bad_input(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(argv[0] + ": ")
    assert captured.err.count("\n") == 1


def test_cli_refuses_charge_strings_to_json_never_writes(tmp_path, capsys):
    """A charge component that ``Fraction`` reads as a number but
    ``to_json`` never writes ("1e5", "1_0", " 1 ") is refused like a
    float: exit 2 and one "not a stability point" line."""
    good = json.loads(Path(_write_sigma(tmp_path)).read_text())
    path = str(tmp_path / "charge.json")
    for text in ("1e5", "1_0", " 1 "):
        doc = json.loads(json.dumps(good))
        doc["charges"][1]["re"] = text
        Path(path).write_text(json.dumps(doc))
        for argv in (["classify", path], ["oracle", path, "b[0]"]):
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith("%s: %s: not a stability point: %r is not a "
                                  "rational string" % (argv[0], path, text))


def test_cli_bad_input_exits_2_without_traceback(tmp_path, capsys):
    good = json.loads(Path(_write_sigma(tmp_path)).read_text())
    no_m = json.loads(json.dumps(good))
    del no_m["anchor"]["m"]
    bad_charge = json.loads(json.dumps(good))
    bad_charge["charges"][0] = {"re": "1", "im": "0"}
    # anchor phases more than 1 apart: not a sigma-exceptional anchor
    spread = dict(good, extra_offsets=[0, 3, 0])
    files = {
        "no_m.json": json.dumps(no_m),
        "bad_charge.json": json.dumps(bad_charge),
        # JSON numbers that Fraction would misread as a valid charge
        "float_charge.json": json.dumps(
            dict(good, charges=[{"re": 0.1, "im": "1"}] + good["charges"][1:])
        ),
        "bool_charge.json": json.dumps(
            dict(good, charges=[{"re": "0", "im": True}] + good["charges"][1:])
        ),
        "zero_den_charge.json": json.dumps(
            dict(good, charges=[{"re": "1/0", "im": "1"}] + good["charges"][1:])
        ),
        "spread.json": json.dumps(spread),
        "not_json.json": "{not json",
        # a charge with a key outside "re" and "im"
        "stray_key_charge.json": json.dumps(
            dict(good, charges=[{"re": "-1", "im": "1", "imag": 5}]
                 + good["charges"][1:])
        ),
    }
    # a key given twice, and a key outside a point's, at the top level and
    # in the anchor: json.load would keep the last value, and from_json
    # ignore the stray key
    strict = {
        "dup_key.json": (json.dumps(good).replace('"m": 0,', '"m": 0, "m": 1,'),
                         "%s: duplicate key 'm'"),
        "unknown_key.json": (json.dumps(dict(good, global_shfit=5)),
                             "%s: not a stability point: the top level has an "
                             "unknown key 'global_shfit'"),
        "unknown_anchor_key.json": (
            json.dumps(dict(good, anchor=dict(good["anchor"], n=1))),
            "%s: not a stability point: anchor has an unknown key 'n'"),
    }
    for name, (text, message) in strict.items():
        files[name] = text
        path = tmp_path / name
        path.write_text(text)
        assert cli.main(["classify", str(path)]) == 2
        assert capsys.readouterr().err == "classify: %s\n" % (message % path)
    # a component with more digits than Python reads from a string, as a
    # rational string and as a JSON integer: the message names its size
    int_charge = json.dumps(
        dict(good, charges=[{"re": 0, "im": "1"}] + good["charges"][1:]))
    long_charges = {
        "long_charge.json": (json.dumps(dict(
            good, charges=[{"re": "-1/1" + "0" * 5000, "im": "1"}]
            + good["charges"][1:])), 5001),
        "long_int_charge.json": (
            int_charge.replace('"re": 0,', '"re": %s,' % ("7" * 4301)), 4301),
    }
    for name, (text, digits) in long_charges.items():
        files[name] = text
        path = tmp_path / name
        path.write_text(text)
        for argv in (["classify", str(path)], ["explain", str(path), "b[0]"]):
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.endswith(": a number of %d digits exceeds the 4300-digit "
                                "limit\n" % digits), err
    # fields of the wrong JSON type, each named in the message with the
    # type it wants
    int_shift = json.loads(json.dumps(good))
    int_shift["anchor"]["shift"] = 0
    typed = {
        "list.json": ("[1, 2]", "the top level must be a JSON object"),
        "list_anchor.json": (json.dumps(dict(good, anchor=[1, 2])),
                             "anchor must be a JSON object"),
        "null_charge.json": (
            json.dumps(dict(good, charges=[None] + good["charges"][1:])),
            "a charge must be a JSON object"),
        "string_charges.json": (json.dumps(dict(good, charges="1+i")),
                                "charges must be a JSON array"),
        "int_shift.json": (json.dumps(int_shift),
                           "anchor.shift must be a JSON array"),
    }
    for name, (text, message) in typed.items():
        files[name] = text
        (tmp_path / name).write_text(text)
        path = tmp_path / name
        assert cli.main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "classify: %s: not a stability point: %s\n" % (path, message)
    # integer fields that int() would truncate or convert to a valid point
    for key, value in (("m", False), ("m", 0.5), ("shift", [0, 0, -1.5]),
                       ("shift", [False, 0, -1]), ("m", 1e23), ("m", 2.0),
                       ("m", "0")):
        doc = json.loads(json.dumps(good))
        doc["anchor"][key] = value
        files["anchor_%s_%r.json" % (key, value)] = json.dumps(doc)
    for key, value in (("global_shift", 1.5), ("global_shift", True),
                       ("global_shift", 1e300), ("extra_offsets", [0, 0, 0.25])):
        files["%s_%r.json" % (key, value)] = json.dumps(dict(good, **{key: value}))
    paths = [str(tmp_path / "missing.json")]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    for path in paths:
        _assert_bad_input(["classify", path], capsys)
        _assert_bad_input(["oracle", path, "b[0]"], capsys)
        _assert_bad_input(["explain", path, "b[0]"], capsys)
        # a slice spec ignores "charges", "global_shift" and "extra_offsets"
        if not any(k in path for k in ("_charge", "spread", "global_shift",
                                       "extra_offsets")):
            _assert_bad_input(
                ["slice", "--spec", path, "-o", str(tmp_path / "s.svg")], capsys
            )
    sigma = _write_sigma(tmp_path)
    _assert_bad_input(["oracle", sigma, "zz"], capsys)
    _assert_bad_input(["explain", sigma, "zz"], capsys)
    _assert_bad_input(["explain", sigma, "b[0]", "--window", "-1"], capsys)
    _assert_bad_input(["explain", sigma, "b[0]", "--window", "65"], capsys)
    _assert_bad_input(["catalog", "--lo", "5", "--hi", "1"], capsys)
    _assert_bad_input(["hom", "zz", "M"], capsys)
    _assert_bad_input(["hom", "a[0]", "b[x]"], capsys)
    _assert_bad_input(["mutate", "a[0], M, q", "R0"], capsys)
    _assert_bad_input(["mutate", "a[0], a[0], a[0]", "R0"], capsys)
    _assert_bad_input(["verify", "no-such-lemma", "-n", "1"], capsys)
    _assert_bad_input(["verify", "coverage", "-n", "-5"], capsys)
    _assert_bad_input(["verify", "all", "-n", "0"], capsys)
    _assert_bad_input(["oracle", sigma, "a[7]"], capsys)  # beyond the size cap
    # label indices and integer options are an optional "-" and ASCII
    # digits, as in a JSON file: no other script's digits, no "_", no
    # blanks, and no more digits than Python reads from a string
    for label in ("a[\u0663]", "a[\uff11]", "M[\u0663]", "b[0][\u0661]"):
        _assert_bad_input(["hom", label, "a[3]"], capsys)
    long_labels = {5000: "a[%s]" % ("1" * 5000), 4301: "M'[-%s]" % ("7" * 4301)}
    for digits, label in long_labels.items():
        for argv in (["hom", label, "M"], ["explain", sigma, label],
                     ["mutate", "%s, M, b[0]" % label, "R0"],
                     ["oracle", sigma, label]):
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err == "%s: a number of %d digits exceeds the 4300-digit " \
                          "limit\n" % (argv[0], digits), err
    for bad in ("1_0", " 10 ", "\u0663", "+1", "1" * 4301):
        for argv in (["catalog", "--lo", bad, "--hi", "20"],
                     ["catalog", "--lo", "-1", "--hi", bad],
                     ["explain", sigma, "b[0]", "--window", bad],
                     ["verify", "coverage", "-n", bad],
                     ["verify", "coverage", "-n", "1", "--seed", bad]):
            _assert_bad_input(argv, capsys)
    # an output path in a missing directory
    nowhere = tmp_path / "missing"
    _assert_bad_input(
        ["verify", "coverage", "-n", "1", "--out", str(nowhere / "x.json")], capsys
    )
    (tmp_path / "tiny.json").write_text(json.dumps({"resolution": 1}))
    _assert_bad_input(
        ["slice", "--spec", str(tmp_path / "tiny.json"), "-o",
         str(nowhere / "s.svg")], capsys
    )
    assert not nowhere.exists()
    spec = tmp_path / "spec.json"
    for bad in ({"regions": ["Nowhere"]}, {"resolution": 0},
                {"anchor": {"family": "F9", "m": 0, "shift": [0, 0, -1]}},
                {"z2": {"re": "1", "im": "-1"}},
                {"z2": {"re": "1/0", "im": "1"}},
                {"z2": {"re": "1", "im": 0.5}},
                {"z2": {"re": "1", "im": "1", "imag": 5}},
                {"resolution": 1.5}, {"resolution": True}, {"resolution": 2.0},
                {"anchor": {"family": "F8", "m": 0.5, "shift": [0, 0, -1]}},
                {"anchor": {"family": "F8", "m": False, "shift": [0, 0, -1]}},
                {"anchor": {"family": "F8", "m": 0, "shift": [0, 0, -1.5]}}):
        spec.write_text(json.dumps(bad))
        _assert_bad_input(
            ["slice", "--spec", str(spec), "-o", str(tmp_path / "s.svg")], capsys
        )
    assert not (tmp_path / "s.svg").exists()
    # regions given as an object or a string, which list() would read as
    # its keys or its letters
    for regions_field in ({"Ta": 1, "Tb": 2}, "Ta"):
        spec.write_text(json.dumps({"regions": regions_field, "resolution": 2}))
        assert cli.main(["slice", "--spec", str(spec), "-o",
                         str(tmp_path / "s.svg")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(": regions must be a JSON array\n")
        assert err.count("\n") == 1
    assert not (tmp_path / "s.svg").exists()
    # the .csv beside -o x.csv would be -o itself
    spec.write_text(json.dumps({"resolution": 1}))
    _assert_bad_input(
        ["slice", "--spec", str(spec), "-o", str(tmp_path / "x.csv")], capsys
    )
    assert not (tmp_path / "x.csv").exists()


def test_cli_internal_error_exits_3_with_one_line(monkeypatch, capsys):
    for exc in (EngineError("paper-rule inconsistency: x"),
                ExactError("zero charge\nsecond line"), KeyError("k")):
        def boom(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "_cmd_hom", boom)
        assert cli.main(["hom", "a[0]", "M"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hom: internal error: %s: "
                                       % type(exc).__name__)
        assert captured.err.count("\n") == 1


def test_cli_reader_closing_the_pipe_exits_141_silently():
    """A reader that closes standard output early, as ``stab catalog |
    head -1`` does, is no fault of the program: the command exits 141
    (128 + SIGPIPE) and writes nothing on stderr.  The catalog from -400
    to 400 is about 100 KB, more than a pipe buffer holds."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "stabq.cli", "catalog", "--lo", "-400", "--hi", "400"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141, err
    assert err == b""


# arbitrary JSON, and documents shaped like a point with arbitrary parts
def _json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(
        st.text(max_size=6), inner, max_size=4
    )


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    _json_containers,
    max_leaves=10,
)
_rational = (
    st.integers(-20, 20).map(str)
    | st.tuples(st.integers(-20, 20), st.integers(-2, 20)).map(
        lambda t: "%d/%d" % t)
    | st.sampled_from(["1/0", "nan", "inf", "1e400", "", "x"])
)
_PARTS = (
    ("anchor",), ("anchor", "family"), ("anchor", "m"), ("anchor", "shift"),
    ("anchor", "shift", 1), ("charges",), ("charges", 0), ("charges", 1, "re"),
    ("charges", 2, "im"), ("global_shift",), ("extra_offsets",),
)
_DROP = object()


def _child(box, key):
    if isinstance(box, dict):
        return box.get(key)
    if isinstance(box, list) and isinstance(key, int) and key < len(box):
        return box[key]
    return None


def _edited(doc, edits):
    """doc with each (path, value) edit applied where the path still leads
    somewhere; the value _DROP deletes a key."""
    for path, value in edits:
        box = doc
        for key in path[:-1]:
            box = _child(box, key)
        key = path[-1]
        if isinstance(box, dict):
            if value is _DROP:
                box.pop(key, None)
            else:
                box[key] = value
        elif _child(box, key) is not None:
            box[key] = None if value is _DROP else value
    return doc


# a sampled point's JSON with up to two of its parts replaced or dropped,
# or its extra offsets set to three integers
_point_like = st.builds(
    _edited,
    st.integers(0, 2 ** 16).map(
        lambda s: harness._sample_point(random.Random(s), FAMILY_IDS,
                                        bound=16).to_json()
    ),
    st.lists(
        st.tuples(st.sampled_from(_PARTS), _rational | _json | st.just(_DROP))
        | st.tuples(st.just(("extra_offsets",)),
                    st.lists(st.integers(-3, 3), min_size=3, max_size=3)),
        max_size=2,
    ),
)
_documents = _json | _point_like


@settings(max_examples=120, deadline=None)
@given(doc=_documents)
def test_cli_classify_fuzzed_point_file(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed_point.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["classify", str(path)])
    if code == 0:
        assert err.getvalue() == ""
        assert isinstance(json.loads(out.getvalue()), list)
    else:
        assert code == 2, err.getvalue()
        assert out.getvalue() == ""
        assert err.getvalue().startswith("classify: ")
        assert err.getvalue().count("\n") == 1


@settings(max_examples=300, deadline=None)
@given(doc=_documents)
def test_point_from_json_fuzzed(doc):
    doc = json.loads(json.dumps(doc))  # what a file would give
    try:
        pt = StabilityPoint.from_json(doc)
    except (KeyError, TypeError, ValueError, ArithmeticError):
        return  # the errors the CLI loader reports as bad input
    assert StabilityPoint.from_json(pt.to_json()) == pt


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


_SPEC_PARTS = (
    ("regions",), ("regions", 0), ("anchor",), ("anchor", "family"),
    ("anchor", "m"), ("anchor", "shift"), ("anchor", "shift", 2),
    ("resolution",), ("z2",), ("z2", "re"), ("z2", "im"),
)


def _slice_spec(seed):
    """A valid two-by-two slice spec on a sampled point's anchor."""
    pt = harness._sample_point(random.Random(seed), FAMILY_IDS, bound=16)
    doc = pt.to_json()
    return {"regions": ["Ta", "MidM"], "anchor": doc["anchor"],
            "resolution": 2, "z2": doc["charges"][2]}


# a valid spec with up to two of its parts replaced or dropped
_spec_like = st.builds(
    _edited,
    st.integers(0, 2 ** 16).map(_slice_spec),
    st.lists(st.tuples(st.sampled_from(_SPEC_PARTS),
                       _rational | _json | st.just(_DROP)), max_size=2),
)


@settings(max_examples=120, deadline=None)
@given(doc=_json | _spec_like)
def test_cli_slice_fuzzed_spec_file(tmp_path_factory, doc):
    """Bad specs exit 2 with one stderr line.  Specs the loader accepts are
    rendered at two by two at most, so a fuzzed resolution stays cheap."""
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzzed_spec.json"
    path.write_text(json.dumps(doc))
    render = harness.slice_svg

    def small(spec, out_path):
        res = harness.slice_params(spec)[2]
        render(dict(spec, resolution=min(res, 2)), out_path)

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(harness, "slice_svg", small), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["slice", "--spec", str(path),
                         "-o", str(base / "fuzzed_slice.svg")])
    assert out.getvalue() == ""
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith("slice: ")
        assert err.getvalue().count("\n") == 1


def test_cli_slice_writes_the_csv_beside_the_svg(tmp_path):
    """The .csv takes -o's path with its extension replaced: a dot in a
    directory name is not an extension, and a path with none gains .csv."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"resolution": 1}))
    (tmp_path / "my.dir").mkdir()
    for out, csv in (("my.dir/slice", "my.dir/slice.csv"),
                     ("my.dir/s.svg", "my.dir/s.csv")):
        assert cli.main(["slice", "--spec", str(spec), "-o",
                         str(tmp_path / out)]) == 0
        assert (tmp_path / out).read_text().startswith("<svg")
        assert (tmp_path / csv).read_text().startswith("i,j,")
    assert not (tmp_path / "my.csv").exists()


def test_cli_slice_checks_its_outputs_before_rendering(tmp_path, monkeypatch, capsys):
    """An unwritable -o, or a .csv path that cannot be written, exits 2
    before any grid point is evaluated, and leaves no .svg behind."""

    def unreachable(*args, **kw):
        raise AssertionError("a grid point was evaluated")

    monkeypatch.setattr(regions, "in_composite", unreachable)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"resolution": 2}))
    _assert_bad_input(
        ["slice", "--spec", str(spec), "-o", str(tmp_path / "missing" / "s.svg")],
        capsys,
    )
    (tmp_path / "s.csv").mkdir()
    _assert_bad_input(
        ["slice", "--spec", str(spec), "-o", str(tmp_path / "s.svg")], capsys
    )
    assert not (tmp_path / "s.svg").exists()


def test_harness_golden_digest(monkeypatch):
    """verify_all(40, seed=1) without its wall times, and
    oracle_agreement(200, seed=1) with the status engine.semistable gives
    each object at each point, hashed.  The statuses are hashed because the
    report alone does not change when the engine decides other objects.
    The constant was computed before the engine kept its slot state as the
    only store of verdicts; any change to what the suites or the oracle
    comparison read, or in which order, changes it."""
    h = hashlib.sha256()
    for rep in harness.verify_all(40, seed=1):
        doc = rep.to_json()
        del doc["wall_time"]
        h.update(json.dumps(doc, sort_keys=True).encode())
    seen = []
    read = engine.semistable

    def recorded(pt, x, *args, **kw):
        v = read(pt, x, *args, **kw)
        seen.append((json.dumps(pt.to_json(), sort_keys=True), str(x), v.status))
        return v

    monkeypatch.setattr(engine, "semistable", recorded)
    doc = harness.oracle_agreement(200, seed=1).to_json()
    del doc["wall_time"]
    h.update(json.dumps(doc, sort_keys=True).encode())
    h.update(repr(seen).encode())
    assert len(seen) == 3600
    assert h.hexdigest() == (
        "56952f130f7e1a6db8d7bcdeca46ce842743d3243b1896cea5d10fb8fbc87cb4"
    )


def test_oracle_agreement_smoke():
    rep = harness.oracle_agreement(25, seed=11)
    assert rep.attempted == 25 and not rep.mismatches


def test_an_engine_contradiction_is_a_reported_mismatch(monkeypatch):
    """An ``EngineError`` from a verdict is reported as a mismatch of its
    point, by ``oracle_agreement`` as by ``verify_lemma``, and the run goes
    on to the next point."""
    read, calls = engine.semistable, []

    def contradicts_once(pt, x, *args, **kw):
        calls.append(x)
        if len(calls) == 1:
            raise EngineError("paper-rule inconsistency: x")
        return read(pt, x, *args, **kw)

    monkeypatch.setattr(engine, "semistable", contradicts_once)
    rep = harness.oracle_agreement(3, seed=11)
    assert (rep.attempted, rep.decided, rep.unknown) == (3, 3, 0)
    assert [m["detail"] for m in rep.mismatches] == [
        "engine contradiction: paper-rule inconsistency: x"]
    assert set(rep.mismatches[0]) == {"detail", "point"}
    # every test object of the other two points
    assert len(calls) == 1 + 2 * len(harness._heart_test_objects())


def test_standard_heart_simple_charges_are_the_normalised_charges():
    """``oracle_agreement`` and ``stab oracle`` hand King's compare a
    point's ``simple`` charges.  On the standard heart these are its
    charges scaled to a primitive integer triple, as the oracle read them
    before: checked on 2,000 points drawn as ``oracle_agreement`` draws
    them."""
    rng = random.Random("standard-heart-simple")
    n = 0
    while n < 2000:
        charges = tuple(harness._rand_charge(rng, 16) for _ in range(3))
        try:
            pt = StabilityPoint("F8", 0, (0, 0, -1), charges)
        except ValueError:
            continue
        assert pt.simple == primitive_multiple(pt.charges), pt
        n += 1
