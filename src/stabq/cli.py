"""Command-line interface: `stab <subcommand>`.

Exit codes: 0 success, 1 a verification mismatch (`stab verify`), 2 input
the command cannot use (a missing or malformed file, a bool, a float or
a string where a file needs an integer, a bad label, an integer option or
label index that is not an optional "-" and ASCII digits, a number with
more digits than Python reads from a string, an unknown lemma, a
`catalog` range whose --lo is above its --hi, a sample count below 1, a
window outside 0..MAX_WINDOW, a point outside the oracle's domain, an
object beyond the oracle's size cap, an output path that cannot be
written, a slice -o ending in .csv), reported as one `<command>: ...`
line on stderr, and 3 an internal error (any other
exception, such as an engine contradiction), reported as one
`<command>: internal error: ...` line on stderr, and 141 (128 + SIGPIPE)
when the reader of standard output closes it early, as `stab catalog |
head -1` does, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import engine, ff, harness, regions
from .catalog import (
    ExcObject,
    build_matrices,
    dim_vector,
    hom_dims,
    kclass,
    parse_label,
)
from .exact import int_of_digits
from .triples import (
    ExcTriple,
    MUTATION_OPS,
    is_exceptional_collection,
    mutate_triple,
)


# the widest window `stab explain` accepts; the plan grows with its square
MAX_WINDOW = 64


class _BadInput(Exception):
    """Input the command cannot use; ``main`` reports it and returns 2."""


def _label(s: str) -> ExcObject:
    try:
        return parse_label(s)
    except ValueError as e:
        raise _BadInput(str(e))


def _load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f, parse_int=lambda s: _int_of(path, s))
    except OSError as e:
        raise _BadInput("cannot read %s: %s" % (path, e.strerror or e))
    except (ValueError, RecursionError) as e:  # also UnicodeDecodeError
        raise _BadInput("%s is not valid JSON: %s" % (path, e))


def _int_of(where: str, s: str) -> int:
    """The integer s spells, read by one rule for JSON integers, label
    indices and integer options (``exact.int_of_digits``), not by
    argparse's ``int``; else bad input, named by ``where`` (a file or an
    option)."""
    try:
        return int_of_digits(s)
    except ValueError as e:
        raise _BadInput("%s: %s" % (where, e))


def _cmd_catalog(args) -> int:
    lo, hi = _int_of("--lo", args.lo), _int_of("--hi", args.hi)
    if lo > hi:
        raise _BadInput("--lo %d is above --hi %d" % (lo, hi))
    rows = []
    objs = [ExcObject("M", 0, 0), ExcObject("Mp", 0, 0)]
    for kind in ("a", "b"):
        objs += [ExcObject(kind, m, 0) for m in range(lo, hi + 1)]
    for o in objs:
        rows.append(
            {
                "label": str(o),
                "dim": list(dim_vector(o)),
                "kclass": list(kclass(o)),
            }
        )
    json.dump(rows, sys.stdout, indent=2)
    print()
    return 0


def _cmd_hom(args) -> int:
    x, y = _label(args.x), _label(args.y)
    h = hom_dims(x, y)
    if h is None:
        print("hom*(%s, %s) = 0" % (x, y))
    else:
        print("hom^%d(%s, %s) = %d" % (h[0], x, y, h[1]))
    return 0


def _cmd_mutate(args) -> int:
    labels = [s.strip() for s in args.triple.split(",")]
    if len(labels) != 3:
        raise _BadInput("expected three comma-separated labels")
    t = ExcTriple(tuple(_label(s) for s in labels))
    if not is_exceptional_collection(t):
        raise _BadInput("%s is not an exceptional collection" % (t,))
    if args.op not in MUTATION_OPS:
        raise _BadInput("op must be one of %s" % (MUTATION_OPS,))
    print(str(mutate_triple(t, args.op)))
    return 0


def _load_point(path: str) -> engine.StabilityPoint:
    d = _load_json(path)
    try:
        return engine.StabilityPoint.from_json(d)
    except KeyError as e:
        raise _BadInput("%s: missing key %s" % (path, e))
    except (TypeError, ValueError, ArithmeticError) as e:
        # ArithmeticError: Infinity as an int or a Fraction, or "1/0"
        raise _BadInput("%s: not a stability point: %s" % (path, e))


def _cmd_classify(args) -> int:
    pt = _load_point(args.sigma)
    out = [list(entry) for entry in regions.classify(pt)]
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def _phase_json(ph, shift: int = 0):
    if ph is None:
        return None
    ph = ph.plus(shift)
    return {"offset": ph.offset, "charge": ph.charge.to_json()}


def _cmd_explain(args) -> int:
    pt = _load_point(args.sigma)
    x = _label(args.label)
    window = _int_of("--window", args.window)
    if not 0 <= window <= MAX_WINDOW:
        raise _BadInput("--window must be in 0..%d, got %d" % (MAX_WINDOW, window))
    v = engine.semistable(pt, x, window)
    out = {
        "label": str(x),
        "window": window,
        "status": v.status,
        "phase": _phase_json(v.phase),
        "rules": list(v.rules),
        "witness": v.witness,
    }
    if v.status == "unknown":
        # phases of the base object, moved by the label's shift
        xb = x.base()
        out["conditional_phase"] = _phase_json(
            engine.conditional_phase(pt, xb, window), x.shift
        )
        bracket = engine.phase_bracket(pt, xb, window)
        out["bracket"] = None if bracket is None else [
            _phase_json(end, x.shift) for end in bracket
        ]
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def _cmd_verify(args) -> int:
    if args.lemma != "all" and args.lemma not in harness.LEMMA_IDS:
        raise _BadInput("unknown lemma id %r" % (args.lemma,))
    n, seed = _int_of("-n", args.n), _int_of("--seed", args.seed)
    if n < 1:
        raise _BadInput("-n must be at least 1, got %d" % (n,))
    ids = harness.LEMMA_IDS if args.lemma == "all" else (args.lemma,)
    reports = [harness.verify_lemma(lid, n, seed) for lid in ids]
    payload = [r.to_json() for r in reports]
    if args.out:
        try:
            with open(args.out, "w") as f:
                json.dump(payload, f, indent=2)
        except OSError as e:
            raise _BadInput("cannot write %s: %s" % (args.out, e.strerror or e))
    else:
        json.dump(payload, sys.stdout, indent=2)
        print()
    return 0 if all(r.ok for r in reports) else 1


def _cmd_slice(args) -> int:
    spec = _load_json(args.spec)
    try:
        harness.slice_params(spec)
    except KeyError as e:
        raise _BadInput("%s: missing key %s" % (args.spec, e))
    except (TypeError, ValueError, ArithmeticError) as e:
        raise _BadInput("%s: bad slice spec: %s" % (args.spec, e))
    try:
        harness.slice_csv_path(args.out)
    except ValueError as e:
        raise _BadInput("bad -o: %s" % (e,))
    try:
        harness.slice_svg(spec, args.out)
    except OSError as e:  # the .svg, or the .csv written beside it
        raise _BadInput("cannot write %s: %s" % (args.out, e.strerror or e))
    return 0


def _cmd_oracle(args) -> int:
    pt = _load_point(args.sigma)
    if pt != engine.standard_heart_point(pt.charges):
        raise _BadInput(
            "only standard-heart points (F8, m 0, shift (0,0,-1), "
            "global_shift 0, no extra_offsets) are in its domain"
        )
    obj = _label(args.object)
    total = sum(dim_vector(obj))
    if total > ff.MAX_TOTAL_DIM:  # checked before the matrices are built
        raise _BadInput(
            "%s has total dimension %d, beyond the brute-force cap of %d"
            % (obj, total, ff.MAX_TOTAL_DIM)
        )
    rep = build_matrices(obj, q=2)
    ok, destab = ff.semistable_in_heart(rep, pt.simple)
    out = {
        "object": str(obj),
        "dim": list(rep.dims),
        "semistable_in_heart": ok,
    }
    if destab is not None:
        out["destabilizer_dim"] = list(destab)
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="stab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("catalog", help="list the exceptional objects")
    # integer options stay strings here; each command reads its own
    p.add_argument("--lo", default="-4")
    p.add_argument("--hi", default="5")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("hom", help="hom dimensions between two objects")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(fn=_cmd_hom)

    p = sub.add_parser("mutate", help="mutate an exceptional triple")
    p.add_argument("triple", help='e.g. "a[0], M, b[1][-1]"')
    p.add_argument("op", help="one of %s" % (MUTATION_OPS,))
    p.set_defaults(fn=_cmd_mutate)

    p = sub.add_parser("classify", help="regions containing a stability point")
    p.add_argument("sigma", help="path to a sigma JSON file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("explain", help="why the engine decided an object")
    p.add_argument("sigma", help="path to a sigma JSON file")
    p.add_argument("label", help='an object label, e.g. "b[0]"')
    p.add_argument("--window", default=str(engine.DEFAULT_WINDOW))
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser("verify", help="run a lemma verification suite")
    p.add_argument("lemma", help='lemma id or "all"')
    p.add_argument("-n", default=str(harness.DEFAULT_SAMPLES))
    p.add_argument("--seed", default="0")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("slice", help="render a 2D membership slice as SVG")
    p.add_argument("--spec", required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=_cmd_slice)

    p = sub.add_parser("oracle", help="brute-force heart semistability check")
    p.add_argument("sigma")
    p.add_argument("object")
    p.set_defaults(fn=_cmd_oracle)

    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: write what is left to devnull, so that the
        # interpreter's last flush fails no more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except _BadInput as e:
        print("%s: %s" % (args.cmd, e), file=sys.stderr)
        return 2
    except Exception as e:
        msg = ("%s: %s" % (type(e).__name__, e)).replace("\n", " ")
        print("%s: internal error: %s" % (args.cmd, msg), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
