"""Command-line surface: JSON in, JSON out, deterministic byte-for-byte.

Exit status: 0 on success, 1 when the oracle finds a mismatch, 2 on
validation or parse errors, 3 when a resource cap refuses the
computation, 120 when stdout is closed before the document is written
(the interpreter's own status when its exit-time flush fails).  stdout
carries exactly one JSON document; diagnostics go to stderr.

A cold run ends through ``run``, the entry point of both the
``supportmonoids`` script and ``python -m supportmonoids.cli``: it calls
``main``, flushes stdout and stderr, and ends the process with
``os._exit``, so module teardown and the final garbage collections,
which no answer needs, never run.  No ``atexit`` handler runs after a
completed command either (the package registers none), so a profiler
or coverage tool that reports at exit should call ``main``, which
returns its status instead of ending the process, as in-process callers
do.  Help and usage errors end the same way, with argparse's status.
A closed stdout, help included, ends with status 120 and one ``error:``
line on stderr.  An uncaught exception leaves ``run`` and ends the
interpreter as usual.

A command loads only what it runs.  ``main`` reads a well-formed
command line (``_parse``) straight from the ``COMMANDS`` table, without
loading ``argparse``; any other line, such as ``--help`` or a usage
error, goes to the full parser of ``build_parser``, which alone writes
help and error text.  Each handler imports the library functions it
calls when it runs and returns its document, which ``main`` writes.  In
the same way, ``_load_json`` and ``_dumps`` read and write the JSON these
commands handle themselves (``_read``, ``_write``) and hand any other
text or document to the ``json`` module, which alone handles floats,
escapes and non-ASCII text and words every parse error.
"""

from __future__ import annotations

import os as _os
import sys as _sys
from types import SimpleNamespace

from .errors import MissingOrderUnitError, ResourceLimitError
from .semiring import INF, parse_vec, vec_to_json

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_CLOSED = 120


_SPACE = " \t\n\r"  # JSON whitespace
_DIGITS = "0123456789"
_WORDS = {"t": ("true", True), "f": ("false", False), "n": ("null", None)}
_MAX_DEPTH = 32  # deeper documents go to the json module
# longer texts go to the json module too: _read takes about 0.5 us a
# character, so past a few thousand it costs more than importing json
_MAX_READ = 4096


def _plain(s: str) -> bool:
    """Is s printable ASCII without '"' or '\\', so that JSON writes it as is?"""
    return s.isascii() and s.isprintable() and '"' not in s and "\\" not in s


def _read(text: str, i: int, depth: int):
    """(value, end) of the JSON value that starts at text[i], after any
    whitespace, for the subset of JSON made of objects, arrays, true,
    false, null, integers -?(0|[1-9][0-9]*) and _plain strings without
    escapes; IndexError or ValueError for any other text."""
    while text[i] in _SPACE:
        i += 1
    c = text[i]
    if c == '"':
        end = text.index('"', i + 1)
        value = text[i + 1:end]
        if not _plain(value):
            raise ValueError("not a plain string")
        return value, end + 1
    if c in "[{":
        if depth == _MAX_DEPTH:
            raise ValueError("nested too deep")
        close = "]" if c == "[" else "}"
        items = [] if c == "[" else {}
        i += 1
        while text[i] in _SPACE:
            i += 1
        if text[i] == close:
            return items, i + 1
        while True:
            if c == "[":
                value, i = _read(text, i, depth + 1)
                items.append(value)
            else:
                while text[i] in _SPACE:
                    i += 1
                if text[i] != '"':
                    raise ValueError("not a key")
                key, i = _read(text, i, depth + 1)
                while text[i] in _SPACE:
                    i += 1
                if text[i] != ":":
                    raise ValueError("no colon")
                items[key], i = _read(text, i + 1, depth + 1)
            while text[i] in _SPACE:
                i += 1
            if text[i] == close:
                return items, i + 1
            if text[i] != ",":
                raise ValueError("no comma")
            i += 1
    if c in _WORDS:
        word, value = _WORDS[c]
        if not text.startswith(word, i):
            raise ValueError("not a literal")
        return value, i + len(word)
    first = i + 1 if c == "-" else i
    end = first
    while end < len(text) and text[end] in _DIGITS:
        end += 1
    if end == first or (text[first] == "0" and end > first + 1):
        raise ValueError("not an integer")
    return int(text[i:end]), end


def _loads(text: str):
    """``json.loads(text)``, read directly when ``_read`` can; json's
    RecursionError on deep nesting comes back as a ValueError with its
    message, so such a file is invalid input."""
    if len(text) <= _MAX_READ:
        try:
            value, end = _read(text, 0, 0)
            if not text[end:].strip(_SPACE):
                return value
        except (IndexError, ValueError):
            pass
    import json
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _loads(fh.read())


def _load_system(path: str):
    from .equations import DioSystem
    return DioSystem.from_json(_load_json(path))


def _load_basis(path: str):
    from .hilbert import HilbertBasis
    obj = _load_json(path)
    if isinstance(obj, dict):
        gens = obj.get("gens", ())
        dim = obj["s"] if "s" in obj else obj.get("dim")
        if dim is None:
            raise ValueError("basis JSON object needs an 's' key")
    else:
        gens = obj
        if not gens:
            raise ValueError("cannot infer the dimension of an empty basis list")
        dim = len(gens[0])
    return HilbertBasis.from_generators(dim, (tuple(g) for g in gens))


def _write(obj, depth: int = 0) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` for
    documents made of dicts with _plain str keys, lists, tuples, bools,
    None, exact ints and _plain strings; ValueError for any other."""
    kind = type(obj)
    if kind is int:
        return str(obj)
    if kind is str and _plain(obj):
        return f'"{obj}"'
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    if depth < _MAX_DEPTH:
        if kind is list or kind is tuple:
            return "[" + ",".join([str(v) if type(v) is int else _write(v, depth + 1)
                                   for v in obj]) + "]"
        if kind is dict and all(type(k) is str and _plain(k) for k in obj):
            return "{" + ",".join([f'"{k}":{_write(obj[k], depth + 1)}'
                                   for k in sorted(obj)]) + "}"
    raise ValueError("not written directly")


def _dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, written
    directly when ``_write`` can."""
    try:
        return _write(obj)
    except ValueError:
        pass
    import json
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cmd_member(args) -> dict:
    from .equations import is_member
    sys_ = _load_system(args.system)
    return {"member": is_member(sys_, parse_vec(args.vector))}


def _cmd_supports(args) -> dict:
    from .supports import extract
    return extract(_load_system(args.system)).to_json()


def _cmd_generators(args) -> dict:
    from .supports import extract, generators
    gens = generators(extract(_load_system(args.system)))
    return {"generators": [vec_to_json(g) for g in gens]}


def _cmd_classify(args) -> dict:
    from .classify import verdict
    return verdict(_load_system(args.system), bound=args.bound).to_json()


def _cmd_glued(args) -> dict:
    """A + inf·A, B_min or B_max over the finite part the basis generates."""
    from .constructions import a_plus_inf_a, b_max, b_min
    glue = {"aplusinfa": a_plus_inf_a, "bmin": b_min, "bmax": b_max}[args.command]
    return glue(_load_basis(args.basis)).to_json()


def _cmd_lo_system(args) -> dict:
    from .ranks import ASSUMPTIONS, RankMatrix, vstar_system
    rm = RankMatrix.from_json(_load_json(args.ranks))
    return {"system": vstar_system(rm).to_json(), "assumptions": list(ASSUMPTIONS)}


def _cmd_lo_extended(args) -> dict:
    from .ranks import ASSUMPTIONS, RankMatrix, is_extended
    rm = RankMatrix.from_json(_load_json(args.ranks))
    x = parse_vec(args.vector)
    return {"extended": is_extended(rm, x), "assumptions": list(ASSUMPTIONS)}


def _cmd_wiegand(args) -> dict:
    from .ranks import ASSUMPTIONS, realize_wiegand
    E = _load_json(args.matrix)
    rm, sys_ = realize_wiegand(tuple(tuple(r) for r in E))
    return {"ranks": rm.to_json(), "system": sys_.to_json(),
            "assumptions": list(ASSUMPTIONS)}


def _cmd_oracle(args) -> dict:
    """Re-verify the structural machinery against truncated brute force.

    Three checks compare the members of the box (each coordinate inf or
    at most bound) with what ``truncated_members`` lists from the system
    of supports, with what the generators regenerate, and with the
    classification.  Closure under addition and inf-scaling needs no
    check of its own: when the generators regenerate the members, they
    are exactly the box part of the monoid that ``generators(sos)`` spans
    over N0*, and that set holds 0, every sum of two members that stays
    in the box, and inf times every member (inf·x has only 0 and inf
    entries).  So a failure of either closure is a failure of
    ``generators_regenerate`` too.
    """
    from .classify import verdict
    from .constructions import a_plus_inf_a
    from .equations import enumerate_truncated, truncated_domain
    from .hilbert import generated_truncated
    from .supports import extract, generators, truncated_members
    sys_ = _load_system(args.system)
    bound = args.bound
    # each guard runs as soon as its inputs exist, before any enumeration
    truncated_domain(sys_.s, bound)
    sos = extract(sys_)
    regenerated = generated_truncated(generators(sos), bound, sys_.s)
    members = frozenset(enumerate_truncated(sys_, bound))
    checks = {"membership_equivalence": members == truncated_members(sos, bound),
              "generators_regenerate": regenerated == members}

    report = verdict(sys_, bound=max(bound, 1))
    # a1 and a2 may need entries above the bound, so A + inf·A is filled
    # in the box family by family, not from the members of A in the box
    a_plus = truncated_members(a_plus_inf_a(sos.basis_for(frozenset())), bound)
    ok = all(w in members and w not in a_plus
             for w in report.witnesses
             if all(v is INF or v <= bound for v in w))
    if report.equals_a_plus_inf_a:
        ok = ok and a_plus == members
    checks["classification_consistent"] = ok

    return {"ok": all(checks.values()), "bound": bound, "checks": checks}


_SYSTEM = {"required": True, "help": "path to a system JSON file"}
_BASIS = {"required": True, "help": "path to a basis JSON file (array of vectors)"}
_RANKS = {"required": True, "help": "path to a rank-matrix JSON file"}
_VECTOR = {"required": True, "help": "comma-separated vector, e.g. '1,inf,0'"}

# name -> (handler, help, {flag: add_argument keywords}), in help order
COMMANDS = {
    "member": (_cmd_member, "test membership of a vector",
               {"system": _SYSTEM, "vector": _VECTOR}),
    "supports": (_cmd_supports, "extract the system of supports", {"system": _SYSTEM}),
    "generators": (_cmd_generators, "minimal generating set of the monoid",
                   {"system": _SYSTEM}),
    "classify": (_cmd_classify, "full classification report",
                 {"system": _SYSTEM,
                  "bound": {"type": int, "default": 5,
                            "help": "verification bound (default 5)"}}),
    "aplusinfa": (_cmd_glued, "A + inf·A of a finite part", {"basis": _BASIS}),
    "bmin": (_cmd_glued, "least almost-free monoid over a finite part", {"basis": _BASIS}),
    "bmax": (_cmd_glued, "largest monoid over a finite part", {"basis": _BASIS}),
    "lo-system": (_cmd_lo_system, "descent equations of a rank matrix", {"ranks": _RANKS}),
    "lo-extended": (_cmd_lo_extended, "descent test for one multiplicity vector",
                    {"ranks": _RANKS, "vector": _VECTOR}),
    "wiegand": (_cmd_wiegand, "rank data realizing the largest monoid over E·x = 0",
                {"matrix": {"required": True,
                            "help": "path to an integer matrix JSON file"}}),
    "oracle": (_cmd_oracle, "re-verify structure against truncated brute force",
               {"system": _SYSTEM,
                "bound": {"type": int, "default": 3,
                          "help": "truncation bound (default 3)"}}),
}


def build_parser():
    """The argparse parser, with a subparser for each command.

    Its help goes to stdout without argparse's guard, which drops an
    OSError from that write, so that help into a closed stdout ends, as
    every command does, with status 120 (``run``) rather than in silence.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            file = file or _sys.stdout
            if file is not None:  # None when the process started without fd 1
                file.write(self.format_help())

    parser = Parser(
        prog="supportmonoids",
        description="Monoids of solutions of linear equations and congruences "
                    "over the extended naturals, their systems of supports, and "
                    "decomposition verdicts.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag, kw in flags.items():
            p.add_argument(f"--{flag}", **kw)
        p.set_defaults(fn=fn)
    return parser


def _parse(argv):
    """A namespace with the attributes ``build_parser().parse_args(argv)``
    gives, for argv = [command, --flag, value, ...] in which every flag
    is a long flag of that command written in full, none twice, no value
    starts with '-', every required flag is present and every type
    conversion succeeds; None for any other argv."""
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, _, flags = COMMANDS[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(given) != len(argv) - 1:
        return None  # a flag without a value, or one given twice
    args = {"command": argv[0], "fn": fn}
    for flag, kw in flags.items():
        value = given.pop(f"--{flag}", None)
        if value is None:
            if kw.get("required"):
                return None
            value = kw.get("default")
        elif value.startswith("-"):
            return None
        elif "type" in kw:
            try:
                value = kw["type"](value)
            except (TypeError, ValueError):
                return None
        args[flag] = value
    return None if given else SimpleNamespace(**args)


# raised type -> (the "error" of its document, exit status); main reports
# the first type an error is an instance of, so MissingOrderUnitError, a
# ValueError, reads missing_order_unit
_ERRORS = {
    ResourceLimitError: ("resource_limit", EXIT_RESOURCE),
    MissingOrderUnitError: ("missing_order_unit", EXIT_INVALID),
    **dict.fromkeys((ValueError, KeyError, TypeError, OSError), ("invalid_input", EXIT_INVALID)),
}


def main(argv=None) -> int:
    """Run the command of argv and write its document, or the document of
    the error it raised, to stdout; return the exit status."""
    argv = _sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        doc = args.fn(args)
        print(_dumps(doc))
    except BrokenPipeError:
        raise  # stdout is closed: no document can be written, run ends the process
    except tuple(_ERRORS) as exc:
        kind, code = next(v for t, v in _ERRORS.items() if isinstance(exc, t))
        print(_dumps({"error": kind, "message": str(exc)}))
        print(f"error: {exc}", file=_sys.stderr)
        return code
    return EXIT_MISMATCH if args.fn is _cmd_oracle and not doc["ok"] else EXIT_OK


def run(argv=None) -> None:
    """Run ``main`` on argv, flush its output and end the process with its
    exit status, skipping interpreter teardown (module docstring)."""
    try:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's end of help and usage errors
            code = exc.code
        if _sys.stdout is not None:  # None when the process started without fd 1
            _sys.stdout.flush()
    except BrokenPipeError as exc:
        # as the Python docs advise for SIGPIPE: point stdout at devnull, so
        # that should anything raise before os._exit, the interpreter's
        # exit-time flush of what is left in stdout's buffer cannot fail again
        _os.dup2(_os.open(_os.devnull, _os.O_WRONLY), _sys.stdout.fileno())
        print(f"error: stdout is closed: {exc}", file=_sys.stderr)
        code = EXIT_CLOSED
    if _sys.stderr is not None:
        _sys.stderr.flush()
    _os._exit(code)


if __name__ == "__main__":
    run()
