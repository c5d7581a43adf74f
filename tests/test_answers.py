"""A committed digest of the library's answers on seeded inputs.

``tests/data/answers.json`` holds one SHA-256 per block of 100 inputs.
An input is a system drawn by ``seeded_systems``: s 2-5 coordinates and
0-3 rows, each an equation or a congruence, entries 0-3, moduli 2-3,
from the fixed seed ``SEED``.  A block's hash covers, in one canonical
JSON line each, the answers or the refusal texts of:

* ``extract(...).to_json()``, the sorted S, ``minimal_nonempty(S)`` and
  ``validate``, on the extracted system and on a hand-built copy that
  drops one support set or moves the unit;
* ``generators``, ``verdict`` and ``hilbert_basis``;
* ``in_generated`` on sampled targets and ``minimize_generators`` on
  sampled sets;
* the ``oracle`` document and exit status at bound 2.

This is a regression pin, not an oracle: it pins the answers as they
are, right or wrong; ``tests/oracles.py`` is the independent check.

Rules for changes:

* a change that alters an answer on purpose regenerates the digest in
  the same commit, and lists in ``CHANGES.md`` every input whose answer
  changed, with the old and the new answer;
* a changed refusal text counts as a changed answer;
* ``SEED``, ``BLOCKS`` and the sizes of the generator stay fixed, so
  they cannot be re-chosen around a defect.

Run as a script::

    python tests/test_answers.py write            # regenerate the digest
    python tests/test_answers.py diff BLOCK OTHER_SRC

``diff`` re-derives block BLOCK here and with the package under
OTHER_SRC (the ``src`` directory of another checkout, such as the
parent commit's), and prints the first answer that differs.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

from supportmonoids import (INF, DioSystem, SystemOfSupports, extract, generators,
                            hilbert_basis, in_generated, minimal_nonempty,
                            minimize_generators, validate, verdict)
from supportmonoids.cli import main
from supportmonoids.errors import ResourceLimitError
from supportmonoids.semiring import vec_to_json

DIGEST = pathlib.Path(__file__).parent / "data" / "answers.json"
SEED = 2026
BLOCK = 100
BLOCKS = 3


def seeded_systems(seed=SEED, count=BLOCK * BLOCKS):
    """``count`` systems over s 2-5 coordinates with 0-3 rows."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        s = rng.randint(2, 5)
        F, G, D, moduli = [], [], [], []
        for _ in range(rng.randint(0, 3)):
            row = lambda: tuple(rng.randint(0, 3) for _ in range(s))
            if rng.random() < 0.7:
                F.append(row())
                G.append(row())
            else:
                D.append(row())
                moduli.append(rng.choice((2, 3)))
        out.append(DioSystem(s=s, F=tuple(F), G=tuple(G), D=tuple(D), moduli=tuple(moduli)))
    return out


def _vecs(vs):
    return [vec_to_json(v) for v in vs]


def _sets(S):
    return sorted(sorted(H) for H in S)


def _system_answers(sos):
    """The sorted S, the minimal nonempty sets and the axiom violations."""
    S = sos.S
    return {"S": _sets(S), "minimal": [sorted(H) for H in minimal_nonempty(S)],
            "validate": validate(sos)}


def _broken(sos, rng):
    """A copy of sos that drops one support set, or whose unit moves."""
    families = list(sos.families)
    if rng.random() < 0.25:
        unit = (sos.unit[0] + 1,) + sos.unit[1:]
        return SystemOfSupports(sos.s, unit, tuple(families))
    del families[rng.randrange(len(families))]
    return SystemOfSupports(sos.s, sos.unit, tuple(families))


def _oracle(sys_):
    """The oracle document at bound 2 and its exit status."""
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(sys_.to_json(), fh)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(["oracle", "--system", fh.name, "--bound", "2"])
    finally:
        os.unlink(fh.name)
    return {"status": status, "document": json.loads(out.getvalue())}


def _answer(call):
    """call()'s answer, or the type and text of the error it raised."""
    try:
        return call()
    except (ValueError, KeyError, ResourceLimitError) as exc:
        return {"refused": type(exc).__name__, "message": str(exc)}


def input_answers(k, sys_):
    """(label, answer) pairs for input k, each answer JSON-ready."""
    rng = random.Random(SEED * 1000 + k)
    out = [("hilbert_basis", _answer(lambda: _vecs(hilbert_basis(sys_).gens))),
           ("verdict", _answer(lambda: verdict(sys_, 2).to_json()))]
    try:
        sos = extract(sys_)
        doc = sos.to_json()
    except (ValueError, ResourceLimitError) as exc:
        out.append(("extract", {"refused": type(exc).__name__, "message": str(exc)}))
        sos = None
    if sos is not None:
        out.append(("extract", doc))
        out.append(("system", _answer(lambda: _system_answers(sos))))
        out.append(("broken", _answer(lambda: _system_answers(_broken(sos, rng)))))
        gens = _answer(lambda: generators(sos))
        out.append(("generators", gens if isinstance(gens, dict) else _vecs(gens)))
        pool = gens if not isinstance(gens, dict) else sos.basis_for(()).gens
        values = (0, 1, 2, 3, INF)
        targets = [tuple(rng.choice(values) for _ in range(sys_.s)) for _ in range(3)]
        out.append(("in_generated", [[vec_to_json(x), _answer(lambda: in_generated(pool, x))]
                                     for x in targets]))
    picked = [tuple(rng.choice((0, 1, 2, INF)) for _ in range(sys_.s))
              for _ in range(rng.randint(1, 6))]
    out.append(("minimize_generators",
                [_vecs(picked), _answer(lambda: _vecs(minimize_generators(picked)))]))
    out.append(("oracle", _oracle(sys_)))
    return out


def block_lines(b):
    """The canonical answer lines of block b."""
    systems = seeded_systems()[b * BLOCK:(b + 1) * BLOCK]
    lines = []
    for k, sys_ in enumerate(systems, b * BLOCK):
        head = json.dumps(sys_.to_json(), sort_keys=True, separators=(",", ":"))
        for label, answer in input_answers(k, sys_):
            body = json.dumps(answer, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
            lines.append(f"{k} {label} {head} {body}")
    return lines


def block_hash(b):
    return hashlib.sha256("\n".join(block_lines(b)).encode()).hexdigest()


def test_answers_match_the_digest():
    want = json.loads(DIGEST.read_text(encoding="utf-8"))
    assert want["seed"] == SEED and want["block"] == BLOCK and len(want["blocks"]) == BLOCKS
    changed = [b for b in range(BLOCKS) if block_hash(b) != want["blocks"][b]]
    assert not changed, (
        f"answers changed in blocks {changed}; run "
        f"`python tests/test_answers.py diff {changed[0]} OTHER_SRC` to see the first one")


def _diff(b, other_src):
    here = block_lines(b)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(other_src).resolve()))
    there = subprocess.run([sys.executable, __file__, "lines", str(b)], env=env,
                           capture_output=True, text=True, check=True).stdout.splitlines()
    for mine, theirs in zip(here, there):
        if mine != theirs:
            print(f"here:  {mine}\nthere: {theirs}")
            return
    print("no differing answer" if len(here) == len(there)
          else f"{len(here)} answers here, {len(there)} there")


if __name__ == "__main__":
    command, *rest = sys.argv[1:]
    if command == "write":
        DIGEST.parent.mkdir(exist_ok=True)
        DIGEST.write_text(json.dumps({"seed": SEED, "block": BLOCK,
                                      "blocks": [block_hash(b) for b in range(BLOCKS)]},
                                     indent=1) + "\n", encoding="utf-8")
    elif command == "lines":
        print("\n".join(block_lines(int(rest[0]))))
    elif command == "diff":
        _diff(int(rest[0]), rest[1])
