"""The four workloads: seeded inputs, the operation the worker times, and
the check of each answer against ``reference``.

Input generation and checking run in the harness and never import
``supportmonoids``; ``prepare`` and ``run`` run in the worker, which
does.  Inputs are JSON, with "inf" for infinity.

Left out on purpose: systems with s >= 12 (``classify`` on {"s": 12}
and ``supports`` on {"s": 24} run without end until every exponential
loop checks a cap), and from the random systems those with s = 5 or
more than two rows.  Among those, single draws take up to 34 s and some
are refused at the 10^6-state completion cap; even at s = 4 about one
draw in 2000 with three rows takes 0.4-1.8 s, which alone moves a 15 s
run's throughput by a tenth.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import reference as ref_mod
from reference import from_json_vec, oracles

ROOT = ref_mod.ROOT
TAMPERED = "tampered"  # every value of a deliberately wrong reference


def _random_vec(rng, s, top):
    """Uniform over {0, ..., top, inf}^s."""
    values = [*range(top + 1), "inf"]
    return [rng.choice(values) for _ in range(s)]


def random_system(rng, s, n_eq, n_cg):
    """The criterion-4/6 generator (coefficients 0-3, moduli 2 or 3) with
    the dimension and the numbers of equations and congruences fixed."""
    row = lambda: [rng.randint(0, 3) for _ in range(s)]
    out = {"s": s}
    if n_eq:
        out["equations"] = {"F": [row() for _ in range(n_eq)],
                            "G": [row() for _ in range(n_eq)]}
    if n_cg:
        out["congruences"] = {"D": [row() for _ in range(n_cg)],
                              "moduli": [rng.choice((2, 3)) for _ in range(n_cg)]}
    return out


# (equations, congruences) with at most two rows; the generator's 0-3
# equations and 0-2 congruences make each of these equally often.
SHAPES = ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))


def stratified_systems(rng, dims, count):
    """``count`` systems in shuffled blocks, each block holding every
    (s, shape) pair of ``dims`` x ``SHAPES`` once, so each run sees the
    generator's mix of sizes rather than a lucky or unlucky sample."""
    out = []
    while len(out) < count:
        block = [(s, shape) for s in dims for shape in SHAPES]
        rng.shuffle(block)
        out.extend(random_system(rng, s, *shape) for s, shape in block)
    return out[:count]


class Workload:
    name = ""
    why = ""
    in_process = True
    expected_spans = ()
    speed_sample = staticmethod(calibrate.sample)
    speed_reference = calibrate.REFERENCE_S

    def granularity(self, inputs) -> int:
        """The timed loop only stops after a multiple of this many ops."""
        return 1

    def make_inputs(self, rng, workdir: Path) -> dict:
        raise NotImplementedError

    def prepare(self, inputs, tracing):
        """Worker side: build library objects; return (state, items)."""
        raise NotImplementedError

    def run(self, state, item):
        raise NotImplementedError

    def encode(self, raw):
        return raw

    def reference(self, inputs, index) -> dict:
        raise NotImplementedError

    def check(self, inputs, index, answer, ref) -> bool:
        raise NotImplementedError


class ClassifyOneEq(Workload):
    name = "classify-1eq"
    why = ("the batch classification sweep of criterion 5: verdict on one "
           "primitive single equation, where is_full and generated_upto dominate")
    expected_spans = ("classify.verdict", "supports.is_full", "hilbert.generated_upto",
                      "hilbert.minimal_solutions", "hilbert.hilbert_basis",
                      "hilbert.minimize_generators", "hilbert.find_order_unit",
                      "hilbert.HilbertBasis", "classify.equals_a_plus_inf_a",
                      "hilbert.in_generated", "supports.extract",
                      "supports.infinite_supports", "equations.DioSystem")
    POOL = 5000

    @staticmethod
    def primitive_pairs(max_dim=4, max_entry=3):
        """The 23,882 pairs of criterion 5: a < b lexicographically, both
        nonzero, a - b changes sign, gcd of all entries 1."""
        out = []
        for s in range(2, max_dim + 1):
            vectors = list(itertools.product(range(max_entry + 1), repeat=s))
            for ai, a in enumerate(vectors):
                if not any(a):
                    continue
                for b in vectors[ai + 1:]:
                    if (any(b) and any(x > y for x, y in zip(a, b))
                            and any(x < y for x, y in zip(a, b))
                            and math.gcd(*(a + b)) == 1):
                        out.append([list(a), list(b)])
        return out

    def make_inputs(self, rng, workdir):
        return {"pool": rng.sample(self.primitive_pairs(), self.POOL)}

    def prepare(self, inputs, tracing):
        from supportmonoids.classify import verdict
        from supportmonoids.equations import DioSystem
        return (verdict, DioSystem), [(tuple(a), tuple(b)) for a, b in inputs["pool"]]

    def run(self, state, item):
        verdict, DioSystem = state
        a, b = item
        return verdict(DioSystem(s=len(a), F=(a,), G=(b,)))

    def encode(self, raw):
        return raw.to_json()

    def reference(self, inputs, index):
        a, b = inputs["pool"][index]
        return ref_mod.single_equation_closed_form(a, b)

    def check(self, inputs, index, answer, ref):
        a, b = inputs["pool"][index]
        sysdict = {"s": len(a), "equations": {"F": [a], "G": [b]}}
        if any(answer[k] != v for k, v in ref.items()):
            return False
        witnesses = [from_json_vec(w) for w in answer["witnesses"]]
        if answer["equals_a_plus_inf_a"] and witnesses:
            return False
        return all(None in w and oracles.o_is_member(sysdict, w) for w in witnesses)


class StructureRandom(Workload):
    name = "structure-random"
    why = ("batches of raw random systems (s 2-4, up to 2 rows), a quarter without "
           "an order unit: completion search, extraction and generators on uneven inputs")
    expected_spans = ("hilbert.minimal_solutions", "classify.verdict", "supports.extract",
                      "supports.generators", "supports.infinite_supports",
                      "hilbert.minimize_generators", "hilbert.in_generated")
    DIMS = (2, 3, 4)
    BATCHES = 200
    BRUTE_FORCE_EVERY = 8  # regenerate the brute-force solution set for 1 draw in 8
    BRUTE_FORCE_BOUND = 2

    # One operation is a sweep over one stratified batch (every s and
    # shape once).  Single draws cost from 0.1 ms to 0.2 s, and where the
    # median of such a mix falls depends on the seed; batch times do not.
    def make_inputs(self, rng, workdir):
        size = len(self.DIMS) * len(SHAPES)
        draws = stratified_systems(rng, self.DIMS, self.BATCHES * size)
        return {"pool": [draws[k:k + size] for k in range(0, len(draws), size)]}

    def prepare(self, inputs, tracing):
        from supportmonoids.classify import verdict
        from supportmonoids.equations import DioSystem
        from supportmonoids.supports import extract, generators
        return ((verdict, extract, generators),
                [[DioSystem.from_json(d) for d in batch] for batch in inputs["pool"]])

    def run(self, state, batch):
        verdict, extract, generators = state
        out = []
        for sys_ in batch:
            report = verdict(sys_)
            out.append((report, generators(extract(sys_)) if report.has_order_unit else None))
        return out

    def encode(self, raw):
        from supportmonoids.semiring import vec_to_json
        return [{"verdict": report.to_json(),
                 "generators": None if gens is None else [vec_to_json(g) for g in gens]}
                for report, gens in raw]

    def reference(self, inputs, index):
        batch = inputs["pool"][index]
        units = [ref_mod.has_positive_solution(d) for d in batch]
        first = index * len(batch)
        solutions = {pos: oracles.o_solutions(d, self.BRUTE_FORCE_BOUND)
                     for pos, d in enumerate(batch)
                     if units[pos] and (first + pos) % self.BRUTE_FORCE_EVERY == 0}
        return {"order_unit": units, "solutions": solutions}

    def check(self, inputs, index, answer, ref):
        if [a["verdict"]["order_unit"] for a in answer] != ref["order_unit"]:
            return False
        return all(self._check_one(sysdict, a, ref["solutions"].get(pos))
                   for pos, (sysdict, a) in enumerate(zip(inputs["pool"][index], answer)))

    def _check_one(self, sysdict, answer, solutions):
        verdict = answer["verdict"]
        if not verdict["order_unit"]:
            return answer["generators"] is None
        if verdict["full"] is not True:  # solution monoids are full
            return False
        witnesses = [from_json_vec(w) for w in verdict["witnesses"]]
        if verdict["equals_a_plus_inf_a"] and witnesses:
            return False
        gens = [from_json_vec(g) for g in answer["generators"]]
        if not all(oracles.o_is_member(sysdict, v) for v in gens + witnesses):
            return False
        if solutions is not None:
            closure = oracles.o_closure(gens, self.BRUTE_FORCE_BOUND, sysdict["s"])
            return closure == solutions
        return True


class Membership(Workload):
    name = "membership"
    why = ("the read side of hilbert and supports: one vector against is_member and "
           "four systems of supports; the completion search is only in setup_s")
    expected_spans = ("supports.member_via_supports", "equations.is_member",
                      "semiring.dot", "hilbert.in_generated", "supports.extract",
                      "constructions.a_plus_inf_a", "constructions.b_min",
                      "constructions.b_max")
    # A few systems make most of the slow queries, so a run needs many
    # systems for its mean query time not to depend on the seed.
    SYSTEMS = 432
    POOL = 40000
    BOX = 4

    def make_inputs(self, rng, workdir):
        systems = []
        while len(systems) < self.SYSTEMS:
            for d in stratified_systems(rng, (2, 3, 4), 3 * len(SHAPES)):
                if ref_mod.has_positive_solution(d) and len(systems) < self.SYSTEMS:
                    systems.append(d)
        members = [sorted(oracles.o_solutions(d, self.BOX),
                          key=lambda x: tuple((v is None, v or 0) for v in x))
                   for d in systems]
        pool = []
        for i in range(self.POOL):
            k = i % len(systems)
            # half uniform over the box, half members, so both the
            # accepting and the rejecting searches run
            if rng.random() < 0.5:
                x = _random_vec(rng, systems[k]["s"], self.BOX)
            else:
                x = ref_mod.to_json_vec(rng.choice(members[k]))
            pool.append([k, x])
        return {"systems": systems, "pool": pool}

    def prepare(self, inputs, tracing):
        from supportmonoids.constructions import a_plus_inf_a, b_max, b_min
        from supportmonoids.equations import DioSystem, is_member
        from supportmonoids.semiring import vec_from_json
        from supportmonoids.supports import extract, member_via_supports
        prepared = []
        for d in inputs["systems"]:
            sys_ = DioSystem.from_json(d)
            sos = extract(sys_)
            basis = sos.basis_for(frozenset())
            prepared.append((sys_, (sos, a_plus_inf_a(basis), b_min(basis), b_max(basis))))
        items = [(prepared[k], vec_from_json(x)) for k, x in inputs["pool"]]
        return (is_member, member_via_supports), items

    def run(self, state, item):
        is_member, member_via_supports = state
        (sys_, systems), x = item
        bits = int(is_member(sys_, x))
        for i, sos in enumerate(systems, 1):
            bits |= member_via_supports(sos, x) << i
        return bits

    def reference(self, inputs, index):
        k, x = inputs["pool"][index]
        x = from_json_vec(x)
        return {"member": oracles.o_is_member(inputs["systems"][k], x),
                "finite": None not in x}

    def check(self, inputs, index, answer, ref):
        b, via, low, mini, maxi = ((answer >> i) & 1 == 1 for i in range(5))
        if b != ref["member"] or via != ref["member"]:
            return False
        if ref["finite"] is True:  # all four share the finite part A
            return low == mini == maxi == b
        # b_max holds every vector with an infinite entry, and
        # A + inf·A ⊆ b_min ⊆ b_max, A + inf·A ⊆ B ⊆ b_max always
        return maxi and (not low or (mini and b))


FIXTURES = ("randclosure-s2", "randclosure-s3", "localbass-l1", "cusp", "wiegand-e1")
WIEGAND_MATRICES = ([[1, -1]], [[1, 1, -1]], [[2, -1, -1]])  # criterion 8


class CliFixtures(Workload):
    name = "cli-fixtures"
    why = ("cold CLI runs of every subcommand on the shipped fixtures; the only "
           "workload that measures cli, ranks and the cold import")
    in_process = False
    speed_sample = staticmethod(calibrate.start_sample)
    speed_reference = calibrate.REFERENCE_START_S
    expected_spans = ("cli.main", "ranks.realize_wiegand", "ranks.vstar_system",
                      "classify.verdict", "constructions.b_max")
    BOUND = 3

    def granularity(self, inputs):
        return len(inputs["pool"])  # whole cycles only, so every run has the same mix

    def make_inputs(self, rng, workdir):
        indir = workdir / "inputs"
        indir.mkdir(parents=True, exist_ok=True)

        def write(name, obj):
            path = indir / name
            path.write_text(json.dumps(obj))
            return str(path.relative_to(ROOT))

        pool = []
        for name in FIXTURES:
            system = f"fixtures/{name}.json"
            sysdict = json.loads((ROOT / system).read_text())
            for cmd in ("supports", "generators", "classify", "oracle"):
                pool.append({"cmd": cmd, "fixture": name, "args": [cmd, "--system", system]})
            x = _random_vec(rng, sysdict["s"], 4)
            pool.append({"cmd": "member", "fixture": name, "vector": x,
                         "args": ["member", "--system", system, "--vector",
                                  ",".join(map(str, x))]})
            expected = json.loads((ROOT / "fixtures" / "expected" / f"{name}.json").read_text())
            gens = next(f["basis"] for f in expected["supports"]["supports"] if not f["H"])
            basis = write(f"basis-{name}.json", gens)
            for cmd in ("aplusinfa", "bmin", "bmax"):
                pool.append({"cmd": cmd, "gens": gens, "args": [cmd, "--basis", basis]})
        for k, E in enumerate(WIEGAND_MATRICES):
            ranks = ref_mod.wiegand_ranks(E)
            ranks_file = write(f"ranks-{k}.json", {"a": ranks})
            x = _random_vec(rng, len(E[0]), 3)
            pool.append({"cmd": "lo-system", "ranks": ranks,
                         "args": ["lo-system", "--ranks", ranks_file]})
            pool.append({"cmd": "lo-extended", "ranks": ranks, "vector": x,
                         "args": ["lo-extended", "--ranks", ranks_file, "--vector",
                                  ",".join(map(str, x))]})
            pool.append({"cmd": "wiegand", "E": E,
                         "args": ["wiegand", "--matrix", write(f"matrix-{k}.json", E)]})
        rng.shuffle(pool)
        return {"pool": pool}

    def prepare(self, inputs, tracing):
        # tracing: a file the traced launcher appends one summary line to per run
        return tracing, [item["args"] for item in inputs["pool"]]

    def run(self, state, args):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if state is None:
            argv = [sys.executable, "-m", "supportmonoids.cli", *args]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "cli_traced.py"),
                    state, repr(time.monotonic()), *args]
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
        return {"rc": done.returncode, "stdout": done.stdout}

    def reference(self, inputs, index):
        item = inputs["pool"][index]
        cmd = item["cmd"]
        if cmd in ("supports", "generators", "classify"):
            path = ROOT / "fixtures" / "expected" / f"{item['fixture']}.json"
            return {"rc": 0, "doc": json.loads(path.read_text())[cmd]}
        if cmd == "oracle":
            return {"rc": 0, "ok": True}
        if cmd == "member":
            sysdict = json.loads((ROOT / "fixtures" / f"{item['fixture']}.json").read_text())
            return {"rc": 0, "doc": {"member": oracles.o_is_member(
                sysdict, from_json_vec(item["vector"]))}}
        if cmd in ("aplusinfa", "bmin", "bmax"):
            gens = [tuple(g) for g in item["gens"]]
            return {"rc": 0, "unit": [sum(c) for c in zip(*gens)],
                    "members": ref_mod.construction_members(cmd, gens, self.BOUND)}
        if cmd == "lo-system":
            return {"rc": 0, "system": ref_mod.descent_system(item["ranks"])}
        if cmd == "lo-extended":
            return {"rc": 0, "extended": ref_mod.descends(
                item["ranks"], from_json_vec(item["vector"]))}
        ranks = ref_mod.wiegand_ranks(item["E"])
        return {"rc": 0, "ranks": ranks, "system": ref_mod.descent_system(ranks)}

    def check(self, inputs, index, answer, ref):
        if answer["rc"] != ref["rc"]:
            return False
        try:
            doc = json.loads(answer["stdout"])
        except json.JSONDecodeError:
            return False
        if "doc" in ref:
            return doc == ref["doc"]
        if "ok" in ref:
            return doc.get("ok") == ref["ok"]
        if "members" in ref:
            return (doc["unit"] == ref["unit"]
                    and ref_mod.sos_members(doc, self.BOUND) == ref["members"])
        if "ranks" in ref:
            return doc["ranks"]["a"] == ref["ranks"] and doc["system"] == ref["system"]
        if "extended" in ref:
            return doc.get("extended") == ref["extended"]
        return doc.get("system") == ref["system"]


WORKLOADS = {w.name: w for w in (ClassifyOneEq(), StructureRandom(), Membership(),
                                 CliFixtures())}
