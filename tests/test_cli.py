import io
import json
import contextlib
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import supportmonoids
from conftest import FIXTURE_NAMES, FIXTURES, limit_probe, load_fixture
from supportmonoids import DioSystem, HilbertBasis, a_plus_inf_a, enumerate_truncated
from supportmonoids.cli import (COMMANDS, _dumps, _loads, _parse, _read, _write,
                                build_parser, main)
from supportmonoids.ranks import RankMatrix


def run_cli(*argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, buf.getvalue(), err.getvalue()


def fixture_path(name):
    return str(FIXTURES / f"{name}.json")


def expected(name):
    with open(FIXTURES / "expected" / f"{name}.json") as fh:
        return json.load(fh)


def test_member_true_and_false():
    rc, out, _ = run_cli("member", "--system", fixture_path("randclosure-s2"),
                         "--vector", "inf,1,0")
    assert rc == 0 and json.loads(out) == {"member": True}
    rc, out, _ = run_cli("member", "--system", fixture_path("randclosure-s2"),
                         "--vector", "0,1,0")
    assert rc == 0 and json.loads(out) == {"member": False}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_outputs_match_expected(name):
    want = expected(name)
    for sub in ("generators", "classify", "supports"):
        rc, out, _ = run_cli(sub, "--system", fixture_path(name))
        assert rc == 0
        assert json.loads(out) == want[sub]


def test_classify_randclosure_payload():
    rc, out, _ = run_cli("classify", "--system", fixture_path("randclosure-s2"))
    assert rc == 0
    doc = json.loads(out)
    assert doc["all_fg_sums"] is False
    assert ["inf", 1, 0] in doc["witnesses"]


def test_output_is_byte_identical_across_runs():
    for sub in ("generators", "classify", "supports"):
        runs = {run_cli(sub, "--system", fixture_path("localbass-l1"))[1]
                for _ in range(3)}
        assert len(runs) == 1


ORACLE_CHECKS = {"membership_equivalence", "generators_regenerate",
                 "classification_consistent"}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_oracle_passes_on_every_fixture(name):
    for bound in (0, 2, 3):
        rc, out, _ = run_cli("oracle", "--system", fixture_path(name), "--bound", str(bound))
        doc = json.loads(out)
        assert rc == 0, (bound, doc)
        assert doc["ok"] is True and all(doc["checks"].values())
        assert set(doc["checks"]) == ORACLE_CHECKS


def test_oracle_builds_a_plus_inf_a_from_supports_beyond_the_box(tmp_path):
    # 5·x2 = 2·x6 first holds at (0, 2, 0, 0, 0, 5), so (0, inf, 0, 0, 0, inf)
    # lies in A + inf·A although no finite member in the box has that
    # support; classify says B = A + inf·A, and the oracle must agree
    f = tmp_path / "wide.json"
    f.write_text(json.dumps({"s": 6, "equations": {"F": [[7, 5, 0, 0, 0, 0]],
                                                   "G": [[0, 0, 3, 11, 13, 2]]}}))
    rc, out, _ = run_cli("classify", "--system", str(f))
    assert rc == 0 and json.loads(out)["equals_a_plus_inf_a"] is True
    rc, out, _ = run_cli("oracle", "--system", str(f), "--bound", "3")
    doc = json.loads(out)
    assert rc == 0, doc
    assert doc["ok"] is True and all(doc["checks"].values())


def test_basis_loader_checks_every_entry(tmp_path):
    # [true, 1] is redundant next to the unit vectors, and is refused anyway
    basis_file = tmp_path / "basis.json"
    basis_file.write_text(json.dumps([[1, 0], [0, 1], [True, 1]]))
    for sub in ("aplusinfa", "bmin", "bmax"):
        rc, out, _ = run_cli(sub, "--basis", str(basis_file))
        assert rc == 2
        assert json.loads(out) == {"error": "invalid_input",
                                   "message": "generator entry: expected an integer, got True"}


def test_basis_commands(tmp_path):
    basis_file = tmp_path / "basis.json"
    basis_file.write_text(json.dumps([[1, 0, 0], [0, 1, 1]]))
    for sub in ("aplusinfa", "bmin", "bmax"):
        rc, out, _ = run_cli(sub, "--basis", str(basis_file))
        assert rc == 0
        doc = json.loads(out)
        assert doc["s"] == 3 and doc["unit"] == [1, 1, 1]
    rc, out, _ = run_cli("bmax", "--basis", str(basis_file))
    assert len(json.loads(out)["supports"]) == 8


def test_basis_commands_cap_the_dimension(tmp_path):
    basis_file = tmp_path / "wide.json"
    basis_file.write_text(json.dumps([[1] * 30]))
    for sub in ("aplusinfa", "bmin", "bmax"):
        rc, out, _ = run_cli(sub, "--basis", str(basis_file))
        assert rc == 2
        assert json.loads(out) == {
            "error": "invalid_input",
            "message": "dimension 30 exceeds the supported maximum 24"}


def test_basis_commands_refuse_zero_dimensions(tmp_path):
    # "s": 0 is read as the dimension 0, not as a missing key
    basis_file = tmp_path / "empty.json"
    for doc in ({"dim": 0, "gens": []}, {"s": 0, "gens": []}):
        basis_file.write_text(json.dumps(doc))
        for sub in ("aplusinfa", "bmin", "bmax"):
            rc, out, _ = run_cli(sub, "--basis", str(basis_file))
            assert rc == 2
            assert json.loads(out) == {
                "error": "invalid_input",
                "message": "a system of supports needs at least one coordinate"}


def test_negative_verification_bound_exits_2(tmp_path):
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps({"s": 2, "equations": {"F": [[1, 0]], "G": [[0, 0]]}}))
    for system in (fixture_path("cusp"), str(pinned)):
        rc, out, _ = run_cli("classify", "--system", system, "--bound", "-1")
        assert rc == 2
        assert json.loads(out) == {
            "error": "invalid_input",
            "message": "verification bound: expected at least 0, got -1"}


def test_lo_commands(tmp_path):
    ranks_file = tmp_path / "ranks.json"
    ranks_file.write_text(json.dumps({"a": [[1, 1, 0], [1, 0, 1]]}))
    rc, out, _ = run_cli("lo-system", "--ranks", str(ranks_file))
    assert rc == 0
    doc = json.loads(out)
    assert doc["system"] == {"s": 3, "equations": {"F": [[1, 1, 0]], "G": [[1, 0, 1]]}}
    assert "assumptions" in doc
    rc, out, _ = run_cli("lo-extended", "--ranks", str(ranks_file),
                         "--vector", "inf,1,0")
    assert rc == 0 and json.loads(out)["extended"] is True
    rc, out, _ = run_cli("lo-extended", "--ranks", str(ranks_file),
                         "--vector", "0,1,0")
    assert rc == 0 and json.loads(out)["extended"] is False


def test_wiegand_command(tmp_path):
    matrix_file = tmp_path / "E.json"
    matrix_file.write_text(json.dumps([[1, -1]]))
    rc, out, _ = run_cli("wiegand", "--matrix", str(matrix_file))
    assert rc == 0
    doc = json.loads(out)
    assert doc["ranks"]["a"] == [[4, 3], [3, 4]]
    assert doc["system"]["equations"] == {"F": [[4, 3]], "G": [[3, 4]]}


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, out, _ = run_cli("member", "--system", str(bad), "--vector", "1")
    assert rc == 2
    # the json module reads what the direct reader does not, and words the error
    assert json.loads(out) == {
        "error": "invalid_input",
        "message": "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"}


def test_missing_file_exits_2(tmp_path):
    rc, out, _ = run_cli("generators", "--system", str(tmp_path / "nope.json"))
    assert rc == 2
    assert json.loads(out)["error"] == "invalid_input"


def test_bad_vector_exits_2():
    rc, out, _ = run_cli("member", "--system", fixture_path("randclosure-s2"),
                         "--vector", "1,-2,0")
    assert rc == 2
    # digits outside ASCII are not digits of a vector
    rc, out, _ = run_cli("member", "--system", fixture_path("cusp"),
                         "--vector", "\u0661,\u0662,0")
    assert rc == 2 and json.loads(out)["error"] == "invalid_input"


def test_missing_order_unit_exits_2(tmp_path):
    f = tmp_path / "pinned.json"
    f.write_text(json.dumps({"s": 2, "equations": {"F": [[1, 0]], "G": [[0, 0]]}}))
    rc, out, _ = run_cli("generators", "--system", str(f))
    assert rc == 2
    assert json.loads(out)["error"] == "missing_order_unit"
    # classify reports the condition in-band instead
    rc, out, _ = run_cli("classify", "--system", str(f))
    assert rc == 0 and json.loads(out)["order_unit"] is False


def test_resource_cap_exits_3(tmp_path):
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"s": 8}))
    rc, out, _ = run_cli("oracle", "--system", str(f), "--bound", "8")
    assert rc == 3
    assert json.loads(out)["error"] == "resource_limit"


def run_cold(*args, timeout, unbuffered=None, **options):
    """Run a fresh interpreter on this checkout's package.  unbuffered
    True or False sets or removes PYTHONUNBUFFERED in its environment
    (None keeps the caller's); options go to subprocess.run, which
    captures stdout and stderr as text unless they say otherwise."""
    src = str(pathlib.Path(supportmonoids.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    options = {"capture_output": True, "text": True, **options}
    return subprocess.run([sys.executable, *args], env=env, timeout=timeout, **options)


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Input files for the cold runs, by name."""
    root = tmp_path_factory.mktemp("cli")
    docs = {"ranks": {"a": [[1, 1, 0], [1, 0, 1]]}, "matrix": [[1, -1]],
            "free12": [[int(i == j) for j in range(12)] for i in range(12)], "s8": {"s": 8},
            "pinned": {"s": 2, "equations": {"F": [[1, 0]], "G": [[0, 0]]}}}
    for name in FIXTURE_NAMES:
        supports = expected(name)["supports"]["supports"]
        docs[f"basis-{name}"] = next(fam["basis"] for fam in supports if not fam["H"])
    files = {}
    for name, doc in docs.items():
        files[name] = root / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    files["deep"] = root / "deep.json"
    files["deep"].write_text("[" * 3000 + "]" * 3000)  # past json's recursion limit
    files["missing"] = root / "nope.json"  # never written
    return {name: str(path) for name, path in files.items()}


def parity_lines(group, files):
    """The command lines of one group of cold parity runs."""
    if group in FIXTURE_NAMES:
        system = fixture_path(group)
        vector = ",".join(["inf"] + ["1"] * (load_fixture(group)["s"] - 1))
        yield ["member", "--system", system, "--vector", vector]
        for cmd in ("supports", "generators", "classify", "oracle"):
            yield [cmd, "--system", system]
        for cmd in ("aplusinfa", "bmin", "bmax"):
            yield [cmd, "--basis", files[f"basis-{group}"]]
    elif group == "ranks":
        yield ["lo-system", "--ranks", files["ranks"]]
        yield ["lo-extended", "--ranks", files["ranks"], "--vector", "inf,1,0"]
        yield ["wiegand", "--matrix", files["matrix"]]
    elif group == "large":  # about 500 KB, past any pipe buffer
        yield ["aplusinfa", "--basis", files["free12"]]
    else:  # exit 2 and 3 without a traceback, a file too deep for json included
        yield ["generators", "--system", files["missing"]]
        yield ["member", "--system", fixture_path("cusp"), "--vector", "1,-2,0"]
        yield ["generators", "--system", files["pinned"]]
        yield ["oracle", "--system", files["s8"], "--bound", "8"]
        for cmd, flag in (("supports", "--system"), ("bmin", "--basis"),
                          ("lo-system", "--ranks"), ("wiegand", "--matrix")):
            yield [cmd, flag, files["deep"]]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("group", [*FIXTURE_NAMES, "ranks", "large", "errors"])
def test_cold_runs_match_in_process(cli_inputs, group, unbuffered):
    # a cold run ends through cli.run, which flushes and then skips the
    # interpreter's teardown: stdout bytes, stderr and the exit status must
    # be those of main called in-process, with stdout buffered or not
    for argv in parity_lines(group, cli_inputs):
        rc, out, err = run_cli(*argv)
        proc = run_cold("-m", "supportmonoids.cli", *argv, timeout=120,
                        unbuffered=unbuffered, text=False)
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == \
            (rc, out.encode(), err), argv
        if group == "large":
            assert rc == 0 and len(proc.stdout) > 1 << 16
        if group == "errors":
            assert rc in (2, 3) and err.startswith("error: ") and err.count("\n") == 1
            assert json.loads(out)["error"] in ("invalid_input", "missing_order_unit",
                                                "resource_limit")


def test_oracle_on_eight_free_coordinates_answers_within_budget(cli_inputs):
    # N0*^8 at bound 2 holds 4^8 = 65,536 members: the three checks take
    # about 2 s cold on a 2-core Xeon host, a check that added the members
    # pairwise took 16.6 s
    proc = run_cold("-m", "supportmonoids.cli", "oracle", "--system", cli_inputs["s8"],
                    "--bound", "2", timeout=8)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["ok"] is True


def test_oracle_refuses_before_it_enumerates(tmp_path):
    # at bound 3 the box over N0*^10 holds 5^10 = 9,765,625 points, under the
    # box guard; the closure of the generators could reach 6^10 saturated
    # points and is refused before either enumeration runs, in under 1 s on
    # a 2-core Xeon host (listing the box first ran out of a 1 GiB address
    # space after 26 s)
    f = tmp_path / "s10.json"
    f.write_text(json.dumps({"s": 10}))
    probe = limit_probe("-m", "supportmonoids.cli", "oracle", "--system", str(f), "--bound", "3")
    assert probe.status == 3, probe.stderr
    assert probe.stderr.startswith("error: generated_truncated: up to 60466176 saturated points")
    assert probe.wall_s < 5 and probe.peak_mb < 128, probe


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_120_without_a_traceback(cli_inputs, unbuffered):
    # the read end of stdout is closed before the child writes: a short
    # document fails at the final flush (or at its write when unbuffered),
    # a long one while it is written; argparse's help, which argparse
    # would write in silence when unbuffered, ends the same way
    for argv in (["member", "--system", fixture_path("cusp"), "--vector", "1,1,1"],
                 ["aplusinfa", "--basis", cli_inputs["free12"]],
                 ["--help"], ["bmin", "--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_cold("-m", "supportmonoids.cli", *argv, timeout=120,
                            unbuffered=unbuffered, capture_output=False,
                            stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == 120, (argv, proc.stderr)
        assert proc.stderr == "error: stdout is closed: [Errno 32] Broken pipe\n", argv
    # a process started without fd 1 has no sys.stdout: print drops the
    # document, and run must not fail on the missing stream
    proc = run_cold("-m", "supportmonoids.cli", "member", "--system", fixture_path("cusp"),
                    "--vector", "1,1,1", timeout=60, unbuffered=unbuffered,
                    capture_output=False, stderr=subprocess.PIPE,
                    preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_system_rows_that_are_not_objects_exit_2(tmp_path):
    # rows given as an array where an object belongs are invalid input, not a crash
    f = tmp_path / "rows.json"
    f.write_text(json.dumps({"s": 2, "equations": [[1, 1]]}))
    proc = run_cold("-m", "supportmonoids.cli", "supports", "--system", str(f), timeout=60)
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {
        "error": "invalid_input",
        "message": "system JSON 'equations' must be an object or null, got list"}


@pytest.mark.parametrize("command,option,doc,message", [
    ("supports", "--system", {"s": 2, "equations": {"F": [5], "G": [[1, 1]]}},
     "'int' object is not iterable"),
    ("supports", "--system", {"s": 2, "equations": {"F": [[1, "x"]], "G": [[1, 1]]}},
     "F entry: expected an integer, got 'x'"),
    ("supports", "--system", {"s": 2, "congruences": {"D": [[1, 1.5]], "moduli": [2]}},
     "D entry: expected an integer, got 1.5"),
    ("supports", "--system", {"s": 2, "congruences": {"D": [[1, 1]], "moduli": 2}},
     "'int' object is not iterable"),
    # the constructor checks s before it reads a row
    ("supports", "--system", {"s": 0, "equations": {"F": [5], "G": [5]}},
     "dimension: expected at least 1, got 0"),
    ("lo-system", "--ranks", {"a": [[1, 1], 7]}, "'int' object is not iterable"),
    ("lo-system", "--ranks", {"a": [[1, 1], [1, True]]},
     "rank entry: expected an integer, got True"),
    ("lo-system", "--ranks", {"a": [[1, 1], [1, 2]], "labels": None},
     "'NoneType' object is not iterable"),
])
def test_bad_json_rows_are_refused(tmp_path, command, option, doc, message):
    # the record constructors check the rows from_json hands them as they are
    load = DioSystem.from_json if option == "--system" else RankMatrix.from_json
    with pytest.raises((TypeError, ValueError)) as err:
        load(doc)
    assert str(err.value) == message
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    rc, out, _ = run_cli(command, option, str(f))
    assert rc == 2
    assert json.loads(out) == {"error": "invalid_input", "message": message}


def test_non_ascii_message_is_written_by_json():
    # the direct writer hands non-ASCII text to json.dumps, which escapes it
    proc = run_cold("-m", "supportmonoids.cli", "member", "--system", fixture_path("cusp"),
                    "--vector", "\u0661,1,0", timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ('{"error":"invalid_input","message":"cannot parse '
                           "'\\u0661' as a nonnegative integer or 'inf'\"}\n")


def test_classify_refuses_a_fullness_check_too_large_to_enumerate(tmp_path):
    # is_full on the free monoid N0^12 would enumerate 6^12 points; a cold
    # subprocess with a timeout shows the refusal comes instead of a hang
    f = tmp_path / "s12.json"
    f.write_text(json.dumps({"s": 12}))
    proc = run_cold("-m", "supportmonoids.cli", "classify", "--system", str(f),
                    timeout=120)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == "resource_limit"
    assert "generated_upto" in proc.stderr


@pytest.mark.parametrize("command", ["supports", "classify"])
def test_subset_enumeration_past_the_cap_is_refused(tmp_path, command):
    # infinite_supports would materialize all 2^24 subsets of N0*^24
    f = tmp_path / "s24.json"
    f.write_text(json.dumps({"s": 24}))
    proc = run_cold("-m", "supportmonoids.cli", command, "--system", str(f),
                    timeout=60)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == "resource_limit"
    assert "infinite_supports" in proc.stderr and "16" in proc.stderr


def test_supports_of_a_long_chain_are_listed(tmp_path):
    # x1 = x2 = ... = x20: past 16 coordinates, but S = {∅, {1..20}}
    s = 20
    unit = lambda i: [int(j == i) for j in range(s)]
    f = tmp_path / "chain.json"
    f.write_text(json.dumps({"s": s, "equations": {"F": [unit(i) for i in range(s - 1)],
                                                   "G": [unit(i + 1) for i in range(s - 1)]}}))
    rc, out, _ = run_cli("supports", "--system", str(f))
    assert rc == 0
    doc = json.loads(out)
    assert [fam["H"] for fam in doc["supports"]] == [[], list(range(1, s + 1))]
    assert doc["supports"][0]["basis"] == [[1] * s]


@pytest.mark.parametrize("dim", [17, 24])
def test_support_closure_past_the_cap_is_refused(tmp_path, dim):
    # the free basis of N0^dim has 2^dim supports of members
    f = tmp_path / "free.json"
    f.write_text(json.dumps([[int(i == j) for j in range(dim)] for i in range(dim)]))
    start = time.perf_counter()
    rc, out, err = run_cli("aplusinfa", "--basis", str(f))
    assert time.perf_counter() - start < 1
    assert rc == 3 and json.loads(out)["error"] == "resource_limit"
    assert "a_plus_inf_a" in err and "2^16" in err and f"2^{dim}" in err


def test_support_closure_counts_distinct_supports(tmp_path):
    # at the cap itself the supports are listed, and reading them builds no family
    sos = a_plus_inf_a(HilbertBasis.free(16))
    assert len(sos.S) == 1 << 16 and sos._by_h == {}
    # 24 generators sharing the full support have only two support unions
    f = tmp_path / "full.json"
    f.write_text(json.dumps([[1 + (i == j) for j in range(24)] for i in range(24)]))
    rc, out, _ = run_cli("aplusinfa", "--basis", str(f))
    assert rc == 0
    assert [fam["H"] for fam in json.loads(out)["supports"]] == [[], list(range(1, 25))]


JSON_MODULES = {"json", "json.decoder", "json.encoder", "json.scanner", "_json"}


def test_cli_import_skips_dataclasses_and_inspect():
    # all three are slow to import; the cold CLI start must not pay for
    # them (argparse is loaded only for help and usage errors), nor for
    # json, which reads and writes only what the direct path does not
    # (counted past what the interpreter loaded before the import)
    proc = run_cold("-c", "import sys; before = set(sys.modules); import supportmonoids.cli; "
                          "print(sorted({'argparse', 'dataclasses', 'inspect'} & set(sys.modules)),"
                          f" sorted(set({sorted(JSON_MODULES)}) & (set(sys.modules) - before)))",
                    timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] []"


def test_cold_help_prints_the_full_usage():
    proc = run_cold("-m", "supportmonoids.cli", "--help", timeout=60)
    assert proc.returncode == 0, proc.stderr
    usage = " ".join(proc.stdout.split())  # argparse wraps the usage line
    assert usage.startswith("usage: supportmonoids [-h] {" + ",".join(COMMANDS) + "} ...")


def exit_output(call):
    """(exit code, stdout, stderr) of a call that argparse ends with SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as stop:
        call()
    return stop.value.code, out.getvalue(), err.getvalue()


def parse_exits():
    """Command lines that argparse answers itself, with help or a usage error."""
    yield ["--help"]
    yield []
    yield ["nope", "--system", "x"]
    for name, (_, _, flags) in COMMANDS.items():
        required = [arg for flag, kw in flags.items() if kw.get("required")
                    for arg in (f"--{flag}", "x")]
        yield [name, "--help"]
        yield [name]  # every command has a required flag
        yield [name, "--bound", "x"]
        yield [name, *required, "extra"]


@pytest.mark.parametrize("argv", list(parse_exits()), ids=lambda a: " ".join(a) or "-")
def test_main_parses_as_the_parser_of_every_command(argv):
    # main reads none of these lines itself and hands them to the full
    # parser; what it prints, and its exit code, must be that parser's
    assert len(COMMANDS) == 11
    want = exit_output(lambda: build_parser().parse_args(argv))
    assert exit_output(lambda: main(argv)) == want
    code, out, err = want
    assert (code, bool(out), bool(err)) == ((0, True, False) if "--help" in argv
                                            else (2, False, True))
    # the full parser names the subparsers action "command" in its errors
    if not argv:
        assert err.endswith("error: the following arguments are required: command\n")
    if argv[:1] == ["nope"]:
        assert "error: argument command: invalid choice: 'nope' (choose from 'member'," in err
    if argv[-1:] == ["extra"]:
        usage = " ".join(err.split())  # argparse wraps the usage line
        assert usage.startswith("usage: supportmonoids [-h] {" + ",".join(COMMANDS) + "} ...")
        assert err.endswith("error: unrecognized arguments: extra\n")


VALUES = ("x", "fixtures/cusp.json", "1,inf,0", "0", "7", " 4", "", "-1", "-", "--", "x y")


def random_argv(rng):
    """A command line built from COMMANDS: mostly a well-formed one, then
    up to three edits from the ways a line can go wrong."""
    if rng.random() < 0.03:
        return rng.choice([[], ["nope", "--system", "x"], ["-h"], ["--help"], ["--"]])
    name = rng.choice(list(COMMANDS))
    flags = COMMANDS[name][2]
    every_flag = sorted({flag for _, _, fl in COMMANDS.values() for flag in fl})
    pairs = []
    for flag, kw in flags.items():
        if kw.get("required") or rng.random() < 0.5:
            value = str(rng.randint(0, 9)) if "type" in kw else rng.choice(VALUES[:3])
            pairs.append([f"--{flag}", value])
    rng.shuffle(pairs)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        edit = rng.randrange(9)
        if edit == 0 and pairs:  # drop a flag
            pairs.pop(rng.randrange(len(pairs)))
        elif edit == 1 and pairs:  # repeat a flag
            flag = rng.choice(pairs)[0]
            pairs.insert(rng.randrange(len(pairs) + 1), [flag, rng.choice(VALUES)])
        elif edit == 2 and pairs:  # --flag=value
            i = rng.randrange(len(pairs))
            pairs[i] = ["=".join(pairs[i])]
        elif edit == 3 and pairs and len(pairs[0][0]) > 3:  # an abbreviation: --sys
            pairs[0][0] = pairs[0][0][:rng.randint(3, len(pairs[0][0]) - 1)]
        elif edit == 4 and pairs:  # an odd value: empty, "-1", "--", "x y", ...
            rng.choice(pairs)[-1] = rng.choice(VALUES)
        elif edit == 5:  # a flag of any command, with any value
            pairs.append([f"--{rng.choice(every_flag)}", rng.choice(VALUES)])
        elif edit == 6:  # help, a stray option, "--" or a positional
            pairs.insert(rng.randrange(len(pairs) + 1),
                         [rng.choice(("-h", "--help", "-x", "--", "extra"))])
        elif edit == 7:  # a non-integer bound
            pairs.append(["--bound", rng.choice(("x", "1.5", "", "inf", "-1", "-2"))])
        elif edit == 8 and pairs:  # a flag without its value
            del rng.choice(pairs)[1:]
    return [name, *(arg for pair in pairs for arg in pair)]


def test_direct_parse_agrees_with_the_parser(monkeypatch):
    # main reads well-formed lines itself (_parse) and hands every other
    # line to the full parser: on each seeded line the handler must see
    # the parser's attributes, or main must print what the parser prints
    seen = []

    def record(args):
        seen.append(vars(args))
        return {}

    for name, (_, help_, flags) in list(COMMANDS.items()):
        monkeypatch.setitem(COMMANDS, name, (record, help_, flags))
    parser = build_parser()
    rng = random.Random(2101)
    accepted = refused = 0
    for _ in range(1000):
        argv = random_argv(rng)
        direct = _parse(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                want = vars(parser.parse_args(argv))
        except SystemExit:
            assert direct is None, argv
            refused += 1
            want = exit_output(lambda: parser.parse_args(argv))
            assert exit_output(lambda: main(argv)) == want, argv
            continue
        if direct is not None:
            accepted += 1
            assert vars(direct) == want, argv
        seen.clear()
        assert main(argv) == 0 and seen == [want], argv
    # each of the three ways is taken: read directly, parsed by argparse
    # (an abbreviation, a repeated flag, ...), refused by argparse
    assert accepted > 250 and refused > 250 and 1000 - accepted - refused > 100


def test_handlers_return_the_document_main_writes(tmp_path):
    # a handler writes nothing: it returns its document, and main writes
    # that document as its one line
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([[1, 0, 0], [0, 1, 1]]))
    ranks = tmp_path / "ranks.json"
    ranks.write_text(json.dumps({"a": [[1, 1, 0], [1, 0, 1]]}))
    matrix = tmp_path / "E.json"
    matrix.write_text(json.dumps([[1, -1]]))
    system = fixture_path("randclosure-s2")
    flags = {
        "member": ["--system", system, "--vector", "inf,1,0"],
        "supports": ["--system", system],
        "generators": ["--system", system],
        "classify": ["--system", system],
        "aplusinfa": ["--basis", str(basis)],
        "bmin": ["--basis", str(basis)],
        "bmax": ["--basis", str(basis)],
        "lo-system": ["--ranks", str(ranks)],
        "lo-extended": ["--ranks", str(ranks), "--vector", "inf,1,0"],
        "wiegand": ["--matrix", str(matrix)],
        "oracle": ["--system", system],
    }
    assert list(flags) == list(COMMANDS)
    for name, rest in flags.items():
        argv = [name, *rest]
        args = _parse(argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            doc = args.fn(args)
        assert out.getvalue() == err.getvalue() == "", argv
        assert type(doc) is dict, argv
        assert run_cli(*argv) == (0, _dumps(doc) + "\n", ""), argv


def test_oracle_mismatch_exits_1(monkeypatch):
    monkeypatch.setattr("supportmonoids.supports.truncated_members",
                        lambda sos, bound: frozenset())
    rc, out, err = run_cli("oracle", "--system", fixture_path("cusp"))
    doc = json.loads(out)
    assert rc == 1 and err == ""
    assert doc["ok"] is False and doc["checks"]["membership_equivalence"] is False

    # an enumeration that is not closed under addition: (1, 1, 1) is
    # (1, 0, 0) + (0, 1, 1), both kept, so the generators regenerate more
    monkeypatch.undo()
    box = enumerate_truncated(DioSystem.from_json(load_fixture("cusp")), 3)
    assert {(1, 1, 1), (1, 0, 0), (0, 1, 1)} <= set(box)
    monkeypatch.setattr("supportmonoids.equations.enumerate_truncated",
                        lambda sys_, bound: [x for x in enumerate_truncated(sys_, bound)
                                             if x != (1, 1, 1)])
    rc, out, err = run_cli("oracle", "--system", fixture_path("cusp"), "--bound", "3")
    doc = json.loads(out)
    assert rc == 1 and err == ""
    assert doc["ok"] is False and doc["checks"]["generators_regenerate"] is False


def test_cold_runs_load_only_what_the_command_runs(tmp_path):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([[1, 0], [0, 1]]))
    ranks = tmp_path / "ranks.json"
    ranks.write_text(json.dumps({"a": [[1, 1, 0], [1, 0, 1]]}))
    matrix = tmp_path / "E.json"
    matrix.write_text(json.dumps([[1, -1]]))
    system = fixture_path("cusp")
    # (command line, the module it runs, modules it must not load)
    cases = [
        (["member", "--system", system, "--vector", "1,1,1"], "equations",
         {"hilbert", "supports", "classify", "constructions", "ranks"}),
        (["lo-system", "--ranks", str(ranks)], "ranks",
         {"supports", "classify", "constructions"}),
        (["lo-extended", "--ranks", str(ranks), "--vector", "inf,1,0"], "ranks",
         {"supports", "classify", "constructions"}),
        (["wiegand", "--matrix", str(matrix)], "ranks",
         {"supports", "classify", "constructions"}),
        (["supports", "--system", system], "supports",
         {"classify", "constructions", "ranks"}),
        (["generators", "--system", system], "supports",
         {"classify", "constructions", "ranks"}),
        *(([cmd, "--basis", str(basis)], "constructions", {"classify", "ranks"})
          for cmd in ("aplusinfa", "bmin", "bmax")),
    ]
    def imported(*args):
        proc = run_cold("-X", "importtime", *args, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}

    at_start = imported("-c", "pass")  # a host's site may load json itself
    for argv, runs, skipped in cases:
        loaded = imported("-m", "supportmonoids.cli", *argv)
        package = {name.split(".", 1)[1] for name in loaded
                   if name.startswith("supportmonoids.")}
        assert runs in package and {"semiring", "errors"} <= package, (argv, package)
        assert not package & skipped, (argv, package & skipped)
        # main reads a well-formed line without argparse and its gettext
        assert not loaded & {"argparse", "gettext", "locale"}, (argv, loaded)
        # and reads and writes well-formed JSON without the json module
        assert not (loaded - at_start) & JSON_MODULES, (argv, loaded & JSON_MODULES)


def test_package_exports_resolve_on_first_access():
    script = """
import sys
import supportmonoids as pkg
loaded = sorted(m for m in sys.modules if m.startswith("supportmonoids."))
assert loaded == ["supportmonoids.errors", "supportmonoids.semiring"], loaded
assert set(pkg.__all__) <= set(dir(pkg))
for name in pkg.__all__:
    value = getattr(pkg, name)
    if callable(value):  # every function and class: its defining module's object
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("supportmonoids."), name
        assert getattr(module, value.__name__) is value, name
names = {}
exec("from supportmonoids import *", names)
assert set(pkg.__all__) <= set(names), set(pkg.__all__) - set(names)
assert all(names[name] is getattr(pkg, name) for name in pkg.__all__)
try:
    pkg.no_such_export
except AttributeError as exc:
    assert "no_such_export" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
print(len(pkg.__all__))
"""
    proc = run_cold("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(len(supportmonoids.__all__))


def outcome(call, arg):
    """repr of what call(arg) returns (repr tells 1 from True and 1.0),
    or the type and message of what it raises."""
    try:
        return repr(call(arg))
    except Exception as exc:  # every exception is compared, whatever its type
        return type(exc), str(exc)


CHARS = ("a", "Z", " ", "~", "/", "'", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
         "\xe9", "\u0661", "\U0001f600", "\ufeff")


def random_doc(rng, depth=0):
    """A random JSON-like document: mostly what the commands read and
    write, with floats, odd strings, tuples and odd keys mixed in."""
    r = rng.random()
    if depth > 4 or r < 0.45:
        return rng.choice((
            rng.randint(-3, 30), rng.randint(-10 ** 30, 10 ** 30), True, False, None,
            rng.choice((0.5, -0.0, 1e300, 2.0, float("inf"), float("nan"))), "inf",
            "".join(rng.choice(CHARS[:5] if rng.random() < 0.7 else CHARS)
                    for _ in range(rng.randint(0, 6)))))
    if r < 0.75:
        items = [random_doc(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.2 else items
    doc = {}
    for _ in range(rng.randint(0, 4)):
        key = rng.choice(("s", "F", "G", "moduli", "a", "gens", "\xe9", 'q"', "b\\",
                          "inf", "") if rng.random() < 0.9 else (1, -2, True, None, 1.5))
        doc[key] = random_doc(rng, depth + 1)
    return doc


def mutated(rng, text):
    """text with up to two random edits: a character deleted, inserted or
    repeated, a cut, or a BOM in front."""
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(5)
        if edit == 0:
            text = text[:i] + text[i + 1:]
        elif edit == 1:
            text = text[:i] + rng.choice(',]}[{:"\\ 0-.eEx\ufeff\x0b') + text[i:]
        elif edit == 2:
            text = text[:i] + text[i:i + 3] + text[i:]
        elif edit == 3:
            text = text[:i]
        else:
            text = "\ufeff" + text
    return text


DEEP = 40  # deeper than the direct paths go
ODD_TEXTS = [
    '{"s": 2}', "-0", "[-0, 0, -12]", "01", "[01]", "-01", "-", "--1", "1.5", "[1e3]", "1E-2",
    "[2.]", ".5", '"\\u0041"', '"a\\"b"', '"\\n"', '"\xe9"', '"\u0661"', '\ufeff{"s": 1}',
    "[1,]", "[1 2]", '{"a": 1,}', '{"a" 1}', '{"a": 1 "b": 2}', "{1: 2}", "[", '{"s": ', '"abc',
    "", "   ", "tru", "nul", "true false", "NaN", "Infinity", "-Infinity", '"\x7f"', '"\t"',
    "[true, false, null]", '{"a": 1, "a": 2, "b": 3}', " \t\n\r[1]\r\n", "[1]\x0b",
    "\x0c[1]", "[1]]", "{}}", '{"a":[}', '{"a": 1]"b": 2}', "[1}2]", "9" * 4000, "9" * 4301, "[" + "1" * 4400 + "]",
    "[" * 32 + "]" * 32, "[" * DEEP + "]" * DEEP, "[" * 2000 + "]" * 2000, "[" * 5000 + "]" * 5000,
    '{"a":' * DEEP + "1" + "}" * DEEP,
]


def test_direct_reader_agrees_with_json_loads():
    # _loads reads the subset of JSON the commands use itself and hands
    # every other text to json.loads: value, or exception type and message,
    # must be json.loads's on odd texts and on seeded, mostly mutated,
    # documents, but for the ValueError that stands for its RecursionError
    rng = random.Random(2301)
    texts = list(ODD_TEXTS)
    for _ in range(3000):
        text = json.dumps(random_doc(rng), ensure_ascii=rng.random() < 0.5,
                          indent=rng.choice((None, None, 0, 2)),
                          separators=rng.choice((None, (",", ":"), (", ", ": "))))
        texts.append(mutated(rng, text) if rng.random() < 0.5 else text)
    def loads(text):
        # json's RecursionError on deep nesting comes back as a ValueError
        try:
            return json.loads(text)
        except RecursionError as exc:
            raise ValueError(str(exc)) from None

    direct = 0
    for text in texts:
        assert outcome(_loads, text) == outcome(loads, text), text[:200]
        try:
            direct += not text[_read(text, 0, 0)[1]:].strip(" \t\n\r")
        except (IndexError, ValueError):
            pass
    # both ways are taken often
    assert 600 < direct < len(texts) - 600, direct


def test_direct_writer_agrees_with_json_dumps():
    # _dumps writes the documents the commands emit itself and hands every
    # other to json.dumps: the text, or exception type and message, must
    # be json.dumps's
    def dumps(doc):
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    circular = []
    circular.append(circular)
    deep = {}
    for _ in range(DEEP):
        deep = {"a": [deep]}

    class Int(int):
        pass

    rng = random.Random(2302)
    docs = [{"b": 1, "a": [True, False, None, (1, 2)]}, ("x", ["y"]), {"k": "\xe9"},
            {"k": 'a"b'}, {"k": "a\\b"}, {"\u0661": 1}, {1: 2, 3: 4}, {1: 2, "a": 3},
            {True: 1}, {None: 1}, {1.5: 2}, 1.5, float("nan"), -0.0, 10 ** 5000, [10 ** 5000],
            {"x": 2 ** 64}, -5, Int(3), [Int(3)], set(), b"x", "\x7f", "\t", "", [], {},
            circular, deep, [[[[1]]]] * 3, {"error": "invalid_input", "message": "'s'"}]
    docs += [random_doc(rng) for _ in range(3000)]
    direct = 0
    for doc in docs:
        assert outcome(_dumps, doc) == outcome(dumps, doc), repr(doc)[:200]
        try:
            direct += isinstance(_write(doc), str)
        except ValueError:
            pass
    assert 600 < direct < len(docs) - 600, direct


def test_mismatching_congruence_vector_member():
    rc, out, _ = run_cli("member", "--system", fixture_path("randclosure-s2"),
                         "--vector", "1,2")
    assert rc == 2
