import io
import json
import contextlib
import os
import pathlib
import subprocess
import sys

import pytest

import supportmonoids
from conftest import FIXTURE_NAMES, FIXTURES
from supportmonoids.cli import main


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


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_oracle_passes_on_every_fixture(name):
    rc, out, _ = run_cli("oracle", "--system", fixture_path(name), "--bound", "3")
    doc = json.loads(out)
    assert rc == 0, doc
    assert doc["ok"] is True and all(doc["checks"].values())


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
    assert json.loads(out)["error"] == "invalid_input"


def test_missing_file_exits_2(tmp_path):
    rc, out, _ = run_cli("generators", "--system", str(tmp_path / "nope.json"))
    assert rc == 2
    assert json.loads(out)["error"] == "invalid_input"


def test_bad_vector_exits_2():
    rc, out, _ = run_cli("member", "--system", fixture_path("randclosure-s2"),
                         "--vector", "1,-2,0")
    assert rc == 2


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


def test_classify_refuses_a_fullness_check_too_large_to_enumerate(tmp_path):
    # is_full on the free monoid N0^12 would enumerate 6^12 points; a cold
    # subprocess with a timeout shows the refusal comes instead of a hang
    f = tmp_path / "s12.json"
    f.write_text(json.dumps({"s": 12}))
    src = str(pathlib.Path(supportmonoids.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "supportmonoids.cli", "classify", "--system", str(f)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == "resource_limit"
    assert "generated_upto" in proc.stderr


def test_mismatching_congruence_vector_member():
    rc, out, _ = run_cli("member", "--system", fixture_path("randclosure-s2"),
                         "--vector", "1,2")
    assert rc == 2
