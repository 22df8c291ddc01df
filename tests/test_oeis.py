"""OEIS client: fixtures, cache, offline behavior, cross-checks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qpb import families
from qpb.errors import OeisNetworkError, OeisNotFoundError
from qpb.oeis import SequenceFixture, cache_dir, crosscheck_table, fetch_sequence

EXPECTED_HEAD = (1, 1, 1, 1, 2, 1, 1, 4, 4, 1)


def _boom(url):
    raise AssertionError(f"network touched: {url}")


def test_bundled_fixture_offline(tmp_path):
    fx = fetch_sequence("A099594", offline=True, cache=tmp_path)
    assert fx.source == "bundled"
    assert fx.reader == "antidiagonal"
    assert fx.terms[:10] == EXPECTED_HEAD
    assert len(fx.terms) == 21


def test_malformed_id():
    with pytest.raises(OeisNotFoundError):
        fetch_sequence("X1", offline=True)
    with pytest.raises(OeisNotFoundError):
        fetch_sequence("A12", offline=True)


def test_offline_never_touches_network(tmp_path):
    fx = fetch_sequence("A099594", offline=True, transport=_boom, cache=tmp_path)
    assert fx.source == "bundled"


def test_unknown_sequence_offline(tmp_path):
    with pytest.raises(OeisNotFoundError):
        fetch_sequence("A000001", offline=True, transport=_boom, cache=tmp_path)


def test_network_failure_without_fallback(tmp_path):
    def network_down(url):
        raise OSError("no route")

    with pytest.raises(OeisNetworkError):
        fetch_sequence("A000001", offline=False, transport=network_down, cache=tmp_path)


def test_remote_fetch_populates_cache_and_round_trips(tmp_path):
    body = "# demo\n0 5\n1 7\n2 11\n"
    calls = []

    def fake(url):
        calls.append(url)
        return body

    fx = fetch_sequence("A000045", offline=False, transport=fake, cache=tmp_path)
    assert fx.source == "remote"
    assert fx.terms == (5, 7, 11)
    assert (tmp_path / "A000045.txt").read_text() == body  # bit-exact cache
    again = fetch_sequence("A000045", offline=False, transport=_boom, cache=tmp_path)
    assert again.source == "cache"
    assert again.terms == fx.terms
    assert len(calls) == 1


@pytest.mark.parametrize("seq_id", ["A000045", "A099594"])
def test_unwritable_cache_keeps_the_fetched_terms(tmp_path, seq_id):
    # the cache path is a file, so the cache directory cannot be made; the
    # fetch still returns its terms, and A099594 not its bundled fixture
    cache = tmp_path / "not-a-directory"
    cache.write_text("")
    fx = fetch_sequence(seq_id, offline=False, transport=lambda url: "0 5\n1 7\n2 11\n", cache=cache)
    assert (fx.source, fx.terms) == ("remote", (5, 7, 11))
    assert cache.read_text() == ""


def test_corrupt_cache_is_a_miss(tmp_path):
    (tmp_path / "A099594.txt").write_text("0 1\n1 not-a-number\n")
    fx = fetch_sequence("A099594", offline=True, transport=_boom, cache=tmp_path)
    assert fx.source == "bundled"
    assert fx.terms[:10] == EXPECTED_HEAD


@pytest.mark.parametrize("body", ["0 1\n0 2\n", "0 1\n2 1\n"], ids=["repeated", "gapped"])
def test_cache_with_bad_indices_is_a_miss(tmp_path, body):
    # Terms are compared by position, so a repeated or a missing index
    # would misplace every later term.
    (tmp_path / "A099594.txt").write_text(body)
    fx = fetch_sequence("A099594", offline=True, transport=_boom, cache=tmp_path)
    assert fx.source == "bundled"
    assert fx.terms[:10] == EXPECTED_HEAD


def test_bfile_offset_is_kept(tmp_path):
    (tmp_path / "A099594.txt").write_text("5 3\n4 2\n6 9\n")
    fx = fetch_sequence("A099594", offline=True, transport=_boom, cache=tmp_path)
    assert fx.source == "cache"
    assert fx.terms == (2, 3, 9)


def test_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("QPB_CACHE_DIR", str(tmp_path / "deep"))
    assert cache_dir() == tmp_path / "deep"


def test_crosscheck_pass(tmp_path):
    report = crosscheck_table("A099594", bound=21, offline=True, cache=tmp_path)
    assert report.status == "pass"
    assert report.parameters["reader"] == "antidiagonal"
    assert report.parameters["bound"] == 21


def test_crosscheck_bound_one(tmp_path):
    report = crosscheck_table("A099594", bound=1, offline=True, cache=tmp_path)
    assert report.status == "pass"


def test_crosscheck_row_reader():
    # the row reading over a square block is also supported, pinned by an
    # injected fixture built from the same symmetric array
    terms = tuple(
        families.classical_pb_negk(n, k) for k in range(4) for n in range(4)
    )
    fx = SequenceFixture("A099594", terms, "bundled", reader="row")
    report = crosscheck_table("A099594", fixture=fx, bound=16)
    assert report.status == "pass"
    assert report.parameters["reader"] == "row"


def test_crosscheck_corrupted_fixture_fails_with_witness():
    fx = SequenceFixture("A099594", (1, 1, 1, 1, 99, 1), "bundled", reader="antidiagonal")
    report = crosscheck_table("A099594", fixture=fx, bound=6)
    assert report.status == "fail"
    assert report.witness == {"index": 4, "computed": "2", "fixture": "99"}
    assert report.parameters == {
        "id": "A099594", "reader": "antidiagonal", "bound": 6, "source": "bundled",
    }


def test_import_loads_no_network_modules():
    # urllib.request pulls in http.client, email and ssl; only a fetch needs it.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, qpb.cli; print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
