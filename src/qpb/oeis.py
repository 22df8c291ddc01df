"""Minimal OEIS client with a local cache and bundled offline fixtures.

Sequences are fetched as b-files (lines of "index value", # comments
allowed).  Resolution order: on-disk cache, then the network (unless
offline), then the bundled fixture.  A cache file that cannot be read or
parsed counts as a miss; a later remote fetch overwrites it.  The cache
directory comes from the QPB_CACHE_DIR environment variable, defaulting to
~/.cache/qpb.
"""

from __future__ import annotations

import contextlib
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import families
from .errors import OeisNetworkError, OeisNotFoundError
from .verify import CheckReport

__all__ = ["SequenceFixture", "fetch_sequence", "crosscheck_table", "cache_dir"]

_ID_RE = re.compile(r"^A\d{6}$")

Transport = Callable[[str], str]


@dataclass(frozen=True)
class SequenceFixture:
    id: str
    terms: tuple[int, ...]
    source: str  # remote | cache | bundled
    reader: str | None = None

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a fixture needs at least one term")


def cache_dir() -> Path:
    env = os.environ.get("QPB_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "qpb"


def _parse_bfile(text: str) -> tuple[tuple[int, ...], str | None]:
    """The terms of a b-file in index order, and its reader comment.

    The indices may start anywhere but must be consecutive once sorted;
    a gap or a repeat raises ValueError, since the terms are compared by
    position.
    """
    terms: list[tuple[int, int]] = []
    reader = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = re.search(r"reader=(\w+)", line)
            if m:
                reader = m.group(1)
            continue
        idx_s, val_s = line.split()
        terms.append((int(idx_s), int(val_s)))
    terms.sort()
    for (i, _), (j, _) in zip(terms, terms[1:]):
        if j != i + 1:
            raise ValueError(f"b-file index {j} follows {i}")
    return tuple(v for _, v in terms), reader


def _default_transport(url: str) -> str:  # pragma: no cover
    import urllib.request  # here, so that importing qpb loads no http, email or ssl

    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.read().decode("utf-8")


def _bundled_path(seq_id: str) -> Path:
    return Path(__file__).parent / "data" / f"b{seq_id[1:]}.txt"


def fetch_sequence(
    seq_id: str,
    offline: bool = False,
    transport: Transport | None = None,
    cache: Path | None = None,
) -> SequenceFixture:
    """Fetch a sequence by id, recording where the terms came from.

    With offline=True the transport is never invoked; tests rely on that
    by injecting a transport that raises.
    """
    if not _ID_RE.match(seq_id):
        raise OeisNotFoundError(f"malformed OEIS id {seq_id!r}")
    cache = cache or cache_dir()
    cache_file = cache / f"{seq_id}.txt"
    if cache_file.exists():
        try:
            terms, reader = _parse_bfile(cache_file.read_text())
        except (OSError, ValueError):  # unreadable or corrupt: a cache miss
            terms = ()
        if terms:
            return SequenceFixture(seq_id, terms, "cache", reader)
    network_error: Exception | None = None
    if not offline:
        get = transport or _default_transport
        url = f"https://oeis.org/{seq_id}/b{seq_id[1:]}.txt"
        try:
            text = get(url)
            terms, reader = _parse_bfile(text)
        except Exception as exc:  # fall through to the bundled fixture
            network_error = exc
        else:
            if terms:
                # A cache that cannot be written costs only the next fetch.
                with contextlib.suppress(OSError):
                    cache.mkdir(parents=True, exist_ok=True)
                    cache_file.write_text(text)
                return SequenceFixture(seq_id, terms, "remote", reader)
    bundled = _bundled_path(seq_id)
    if bundled.exists():
        terms, reader = _parse_bfile(bundled.read_text())
        if terms:
            return SequenceFixture(seq_id, terms, "bundled", reader)
    if network_error is not None:
        raise OeisNetworkError(f"fetch of {seq_id} failed and no local copy exists: {network_error}")
    raise OeisNotFoundError(f"no cached or bundled data for {seq_id}")


def _computed_terms(reader: str, count: int) -> list[int]:
    """Negative-branch values arranged for comparison with a fixture."""
    out: list[int] = []
    if reader == "antidiagonal":
        d = 0
        while len(out) < count:
            for i in range(d + 1):
                out.append(families.classical_pb_negk(i, d - i))
                if len(out) == count:
                    break
            d += 1
    elif reader == "row":
        side = 1
        while side * side < count:
            side += 1
        out = [v for _, _, v in families.table("classical_negk", side - 1, side - 1)][:count]
    else:
        raise ValueError(f"unknown reader {reader!r}")
    return out


def crosscheck_table(
    seq_id: str,
    reader: str | None = None,
    bound: int = 21,
    *,
    fixture: SequenceFixture | None = None,
    offline: bool = True,
    transport: Transport | None = None,
    cache: Path | None = None,
) -> CheckReport:
    """Compare computed negative-branch values against OEIS terms.

    The reader (antidiagonal or row) defaults to the fixture's recorded
    reading order.  Reports the first mismatching index on failure.  A
    malformed id names no sequence, and a bound below 1 would compare
    nothing, so both are rejected before any fetch.
    """
    if not _ID_RE.match(seq_id):
        raise ValueError(f"malformed OEIS id {seq_id!r}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    fx = fixture or fetch_sequence(seq_id, offline=offline, transport=transport, cache=cache)
    use_reader = reader or fx.reader or "antidiagonal"
    n_terms = min(bound, len(fx.terms))
    computed = _computed_terms(use_reader, n_terms)
    params = {"id": seq_id, "reader": use_reader, "bound": n_terms, "source": fx.source}
    return CheckReport.compare_each(
        "oeis-crosscheck", params, zip(computed, fx.terms), ("computed", "fixture"),
        lambda i: {"index": i},
    )
