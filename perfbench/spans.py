"""Span tracer for the traced benchmark run.

The package under ``src/qpb`` carries no instrumentation.  This module
wraps qpb's public functions and methods from the outside: it rebinds the
name in every qpb module that imported it (``q_stirling`` lives in
``qkernels`` but is also a global of ``families`` and ``verify``), swaps
registry entries (``FAMILIES``, the verify suite table) and class
attributes, and puts every original back on ``restore``.

Spans are kept in flat arrays (name, start, end, parent span, op) so that
a traced pass with hundreds of thousands of polynomial products stays
small in memory; they are written out when the pass ends.
"""

from __future__ import annotations

import dataclasses
import sys
from array import array
from time import perf_counter

# Span names of the families layer; each is reported as families.<fn>.s.
FAMILY_FNS = (
    "at_q_pb",
    "cenkci_q_pb",
    "ordered_q_pb",
    "lonesum_q_pb",
    "vesztergombi_q_pb",
    "permmatrix_q_pb",
)
# Wrapped only so that their time is attributed to the families layer
# instead of to their caller.
_OTHER_FAMILY_FNS = (
    "classical_pb",
    "classical_pb_negk",
    "c_relative",
    "q_fubini",
    "pb_recursion_check",
    "cenkci_recursion_check",
    "cenkci_comb_check",
    "akiyama_tanigawa",
    "carlitz_beta",
)
ORACLE_FNS = ("fubini_oracle", "ordered_q_oracle", "vesztergombi_oracle")
SUITES = (
    "value-table",
    "golden",
    "q1-collapse",
    "oracles",
    "rook-laws",
    "cross-formula",
    "genfunc",
    "akiyama-tanigawa",
    "cenkci-comb",
    "conjecture",
)

# (metric name, unit, better); the order is the report order.
LAYER_METRICS = (
    ("exactnum.qrational_new.calls", "count", "lower"),
    ("exactnum.qrational_new.self_s", "s", "lower"),
    ("exactnum.qrational.max_coeff_bits", "bits", "lower"),
    ("exactnum.qpoly_mul.calls", "count", "lower"),
    ("exactnum.qpoly_mul.self_s", "s", "lower"),
    ("exactnum.exact_div.self_s", "s", "lower"),
    ("exactnum.charpoly.self_s", "s", "lower"),
    ("exactnum.permanent.self_s", "s", "lower"),
    ("qkernels.q_stirling.calls", "count", "lower"),
    ("qkernels.q_stirling.self_s", "s", "lower"),
    ("qkernels.q_factorial.self_s", "s", "lower"),
    ("families.self_s", "s", "lower"),
    *((f"families.{fn}.s", "s", "lower") for fn in FAMILY_FNS),
    ("objects.class_poly.self_s", "s", "lower"),
    ("objects.oracle.self_s", "s", "lower"),
    ("objects.accepted", "count", "higher"),
    ("objects.accepted_per_s", "1/s", "higher"),
    ("rook.q_rook_number.self_s", "s", "lower"),
    ("rook.placements", "count", "higher"),
    ("rook.placements_per_s", "1/s", "higher"),
    *((f"verify.suite.{s}.s", "s", "lower") for s in SUITES),
    ("cli.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
# Metrics that must repeat exactly for a given seed; the others are times.
EXACT_METRICS = tuple(
    name for name, unit, _ in LAYER_METRICS if unit in ("count", "bits", "bytes")
)


class Tracer:
    """Records spans around wrapped qpb callables and undoes the wrapping."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self.max_coeff_bits = 0
        self.accepted = 0
        self.placements = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, stack = self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, key: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def _rebind(self, original, wrapper) -> None:
        """Point every qpb module global bound to ``original`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qpb" or mod_name.startswith("qpb.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def wrap_function(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, after)
        self._rebind(original, wrapper)
        families = sys.modules["qpb.families"]
        for key, spec in list(families.FAMILIES.items()):
            if spec.fn is original:
                self._set(families.FAMILIES, key, dataclasses.replace(spec, fn=wrapper))

    def wrap_method(self, cls, attr: str, name: str, after=None) -> None:
        self._set(cls, attr, self._wrap(name, cls.__dict__[attr], after))

    def install(self) -> None:
        """Wrap the layer boundaries of qpb; ``restore`` undoes it."""
        from qpb import cli, exactnum, families, objects, qkernels, rook, verify

        def note_bits(args, _result):
            r = args[0]
            bits = max(abs(c).bit_length() for c in r.num.coeffs + r.den.coeffs)
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

        def note_accepted(_args, result):
            self.accepted += result.at_one()

        def note_placements(_args, result):
            self.placements += result.at_one()

        self.wrap_method(exactnum.QRational, "__init__", "exactnum.qrational_new", note_bits)
        self.wrap_method(exactnum.QPoly, "__mul__", "exactnum.qpoly_mul")
        self.wrap_method(exactnum.QPoly, "__rmul__", "exactnum.qpoly_mul")
        self.wrap_method(exactnum.QPoly, "exact_div", "exactnum.exact_div")
        self.wrap_method(exactnum.IntMatrix, "charpoly", "exactnum.charpoly")
        self.wrap_method(exactnum.IntMatrix, "permanent", "exactnum.permanent")
        for fn in ("q_stirling", "q_factorial"):
            self.wrap_function(qkernels, fn, f"qkernels.{fn}")
        for fn in FAMILY_FNS + _OTHER_FAMILY_FNS:
            self.wrap_function(families, fn, f"families.{fn}")
        self.wrap_function(objects, "class_poly", "objects.class_poly", note_accepted)
        for fn in ORACLE_FNS:
            self.wrap_function(objects, fn, "objects.oracle", note_accepted)
        self.wrap_function(rook, "q_rook_number", "rook.q_rook_number", note_placements)
        for suite in SUITES:
            self._set(verify._SUITES, suite,
                      self._wrap(f"verify.suite.{suite}", verify._SUITES[suite]))
        # Its work belongs to verify, not to the CLI self time.
        self.wrap_function(verify, "sylvester_conjecture", "verify.sylvester_conjecture")
        self.wrap_function(cli, "main", "cli.main")

    def restore(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- results ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, name, parent, op, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\top\tstart\tend\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name_id[i]]}\t{self.parent[i]}\t{self.op[i]}"
                         f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")

    def layer_metrics(self, stdout_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the recorded spans (all but the overhead ratio).

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap, since qpb is
        single-threaded.
        """
        n = len(self.start)
        names, name_id, parent = self.names, self.name_id, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_time = dur[:]
        for i in range(n):
            p = parent[i]
            if p >= 0:
                self_time[p] -= dur[i]
        calls = [0] * len(names)
        self_by_name = [0.0] * len(names)
        outer_by_name = [0.0] * len(names)
        for i in range(n):
            nid = name_id[i]
            calls[nid] += 1
            self_by_name[nid] += self_time[i]
            # Inclusive time counts only the outermost span of a name.
            p = parent[i]
            while p >= 0 and name_id[p] != nid:
                p = parent[p]
            if p < 0:
                outer_by_name[nid] += dur[i]

        def pick(table, name):
            nid = self._name_ids.get(name)
            return table[nid] if nid is not None else 0

        enum_s = pick(outer_by_name, "objects.class_poly") + pick(outer_by_name, "objects.oracle")
        rook_s = pick(outer_by_name, "rook.q_rook_number")
        out = {
            "exactnum.qrational_new.calls": pick(calls, "exactnum.qrational_new"),
            "exactnum.qrational_new.self_s": pick(self_by_name, "exactnum.qrational_new"),
            "exactnum.qrational.max_coeff_bits": self.max_coeff_bits,
            "exactnum.qpoly_mul.calls": pick(calls, "exactnum.qpoly_mul"),
            "exactnum.qpoly_mul.self_s": pick(self_by_name, "exactnum.qpoly_mul"),
            "exactnum.exact_div.self_s": pick(self_by_name, "exactnum.exact_div"),
            "exactnum.charpoly.self_s": pick(self_by_name, "exactnum.charpoly"),
            "exactnum.permanent.self_s": pick(self_by_name, "exactnum.permanent"),
            "qkernels.q_stirling.calls": pick(calls, "qkernels.q_stirling"),
            "qkernels.q_stirling.self_s": pick(self_by_name, "qkernels.q_stirling"),
            "qkernels.q_factorial.self_s": pick(self_by_name, "qkernels.q_factorial"),
            "families.self_s": sum(
                self_by_name[nid] for nid, nm in enumerate(names) if nm.startswith("families.")
            ),
            **{f"families.{fn}.s": pick(outer_by_name, f"families.{fn}") for fn in FAMILY_FNS},
            "objects.class_poly.self_s": pick(self_by_name, "objects.class_poly"),
            "objects.oracle.self_s": pick(self_by_name, "objects.oracle"),
            "objects.accepted": self.accepted,
            "objects.accepted_per_s": self.accepted / enum_s if enum_s else 0.0,
            "rook.q_rook_number.self_s": pick(self_by_name, "rook.q_rook_number"),
            "rook.placements": self.placements,
            "rook.placements_per_s": self.placements / rook_s if rook_s else 0.0,
            **{f"verify.suite.{s}.s": pick(outer_by_name, f"verify.suite.{s}") for s in SUITES},
            "cli.self_s": pick(self_by_name, "cli.main"),
            "cli.stdout_bytes": stdout_bytes,
        }
        return out
