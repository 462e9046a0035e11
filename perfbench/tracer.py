"""Span tracing from outside the program.

``Tracer.install`` wraps lu3q's public layer functions in every lu3q
module namespace that holds them, so calls made through
``from lu3q.gf2 import rank2`` are traced as well as calls inside
``lu3q.gf2`` itself.  Each call records a span (name, start, end,
parent) in memory; a few hot functions only count their calls.
``uninstall`` puts the original functions back.

A layer's self time is its span time minus the time its child spans
cover.  Times use the sampler's clock, which leaves out the calibration
kernel's time.
"""

from __future__ import annotations

import sys

import numpy as np

from calib import Sampler
from workloads import CHECK_GROUPS

# (module, function, span name)
SPANNED = [
    ("lu3q.geometry", "enumerate_quadrangle", "geometry.enumerate"),
    ("lu3q.incidence", "build_incidence", "incidence.build"),
    ("lu3q.incidence", "build_kim_matrix", "incidence.build"),
    ("lu3q.incidence", "verify_spanning", "incidence.verify_spanning"),
    ("lu3q.incidence", "check_kim_equivalence", "incidence.check_kim_equivalence"),
    ("lu3q.gf2", "rank2", "gf2.rank2"),
    ("lu3q.gf2", "rref", "gf2.rref"),
    ("lu3q.gf2", "nullspace", "gf2.nullspace"),
    ("lu3q.polyfn", "build_beta", "polyfn.build_beta"),
    ("lu3q.polyfn", "delta_line", "polyfn.delta_line"),
    ("lu3q.polyfn", "reduce_against_beta", "polyfn.reduce_against_beta"),
    ("lu3q.polyfn", "in_span_beta", "polyfn.in_span_beta"),
    ("lu3q.polyfn", "kernel_normal_form", "polyfn.kernel_normal_form"),
    ("lu3q.ldpc", "girth_check", "ldpc.girth_check"),
    ("lu3q.ldpc", "decode_bitflip", "ldpc.bitflip"),
    ("lu3q.ldpc", "decode_minsum", "ldpc.minsum"),
    ("lu3q.ldpc", "simulate", "ldpc.simulate"),
] + [("lu3q.verify", f"_check_{g}", f"verify.{g}") for g in CHECK_GROUPS]

# (module, class, method, span name)
SPANNED_METHODS = [
    ("lu3q.ldpc", "LdpcCode", "__init__", "ldpc.code_build"),
    ("lu3q.ldpc", "LdpcCode", "min_weight_estimate", "ldpc.min_weight_estimate"),
]

# Called too often for a span each: (module, class, method, counter)
COUNTED_METHODS = [
    ("lu3q.fields", "GF", "mul", "fields.mul_calls"),
    ("lu3q.gf2", "Subspace", "contains", "gf2.subspace_contains_calls"),
]


def _matrix_bits(m) -> int:
    """rows x columns of an elimination input."""
    rows = getattr(m, "rows", m)
    n_cols = getattr(m, "n_cols", None)
    if n_cols is None:
        n_cols = max((r.bit_length() for r in rows), default=0)
    return len(rows) * n_cols


class Tracer:
    def __init__(self, sampler: Sampler):
        self.clock = sampler.clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {
            "fields.mul_calls": 0,
            "gf2.subspace_contains_calls": 0,
            "gf2.eliminated_bits": 0,
            "ldpc.code_array_bytes": 0,
            "ldpc.bitflip_iterations": 0,
            "ldpc.minsum_iterations": 0,
        }
        self._undo: list[tuple[object, str, object]] = []

    def _after(self, name: str, args, result) -> None:
        if name in ("gf2.rank2", "gf2.rref"):
            self.counts["gf2.eliminated_bits"] += _matrix_bits(args[0])
        elif name == "ldpc.code_build":
            self.counts["ldpc.code_array_bytes"] += sum(
                v.nbytes for v in vars(args[0]).values() if isinstance(v, np.ndarray)
            )
        elif name in ("ldpc.bitflip", "ldpc.minsum"):
            self.counts[f"{name}_iterations"] += result.iterations

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            self._after(name, args, result)
            return result

        return traced

    def _counting(self, counter: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        lu3q_modules = [m for k, m in sys.modules.items() if k == "lu3q" or k.startswith("lu3q.")]
        for mod_name, attr, name in SPANNED:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(name, orig)
            for mod in lu3q_modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for methods, make in ((SPANNED_METHODS, self.wrap), (COUNTED_METHODS, self._counting)):
            for mod_name, cls_name, attr, name in methods:
                cls = getattr(sys.modules[mod_name], cls_name)
                orig = cls.__dict__[attr]
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, make(name, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def summary(self, scale: float) -> dict[str, float]:
        """Per-layer metrics; times are scaled to the reference host."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + (end - start) - covered[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:  # outermost span of this name
                total[name] = total.get(name, 0.0) + end - start

        def t(name):
            return total.get(name, 0.0) * scale

        def s(name):
            return own.get(name, 0.0) * scale

        def us_per_frame(name):
            return t(name) * 1e6 / calls[name] if calls.get(name) else 0.0

        out = {
            "fields.mul_calls": self.counts["fields.mul_calls"],
            "geometry.enumerate_s": t("geometry.enumerate"),
            "incidence.build_s": t("incidence.build"),
            "incidence.verify_spanning_self_s": s("incidence.verify_spanning"),
            "incidence.check_kim_equivalence_self_s": s("incidence.check_kim_equivalence"),
            "gf2.rank2_s": t("gf2.rank2"),
            "gf2.rank2_calls": calls.get("gf2.rank2", 0),
            "gf2.rref_s": t("gf2.rref"),
            "gf2.rref_calls": calls.get("gf2.rref", 0),
            "gf2.nullspace_self_s": s("gf2.nullspace"),
            "gf2.subspace_contains_calls": self.counts["gf2.subspace_contains_calls"],
            "gf2.eliminated_bits": self.counts["gf2.eliminated_bits"],
            "polyfn.build_beta_s": t("polyfn.build_beta"),
            "polyfn.delta_line_s": t("polyfn.delta_line"),
            "polyfn.reduce_against_beta_s": t("polyfn.reduce_against_beta"),
            "polyfn.in_span_beta_s": t("polyfn.in_span_beta"),
            "polyfn.kernel_normal_form_s": t("polyfn.kernel_normal_form"),
            "ldpc.code_build_s": t("ldpc.code_build"),
            "ldpc.min_weight_estimate_s": t("ldpc.min_weight_estimate"),
            "ldpc.code_array_bytes": self.counts["ldpc.code_array_bytes"],
            "ldpc.girth_check_s": t("ldpc.girth_check"),
            "ldpc.bitflip_us_per_frame": us_per_frame("ldpc.bitflip"),
            "ldpc.minsum_us_per_frame": us_per_frame("ldpc.minsum"),
            "ldpc.bitflip_iterations": self.counts["ldpc.bitflip_iterations"],
            "ldpc.minsum_iterations": self.counts["ldpc.minsum_iterations"],
            "ldpc.simulate_self_s": s("ldpc.simulate"),
        }
        for g in CHECK_GROUPS:
            out[f"verify.{g}_s"] = t(f"verify.{g}")
        out["cli.self_s"] = s("cli")
        return out
