"""Timing wrappers for the traced run, and the per-layer metrics they give.

Wrappers are installed from here, at the names the callers look up, and
removed again after each traced call; nothing in the package changes.  A
span records name, start, end, parent span and instance (the catalog URI
or experiment of the CLI call).  A re-entrant call of a wrapped name
inside a span of the same name is folded into the outer span, so layer
times are not counted twice.  Layer times are inclusive: the ellipticity
check that ``check_bb_spanning`` repeats also sits inside
``cancellation.bb``.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

TIME_METRICS = {
    "exact.gram_det_s": "exact.gram_det",
    "ellipticity.check_s": "ellipticity.check",
    "ellipticity.verify_s": "ellipticity.verify",
    "cancellation.check_s": "cancellation.check",
    "cancellation.verify_s": "cancellation.verify",
    "cancellation.bb_s": "cancellation.bb",
    "cancellation.partial_s": "cancellation.partial",
    "cocancellation.check_s": "cocancellation.check",
    "cocancellation.verify_s": "cocancellation.verify",
    "compat.build_s": "compat.build",
    "compat.verify_s": "compat.verify",
    "io.encode_s": "io.encode",
    "io.decode_s": "io.decode",
    "numlab.apply_symbol_s": "numlab.apply_symbol",
    "numlab.derivative_s": "numlab.derivative",
    "numlab.norm_s": "numlab.norm",
    "numlab.field_s": "numlab.field",
    "cli.analyze_s": "cli.analyze",
    "cli.verify_s": "cli.verify",
    "cli.compat_s": "cli.compat",
    "cli.experiment_s": "cli.experiment",
}

COUNT_METRICS = (
    "exact.det_terms", "exact.det_degree",
    "ellipticity.boxes", "ellipticity.cover_boxes", "ellipticity.depth",
    "ellipticity.undecided", "ellipticity.calls",
    "cancellation.samples", "cancellation.iterations",
    "compat.degree", "compat.skipped",
    "io.report_bytes",
    "numlab.fft_calls", "numlab.fft_points",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    instance: str        # the CLI call: verb and catalog URI or experiment


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    instance: str = ""
    _stack: list = field(default_factory=list)
    _installed: list = field(default_factory=list)
    _grams: dict = field(default_factory=dict)

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def run(self, name: str, fn, *args, on_result=None, **kwargs):
        """Call ``fn`` inside a span; ``on_result`` reads counters from
        the value it returns."""
        if any(self.spans[i].name == name for i in self._stack):
            return fn(*args, **kwargs)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.instance)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if on_result is not None:
            on_result(result)
        return result

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.run(name, original, *args, on_result=on_result, **kwargs)

        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap each layer's public functions where its callers find them."""
        import numpy.fft

        import symlab.compat
        import symlab.deciders
        import symlab.deciders.cancellation
        import symlab.io
        import symlab.numlab.experiments
        from symlab.exact.polymatrix import PolyMatrix
        from symlab.exact.symbol import SymbolOperator

        deciders = symlab.deciders
        for attr, name, hook in (
            ("check_ellipticity", "ellipticity.check", self._ellipticity),
            ("verify_ellipticity", "ellipticity.verify", None),
            ("check_canceling", "cancellation.check", self._cancellation),
            ("verify_canceling", "cancellation.verify", None),
            ("verify_spanning", "cancellation.verify", None),
            ("check_bb_spanning", "cancellation.bb", None),
            ("check_partial_canceling", "cancellation.partial", None),
            ("check_cocanceling", "cocancellation.check", None),
            ("verify_cocanceling", "cocancellation.verify", None),
        ):
            self.wrap(deciders, attr, name, hook)
        # The second ellipticity check, reached through check_bb_spanning.
        self.wrap(symlab.deciders.cancellation, "check_ellipticity",
                  "ellipticity.check", self._ellipticity)

        self.wrap(symlab.compat, "build_annihilator", "compat.build", self._annihilator)
        self.wrap(symlab.compat, "verify_annihilator", "compat.verify")
        self._wrap_skips(symlab.compat)

        for attr in dir(symlab.io):
            if attr.endswith("_to_json") or attr == "dump_json":
                self.wrap(symlab.io, attr, "io.encode")
            elif attr.endswith("_from_json") or attr == "load_json":
                self.wrap(symlab.io, attr, "io.decode")

        # det(A^T A): only determinants of matrices that gram() returned.
        original_gram = SymbolOperator.gram

        def gram(op):
            g = original_gram(op)
            self._grams[id(g)] = g
            return g

        self._installed.append((SymbolOperator, "gram", original_gram))
        SymbolOperator.gram = gram
        original_det = PolyMatrix.det

        def det(m):
            if id(m) not in self._grams:
                return original_det(m)
            return self.run("exact.gram_det", original_det, m, on_result=self._det)

        self._installed.append((PolyMatrix, "det", original_det))
        PolyMatrix.det = det

        experiments = symlab.numlab.experiments
        for attr, name, hook in (
            ("check_ellipticity", "ellipticity.check", self._ellipticity),
            ("image_intersection", "cancellation.check", self._cancellation),
            ("apply_symbol", "numlab.apply_symbol", None),
            ("derivative_magnitude", "numlab.derivative", None),
            ("lp_norm", "numlab.norm", None),
            ("pairing", "numlab.norm", None),
            ("build_blowup_field", "numlab.field", None),
            ("curl_potential_field", "numlab.field", None),
            ("dx_bump", "numlab.field", None),
            ("gaussian_bump", "numlab.field", None),
            ("mollified_disc", "numlab.field", None),
            ("newton_gradient_field", "numlab.field", None),
            ("radial_cutoff_test_function", "numlab.field", None),
        ):
            self.wrap(experiments, attr, name, hook)
        for attr in ("fftn", "ifftn", "fft2", "ifft2"):
            self._wrap_fft(numpy.fft, attr)

    def _wrap_skips(self, compat) -> None:
        """Count annihilators skipped by the term budget (the call raises)."""
        wrapped = compat.build_annihilator

        @functools.wraps(wrapped)
        def build(*args, **kwargs):
            try:
                return wrapped(*args, **kwargs)
            except compat.AnnihilatorBudgetError:
                self.count("compat.skipped")
                raise

        self._installed.append((compat, "build_annihilator", wrapped))
        compat.build_annihilator = build

    def _wrap_fft(self, module, attr: str) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def fft(a, *args, **kwargs):
            if not any(self.spans[i].name == "numlab.fft" for i in self._stack):
                self.count("numlab.fft_calls")
                self.count("numlab.fft_points", int(getattr(a, "size", 0)))
            return self.run("numlab.fft", original, a, *args, **kwargs)

        self._installed.append((module, attr, original))
        setattr(module, attr, fft)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        self._grams.clear()

    def begin_pass(self) -> int:
        """Reset the counters; spans of the pass start at the index returned."""
        self.counts = {}
        return len(self.spans)

    def end_call(self) -> None:
        """Drop the Gram matrices remembered during one CLI call."""
        self._grams.clear()

    # Counter hooks: read what the wrapped function returned.

    def _ellipticity(self, v) -> None:
        self.count("ellipticity.calls")
        self.count("ellipticity.boxes", v.boxes_examined)
        self.count("ellipticity.cover_boxes", len(v.cover))
        self.peak("ellipticity.depth", v.depth_reached)
        self.count("ellipticity.undecided", int(v.status == "UNDECIDED"))

    def _cancellation(self, v) -> None:
        self.count("cancellation.samples", len(v.samples))
        self.count("cancellation.iterations", v.iterations)

    def _annihilator(self, result) -> None:
        self.peak("compat.degree", result.operator.order)

    def _det(self, p) -> None:
        self.peak("exact.det_terms", len(p.terms))
        self.peak("exact.det_degree", p.degree())

    # Reading the spans of one pass.

    def layer_metrics(self, first: int) -> dict:
        """Per-layer values of the pass whose spans start at ``first``."""
        spans = self.spans[first:]
        out = {key: 0.0 for key in TIME_METRICS}
        by_name = {name: key for key, name in TIME_METRICS.items()}
        child_time: dict = {}
        for s in spans:
            if s.name in by_name:
                out[by_name[s.name]] += s.end - s.start
            if s.parent >= first:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
        out["cli.self_s"] = sum(
            (s.end - s.start) - child_time.get(first + i, 0.0)
            for i, s in enumerate(spans)
            if s.name in ("cli.analyze", "cli.verify")
        )
        for key in COUNT_METRICS:
            out[key] = self.counts.get(key, 0)
        boxes = out["ellipticity.boxes"]
        out["ellipticity.cover_yield"] = out["ellipticity.cover_boxes"] / boxes if boxes else 0.0
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
