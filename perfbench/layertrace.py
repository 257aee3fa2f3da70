"""Outside-in layer tracing for the epicox benchmark.

The benchmark wraps the epicox functions listed in ``TRACED`` from its own
files; nothing under ``src/`` is edited.  A wrapper replaces the function
under every ``epicox.*`` module name that binds it, so calls made through
``from .coxeter import mul`` are seen as well as calls made inside the
defining module.  Each call records one span ``(function id, start, end,
parent span)`` in memory.  Self time is a span's duration minus the time its
child spans cover; inclusive time counts only the outermost span of a
function, so a function re-entering itself is not counted twice.

A name that no longer exists is reported as absent instead of failing, so
the benchmark keeps running when the library drops code.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from dataclasses import dataclass
from functools import update_wrapper


def _size(result) -> int:
    return len(result)


def _truthy(result) -> int:
    return 1 if result else 0


def _present(result) -> int:
    return 0 if result is None else 1


def _ball_elements(levels) -> int:
    return sum(level.shape[0] for level in levels)


@dataclass(frozen=True)
class Traced:
    """One wrapped function: ``module.function`` inside the epicox package,
    an optional per-call counter on its result, and the end-to-end metric
    and workloads it is expected to move (the layer -> metric -> end-to-end
    mapping later changes cite)."""
    module: str
    function: str
    moves: str
    counter: str | None = None
    count: object = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


TRACED = (
    Traced("cli", "main", "nothing: parsing and emitting stay negligible"),
    Traced("construction", "build_C", "wall_s on kgraph"),
    Traced("parabolics", "classify_s5_classes", "wall_s on kgraph"),
    Traced("parabolics", "conjugacy_component", "wall_s on kgraph"),
    Traced("coxeter", "is_spherical", "wall_s on kgraph",
           "true", _truthy),
    Traced("coxeter", "enumerate_parabolic", "wall_s on kgraph",
           "elements", _size),
    Traced("reconstruction", "commuting_witness", "wall_s on kgraph",
           "hits", _present),
    Traced("reconstruction", "verify_reconstruction", "wall_s on theorem"),
    Traced("coxeter", "ball_levels",
           "wall_s, peak_rss_mb on kgraph, theorem",
           "elements", _ball_elements),
    Traced("reconstruction", "bounded_centralizer_check",
           "wall_s, peak_rss_mb on kgraph, theorem"),
    Traced("homomorphisms", "lift_graph_epi", "wall_s on theorem"),
    Traced("homomorphisms", "induced_k_map", "wall_s on theorem"),
    Traced("homomorphisms", "verify_relators", "wall_s on theorem"),
    Traced("homomorphisms", "presentation_of", "wall_s on theorem"),
    Traced("coxeter", "close_under_multiplication", "wall_s on theorem",
           "elements", _size),
    Traced("acceptance", "theorem_report", "wall_s on theorem"),
    Traced("coxeter", "mul_gen", "wall_s wherever hot"),
    Traced("coxeter", "mul", "wall_s wherever hot"),
    Traced("coxeter", "evaluate", "wall_s wherever hot"),
    Traced("coxeter", "reduced_word", "wall_s wherever hot"),
)


class Tracer:
    """Installs span-recording wrappers and turns the spans into per-layer
    statistics.  ``uninstall`` puts every original function back."""

    def __init__(self, specs=TRACED, package: str = "epicox"):
        self.specs = tuple(specs)
        self.package = package
        self.spans: list = []
        self.counts = [0] * len(self.specs)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == self.package
                                           or name.startswith(self.package + "."))]
        for fid, spec in enumerate(self.specs):
            home = sys.modules.get(f"{self.package}.{spec.module}")
            original = getattr(home, spec.function, None)
            if not callable(original):
                self.absent.append(spec.name)
                continue
            wrapper = self._wrap(fid, original, spec.count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        """Forget recorded spans and counts; the wrappers stay in place."""
        self.spans.clear()
        self._stack.clear()
        self.counts[:] = [0] * len(self.specs)

    def _wrap(self, fid: int, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent)
            if count is not None:
                counts[fid] += count(result)
            return result

        return update_wrapper(wrapper, fn)

    def stats(self) -> dict[str, float]:
        """Per-function ``calls``, ``s`` (inclusive) and ``self_s``, plus
        each function's counter, keyed ``<module>.<function>.<stat>``."""
        n = len(self.specs)
        calls = [0] * n
        inclusive = [0.0] * n
        own = [0.0] * n
        covered = [0.0] * len(self.spans)
        ancestors = [0] * len(self.spans)
        # spans are numbered at entry, so a parent always precedes its
        # children and one forward pass sees every ancestor first
        for idx, span in enumerate(self.spans):
            if span is None:  # still open: the run ended inside this call
                continue
            fid, start, end, parent = span
            dur = end - start
            calls[fid] += 1
            above = ancestors[parent] if parent >= 0 else 0
            ancestors[idx] = above | (1 << fid)
            if not (above >> fid) & 1:
                inclusive[fid] += dur
            if parent >= 0:
                covered[parent] += dur
        for idx, span in enumerate(self.spans):
            if span is not None:
                own[span[0]] += span[2] - span[1] - covered[idx]
        out: dict[str, float] = {}
        for fid, spec in enumerate(self.specs):
            out[f"{spec.name}.calls"] = calls[fid]
            out[f"{spec.name}.s"] = inclusive[fid]
            out[f"{spec.name}.self_s"] = own[fid]
            if spec.counter:
                out[f"{spec.name}.{spec.counter}"] = self.counts[fid]
        return out

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as gzip'd tab-separated lines:
        span id, parent id, function, start and end in seconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tfunction\tstart_s\tend_s\n")
            for idx, span in enumerate(self.spans):
                if span is None:
                    continue
                fid, start, end, parent = span
                fh.write(f"{idx}\t{parent}\t{self.specs[fid].name}\t"
                         f"{start:.9f}\t{end:.9f}\n")


def combine(setup: dict[str, float],
            jobs: list[dict[str, float]]) -> dict[str, float]:
    """Figures for one set-up plus one job: the set-up's own figures plus
    the lower median over the traced jobs, which keeps counts whole."""
    out = dict(setup)
    for key in setup:
        out[key] = setup[key] + statistics.median_low(job[key] for job in jobs)
    return out
