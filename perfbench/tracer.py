"""In-memory spans around the calls into each diracvisc layer.

The package is not modified: ``instrument`` replaces, for the duration of a
``with`` block, the module attributes through which one layer calls the next
(``diracvisc.cli.run_sweep``, ``diracvisc.sweep.shear_b0_numeric``,
``diracvisc.kubo_dynamic.solve_self_energy_b0``, ...). The callers look those
names up at call time, so every call through them records a span.
"""
from __future__ import annotations

import inspect
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name). A span's layer is the part of its name
# before the first dot.
SITES = (
    ("cli", "run_sweep", "sweep.run"),
    ("cli", "result_to_csv", "sweep.to_csv"),
    ("sweep", "_eval_point", "sweep.row"),
    ("sweep", "build_spectrum", "model.build_spectrum"),
    ("sweep", "shear_b0_numeric", "kubo_static.shear_b0"),
    ("sweep", "shear_bfield_numeric", "kubo_static.shear_bfield"),
    ("sweep", "hall_static_numeric", "kubo_static.hall"),
    ("sweep", "shear_dynamic_b0", "kubo_dynamic.shear_b0"),
    ("sweep", "shear_dynamic_bfield", "kubo_dynamic.shear_bfield"),
    ("sweep", "hall_dynamic", "kubo_dynamic.hall"),
    ("sweep", "solve_self_energy_b0", "scba.b0"),
    ("sweep", "solve_self_energy_landau", "scba.landau"),
    ("kubo_static", "solve_self_energy_b0", "scba.b0"),
    ("kubo_static", "solve_self_energy_landau", "scba.landau"),
    ("kubo_dynamic", "solve_self_energy_b0", "scba.b0"),
    ("kubo_dynamic", "solve_self_energy_landau", "scba.landau"),
    # calls through the defining module (``scba.solve_...``) instead of an
    # imported name
    ("scba", "solve_self_energy_b0", "scba.b0"),
    ("scba", "solve_self_energy_landau", "scba.landau"),
)
# counted, not spanned: tens of thousands of calls per pass. An entry with a
# span-name prefix must be called directly inside a span of that prefix:
# every SCBA solve runs the damped loop ``scba._iterate``, so a solve that
# reaches it from outside a scba span went through an untraced call site.
COUNTED = (("kubo_dynamic", "_k_kernel", "kubo_dynamic.k_kernel", None),
           ("scba", "_iterate", "scba.iterate", "scba."))

LAYERS = ("cli", "sweep", "model", "kubo_static", "kubo_dynamic", "scba")

# Bytes the Landau SCBA step ``sum(weights * z / (z*z - en2))`` reads and
# writes per level, from the array dtypes (float64 8 B, complex128 16 B):
# weights*z 8+16, z*z-en2 8+16, division 16+16+16, sum 16. Computed, not
# measured: cache reuse is ignored.
BYTES_PER_LEVEL_TERM = 112


class Tracer:
    """Spans as [name, start, end, parent index, row id, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.site_calls: dict[str, int] = {}  # "module.attr" -> calls
        self.problems: list[str] = []
        self._stack: list[int] = []
        self._row = None
        self._rows = 0

    def wrap(self, name: str, fn, attrs=None, new_row: bool = False,
             site: str | None = None):
        spans, stack, site_calls = self.spans, self._stack, self.site_calls
        if site is not None:
            site_calls.setdefault(site, 0)

        def traced(*args, **kwargs):
            if site is not None:
                site_calls[site] += 1
            outer_row = self._row
            if new_row:
                self._row, self._rows = self._rows, self._rows + 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self._row,
                   None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = {"error": type(exc).__name__,
                          "iterations": getattr(exc, "iterations", 0)}
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
                self._row = outer_row
            if attrs is not None:
                rec[5] = attrs(args, kwargs, out)
            return out

        return traced

    def count(self, name: str, fn, inside: str | None = None):
        """Count calls of fn; with inside, calls not made directly within a
        span whose name starts with inside are also counted under
        "<name>.outside"."""
        counts, spans, stack = self.counts, self.spans, self._stack
        counts.setdefault(name, 0)
        if inside is None:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        outside = name + ".outside"
        counts.setdefault(outside, 0)

        def guarded(*args, **kwargs):
            counts[name] += 1
            if not stack or not spans[stack[-1]][0].startswith(inside):
                counts[outside] += 1
            return fn(*args, **kwargs)

        return guarded

    def check(self, required_sites) -> list[str]:
        """Self-check failures of one traced pass: sites that could not be
        wrapped, required call sites that recorded no call, and guarded
        calls made outside their spans."""
        problems = list(self.problems)
        problems += [f"trace: call site {site} recorded no call"
                     for site in required_sites
                     if not self.site_calls.get(site)]
        problems += [f"trace: {n} calls of {name.removesuffix('.outside')} "
                     "outside a traced span"
                     for name, n in self.counts.items()
                     if name.endswith(".outside") and n]
        return problems


def _scba_attrs(fn):
    max_iter = inspect.signature(fn).parameters["max_iter"].default

    def attrs(args, kwargs, sol):
        spectrum = args[2] if len(args) > 2 else kwargs.get("spectrum")
        levels = spectrum.n_cutoff + 1 if spectrum is not None else 0
        return {"iterations": sol.iterations, "levels": levels,
                "max_iter": kwargs.get("max_iter", max_iter)}

    return attrs


def _spectrum_attrs(args, kwargs, spectrum):
    return {"levels": spectrum.n_cutoff + 1}


@contextmanager
def instrument(tracer: Tracer, package: dict):
    """Route the call sites in SITES and COUNTED through tracer.

    package maps short module names to the imported diracvisc modules.
    A site missing from the package is skipped and recorded in
    tracer.problems, so the pass fails its self-check.
    """
    def wrapper(site, name, fn):
        if name.startswith("scba."):
            return tracer.wrap(name, fn, _scba_attrs(fn), site=site)
        if name == "model.build_spectrum":
            return tracer.wrap(name, fn, _spectrum_attrs, site=site)
        return tracer.wrap(name, fn, new_row=name == "sweep.row", site=site)

    saved = []

    def replace(mod_name, attr, make):
        site = f"{mod_name}.{attr}"
        mod = package.get(mod_name)
        fn = getattr(mod, attr, None)
        if fn is None:
            tracer.problems.append(f"trace: call site {site} not found")
            return
        saved.append((mod, attr, fn))
        setattr(mod, attr, make(site, fn))

    try:
        for mod_name, attr, name in SITES:
            replace(mod_name, attr,
                    lambda site, fn: wrapper(site, name, fn))
        for mod_name, attr, name, inside in COUNTED:
            replace(mod_name, attr,
                    lambda site, fn: tracer.count(name, fn, inside))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] is not None:
            own[rec[3]] -= rec[2] - rec[1]
    return own


def tail(values: list[float]) -> tuple[float, float | None]:
    """(value, percentile) of the highest percentile with at least ten
    values beyond it; (max, None) when there are ten values or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], None
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(tracer: Tracer, bytes_out: int):
    """(per-layer metrics, self seconds per layer, row tail percentile) of
    one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, times=None):
        times = own if times is None else times
        return sum(times[i] for i in by_name.get(name, ()))

    dur = [rec[2] - rec[1] for rec in spans]
    m = {}
    all_iters = rescued_iters = rescues = errors = scba_calls = 0
    for kind in ("b0", "landau"):
        name = f"scba.{kind}"
        recs = [spans[i][5] or {} for i in by_name.get(name, ())]
        iters = [a.get("iterations", 0) for a in recs]
        m[f"{name}.calls"] = len(recs)
        m[f"{name}.s"] = total(name, dur)
        m[f"{name}.iters_mean"] = statistics.fmean(iters) if iters else 0.0
        m[f"{name}.iters_max"] = max(iters, default=0)
        all_iters += sum(iters)
        scba_calls += len(recs)
        for a in recs:
            if "error" in a:
                errors += 1
            elif a["iterations"] > a["max_iter"]:
                rescues += 1
                rescued_iters += a["iterations"]
        if kind == "landau":
            terms = sum(a.get("iterations", 0) * a.get("levels", 0)
                        for a in recs)
            m[f"{name}.level_terms"] = terms
            m[f"{name}.bytes_computed"] = terms * BYTES_PER_LEVEL_TERM
    m["scba.rescues"] = rescues
    m["scba.rescue_iter_share"] = rescued_iters / all_iters if all_iters else 0.0
    m["scba.failures"] = errors / scba_calls if scba_calls else 0.0

    for name in ("kubo_static.shear_b0", "kubo_static.shear_bfield",
                 "kubo_static.hall", "kubo_dynamic.shear_b0",
                 "kubo_dynamic.shear_bfield", "kubo_dynamic.hall"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = total(name)
    for name in ("kubo_dynamic.shear_b0", "kubo_dynamic.shear_bfield"):
        parents = set(by_name.get(name, ()))
        solves = sum(1 for rec in spans
                     if rec[0].startswith("scba.") and rec[3] in parents)
        m[f"{name}.solves_per_call"] = solves / len(parents) if parents else 0.0
    m["kubo_dynamic.k_kernel.calls"] = tracer.counts.get(
        "kubo_dynamic.k_kernel", 0)

    levels = [spans[i][5]["levels"] for i in by_name.get("model.build_spectrum", ())
              if spans[i][5]]
    m["model.build_spectrum.calls"] = calls("model.build_spectrum")
    m["model.build_spectrum.s"] = total("model.build_spectrum", dur)
    m["model.levels_mean"] = statistics.fmean(levels) if levels else 0.0

    rows_ms = [1e3 * dur[i] for i in by_name.get("sweep.row", ())]
    m["sweep.self_s"] = total("sweep.run") + total("sweep.row")
    m["sweep.rows"] = len(rows_ms)
    m["sweep.to_csv_s"] = total("sweep.to_csv", dur)
    m["sweep.row_ms_p50"] = statistics.median(rows_ms) if rows_ms else 0.0
    m["sweep.row_ms_tail"], tail_pct = tail(rows_ms) if rows_ms else (0.0, None)
    m["cli.self_s"] = total("cli.main")
    m["cli.bytes_out"] = bytes_out

    layer_s = {layer: 0.0 for layer in LAYERS}
    for rec, t in zip(spans, own):
        layer_s[rec[0].split(".", 1)[0]] += t
    return m, layer_s, tail_pct


# metrics that count work; they must repeat exactly between traced passes
def is_count(name: str) -> bool:
    return (name.endswith(".calls") or ".iters_" in name
            or name in ("scba.landau.level_terms", "scba.rescues",
                        "sweep.rows"))


def dump_spans(fh, pass_index: int, tracer: Tracer, origin: float) -> None:
    """Write one JSON line per span, times in seconds from origin."""
    for i, (name, start, end, parent, row, attrs) in enumerate(tracer.spans):
        fh.write(json.dumps({"pass": pass_index, "id": i, "name": name,
                             "start": start - origin, "end": end - origin,
                             "parent": parent, "row": row, "attrs": attrs},
                            separators=(",", ":")) + "\n")
