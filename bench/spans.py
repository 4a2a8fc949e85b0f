"""Outside-in tracing: timing wrappers around public cssgates functions.

The wrappers are installed from the benchmark, never from the program.
Callers inside the package import names directly (gates binds
kernel_perp, monomial binds howell_form, cli binds fixing_group), so every
module attribute that holds a wrapped function is rebound, not only the
defining one. Spans (id, name, start, end, parent id, job id) are kept in
memory and written out when the run ends. A span's self time is its
duration minus the time covered by its child spans, so the self times of
one job add up to the traced part of its wall time.

The Howell helper that every canonicalisation goes through is private
to zmod; it is counted and timed in total (zmod.howell_form.calls,
.rows_in, zmod.howell_total_s) but opens no span.

The constraint stream handed to kernel_perp by gates is wrapped too:
pulling rows from it is recorded as one `gates.constraint_gen` span per
kernel call whose duration is the total pull time, which splits row
generation from the kernel's own work.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# Per-layer metrics: for each, the end-to-end metrics it should move on
# each workload. Names, units and directions are in BENCHMARK.json, which
# must list exactly these names. A name ending in _s is the self time of
# the span of the same name, except cli.self_s (the self time of
# cli.main) and the two marked below. job_tail_s is
# left out on matrix_kernel: with eleven jobs it is the fastest one.
MOVES = {
    "zmod.kernel_perp_s": {"matrix_kernel": ("wall_s",), "monomial_cli": ("wall_s", "job_tail_s")},
    "zmod.kernel_perp.calls": {"matrix_kernel": ("wall_s",), "monomial_cli": ("wall_s", "job_tail_s")},
    "gates.kernel_passes": {"matrix_kernel": ("wall_s",), "monomial_cli": ("wall_s", "job_tail_s")},
    "gates.constraint_gen_s": {"matrix_kernel": ("wall_s",), "monomial_cli": ("wall_s",)},
    "gates.constraint_rows": {"matrix_kernel": ("wall_s",), "monomial_cli": ("wall_s",)},
    "gates.fixing_group_s": {"matrix_kernel": ("wall_s",), "monomial_cli": ("wall_s",)},
    "gates.transversal_group_s": {"matrix_kernel": ("wall_s",), "monomial_cli": ("wall_s",)},
    "gates.identity_group_s": {"matrix_kernel": ("wall_s",), "monomial_cli": ("wall_s",)},
    "zmod.howell_form_s": {"closed_form_lib": ("wall_s",)},
    "zmod.howell_form.calls": {"closed_form_lib": ("wall_s",), "small_sweep": ("job_p50_s",)},
    "zmod.howell_form.rows_in": {"closed_form_lib": ("wall_s",), "small_sweep": ("job_p50_s",)},
    "zmod.module_sum_s": {"closed_form_lib": ("wall_s",)},
    # total time in the Howell helper from every caller, not a self time:
    # it overlaps howell_form_s, module_sum_s and kernel_perp_s
    "zmod.howell_total_s": {"closed_form_lib": ("wall_s",), "small_sweep": ("job_p50_s",)},
    "monomial.closed_form_s": {"closed_form_lib": ("wall_s",), "monomial_cli": ("wall_s",)},
    "monomial.validate_s": {"closed_form_lib": ("wall_s",), "monomial_cli": ("wall_s",)},
    "monomial.sieve_s": {"closed_form_lib": ("wall_s",), "monomial_cli": ("wall_s",)},
    "monomial.hypothesis_errors": {"closed_form_lib": ("wall_s",), "monomial_cli": ("wall_s",)},
    "gates.phase_profile_s": {"matrix_kernel": ("peak_rss_mib", "wall_s")},
    "gates.decompose_action_s": {"matrix_kernel": ("peak_rss_mib", "wall_s")},
    "gates.all_ones_report_s": {"matrix_kernel": ("wall_s",)},
    "bincode.schur_power_s": {"matrix_kernel": ("wall_s",)},
    "bincode.dual_basis_s": {"matrix_kernel": ("wall_s",)},
    "zmod.contains_s": {"small_sweep": ("job_p50_s",)},
    "zmod.contains.calls": {"small_sweep": ("job_p50_s",)},
    "oracle.coset_phase_check_s": {"small_sweep": ("job_p50_s", "wall_s")},
    "oracle.words_checked": {"small_sweep": ("job_p50_s", "wall_s")},
    "cli.self_s": {"small_sweep": ("job_p50_s",)},
    "cli.job_parse_s": {"small_sweep": ("job_p50_s",)},
    "cli.render_report_s": {"small_sweep": ("job_p50_s",)},
    "cli.report_bytes": {"small_sweep": ("job_p50_s",)},
    "bincode.aligned_bases_s": {"small_sweep": ("job_p50_s",)},
    "bincode.rref_basis_s": {"small_sweep": ("job_p50_s",)},
    "bincode.star_family_s": {"small_sweep": ("job_p50_s",)},
    # traced minus untraced pass wall time; moves nothing
    "trace.overhead_s": {},
}

# Counts that must be identical in every traced pass of one code at one seed.
EXACT_COUNTS = ("gates.kernel_passes", "gates.constraint_rows", "zmod.howell_form.calls",
                "zmod.howell_form.rows_in", "oracle.words_checked", "monomial.hypothesis_errors")

# Span names of wrapped functions, by defining module.
_WRAPPED = {
    "zmod": ("howell_form", "kernel_perp", "module_sum"),
    "gates": ("fixing_group", "transversal_group", "identity_group", "phase_profile",
              "decompose_action", "all_ones_report"),
    "bincode": ("schur_power", "dual_basis", "aligned_bases", "rref_basis", "star_family"),
    "oracle": ("coset_phase_check",),
    "cli": ("render_report",),
}
_MONOMIAL = {
    "closed_form_fixing_group": "monomial.closed_form",
    "closed_form_transversal_identity": "monomial.closed_form",
    "closed_form_fixing_group_general": "monomial.closed_form",
    "validate_fixing_hypotheses": "monomial.validate",
    "validate_transversal_identity_hypotheses": "monomial.validate",
    "decreasing_span_monomials": "monomial.sieve",
}


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.job: str | None = None
        self._stack: list[list] = []   # [id, name, start, child seconds]
        self._next_id = 0

    def _close(self, frame: list, end: float) -> None:
        sid, name, start, child = frame
        self.self_s[name] += end - start - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += end - start
        self.spans.append((sid, name, start, end, parent[0] if parent else None, self.job))

    def wrap(self, name: str, fn, counted: bool = True):
        """fn inside a span; every span name reads 0 until entered."""
        self.self_s.setdefault(name, 0.0)
        if counted:
            self.counts.setdefault(name + ".calls", 0)

        def traced(*args, **kwargs):
            if counted:
                self.counts[name + ".calls"] += 1
            frame = [self._next_id, name, perf_counter(), 0.0]
            self._next_id += 1
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._close(frame, end)
        return traced

    def stream(self, rows, name: str = "gates.constraint_gen"):
        """Pass rows through, timing each pull as part of one span."""
        it = iter(rows)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        first = None
        busy = child = 0.0
        try:
            while True:
                frame = [sid, name, perf_counter(), 0.0]
                if first is None:
                    first = frame[2]
                self._stack.append(frame)
                try:
                    row = next(it)
                except StopIteration:
                    return
                finally:
                    pulled = perf_counter() - frame[2]
                    self._stack.pop()
                    busy += pulled
                    child += frame[3]
                    if self._stack:
                        self._stack[-1][3] += pulled
                self.counts["gates.constraint_rows"] += 1
                yield row
        finally:
            if first is not None:
                self.self_s[name] += busy - child
                self.spans.append((sid, name, first, first + busy, parent, self.job))

    def metrics(self) -> dict[str, float]:
        """Every self time (as <span>_s) and every count traced so far."""
        out: dict[str, float] = {f"{name}_s": t for name, t in self.self_s.items()}
        out.update(self.counts)
        out["cli.self_s"] = out.pop("cli.main_s")
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def _rebind(original, replacement, undo: list) -> None:
    """Point every cssgates module attribute bound to original at replacement."""
    for modname, mod in list(sys.modules.items()):
        if modname != "cssgates" and not modname.startswith("cssgates."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement)


def _setattr(obj, attr, value, undo: list) -> None:
    undo.append((obj, attr, getattr(obj, attr)))
    setattr(obj, attr, value)


def install(tracer: Tracer):
    """Install the wrappers; returns a function that removes them again."""
    import cssgates.cli as cli
    import cssgates.gates as gates
    import cssgates.monomial as monomial
    import cssgates.oracle as oracle
    import cssgates.zmod as zmod

    undo: list = []
    modules = {"zmod": zmod, "gates": gates, "oracle": oracle, "cli": cli,
               "bincode": sys.modules["cssgates.bincode"]}
    timed = {}
    for layer, names in _WRAPPED.items():
        for fn_name in names:
            original = getattr(modules[layer], fn_name)
            # howell_form's calls are counted in the helper below
            timed[fn_name] = tracer.wrap(f"{layer}.{fn_name}", original,
                                         counted=fn_name != "howell_form")
            _rebind(original, timed[fn_name], undo)

    # Every Howell canonicalisation goes through the private helper: the
    # public howell_form, module_sum and the kernel's reduction steps. It
    # is counted and timed in total, without a span of its own, so the
    # callers' self times keep their share of it.
    helper = zmod._howell
    tracer.counts.update({"zmod.howell_form.calls": 0, "zmod.howell_form.rows_in": 0,
                          "zmod.howell_total_s": 0.0})

    def _howell(mat, ell):
        tracer.counts["zmod.howell_form.calls"] += 1
        tracer.counts["zmod.howell_form.rows_in"] += len(mat)
        t0 = perf_counter()
        try:
            return helper(mat, ell)
        finally:
            tracer.counts["zmod.howell_total_s"] += perf_counter() - t0

    _setattr(zmod, "_howell", _howell, undo)

    # counters below read 0 on a workload that never reaches them
    tracer.counts.update(dict.fromkeys(
        ("gates.kernel_passes", "gates.constraint_rows", "oracle.words_checked",
         "cli.report_bytes", "monomial.hypothesis_errors"), 0))
    tracer.self_s["gates.constraint_gen"] = 0.0
    kernel = timed["kernel_perp"]

    def gates_kernel_perp(rows, *args, **kwargs):
        tracer.counts["gates.kernel_passes"] += 1
        return kernel(tracer.stream(rows), *args, **kwargs)

    _setattr(gates, "kernel_perp", gates_kernel_perp, undo)

    check = timed["coset_phase_check"]

    def coset_phase_check(code, ell, b):
        result = check(code, ell, b)
        # words examined: every inner word in each coset scanned, up to
        # and including the first coset that breaks the phase pattern
        cosets = 1 << code.num_logical
        if result.phases is None and result.witness is not None:
            cosets = result.witness["coset"] + 1
        tracer.counts["oracle.words_checked"] += cosets << code.pair.c2.k
        return result

    _rebind(check, coset_phase_check, undo)

    render = timed["render_report"]

    def render_report(report):
        text = render(report)
        tracer.counts["cli.report_bytes"] += len(text.encode("utf-8"))
        return text

    _rebind(render, render_report, undo)

    def counting_hypotheses(fn):
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except monomial.HypothesisError as exc:
                # one error can cross several wrapped frames; count it once
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    tracer.counts["monomial.hypothesis_errors"] += 1
                raise
        return call

    for fn_name, span in _MONOMIAL.items():
        original = getattr(monomial, fn_name)
        _rebind(original, counting_hypotheses(tracer.wrap(span, original)), undo)

    cli_main = cli.main
    _rebind(cli_main, tracer.wrap("cli.main", cli_main), undo)
    _setattr(cli.Job, "__init__", tracer.wrap("cli.job_parse", cli.Job.__init__), undo)
    _setattr(zmod.ZModule, "contains", tracer.wrap("zmod.contains", zmod.ZModule.contains), undo)

    def uninstall() -> None:
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)

    return uninstall
