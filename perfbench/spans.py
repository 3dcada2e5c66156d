"""Per-layer timing for the traced run: wrappers around public drmaj functions.

Each wrapped function becomes a span.  A span's self time is its duration
minus the time of the spans it encloses; its inclusive time counts only the
outermost call of a recursive function (``eval_expr`` nests).  Counters are
read off arguments and results at the same boundary.  Wrappers replace every
reference to the function in the loaded drmaj modules, so calls made inside
the library are caught too; ``uninstall`` puts the originals back.
"""

import sys
import time
from collections import Counter, defaultdict

import drmaj

#: layer -> (module, functions); several functions may share one layer
LAYERS = {
    "families.dr_family": ("families", ["dr_family"]),
    "algebra.eval_expr": ("algebra", ["eval_expr"]),
    "algebra.inverse_mix": ("algebra", ["inverse_mix"]),
    "algebra.direct_mix": ("algebra", ["direct_mix"]),
    "algebra.otimes": ("algebra", ["otimes"]),
    "algebra.otimes_power": ("algebra", ["otimes_power"]),
    "algebra.lattice": ("algebra", ["join", "meet"]),
    "algebra.convolve_dr": ("algebra", ["convolve_dr"]),
    "algebra.mix_discrete": ("algebra", ["inverse_mix_discrete", "direct_mix_discrete"]),
    "rearrange.cdf_of_dr": ("rearrange", ["cdf_of_dr"]),
    "rearrange.dr_from_density_1d": ("rearrange", ["dr_from_density_1d"]),
    "order.compare_cdfs": ("order", ["compare_cdfs"]),
    "order.default_comparison_grid": ("order", ["default_comparison_grid"]),
    "order.slice_compare": ("order", ["slice_compare"]),
    "order.dilation_witness": ("order", ["dilation_witness"]),
    "order.majorizes_discrete": ("order", ["majorizes_discrete"]),
    "entropy.entropy_dr": ("entropy", ["entropy_dr"]),
    "entropy.moments_dr": ("entropy", ["moments_dr"]),
    "entropy.entropy_discrete": ("entropy", ["entropy_discrete"]),
    "empirical.fit_kde": ("empirical", ["fit_kde"]),
    "empirical.empirical_dr": ("empirical", ["empirical_dr"]),
    "empirical.empirical_dr_cdf": ("empirical", ["empirical_dr_cdf"]),
    "empirical.bin_2d": ("empirical", ["bin_2d"]),
    "empirical.discrete_empirical_dr": ("empirical", ["discrete_empirical_dr"]),
    "kernels.kde_eval": ("_kernels", ["kde_eval"]),
}


def _count_pdf_knots(tracer, args, result):
    tracer.counts["rearrange.pdf_knots"] += len(result.table.grid)


def _count_grid(tracer, args, result):
    # the lattice operations build comparison grids too; count compare_cdfs'
    if tracer.parent() == "order.compare_cdfs":
        tracer.counts["order.compare_grid_points"] += len(result.points)


def _count_kernel_evals(tracer, args, result):
    tracer.counts["kernels.kde_eval.kernel_evals"] += len(args[0]) * len(args[1])


def _count_factors(tracer, args, result):
    tracer.counts["order.witness_factors"] += result.n_factors


COUNTERS = {
    "rearrange.cdf_of_dr": _count_pdf_knots,
    "order.default_comparison_grid": _count_grid,
    "kernels.kde_eval": _count_kernel_evals,
    "order.dilation_witness": _count_factors,
}

#: the metrics the traced run prints: time metrics in ms per op, counts per op
TIME_METRICS = [
    ("algebra.inverse_mix.ms", "algebra.inverse_mix", "incl"),
    ("algebra.direct_mix.ms", "algebra.direct_mix", "incl"),
    ("algebra.otimes.ms", "algebra.otimes", "incl"),
    ("algebra.otimes_power.ms", "algebra.otimes_power", "incl"),
    ("algebra.lattice.ms", "algebra.lattice", "incl"),
    ("algebra.convolve_dr.ms", "algebra.convolve_dr", "incl"),
    ("algebra.eval_expr.self_ms", "algebra.eval_expr", "self"),
    ("rearrange.cdf_of_dr.ms", "rearrange.cdf_of_dr", "incl"),
    ("rearrange.dr_from_density_1d.ms", "rearrange.dr_from_density_1d", "incl"),
    ("order.slice_compare.ms", "order.slice_compare", "incl"),
    ("order.compare_cdfs.ms", "order.compare_cdfs", "incl"),
    ("entropy.entropy_dr.ms", "entropy.entropy_dr", "incl"),
    ("entropy.moments_dr.ms", "entropy.moments_dr", "incl"),
    ("empirical.fit_kde.ms", "empirical.fit_kde", "incl"),
    ("empirical.empirical_dr.self_ms", "empirical.empirical_dr", "self"),
    ("empirical.empirical_dr_cdf.ms", "empirical.empirical_dr_cdf", "incl"),
    ("kernels.kde_eval.ms", "kernels.kde_eval", "incl"),
    ("order.dilation_witness.ms", "order.dilation_witness", "incl"),
    ("order.majorizes_discrete.ms", "order.majorizes_discrete", "incl"),
    ("empirical.bin_2d.ms", "empirical.bin_2d", "incl"),
    ("empirical.discrete_empirical_dr.ms", "empirical.discrete_empirical_dr", "incl"),
    ("algebra.mix_discrete.ms", "algebra.mix_discrete", "incl"),
    ("entropy.entropy_discrete.ms", "entropy.entropy_discrete", "incl"),
    ("families.dr_family.ms", "families.dr_family", "incl"),
]
COUNT_METRICS = [
    "rearrange.pdf_knots",
    "order.compare_grid_points",
    "kernels.kde_eval.kernel_evals",
    "order.witness_factors",
]


class Tracer:
    """Span stack and totals; records only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.stack = []  # [layer, ns spent in child spans]
        self.active = Counter()
        self.incl_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(float)
        self._patched = []

    def parent(self):
        return self.stack[-2][0] if len(self.stack) > 1 else None

    def _wrap(self, layer, fn, counter):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            outermost = self.active[layer] == 0
            self.active[layer] += 1
            self.stack.append([layer, 0])
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(self, args, result)
                return result
            finally:
                dur = time.perf_counter_ns() - start
                _, child = self.stack.pop()
                self.active[layer] -= 1
                self.self_ns[layer] += dur - child
                if outermost:
                    self.incl_ns[layer] += dur
                if self.stack:
                    self.stack[-1][1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "drmaj" or name.startswith("drmaj."))]
        for layer, (mod_name, names) in LAYERS.items():
            home = getattr(drmaj, mod_name)
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(layer, original, COUNTERS.get(layer))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def per_op(self, n_ops):
        """Every traced metric, per op."""
        out = {}
        for metric, layer, kind in TIME_METRICS:
            total = self.incl_ns[layer] if kind == "incl" else self.self_ns[layer]
            out[metric] = (total / 1e6 / n_ops, "ms")
        for metric in COUNT_METRICS:
            out[metric] = (self.counts[metric] / n_ops, "count")
        return out
