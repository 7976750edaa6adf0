"""Per-layer tracing from outside the package.

Each traced public function is replaced, in every `sumprod` module namespace
that holds it, by a wrapper that records calls, an exact work count and its
self time (its own duration minus that of the traced calls made inside it).
A binding left unwrapped would let calls bypass the span, so bindings are
found by identity over all loaded `sumprod.*` modules, never by a hand list.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _image_pairs(P, A, B, *rest, **kw):
    return len(A) * len(B)


def _sumset_pairs(A, B, *rest, **kw):
    return len(A) * len(B)


def _grid_pairs(P, G, *rest, **kw):
    return G.order * G.order


def _points(fs, cosets, *rest, **kw):
    return fs[0].p


def _result_len(result):
    return len(result)


# (module, function, work counter from the arguments, work counter from the result)
TARGETS = [
    ("field", "make_prime", None, None),
    ("field", "ext_field", None, None),
    ("poly", "parse_bipoly", None, None),
    ("poly", "is_good", None, None),
    ("poly", "abs_irreducible_shift", None, None),
    ("poly", "factor_oracle", None, None),
    ("poly", "is_permissible", None, None),
    ("subgroup", "subgroup_of_order", None, None),
    ("subgroup", "coset_of", None, None),
    ("setops", "value_set", None, None),
    ("setops", "image", _image_pairs, None),
    ("setops", "sumset", _sumset_pairs, None),
    ("setops", "count_level_pairs", _grid_pairs, None),
    ("setops", "fiber_set", _points, None),
    ("setops", "shift_intersection", None, None),
    ("bounds", "verify_image_lower_bound", None, None),
    ("bounds", "verify_level_pair_bound", None, None),
    ("bounds", "verify_shift_overlap_bound", None, None),
    ("bounds", "verify_fiber_bound", None, None),
    ("bounds", "probe_growth", None, None),
    ("bounds", "probe_factorization", None, None),
    ("sweep", "generate_instances", None, _result_len),
    ("sweep", "run_instance", None, None),
    ("sweep", "run_sweep", None, None),
    ("sweep", "render_report", None, _result_len),
    ("sweep", "emit_report", None, None),
]
LAYERS = ("field", "poly", "subgroup", "setops", "bounds", "sweep")


class Tracer:
    """Span bookkeeping for one traced pass (single-threaded)."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.ext_builds = 0
        self._stack: list[float] = []

    def wrap(self, name: str, fn, arg_work=None, result_work=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if arg_work is not None:
                self.work[name] += arg_work(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if result_work is not None:
                self.work[name] += result_work(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every sumprod namespace that binds it."""
        import sumprod.field
        import sumprod.sweep

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "sumprod" or n.startswith("sumprod."))]
        for mod_name, fn_name, arg_work, result_work in TARGETS:
            home = sys.modules[f"sumprod.{mod_name}"]
            orig = getattr(home, fn_name)
            traced = self.wrap(f"{mod_name}.{fn_name}", orig, arg_work, result_work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)
        # from_json is a staticmethod reached through the class attribute
        cls = sumprod.sweep.SweepConfig
        orig = cls.__dict__["from_json"].__func__
        cls.from_json = staticmethod(self.wrap("sweep.from_json", orig))
        # distinct extension fields built (ext_field caches the rest)
        ext_cls = sumprod.field.ExtField
        orig_init = ext_cls.__init__

        def counting_init(obj, *args, **kwargs):
            self.ext_builds += 1
            orig_init(obj, *args, **kwargs)

        ext_cls.__init__ = counting_init

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-function and per-layer figures of one traced pass."""
        s, c, w = self.self_s, self.calls, self.work
        grid = ("setops.image", "setops.sumset", "setops.count_level_pairs")
        grid_pairs = sum(w[n] for n in grid)
        grid_s = sum(s[n] for n in grid)
        verify = [f"bounds.{n}" for m, n, _, _ in TARGETS if m == "bounds"]
        out = {
            "field.make_prime.self_s": s["field.make_prime"],
            "field.ext_field.builds": self.ext_builds,
            "field.ext_field.self_s": s["field.ext_field"],
            "poly.factor_oracle.calls": c["poly.factor_oracle"],
            "poly.factor_oracle.self_s": s["poly.factor_oracle"],
            "poly.is_good.self_s": s["poly.is_good"],
            "poly.abs_irreducible_shift.self_s": s["poly.abs_irreducible_shift"],
            "poly.is_permissible.self_s": s["poly.is_permissible"],
            "poly.parse_bipoly.calls": c["poly.parse_bipoly"],
            "poly.parse_bipoly.self_s": s["poly.parse_bipoly"],
            "subgroup.subgroup_of_order.calls": c["subgroup.subgroup_of_order"],
            "subgroup.subgroup_of_order.self_s": s["subgroup.subgroup_of_order"],
            "subgroup.coset_of.calls": c["subgroup.coset_of"],
            "subgroup.coset_of.self_s": s["subgroup.coset_of"],
            "setops.image.pairs": w["setops.image"],
            "setops.image.self_s": s["setops.image"],
            "setops.count_level_pairs.pairs": w["setops.count_level_pairs"],
            "setops.count_level_pairs.self_s": s["setops.count_level_pairs"],
            "setops.sumset.pairs": w["setops.sumset"],
            "setops.sumset.self_s": s["setops.sumset"],
            "setops.grid.pairs_per_s": grid_pairs / grid_s if grid_s > 0 else 0.0,
            "setops.value_set.self_s": s["setops.value_set"],
            "setops.fiber_set.points": w["setops.fiber_set"],
            "setops.fiber_set.self_s": s["setops.fiber_set"],
            "setops.shift_intersection.self_s": s["setops.shift_intersection"],
            "bounds.verify.self_s": sum(s[n] for n in verify),
            "bounds.verify_fiber_bound.self_s": s["bounds.verify_fiber_bound"],
            "sweep.from_json.self_s": s["sweep.from_json"],
            "sweep.instances": w["sweep.generate_instances"],
            "sweep.generate_instances.self_s": s["sweep.generate_instances"],
            "sweep.run_instance.self_s": s["sweep.run_instance"],
            "sweep.render_report.self_s": s["sweep.render_report"],
            "sweep.report_bytes": w["sweep.render_report"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for n, v in s.items() if n.split(".")[0] == layer)
        out["trace.wall_s"] = wall_s
        out["trace.unaccounted_s"] = wall_s - sum(s.values())
        return out
