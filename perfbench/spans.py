"""Spans around the calls into each levelalg layer, for the traced run only.

Each public function is replaced on every name that a levelalg module
binds to it (for example `levelalg.linalg.row_space` and
`levelalg.polynomials.row_space`), so calls between layers pass through
the wrapper too. A span's self time is its duration minus the time its
child spans cover. FieldSpec methods are not wrapped: they run hundreds of
thousands of times per run and their cost shows as their callers' self time.
"""

from __future__ import annotations

import sys
import time
from importlib import import_module

# metric prefix -> (module, attribute); attributes with a dot are methods
LAYERS = {
    "polynomials.derivative_space": ("levelalg.polynomials", "derivative_space"),
    "polynomials.apply_operator": ("levelalg.polynomials", "apply_operator"),
    "linalg.Matrix.from_rows": ("levelalg.linalg", "Matrix.from_rows"),
    "linalg.rank": ("levelalg.linalg", "rank"),
    "linalg.row_space": ("levelalg.linalg", "row_space"),
    "linalg.subspace_intersection": ("levelalg.linalg", "subspace_intersection"),
    "linalg.subspace_sum": ("levelalg.linalg", "subspace_sum"),
    "modules.sample_generic_quotient": ("levelalg.modules", "sample_generic_quotient"),
    "modules.InverseSystemModule.post_init": (
        "levelalg.modules", "InverseSystemModule.__post_init__"),
    "modules.h_vector": ("levelalg.modules", "h_vector"),
    "modules.inclusion_exclusion_sum": ("levelalg.modules", "inclusion_exclusion_sum"),
    "modules.relative_intersection_dim": (
        "levelalg.modules", "relative_intersection_dim"),
    "modules.remix_generators": ("levelalg.modules", "remix_generators"),
    "families.random_module": ("levelalg.families", "random_module"),
    "families.build_family": ("levelalg.families", "build_family"),
    "bounds.verify_instance": ("levelalg.bounds", "verify_instance"),
    "bounds.tighten_bound": ("levelalg.bounds", "tighten_bound"),
    "bounds.chained_bound": ("levelalg.bounds", "chained_bound"),
    "combinatorics.is_o_sequence": ("levelalg.combinatorics", "is_o_sequence"),
    "manifest.parse_manifest": ("levelalg.manifest", "parse_manifest"),
    "manifest.run_manifest": ("levelalg.manifest", "run_manifest"),
    "cli.main": ("levelalg.cli", "main"),
}


def _cells(args, result) -> int:
    return args[0].rows * args[0].cols


def _is_zero(args, result) -> int:
    return int(result.dim == 0)


# metric prefix -> (extra metric, per-call value, reported per call?)
EXTRA = {
    "linalg.rank": ("cells", _cells, False),
    "linalg.row_space": ("cells", _cells, False),
    "linalg.subspace_intersection": ("zero_ratio", _is_zero, True),
}


class Tracer:
    """Per-layer call counts, self times and counters for one process."""

    def __init__(self):
        self.stack: list[list[float]] = []
        self.stats: dict[str, list] = {name: [0, 0.0, 0] for name in LAYERS}
        self.quotient_attempts = 0
        self.h_vector_cache = None

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self.stack
        clock = time.perf_counter
        extra = EXTRA.get(name, (None, None, None))[1]

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if extra is not None:
                stats[2] += extra(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for name, (module_name, attr) in LAYERS.items():
            owner = import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    wrapped = self._wrap(name, original.__func__)
                    setattr(cls, meth, classmethod(wrapped))
                else:
                    setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            _rebind(original, self._wrap(name, original))
        modules = import_module("levelalg.modules")
        self.h_vector_cache = modules.h_vector.__wrapped__
        derive_seed = modules.derive_seed

        def counting_derive_seed(*parts):
            if len(parts) > 1 and parts[1] == "quotient":
                self.quotient_attempts += 1
            return derive_seed(*parts)

        modules.derive_seed = counting_derive_seed

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, self_s, extra) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if name in EXTRA:
                key, _, per_call = EXTRA[name]
                out[f"{name}.{key}"] = (extra / calls if calls else 0.0) if per_call else extra
        sampled = self.stats["modules.sample_generic_quotient"][0]
        out["modules.sample_generic_quotient.attempts"] = self.quotient_attempts
        out["modules.sample_generic_quotient.accept_ratio"] = (
            sampled / self.quotient_attempts if self.quotient_attempts else 0.0
        )
        out["modules.h_vector.hit_ratio"] = hit_ratio(self.h_vector_cache)
        return out


def hit_ratio(cached_fn) -> float:
    info = cached_fn.cache_info()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0


def _rebind(original, wrapped) -> None:
    """Replace `original` on every levelalg module namespace that binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "levelalg" and not mod_name.startswith("levelalg."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
