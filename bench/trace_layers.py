"""Outside-in per-layer trace for the benchmark's traced pass.

Wraps the public functions and methods of each pertlab module without
touching its source.  A wrapped function is rebound in every ``pertlab.*``
namespace that holds it, not only its home module: ``harness`` and ``cli``
import the verifiers by name, and ``invariants`` and ``verifiers`` import
``colon_subspace`` by name, so a wrapper on the home module alone would miss
those calls.

Each call records a span (name, start, end, parent) in memory; the summary
is computed once the pass has ended.  A span's self time is its duration
minus the durations of its child spans.  Counter hooks run outside the
wrapped call's own span, so their cost shows in the tracing overhead and in
the caller's self time, never in the traced function's.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import defaultdict

import numpy as np

from pertlab import cli, harness, ideals, invariants, linalg, rings, verifiers


class Tracer:
    """Spans and exact counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, outermost]
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   active[name] == 0]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                active[name] -= 1
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _rebind_function(self, module, attr, name, **hooks):
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "pertlab" or mod_name.startswith("pertlab."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _rebind_method(self, cls, attr, name, **hooks):
        setattr(cls, attr, self._wrap(name, cls.__dict__[attr], **hooks))

    def install(self) -> None:
        counts, keys = self.counts, self.keys

        def rref_after(result, mat, *_a, **_k):
            counts["linalg.rref.rows_in"] += np.atleast_2d(np.asarray(mat)).shape[0]
            counts["linalg.rref.rank_out"] += result[0].shape[0]

        def reduce_before(block, rows, *_a, **_k):
            b = np.atleast_2d(np.asarray(block)).shape[0]
            if b and rows.shape[0]:
                counts["linalg.reduce_rows.flop"] += 2 * b * rows.shape[0] * rows.shape[1]

        def rebuild_before(ring, new_d):
            keys["rings.rebuild"].add((ring.spec_tuple(), new_d))

        def colon_before(target, elem):
            digest = hashlib.blake2b(digest_size=16)
            digest.update(repr(target.rows.shape).encode())
            digest.update(target.rows.tobytes())
            digest.update(elem.vec.tobytes())
            keys["ideals.colon_subspace"].add(digest.digest())

        fn = self._rebind_function
        fn(linalg, "rref", "linalg.rref", after=rref_after)
        fn(linalg, "reduce_rows", "linalg.reduce_rows", before=reduce_before)
        fn(linalg, "nullspace", "linalg.nullspace")
        fn(linalg, "intersect_rowspaces", "linalg.intersect_rowspaces")
        fn(linalg, "merge", "linalg.merge")
        fn(ideals, "colon_subspace", "ideals.colon_subspace", before=colon_before)
        fn(ideals, "mult_matrix", "ideals.mult_matrix")
        fn(invariants, "hs_table", "invariants.hs_table")
        fn(invariants, "ar_number", "invariants.ar_number")
        fn(invariants, "filter_regular_check", "invariants.filter_regular_check")
        fn(invariants, "annihilator_profile", "invariants.annihilator_profile")
        fn(invariants, "koszul_report", "invariants.koszul")
        fn(invariants, "koszul_homology_length", "invariants.koszul")
        fn(verifiers, "check_main_equality", "verifiers.main_equality")
        fn(verifiers, "check_surjection_monotonicity", "verifiers.monotonicity")
        fn(verifiers, "check_control_colon", "verifiers.control_colon")
        fn(verifiers, "check_perturbed_filter_regular", "verifiers.preservation")
        fn(verifiers, "report_ar_comparison", "verifiers.ar_comparison")
        fn(verifiers, "bound_N_one_element", "verifiers.bound_n")
        fn(harness, "sample_in_power", "harness.sample_in_power")
        fn(harness, "resolve_ring", "harness.resolve_ring")
        fn(cli, "parse_manifest", "cli.parse_manifest")
        fn(cli, "emit_csv", "cli.emit_csv")
        meth = self._rebind_method
        meth(rings.RingDescriptor, "__init__", "rings.ring_init")
        meth(rings.RingDescriptor, "rebuild", "rings.rebuild", before=rebuild_before)
        meth(rings.RingDescriptor, "ideal_subspace", "rings.ideal_subspace")
        meth(ideals.IdealPowers, "extend", "ideals.powers_extend")
        meth(verifiers.Workspace, "gr_perturbed", "verifiers.gr_perturbed")

    # -- summary -------------------------------------------------------------

    def summary(self, pass_start: float, pass_end: float) -> dict:
        """Per-span-name calls, self and total time, plus exact counters.

        ``total_s`` sums only the outermost span of each name, so a
        recursive or re-entrant call is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_name: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        rooted = 0.0
        for idx, (name, start, end, parent, outer) in enumerate(self.spans):
            entry = per_name[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[idx]
            if outer:
                entry["total_s"] += end - start
            if parent < 0:
                rooted += end - start
        distinct = {}
        for name in ("rings.rebuild", "ideals.colon_subspace"):
            calls = per_name[name]["calls"] if name in per_name else 0
            distinct[name] = (len(self.keys[name]), calls)
        return {"spans": dict(per_name), "counts": dict(self.counts),
                "distinct": distinct,
                "unattributed_s": (pass_end - pass_start) - rooted}
