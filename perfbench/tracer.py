"""Outside-in tracing of stabaudit: spans and counters around its public calls.

``Tracer.install()`` swaps wrappers in for the functions listed below and
``uninstall()`` puts the originals back; nothing in ``src/`` changes.  A
function imported with ``from .x import y`` is bound in several module
namespaces, so each original is replaced by identity in every loaded
``stabaudit`` module.  Kernels are closures built per scenario, so they are
wrapped where the learner registry builds them.

Calls that return once per layer boundary open a span (name, start, end,
parent, op id), kept in memory.  Hot calls, such as kernel evaluations and
the steps of the multiset walker, only add to a counter and a summed time.
A span's self time is its duration minus its child spans and the hot calls
made inside it.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter

# (module, attribute) -> span name
SPANS = {
    ("learners", "exact_trn_hyp_joint"): "learners.trn_joint",
    ("learners", "exact_threeway_joint"): "learners.threeway",
    ("learners", "sample_hypothesis_mutual_info"): "learners.mi",
    ("learners", "effective_epsilon"): "learners.eff_eps",
    ("dist", "product_weights"): "dist.product_weights",
    ("info", "variational_info"): "info.vi",
    ("info", "chain_decompose"): "info.chain",
    ("losses", "gen_risk_from_joint"): "losses.gen_risk",
    ("losses", "worst_case_loss"): "losses.worst_case",
    ("losses", "deviation_law"): "losses.deviation_law",
    ("mc", "draw_runs"): "mc.draw",
    ("mc", "deviations"): "mc.deviations",
    ("mc", "estimate_variational_info"): "mc.bootstrap",
    ("mc", "estimate_gen_risk"): "mc.bootstrap",
    ("mc", "estimate_tail"): "mc.tail",
    ("harness", "build_scenario"): "harness.build",
    ("harness", "write_bundle"): "harness.write",
    ("harness", "_mc_audits"): "audits.mc",
    ("audits", "audit_t1"): "audits.T1",
    ("audits", "audit_t2"): "audits.T2",
    ("audits", "audit_t3"): "audits.T3",
    ("audits", "audit_t4"): "audits.T4",
    ("audits", "audit_p3"): "audits.P3",
    ("audits", "audit_dp"): "audits.C1",
    ("audits", "audit_p4"): "audits.P4",
    ("audits", "_t5_core"): "audits.T5",
    ("audits", "audit_c2_forward"): "audits.C2-forward",
    ("audits", "audit_erm"): "audits.ERM",
}
# (module, attribute) -> hot-call name
HOT = {
    ("losses", "true_risk"): "losses.true_risk",
}
OP_SPAN = "harness.op"


class _Open:
    __slots__ = ("id", "name", "start", "parent", "child")

    def __init__(self, id_, name, start, parent):
        self.id, self.name, self.start, self.parent, self.child = id_, name, start, parent, 0.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[_Open] = []
        self.counts: defaultdict = defaultdict(int)
        self.times: defaultdict = defaultdict(float)
        self.problems: list[str] = []
        self.op_id = None
        self.op_times: list[tuple] = []  # (op id, wall, self times of this op)
        self._next_id = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> _Open:
        rec = _Open(self._next_id, name, perf_counter(), self.stack[-1].id if self.stack else None)
        self._next_id += 1
        self.stack.append(rec)
        return rec

    def _close(self, rec: _Open) -> None:
        end = perf_counter()
        self.stack.pop()
        dur = end - rec.start
        self.times[rec.name + "_s"] += dur - rec.child
        self.counts[rec.name + "_calls"] += 1
        if self.stack:
            self.stack[-1].child += dur
        self.spans.append((rec.id, rec.name, rec.start, end, rec.parent, self.op_id))

    def op(self, op_id, fn, *args, **kwargs):
        """Run one op under a root span."""
        self.op_id = op_id
        before = dict(self.times)
        rec = self._open(OP_SPAN)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)
            self.op_id = None
            delta = {k: v - before.get(k, 0.0) for k, v in self.times.items()}
            self.op_times.append((op_id, self.spans[-1][3] - self.spans[-1][2], delta))

    def reset(self) -> None:
        self.counts.clear()
        self.times.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hot(self, name: str, fn):
        calls, secs, stack = name + "_calls", name + "_s", self.stack
        counts, times = self.counts, self.times

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            counts[calls] += 1
            times[secs] += dt
            stack[-1].child += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _walker(self, fn):
        """Wrap iter_weighted_samples: count walks and multisets, time each step.

        Step times are charged to the span that started the walk, which is
        the span that consumes it.
        """
        sig = inspect.signature(fn)
        counts, times = self.counts, self.times

        def walk(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            dist, m, symmetric = bound.arguments["data_dist"], bound.arguments["m"], bound.arguments["symmetric"]
            gen = fn(*args, **kwargs)
            owner = self.stack[-1]
            seen, spent = 0, 0.0
            try:
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        break
                    finally:
                        spent += perf_counter() - t0
                    seen += 1
                    yield item
            finally:
                counts["learners.walks"] += 1
                counts["learners.multisets"] += seen
                times["learners.enum_s"] += spent
                owner.child += spent
            n = len(dist.alphabet)
            if symmetric and all(w > 0 for w in dist.weights) and seen != math.comb(n + m - 1, m):
                self.problems.append(f"walk over n={n}, m={m} visited {seen} multisets, not C(n+m-1, m)")

        walk.__wrapped__ = fn
        return walk

    # -- hooks for per-call counts -------------------------------------------

    def _count_pairs(self, args, kwargs, result):
        self.counts["learners.eff_eps_pairs"] += result[1]

    def _count_cells(self, args, kwargs, result):
        joint = (args[0] if args else kwargs["tj"]).joint
        self.counts["losses.cells"] += len(joint.axes[0]) * len(joint.axes[1])

    def _count_draws(self, args, kwargs, result):
        self.counts["mc.draws"] += len(result)

    # -- install / uninstall -----------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every stabaudit module global that is ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stabaudit" or mod_name.startswith("stabaudit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        import stabaudit.corpus as corpus
        import stabaudit.harness as harness
        import stabaudit.learners as learners

        after = {
            "learners.eff_eps": self._count_pairs,
            "losses.gen_risk": self._count_cells,
            "mc.draw": self._count_draws,
        }
        for (mod, attr), name in SPANS.items():
            orig = getattr(sys.modules[f"stabaudit.{mod}"], attr)
            self._replace_everywhere(orig, self._span(name, orig, after.get(name)))
        for (mod, attr), name in HOT.items():
            orig = getattr(sys.modules[f"stabaudit.{mod}"], attr)
            self._replace_everywhere(orig, self._hot(name, orig))
        walker = learners.iter_weighted_samples
        self._replace_everywhere(walker, self._walker(walker))

        # writes: count files and bytes inside the write span
        atomic = harness._atomic_write

        def atomic_write(path, text):
            self.counts["harness.files_written"] += 1
            self.counts["harness.bytes_written"] += len(text.encode())
            return atomic(path, text)

        self._replace_everywhere(atomic, atomic_write)

        # classmethod: config validation
        from_dict = harness.ScenarioConfig.__dict__["from_dict"]
        harness.ScenarioConfig.from_dict = classmethod(self._span("harness.config", from_dict.__func__))
        self._undo.append((harness.ScenarioConfig, "from_dict", from_dict))

        # method: per-scenario cache
        cached = learners.Scenario.cached

        def counted_cached(scenario, key, build):
            built = []

            def build_once():
                built.append(True)
                return build()

            result = cached(scenario, key, build_once)
            self.counts["learners.cache_misses" if built else "learners.cache_hits"] += 1
            if built and isinstance(key, tuple) and key[0] == "deviation_law":
                self.counts["losses.deviation_law_builds"] += 1
            return result

        learners.Scenario.cached = counted_cached
        self._undo.append((learners.Scenario, "cached", cached))

        # kernels: built per scenario through the learner registry
        registry = corpus.LEARNER_BUILDERS
        saved = dict(registry)
        for lname, (builder, allowed) in saved.items():
            registry[lname] = (self._kernel_builder(builder), allowed)
        self._undo.append((registry, None, saved))

    def _kernel_builder(self, builder):
        def build(domain, params, mode):
            learner = builder(domain, params, mode)
            return dataclasses.replace(learner, kernel=self._hot("learners.kernel", learner.kernel))

        return build

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            if attr is None:
                target.clear()
                target.update(original)
            else:
                setattr(target, attr, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for id_, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps({"id": id_, "name": name, "start": start, "end": end, "parent": parent, "op": op})
                    + "\n"
                )
