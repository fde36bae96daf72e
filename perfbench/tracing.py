"""Layer tracing from outside the package: spans and counts, in memory.

``Tracer.install()`` replaces the public functions of every hjbkit layer
module (and the few callables they hand out) with wrappers that record a
span ``[name, start, end, parent, op]`` and, at the boundaries the
benchmark reports on, a count.  ``uninstall()`` puts the originals back.  Nothing under ``src/`` is
edited: the CLI looks its collaborators up as module attributes at call
time, so a replaced attribute is what it calls.

Self time of a span is its duration minus the durations of its direct
children.  ``layer_metrics`` turns one traced iteration into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

import dataclasses
import types
from time import perf_counter

# layer name -> hjbkit module names whose public functions belong to it
LAYERS = {
    "cli": ("cli",),
    "model": ("model", "coefficients"),
    "hamiltonian": ("hamiltonian",),
    "pde": ("pde",),
    "simulate": ("simulate",),
    "finance": ("finance",),
}

COEFFICIENTS = ("drift", "discount_rate", "running_reward", "terminal_reward")
SOLVES = ("pde.solve_finite_horizon", "pde.solve_infinite_horizon")
MC_BLOCK = 1 << 14   # simulate's path block: one increment array per block


class Tracer:
    def __init__(self, modules):
        self.modules = modules      # short name -> imported hjbkit module
        self.spans = []             # [name, start, end, parent index, op]
        self.counts = {}
        self.op = -1
        self._stack = []
        self._saved = []

    # --- recording ----------------------------------------------------------

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``.

        ``after(args, kwargs, result)``, if given, runs once the span has
        closed; it records counts and may return a wrapped result.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return traced

    def _traced_model(self, args, kwargs, model):
        coeffs = {c: self.wrap("model.coef", getattr(model, c))
                  for c in COEFFICIENTS}
        return dataclasses.replace(model, **coeffs)

    def _count_solve(self, args, kwargs, result):
        report = result[2]
        grid = args[1]
        self.add("pde.steps", report.steps)
        self.add("pde.node_steps", report.steps * grid.nodes)
        self.counts["pde.cfl_ratio"] = max(self.counts.get("pde.cfl_ratio", 0.0),
                                           report.cfl_ratio)
        return result

    def _count_paths(self, args, kwargs, batch):
        model, mc = args[0], args[4]
        paths = len(batch.excluded)
        steps = max(1, int(round(args[3] / mc.dt)))
        self.add("simulate.path_steps", paths * steps)
        self.add("simulate.excluded_paths", int(batch.excluded.sum()))
        self.counts.setdefault("simulate.streams", set()).add(
            (mc.seed, mc.paths, steps, mc.antithetic))
        self.counts["simulate.increment_bytes"] = max(
            self.counts.get("simulate.increment_bytes", 0),
            min(paths, MC_BLOCK) * steps * model.dim * 8)
        return batch

    # --- patching -----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        m = self.modules
        after = {
            "model.load_model": self._traced_model,
            "finance.to_control_model": self._traced_model,
            "finance.control_override":
                lambda a, k, fn: self.wrap("finance.override", fn),
            "pde.solve_finite_horizon": self._count_solve,
            "pde.solve_infinite_horizon": self._count_solve,
            "simulate.simulate_paths": self._count_paths,
        }
        for layer, names in LAYERS.items():
            for modname in names:
                mod = m[modname]
                for attr in getattr(mod, "__all__", ()):
                    fn = getattr(mod, attr)
                    if isinstance(fn, types.FunctionType):
                        key = f"{modname}.{attr}"
                        self._patch(mod, attr, self.wrap(
                            f"{layer}.{attr}", fn, after.get(key)))
        for cls in (m["pde"].ValueField, m["pde"].PolicyField,
                    m["model"].KappaTable):
            self._patch(cls, "to_csv", self.wrap("cli.write", cls.to_csv))
        self._patch(m["pde"].PolicyField, "as_policy", self.wrap(
            "pde.as_policy", m["pde"].PolicyField.as_policy,
            lambda a, k, fn: self.wrap("simulate.policy", fn)))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # --- reduction ------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of everything recorded so far."""
        total, own, calls = {}, {}, {}
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                pname = self.spans[parent][0]
                own[pname] = own.get(pname, 0.0) - dur

        def t(*names):
            return sum(total.get(n, 0.0) for n in names)

        def s(*names):
            return sum(own.get(n, 0.0) for n in names)

        def n(*names):
            return sum(calls.get(n, 0) for n in names)

        c = self.counts
        solve_s = t(*SOLVES)
        sim_s = t("simulate.simulate_paths")
        sim_calls = n("simulate.simulate_paths")
        scans = ("hamiltonian.scan", "hamiltonian.eval_H")
        return {
            "cli.self_s": s("cli.main"),
            "cli.write_s": t("cli.write"),
            "cli.bytes_written": c.get("cli.bytes_written", 0),
            "model.coef_calls": n("model.coef"),
            "model.coef_s": t("model.coef"),
            "model.check_s": t("model.check_assumption1"),
            "model.kappa_s": t("model.estimate_kappa"),
            "hamiltonian.scan_calls": n(*scans),
            "hamiltonian.scan_s": t(*scans),
            "pde.solve_s": solve_s,
            "pde.march_self_s": s(*SOLVES),
            "pde.steps": c.get("pde.steps", 0),
            "pde.node_steps_per_s":
                c.get("pde.node_steps", 0) / solve_s if solve_s else 0.0,
            "pde.residual_s": t("pde.residual"),
            "pde.cfl_ratio": c.get("pde.cfl_ratio", 0.0),
            "finance.override_calls": n("finance.override"),
            "finance.override_s": t("finance.override"),
            "finance.reduce_s": t("finance.load_market",
                                  "finance.to_control_model"),
            "simulate.calls": sim_calls,
            "simulate.path_steps": c.get("simulate.path_steps", 0),
            "simulate.path_steps_per_s":
                c.get("simulate.path_steps", 0) / sim_s if sim_s else 0.0,
            "simulate.self_s": s("simulate.simulate_paths"),
            "simulate.policy_calls": n("simulate.policy"),
            "simulate.policy_s": t("simulate.policy"),
            "simulate.unique_draw_ratio":
                len(c.get("simulate.streams", ())) / sim_calls
                if sim_calls else 0.0,
            "simulate.increment_bytes": c.get("simulate.increment_bytes", 0),
            "simulate.excluded_paths": c.get("simulate.excluded_paths", 0),
            "trace.spans": len(self.spans),
        }
