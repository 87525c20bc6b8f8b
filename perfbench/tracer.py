"""Per-layer tracing of mjlab, installed at runtime from outside the package.

`Tracer.install()` replaces the public functions of every loaded `mjlab`
module with timing wrappers.  Every binding of a wrapped function is
replaced: the module's own attribute, the same object imported by name into
another module (as `mu` imports `zwegers_R_jet` from `special`), and
references held in module-level tables (as `operators._OPERATORS` and
`verify.SUITES` hold builders and suites).  Calls between layers are
therefore attributed to the layer that owns the code.  `uninstall()` puts
every binding back.  No file of the package is changed.

A span is opened around every wrapped call.  A span's self time is its
duration minus the time covered by its child spans, and a layer is busy
while at least one of its spans is open.  Spans of the engine layers
(`jets`, `core`) run in the millions per workload; they are aggregated in
place.  Spans of the other layers are kept in memory as
(operation id, span id, parent span id, name, start, end) and written out
at the end of the run.

Operators and slashes return function handles that are evaluated later, so
for those the evaluation of the returned handle is timed rather than the
call that builds it.

Uses only the standard library until `install()`, so that importing it
does not change what an import-time measurement of mjlab sees.
"""

import sys
import time
import types
import weakref

import inputs

# layers whose spans are counted in place instead of stored
AGGREGATED = ("jets", "core")
LAYERS = ("jets", "core", "special", "mu", "group", "weil", "operators",
          "kernels", "verify", "cli")

# catalog evaluators: an outermost one of these under an operator span is a
# "base evaluation" of the operand
CATALOG = frozenset((
    "special.jacobi_theta_jet", "special.theta_ml_jet", "special.zwegers_R_jet",
    "mu.mu_m_jet", "mu.mu_hat_component_jet", "mu.r_hat_component_jet",
    "mu.mu_two_variable_jet", "mu.mu_hat_2_jet", "kernels.kernel_jet",
))
# series whose terms are counted (one Jet.exp per term)
SERIES = frozenset(("special.jacobi_theta_jet", "special.theta_ml_jet",
                    "special.zwegers_R_jet"))

# class methods that are wrapped, by module
METHODS = {
    "jets": ("Jet", ("__mul__", "apply_taylor", "exp")),
    "core": ("FunctionHandle", ("jet_at", "eval")),
}
# private functions the per-layer metrics need
PRIVATE = {"core": ("_compose_taylor",)}
# lru-cached functions that are wrapped (their caches stay in place)
CACHED = {"mu": ("lattice_multiplicities",)}
# builders whose returned handle is timed when it is evaluated; handle-
# building helpers whose handle a builder returns as its own are left alone
HANDLE_BUILDERS = {"group": ("slash", "skew_slash")}
OPERATOR_HELPERS = ("make_handle", "handle_lincomb")
# the suites the verify workload runs, each timed on its own
BENCHED_SUITES = frozenset(name for name, _, _ in inputs.VERIFY_SUITES)


def _public_functions(module):
    name = module.__name__
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                and obj.__module__ == name):
            yield attr, obj


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, self seconds, inclusive seconds]
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.depth = dict.fromkeys(LAYERS, 0)
        self.stack = []  # open spans: [child seconds, name, nearest stored span id]
        self.spans = []
        self.op = 0
        self.next_sid = 1
        self.counts = {
            "mul_by_order": {}, "terms": 0, "fd_samples": 0, "lattice_states": 0,
            "base_evals": 0, "top_ops": 0, "checks": 0,
        }
        self.catalog_depth = 0
        self.op_depth = 0  # open evaluations of operator handles
        self.handle_spans = set()
        self._traced = weakref.WeakSet()
        self._undo = []

    # -- span bookkeeping --------------------------------------------------

    def wrap(self, name, fn, pre=None, post=None):
        """A wrapper around fn that records a span called `name`."""
        layer = name.split(".", 1)[0]
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, depth, busy, spans = self.stack, self.depth, self.busy, self.spans
        store = layer not in AGGREGATED
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if pre is not None:
                pre(args)
            d = depth[layer]
            parent = stack[-1][2] if stack else 0
            if store:
                sid = tracer.next_sid
                tracer.next_sid = sid + 1
            else:
                sid = parent
            frame = [0.0, name, sid]
            stack.append(frame)
            depth[layer] = d + 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[layer] = d
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[0]
                stat[2] += dur
                if stack:
                    stack[-1][0] += dur
                if d == 0:
                    busy[layer] += dur
                if store:
                    spans.append((tracer.op, sid, parent, name, t0, t1))
            if post is not None:
                post(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _catalog(self, name, fn):
        counts = self.counts
        tracer = self
        inner = self.wrap(name, fn)

        def catalog(*args, **kwargs):
            if tracer.catalog_depth == 0 and tracer.op_depth > 0:
                counts["base_evals"] += 1
            tracer.catalog_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.catalog_depth -= 1

        return catalog

    def _handle_builder(self, name, fn, jet_at):
        """Wrap a builder so the handle it returns is timed when evaluated."""
        from mjlab.core import FunctionHandle
        from mjlab.group import TaggedForm

        tracer = self
        counts = self.counts
        self.handle_spans.add(name)
        is_operator = name.startswith("operators.")

        def trace_handle(h):
            if isinstance(h, TaggedForm):
                f = trace_handle(h.f)
                return h if f is h.f else TaggedForm(f, h.weight_index, h.action_kind)
            if not isinstance(h, FunctionHandle) or h in tracer._traced:
                return h
            # the unwrapped jet_at, so the evaluation is not counted twice
            inner = tracer.wrap(name, lambda jv: jet_at(h, jv))
            if is_operator:
                def evaluate(jv):
                    if tracer.op_depth == 0:
                        counts["top_ops"] += 1
                    tracer.op_depth += 1
                    try:
                        return inner(jv)
                    finally:
                        tracer.op_depth -= 1
            else:
                evaluate = inner
            out = FunctionHandle(jet_fn=evaluate, label=h.label, fd_step=h.fd_step)
            tracer._traced.add(out)
            return out

        def build(*args, **kwargs):
            return trace_handle(fn(*args, **kwargs))

        build.__wrapped__ = fn
        return build

    # -- installation ------------------------------------------------------

    def _targets(self, modules):
        """Map id(original) -> (original, replacement) for every target."""
        counts = self.counts
        stack = self.stack
        targets = {}
        core = modules["mjlab.core"]
        jet_at = vars(core.FunctionHandle)["jet_at"]

        def mul_pre(args):
            o = args[0].order
            by = counts["mul_by_order"]
            by[o] = by.get(o, 0) + 1

        def exp_pre(args):
            if stack and stack[-1][1] in SERIES:
                counts["terms"] += 1

        def eval_pre(args):
            if stack and stack[-1][1] == "core.finite_difference_jet":
                counts["fd_samples"] += 1

        def states_post(out):
            counts["lattice_states"] += len(out)

        def suite_post(results):
            counts["checks"] += len(results)

        hooks = {
            "jets.Jet.__mul__": (mul_pre, None),
            "jets.Jet.exp": (exp_pre, None),
            "core.FunctionHandle.eval": (eval_pre, None),
            "mu.lattice_multiplicities": (None, states_post),
            "verify.run_suite": (None, suite_post),
        }

        def add(name, fn):
            if id(fn) in targets:  # an alias such as apply_lowering_raising
                return
            layer, attr = name.split(".", 1)[0], name.rsplit(".", 1)[1]
            if attr in HANDLE_BUILDERS.get(layer, ()) or (
                    layer == "operators" and attr not in OPERATOR_HELPERS
                    and not attr.startswith(("verify_", "apply_"))):
                new = self._handle_builder(name, fn, jet_at)
            elif name in CATALOG:
                new = self._catalog(name, fn)
            else:
                pre, post = hooks.get(name, (None, None))
                new = self.wrap(name, fn, pre=pre, post=post)
            targets[id(fn)] = (fn, new)

        for modname, module in modules.items():
            layer = modname.split(".", 1)[1]
            for attr, fn in _public_functions(module):
                add("%s.%s" % (layer, attr), fn)
            for attr in PRIVATE.get(layer, ()) + CACHED.get(layer, ()):
                add("%s.%s" % (layer, attr), getattr(module, attr))
            if layer in METHODS:
                cls_name, names = METHODS[layer]
                cls = getattr(module, cls_name)
                for attr in names:
                    add("%s.%s.%s" % (layer, cls_name, attr), vars(cls)[attr])
        return targets

    def install(self):
        modules = {
            name: mod for name, mod in sorted(sys.modules.items())
            if name.startswith("mjlab.") and mod is not None
            and name.split(".", 1)[1] in LAYERS
        }
        self._cached = modules["mjlab.mu"].lattice_multiplicities
        self._suites = {name: fn.__name__
                        for name, fn in modules["mjlab.verify"].SUITES.items()}
        targets = self._targets(modules)

        def swap(value):
            hit = targets.get(id(value))
            if hit is not None and hit[0] is value:
                return hit[1]
            if isinstance(value, tuple) and any(id(v) in targets for v in value):
                return tuple(swap(v) for v in value)
            return value

        for module in modules.values():
            owners = [module] + [
                v for v in vars(module).values()
                if isinstance(v, type) and v.__module__ == module.__name__]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    new = swap(value)
                    if new is not value:
                        setattr(owner, attr, new)
                        self._undo.append((
                            lambda k, v, o=owner: setattr(o, k, v), attr, value))
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            new = swap(item)
                            if new is not item:
                                value[key] = new
                                self._undo.append((value.__setitem__, key, item))

    def uninstall(self):
        while self._undo:
            setter, key, old = self._undo.pop()
            setter(key, old)

    # -- results -----------------------------------------------------------

    def raw(self):
        """Everything the per-layer metrics are computed from, as JSON data."""
        info = self._cached.cache_info()
        return {
            "stats": self.stats,
            "busy": self.busy,
            "counts": self.counts,
            "handle_spans": sorted(self.handle_spans),
            "cache": [info.hits, info.misses],
            "suites": self._suites,
        }


def import_times(stderr):
    """The `-X importtime` report as (module, self seconds, cumulative
    seconds, importing module or None), in the order modules finished."""
    lines = []
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            own, cumulative = int(parts[0]), int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2].rstrip()
        level = (len(name) - len(name.lstrip())) // 2
        lines.append((level, name.strip(), own * 1e-6, cumulative * 1e-6))
    # a module's importer is the next line one level up
    out, open_levels = [], {}
    for level, name, own, cumulative in reversed(lines):
        open_levels[level] = name
        out.append((name, own, cumulative, open_levels.get(level - 1) if level else None))
    return out[::-1]


def layer_metrics(raw_list):
    """Per-layer metrics (name -> value) from one or more `Tracer.raw()`
    records, summed.  Suite times are inclusive, all other times are self
    or busy time."""
    stats, busy, counts = {}, dict.fromkeys(LAYERS, 0.0), {}
    handle_spans, suites = set(), {}
    hits = misses = 0
    by_order = {}
    for raw in raw_list:
        suites.update(raw["suites"])
        for name, (calls, self_s, incl) in raw["stats"].items():
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += self_s
            s[2] += incl
        for layer, t in raw["busy"].items():
            busy[layer] += t
        for key, val in raw["counts"].items():
            if key == "mul_by_order":
                for o, n in val.items():
                    by_order[int(o)] = by_order.get(int(o), 0) + n
            else:
                counts[key] = counts.get(key, 0) + val
        handle_spans.update(raw["handle_spans"])
        hits += raw["cache"][0]
        misses += raw["cache"][1]

    def calls(*names):
        return sum(stats[n][0] for n in names if n in stats)

    def self_s(*names):
        return sum(stats[n][1] for n in names if n in stats)

    def layer(name, exclude=()):
        return [n for n in stats if n.split(".", 1)[0] == name and n not in exclude]

    theta = ("special.jacobi_theta_jet", "special.theta_ml_jet")
    slash = [n for n in handle_spans if n.startswith("group.")]
    ops = [n for n in handle_spans if n.startswith("operators.")]
    m = {
        "jets.mul_calls": calls("jets.Jet.__mul__"),
        "jets.mul_self_s": self_s("jets.Jet.__mul__"),
        "jets.taylor_calls": calls("jets.Jet.apply_taylor"),
        "jets.taylor_self_s": self_s("jets.Jet.apply_taylor"),
        "core.jet_at_calls": calls("core.FunctionHandle.jet_at"),
        "core.compose_taylor_calls": calls("core._compose_taylor"),
        "core.compose_taylor_self_s": self_s("core._compose_taylor"),
        "core.fd_samples": counts.get("fd_samples", 0),
        "core.fd_self_s": self_s("core.finite_difference_jet"),
        "special.theta_calls": calls(*theta),
        "special.theta_self_s": self_s(*theta),
        "special.R_calls": calls("special.zwegers_R_jet"),
        "special.R_self_s": self_s("special.zwegers_R_jet"),
        "special.terms": counts.get("terms", 0),
        "mu.appell_calls": calls("mu.mu_m_jet"),
        "mu.appell_self_s": self_s("mu.mu_m_jet"),
        "mu.component_self_s": self_s(
            *layer("mu", ("mu.mu_m_jet", "mu.lattice_multiplicities"))),
        "mu.lattice_states": counts.get("lattice_states", 0),
        "mu.multiplicity_hits": hits,
        "mu.multiplicity_misses": misses,
        "group.slash_calls": calls(*slash),
        "group.slash_self_s": self_s(*slash),
        "operators.op_calls": calls(*ops),
        "operators.op_self_s": self_s(*ops),
        "operators.base_evals_per_op": (
            counts.get("base_evals", 0) / counts["top_ops"]
            if counts.get("top_ops") else 0.0),
        "kernels.kernel_jet_calls": calls("kernels.kernel_jet"),
        "kernels.kernel_jet_self_s": self_s("kernels.kernel_jet"),
        "kernels.decompose_self_s": self_s("kernels.theta_decompose"),
        "weil.self_s": self_s(*layer("weil")),
        "verify.checks": counts.get("checks", 0),
        "cli.self_s": self_s("cli.main"),
    }
    for order in range(5):
        m["jets.mul_calls_o%d" % order] = by_order.get(order, 0)
    for name in ("jets", "core", "special", "mu", "group", "operators", "kernels"):
        m["%s.busy_s" % name] = busy[name]
    for suite, fn in suites.items():
        if suite in BENCHED_SUITES:
            m["verify.%s_s" % suite] = stats.get("verify." + fn, (0, 0.0, 0.0))[2]
    return m


# the first point of mjlab.verify.GENERIC_POINTS
PROBE_POINT = (0.13, 1.1, 0.21, 0.17)


def casimir_probe():
    """Base evaluations and jet multiplies of one order-0 evaluation of the
    Casimir operator on mu_hat[2,0] (4 and 1652 when this benchmark was
    written; operators as jet maps would need one base evaluation)."""
    import mjlab.mu
    import mjlab.operators
    from mjlab.core import EvalPoint, JetVars, WeightIndex

    t = Tracer()
    t.install()
    try:
        op = mjlab.operators.casimir(WeightIndex(1, -2), mjlab.mu.mu_hat_ml_handle(2, 0.0))
        op.jet_at(JetVars.at(EvalPoint(*PROBE_POINT), 0))
    finally:
        t.uninstall()
    return {"base_evals": t.counts["base_evals"],
            "mul_calls": t.stats["jets.Jet.__mul__"][0]}
