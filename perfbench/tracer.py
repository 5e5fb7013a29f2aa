"""Outside-in tracer for mvlab.

The tracer changes no file of mvlab.  It replaces, for the duration of a
traced pass, the names through which mvlab's modules call each other, and
puts every one back afterwards.  ``from .quad import integrate_de`` copies
the name into ``mvlab.regions``, so the wrapper goes on the binding each
consumer uses, not on the definition.

Every wrapped call records a span (id, parent id, name, start, end) and adds
to per-pass counters.  A span's self time is its duration minus the time its
child spans cover; self time is summed per layer, where the layers are
mvlab's modules.  ``geometry`` and ``fields`` are not wrapped: their calls
sit inside the ODE right-hand side and the quadrature integrands, millions
per pass, and a wrapper there would mostly measure itself.  Their time shows
in the self time of their callers.

The tracer keeps its state in plain attributes and is not thread-safe; the
traced passes run on one thread.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PARABOLIC_EVALS = ("value_cm", "dx_cm", "dtau_cm", "grad_norm_cm", "liyau_cm")
ELLIPTIC_EVALS = ("value", "dvalue", "grad_norm")
REDUCED_METHODS = ("ell", "length_cm", "geodesic_to", "reduced_volume",
                   "first_order_residuals", "k_curvature_integral")
# modules that call the quadrature helpers, each through its own binding
QUAD_CONSUMERS = ("regions", "mv_parabolic", "mv_elliptic", "reduced", "kernels")


class Tracer:
    """Spans and counters for wrapped mvlab calls."""

    def __init__(self, max_spans=200_000):
        self.max_spans = max_spans
        self.spans = []
        self.dropped = 0
        self._stack = []
        self._next_id = 1
        self._patches = []
        self._t0 = time.perf_counter()
        self.reset()

    def reset(self):
        """Start new per-pass totals; spans keep accumulating."""
        self.counts = Counter()
        self.self_s = defaultdict(float)

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def enter(self, name):
        frame = [self._next_id, self._stack[-1][0] if self._stack else 0,
                 name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame, layer):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[3]
        self.self_s[layer] += duration - frame[4]
        if self._stack:
            self._stack[-1][4] += duration
        if len(self.spans) < self.max_spans:
            self.spans.append((frame[0], frame[1], frame[2], frame[3], end))
        else:
            self.dropped += 1

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start - self._t0,
                                     "end": end - self._t0}) + "\n")

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def span(self, fn, name, layer, count=None):
        """Wrap fn in a span of the layer; bump a counter per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count:
                tracer.counts[count] += 1
            frame = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame, layer)
        return traced

    def _quadrature(self, fn, name, consumer, calls, nodes):
        """A quadrature helper as ``consumer`` calls it.

        The integrand is wrapped too: each call is one node, and its time
        belongs to the consumer's layer, not to ``quad``.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            tracer.counts[calls] += 1
            integrand = tracer.span(f, f"{consumer}.integrand", consumer, nodes)
            frame = tracer.enter(name)
            try:
                return fn(integrand, *args, **kwargs)
            finally:
                tracer.exit(frame, "quad")
        return traced

    def _solve_ivp(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter("solve_ivp")
            try:
                sol = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, "shoot")
                tracer.counts["reduced.shots"] += 1
            tracer.counts["reduced.rhs_evals"] += int(sol.nfev)
            return sol
        return traced

    def _ell_cm(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(field, x, tau):
            counts = tracer.counts
            counts["reduced.ell_calls"] += 1
            shots = counts["reduced.shots"]
            frame = tracer.enter("ell_cm")
            try:
                return fn(field, x, tau)
            finally:
                tracer.exit(frame, "reduced")
                shot = counts["reduced.shots"] - shots
                if shot:
                    counts["reduced.miss_shots"] += shot
                else:
                    counts["reduced.memo_hits"] += 1
        return traced

    def _brentq(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            counts = tracer.counts
            counts["regions.root_solves"] += 1

            def g(x):
                counts["regions.root_fevals"] += 1
                return f(x)
            frame = tracer.enter("brentq")
            try:
                return fn(g, *args, **kwargs)
            finally:
                tracer.exit(frame, "regions")
        return traced

    def _profile_x(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(region, tau):
            counts = tracer.counts
            counts["regions.profile_calls"] += 1
            solves = counts["regions.root_solves"]
            frame = tracer.enter("profile_x")
            try:
                return fn(region, tau)
            finally:
                tracer.exit(frame, "regions")
                if counts["regions.root_solves"] == solves:
                    counts["regions.profile_cache_hits"] += 1
        return traced

    # ------------------------------------------------------------------ #
    # installing and removing the wrappers
    # ------------------------------------------------------------------ #
    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, fn, wrapper):
        """Replace fn under every name that any mvlab module binds it to."""
        for modname, mod in list(sys.modules.items()):
            if modname == "mvlab" or modname.startswith("mvlab."):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, attr, wrapper)

    def _public_functions(self, mod, layer, counted=None):
        """Wrap every public function defined in mod; ``counted`` maps some
        of their names to the counter each call bumps."""
        for name, fn in list(vars(mod).items()):
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_")):
                count = (counted or {}).get(name)
                self._patch_everywhere(
                    fn, self.span(fn, f"{layer}.{name}", layer, count))

    def install(self, mv):
        """Wrap the layer boundaries of the imported mvlab package ``mv``."""
        self._patch(mv.reduced, "solve_ivp", self._solve_ivp(mv.reduced.solve_ivp))
        self._patch(mv.regions, "brentq", self._brentq(mv.regions.brentq))
        for consumer in QUAD_CONSUMERS:
            mod = getattr(mv, consumer)
            self._patch(mod, "integrate_1d", self._quadrature(
                mod.integrate_1d, "integrate_1d", consumer,
                "quad.adaptive_calls", "quad.adaptive_nodes"))
        self._patch(mv.regions, "integrate_de", self._quadrature(
            mv.regions.integrate_de, "integrate_de", "regions",
            "quad.de_calls", "quad.de_nodes"))

        rdf = mv.reduced.ReducedDistanceField
        self._patch(rdf, "ell_cm", self._ell_cm(rdf.ell_cm))
        for name in REDUCED_METHODS:
            self._patch(rdf, name, self.span(rdf.__dict__[name], name, "reduced"))
        for name in ("shoot_l_geodesic", "l_length"):
            fn = getattr(mv.reduced, name)
            self._patch_everywhere(fn, self.span(fn, name, "reduced"))

        hbr = mv.regions.HeatBallRegion
        self._patch(hbr, "profile_x", self._profile_x(hbr.profile_x))
        self._public_functions(mv.regions, "regions", counted={
            "level_radius": "regions.regions_built",
            "heatball_profile": "regions.regions_built",
            "sphere_integrate": "regions.integrals",
            "ball_integrate": "regions.integrals"})

        for cls in vars(mv.kernels).values():
            if not inspect.isclass(cls) or cls.__module__ != mv.kernels.__name__:
                continue
            if issubclass(cls, mv.kernels.ParabolicKernel):
                names = PARABOLIC_EVALS
            elif issubclass(cls, mv.kernels.EllipticKernel):
                names = ELLIPTIC_EVALS
            else:
                continue
            for name in names:
                if name in cls.__dict__:
                    self._patch(cls, name, self.span(
                        cls.__dict__[name], f"{cls.__name__}.{name}", "kernels",
                        "kernels.evals"))

        self._public_functions(mv.mv_elliptic, "mv_elliptic")
        self._public_functions(mv.mv_parabolic, "mv_parabolic")
        for name in ("run_suite", "build_battery"):
            fn = getattr(mv.suites, name)
            self._patch_everywhere(fn, self.span(fn, name, "suites"))
        sweep = mv.sweeps.SweepReport
        self._patch(sweep, "__post_init__", self.span(
            sweep.__post_init__, "SweepReport", "sweeps"))
        self._patch_everywhere(mv.cli.main, self.span(mv.cli.main, "cli.main", "cli"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
