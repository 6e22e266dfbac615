"""Per-layer tracing of dgforge from outside the library.

The tracer wraps the public functions of each layer (the modules
`linalg`, `cube`, `cubical`, `dgcat`, `pretr` and `sheaf`) for the
duration of a `with tracer.installed():` block and puts the originals
back when the block ends.  Every wrapped call becomes a span (name,
start, end, parent); a layer's self time is its span's duration minus
the durations of its child spans, and its inclusive time the duration of
its outermost spans (a call nested in a call of the same name is not
counted twice).  A few wrappers also count work at the
boundary (matrix entries, multiply-adds, cache hits).

A function name is patched in every dgforge module that bound it with
`from .linalg import solve`; methods are patched on their class.  The vertex host's `mor_tensor` is a
closure stored on the host object, so workloads hand each host to
`tracer.host(...)`, which wraps it on that object.
"""

import contextlib
import json
import sys
import time

from dgforge import cube, cubical, dgcat, linalg, pretr, sheaf

MARK = "__perfbench_wrapper__"

# Spans kept for the trace file; counters cover every call regardless.
SPAN_CAP = 200_000


def _is_identity(m):
    if m.nrows != m.ncols:
        return False
    for i, row in enumerate(m.rows):
        for j, v in enumerate(row):
            if v != (1 if i == j else 0):
                return False
    return True


class Tracer:
    """Spans and counters for the calls made while the wrappers are in place."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.incl_s = {}
        self.counts = {}
        self.spans = []
        self.spans_dropped = 0
        self.record_spans = False
        self._stack = []
        self._active = set()
        self._next_id = 0
        self._patched = []

    # -- spans ----------------------------------------------------------------

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, before=None, after=None):
        """Wrap `fn` as span `name`.  `before(args)` runs ahead of the call
        and its value reaches `after(args, result, state, seconds)`."""
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            self._next_id += 1
            frame = [self._next_id, 0.0]
            outer = name not in active
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            if outer:
                active.add(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if outer:
                    active.discard(name)
                    self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
                if stack:
                    stack[-1][1] += dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
                if self.record_spans:
                    if len(self.spans) < SPAN_CAP:
                        self.spans.append((frame[0], parent, name, t0, t1))
                    else:
                        self.spans_dropped += 1
            if after is not None:
                after(args, result, state, dur)
            return result

        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, name)
        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, name, module, attr, **hooks):
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **hooks)
        for mod in _dgforge_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _patch_method(self, name, cls, attr, **hooks):
        self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], **hooks))

    def host(self, host):
        """Wrap `host.mor_tensor` while the wrappers are installed."""
        if self._patched:
            self._patched.append((host, "mor_tensor", host.mor_tensor))
            host.mor_tensor = self.wrap("dgcat.mor_tensor", host.mor_tensor)
        return host

    @contextlib.contextmanager
    def installed(self):
        if self._patched:
            raise RuntimeError("tracer wrappers are already installed")
        try:
            self._install()
            yield self
        finally:
            self.uninstall()

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _install(self):
        add = self._add
        M = linalg.Matrix

        def init_after(args, result, state, dur):
            m = args[0]
            add("linalg.matrix_init.entries", m.nrows * m.ncols)

        def kron_after(args, result, state, dur):
            n = result.nrows * result.ncols
            add("linalg.kron.out_entries", n)
            if n and (_is_identity(args[0]) or _is_identity(args[1])):
                add("linalg.kron.identity_entries", n)

        def mul_after(args, result, state, dur):
            a, b = args
            if isinstance(b, M):
                add("linalg.mul.madds", a.nrows * a.ncols * b.ncols)

        def snf_after(args, result, state, dur):
            a = args[0]
            key = "linalg.snf.max_dim"
            self.counts[key] = max(self.counts.get(key, 0), a.nrows, a.ncols)

        self._patch_method("linalg.matrix_init", M, "__init__", after=init_after)
        self._patch_method("linalg.kron", M, "kron", after=kron_after)
        self._patch_method("linalg.mul", M, "__mul__", after=mul_after)
        self._patch_function("linalg.snf", linalg, "smith_normal_form", after=snf_after)
        self._patch_function("linalg.homology", linalg, "complex_homology")
        self._patch_function("linalg.solve", linalg, "solve")
        self._patch_function("linalg.q_rref", linalg, "q_rref")

        self._patch_function("cube.signed_symmetry_group", cube, "signed_symmetry_group")
        self._patch_function("cube.enumerate_homset", cube, "enumerate_homset")

        def cached(cache_attr, key_of, prefix, time_misses=False):
            # Peeks at the library's memo dict: a hit is a key present before
            # the call, a miss one that the call stored.
            def before(args):
                cache = getattr(args[0], cache_attr, None)
                key = key_of(args)
                return cache, key, cache is not None and key in cache

            def after(args, result, state, dur):
                cache, key, hit = state
                if hit:
                    add(prefix + ".hits", 1)
                elif cache is not None and key in cache:
                    add(prefix + ".misses", 1)
                    if time_misses:
                        add(prefix + ".miss_s", dur)

            return {"before": before, "after": after}

        self._patch_method(
            "cubical.act", cubical.CubicalAbelianGroup, "act",
            **cached("_cache", lambda a: (a[1].dom, a[1].cod, a[1].table), "cubical.act"),
        )
        self._patch_function("cubical.alternating_projector", cubical, "alternating_projector")
        self._patch_function("cubical.associated_complex", cubical, "associated_complex")
        self._patch_function("cubical.alternating_complex", cubical, "alternating_complex")

        self._patch_function("dgcat.validate_dg", dgcat, "validate_dg")
        self._patch_function("dgcat.validate_functor", dgcat, "validate_functor")
        self._patch_method(
            "dgcat.comp_matrix", dgcat.DGCategory, "comp_matrix",
            **cached("_comp", lambda a: tuple(a[1:6]), "dgcat.comp_matrix", time_misses=True),
        )
        self._patch_method(
            "dgcat.hom", dgcat.DGCategory, "hom",
            **cached("_hom", lambda a: (a[1], a[2]), "dgcat.hom"),
        )

        self._patch_function("pretr.twisted_hom_complex", pretr, "twisted_hom_complex")
        self._patch_function("pretr.compose_twisted", pretr, "compose_twisted")
        self._patch_function("pretr.tensor_pair", pretr, "tensor_pair")

        self._patch_method("sheaf.opens", sheaf.FiniteSite, "opens")
        self._patch_method("sheaf.as_open", sheaf.FiniteSite, "as_open")
        self._patch_function("sheaf.sheafify", sheaf, "sheafify")
        self._patch_method("sheaf.tower_total", sheaf.GodementTower, "total")
        self._patch_function("sheaf.cech_total", sheaf, "cech_total")
        self._patch_method("sheaf.rgamma_comp", sheaf._RGammaData, "comp_fn")

    # -- reporting ------------------------------------------------------------

    def per_layer(self, iterations):
        """Per-iteration averages of every traced quantity, by metric name."""
        c = self.counts
        out = {}
        for name in TRACED:
            out[name + ".calls"] = self.calls.get(name, 0) / iterations
            out[name + ".self_s"] = self.self_s.get(name, 0.0) / iterations
            out[name + ".incl_s"] = self.incl_s.get(name, 0.0) / iterations
        out["linalg.matrix_init.entries"] = c.get("linalg.matrix_init.entries", 0) / iterations
        kron_out = c.get("linalg.kron.out_entries", 0)
        out["linalg.kron.out_entries"] = kron_out / iterations
        out["linalg.kron.identity_share"] = (
            c.get("linalg.kron.identity_entries", 0) / kron_out if kron_out else 0.0
        )
        out["linalg.mul.madds"] = c.get("linalg.mul.madds", 0) / iterations
        out["linalg.snf.max_dim"] = c.get("linalg.snf.max_dim", 0)
        for prefix in ("cubical.act", "dgcat.comp_matrix", "dgcat.hom"):
            hits = c.get(prefix + ".hits", 0)
            looked = hits + c.get(prefix + ".misses", 0)
            out[prefix + ".hit_ratio"] = hits / looked if looked else 0.0
        out["dgcat.comp_matrix.miss_s"] = c.get("dgcat.comp_matrix.miss_s", 0.0) / iterations
        return out

    def write(self, path, meta):
        """Spans (id, parent, name, start, end) and counters as JSON."""
        t0 = self.spans[0][3] if self.spans else 0.0
        doc = {
            "meta": meta,
            "calls": self.calls,
            "self_s": self.self_s,
            "incl_s": self.incl_s,
            "counts": self.counts,
            "spans_dropped": self.spans_dropped,
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s - t0, "end": e - t0}
                for i, p, n, s, e in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


TRACED = (
    "linalg.matrix_init",
    "linalg.kron",
    "linalg.mul",
    "linalg.snf",
    "linalg.homology",
    "linalg.solve",
    "linalg.q_rref",
    "cube.signed_symmetry_group",
    "cube.enumerate_homset",
    "cubical.act",
    "cubical.alternating_projector",
    "cubical.associated_complex",
    "cubical.alternating_complex",
    "dgcat.validate_dg",
    "dgcat.validate_functor",
    "dgcat.comp_matrix",
    "dgcat.hom",
    "dgcat.mor_tensor",
    "pretr.twisted_hom_complex",
    "pretr.compose_twisted",
    "pretr.tensor_pair",
    "sheaf.opens",
    "sheaf.as_open",
    "sheaf.sheafify",
    "sheaf.tower_total",
    "sheaf.cech_total",
    "sheaf.rgamma_comp",
)


UNITS = {
    **{name + ".calls": "count" for name in TRACED},
    **{name + ".self_s": "s" for name in TRACED},
    **{name + ".incl_s": "s" for name in TRACED},
    "linalg.matrix_init.entries": "count",
    "linalg.kron.out_entries": "count",
    "linalg.kron.identity_share": "ratio",
    "linalg.mul.madds": "count",
    "linalg.snf.max_dim": "count",
    "cubical.act.hit_ratio": "ratio",
    "dgcat.comp_matrix.hit_ratio": "ratio",
    "dgcat.comp_matrix.miss_s": "s",
    "dgcat.hom.hit_ratio": "ratio",
    "trace.overhead_s": "s",
}


def _dgforge_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "dgforge" or n.startswith("dgforge.")]


def wrappers_in_place():
    """Every tracer wrapper still reachable from a dgforge module or class."""
    found = []
    for mod in _dgforge_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append("%s.%s" % (mod.__name__, key))
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if hasattr(member, MARK):
                        found.append("%s.%s.%s" % (mod.__name__, key, attr))
    return found
