"""Per-layer tracing for the benchmark's traced run.

The tracer replaces public functions of the rank3 modules with timing
wrappers, set as module attributes, so calls made inside the library
through module globals are caught as well as calls from the benchmark.
Nothing in the library is edited.  Each call becomes a span (layer, start,
end, parent span, pass id) kept in memory in flat arrays; the spans are
written out once, when the run ends.

A layer's self time is its span's duration minus the time its child spans
cover.  The tracer assumes one thread, which holds because the benchmark
sets RANK3_THREADS=1.

``fields`` and ``linalg.vec_mat`` are left unwrapped on purpose: they run
tens of millions and hundreds of thousands of times per pass, and
wrapping them would swamp the run.  Their cost shows up in the self time
of ``linalg`` and ``meataxe``.
"""

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

# module -> public functions wrapped; each becomes the layer "<module>.<name>"
WRAPPED = {
    "geometry": ("nonsingular_points", "measured_rank3_parameters"),
    "groups": ("cd_parameters", "orbit_codes", "orbit", "omega_generators",
               "group_closure", "preserves_form"),
    "constructions": ("orbit_partition",),
    "genfile": ("parse_generator_lines",),
    "linalg": ("rref", "nullspace_rows", "solve_row", "det", "mat_inv",
               "mat_mul"),
    "meataxe": ("composition_factors", "find_submodule", "spin",
                "submodule_action", "quotient_action", "modules_isomorphic",
                "invariant_bilinear_form"),
    "higman": ("srg_verify",),
    "partitions": ("mullineux_map",),
}

# The named construction builders share one layer, "constructions.build".
BUILDERS = ("wreath_o1_subgroup", "parabolic_subgroup",
            "field_extension_subgroup", "deleted_permutation_module",
            "wedge_square_rep", "sym_square_o7_rep",
            "symplectic_lambda2_module", "symplectic_sym2_module",
            "tensor_product_subgroup", "c7_wreath_subgroup",
            "imprimitive_o3_wr_s3", "subspace_stabilizer_n7_w3")

PARTITION = "constructions.orbit_partition"

# Work counters, read off the wrapped calls' arguments and results.
WORK = ("geometry.nonsingular_points.points", "groups.cd_parameters.points",
        "groups.orbit_codes.points", PARTITION + ".orbits",
        "groups.group_closure.elements", "linalg.rref.cells")

# Which layers each workload is predicted to call ("+") or to leave alone
# ("0"), in the order ledger-core, orbit-wide, module-split.  The traced run
# fails its coverage self-check when a layer disagrees, so a wrapper that
# misses calls, or a workload that drifts into another layer, shows.
PREDICTED = {
    "geometry.nonsingular_points": "+00",
    "geometry.measured_rank3_parameters": "+00",
    "groups.cd_parameters": "++0",
    "groups.orbit_codes": "+00",
    "groups.orbit": "0+0",
    "groups.omega_generators": "+0+",
    "groups.group_closure": "+0+",
    "groups.preserves_form": "+++",
    "constructions.orbit_partition": "+00",
    "constructions.build": "+0+",
    "genfile.parse_generator_lines": "0+0",
    "linalg.rref": "+0+",
    "linalg.nullspace_rows": "+0+",
    "linalg.solve_row": "+0+",
    "linalg.det": "+++",
    "linalg.mat_inv": "+0+",
    "linalg.mat_mul": "+++",
    "meataxe.composition_factors": "+0+",
    "meataxe.find_submodule": "+0+",
    "meataxe.spin": "+0+",
    "meataxe.submodule_action": "+0+",
    "meataxe.quotient_action": "+0+",
    "meataxe.modules_isomorphic": "+0+",
    "meataxe.invariant_bilinear_form": "+0+",
    "higman.srg_verify": "+00",
    "partitions.mullineux_map": "+00",
}
PREDICTED_ORDER = ("ledger-core", "orbit-wide", "module-split")


class Tracer:
    def __init__(self):
        self.layers = []            # layer names; spans store an index
        self.layer = array("H")     # per span: layer index
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")    # index of the enclosing span, or -1
        self.pass_of = array("H")
        self.pass_id = 0
        self.stack = []             # open spans: [span index, child seconds]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.work = dict.fromkeys(WORK, 0)
        self.closures = []          # (parent span, group order) per closure
        self.partitioned = 0        # points in the orbits orbit_partition returns
        self.scanned = 0            # points scanned by groups calls inside it
        self.absent = []            # functions the library no longer has
        self._patches = []          # (module, name, function, wrapper)
        targets = [(m, name, "%s.%s" % (m, name))
                   for m, names in WRAPPED.items() for name in names]
        targets += [("constructions", name, "constructions.build")
                    for name in BUILDERS]
        for modname, name, layer in targets:
            mod = importlib.import_module("rank3." + modname)
            fn = getattr(mod, name, None)
            if fn is None:
                self.absent.append("%s.%s" % (modname, name))
                continue
            if layer not in self.layers:
                self.layers.append(layer)
            wrapper = self._wrap(fn, layer, self.layers.index(layer),
                                 _COUNTERS.get(layer))
            self._patches.append((mod, name, fn, wrapper))

    def install(self):
        for mod, name, _fn, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, fn, _wrapper in self._patches:
            setattr(mod, name, fn)

    def _wrap(self, fn, layer, li, count):
        clock = time.perf_counter
        stack, calls, self_s = self.stack, self.calls, self.self_s

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.layer.append(li)
            self.parent.append(stack[-1][0] if stack else -1)
            self.pass_of.append(self.pass_id)
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.end[idx] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[layer] += 1
                self_s[layer] += dur - frame[1]
            if count is not None:
                count(self, args, out)
            return out

        return functools.wraps(fn)(traced)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-pass means of every layer counter, keyed by metric name."""
        out = {}
        for layer in self.layers:
            out[layer + ".calls"] = self.calls[layer] / passes
            out[layer + ".s"] = self.self_s[layer] / passes
        for key, value in self.work.items():
            out[key] = value / passes
        cd_s = self._inclusive_s("groups.cd_parameters")
        out["groups.cd_parameters.points_per_s"] = (
            self.work["groups.cd_parameters.points"] / cd_s if cd_s else 0.0)
        out[PARTITION + ".scan_ratio"] = (
            self.scanned / self.partitioned if self.partitioned else 0.0)
        final = defaultdict(int)
        for parent, order in self.closures:
            final[parent] = max(final[parent], order)
        enumerated = sum(order for _p, order in self.closures)
        out["groups.group_closure.useful_ratio"] = (
            sum(final.values()) / enumerated if enumerated else 0.0)
        return out

    def _inclusive_s(self, layer):
        """Summed span durations of one layer, children included."""
        if layer not in self.layers:
            return 0.0
        sel = np.array(self.layer, dtype=np.uint16) == self.layers.index(layer)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        return float((end[sel] - start[sel]).sum())

    def coverage_misses(self, workload):
        """Layers whose call count disagrees with PREDICTED."""
        col = PREDICTED_ORDER.index(workload)
        misses = []
        for layer, marks in PREDICTED.items():
            if layer not in self.layers:
                continue  # the library dropped it; nothing left to trace
            called = self.calls[layer] > 0
            if called != (marks[col] == "+"):
                misses.append("%s: %d calls on %s, predicted %s"
                              % (layer, self.calls[layer], workload,
                                 "some" if marks[col] == "+" else "none"))
        return misses

    def write(self, path):
        """Write the spans as flat numpy arrays, with the layer names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            np.savez(f, layers=np.array(self.layers),
                     layer=np.array(self.layer, dtype=np.uint16),
                     start=np.array(self.start, dtype=np.float64),
                     end=np.array(self.end, dtype=np.float64),
                     parent=np.array(self.parent, dtype=np.int64),
                     pass_id=np.array(self.pass_of, dtype=np.uint16))


# -- work counters, read off each wrapped call's arguments and result -------

def _scanned(tracer, key, points):
    tracer.work[key] += points
    if any(tracer.layers[tracer.layer[i]] == PARTITION
           for i, _child_s in tracer.stack):
        tracer.scanned += points


def _count_cd(tracer, _args, out):
    _scanned(tracer, "groups.cd_parameters.points", out.size)


def _count_orbit_codes(tracer, _args, out):
    _scanned(tracer, "groups.orbit_codes.points", out[0])


def _count_nonsingular(tracer, _args, out):
    tracer.work["geometry.nonsingular_points.points"] += len(out)


def _count_partition(tracer, _args, out):
    tracer.work[PARTITION + ".orbits"] += len(out)
    tracer.partitioned += sum(r.size for r in out)


def _count_closure(tracer, _args, out):
    tracer.work["groups.group_closure.elements"] += len(out)
    parent = tracer.stack[-1][0] if tracer.stack else -1
    tracer.closures.append((parent, len(out)))


def _count_cells(tracer, args, _out):
    A = args[1]
    tracer.work["linalg.rref.cells"] += len(A) * len(A[0]) if len(A) else 0


_COUNTERS = {
    "geometry.nonsingular_points": _count_nonsingular,
    "groups.cd_parameters": _count_cd,
    "groups.orbit_codes": _count_orbit_codes,
    PARTITION: _count_partition,
    "groups.group_closure": _count_closure,
    "linalg.rref": _count_cells,
}
