"""In-memory span recorder for the public functions of ``pigraphs``.

``SpanRecorder.install()`` wraps every public, non-generator function of
the layer modules (plus ``Graph.__post_init__``, i.e. graph construction)
and rebinds every module-level name in the package that refers to an
original.  The rebinding matters: modules import names directly
(``from .green import left_ideals`` in ``pig``, ``l_classes`` in
``verify``), and without it internal calls would go untimed.

Each span records its name, start, end, parent span and sizes.  Spans stay
in memory; ``write`` dumps them when the pass ends, and ``layer_metrics``
folds them into the per-layer metrics of the benchmark.  Self time is a
span's duration minus the time of its direct child spans.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("families", "semigroups", "green", "pig", "graphs", "skeletal",
          "spectral", "verify", "cli")

GRAPH_BUILDERS = ("pig.left_pig", "pig.right_pig", "pig.left_pig_inverse_fast",
                  "pig.isn_left_pig")


def _edge_count(args, result, exc):
    if result is None:
        return None
    return {"edges": sum(row.bit_count() for row in result.adj) // 2}


def _assoc_triples(args, result, exc):
    # triples the exhaustive scan visits: all n^3 for an accepted table,
    # up to and including the witness for a rejected one
    witness = getattr(exc, "witness", None)
    if witness is not None:
        n = len(args[0])
        x, y, z = witness
        return {"assoc_triples": x * n * n + y * n + z + 1}
    if result is not None and result.checked:
        return {"assoc_triples": result.order ** 3}
    return None


SIZERS = {
    "families.symmetric_inverse":
        lambda args, result, exc:
            None if result is None else {"compositions": result.order ** 2},
    "semigroups.from_cayley_table": _assoc_triples,
    "graphs.verify_isomorphism":
        lambda args, result, exc:
            {"pairs": args[0].order * (args[0].order - 1) // 2},
    "spectral.integer_rank":
        lambda args, result, exc: {"work": len(args[0]) ** 3},
    **{name: _edge_count for name in GRAPH_BUILDERS},
}


class SpanRecorder:
    def __init__(self):
        self.spans = []          # (name, parent index, start, end, sizes)
        self._open = []          # [span index, child time, name] per open span
        self.calls = Counter()
        self.self_s = Counter()
        self.sizes = Counter()   # size name -> total over all spans
        self.nested = Counter()  # (parent name, name) -> calls

    def wrap(self, name, fn):
        sizer = SIZERS.get(name)
        spans, open_, now = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else None
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0, name]
            open_.append(frame)
            result = exc = None
            start = now()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = now()
                open_.pop()
                duration = end - start
                sizes = sizer(args, result, exc) if sizer else None
                spans[index] = (name, parent[0] if parent else -1,
                                start, end, sizes)
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if parent:
                    parent[1] += duration
                    self.nested[parent[2], name] += 1
                if sizes:
                    self.sizes.update(sizes)
        return traced

    def install(self):
        """Wrap the layer modules' public functions; rebind every alias."""
        import pigraphs  # noqa: F401  (loads every layer module)
        from pigraphs import graphs

        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"pigraphs.{layer}"]
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name == "pigraphs" or name.startswith("pigraphs."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replaced:
                        setattr(module, attr, replaced[id(obj)])
        graphs.Graph.__post_init__ = self.wrap(
            "graphs.Graph.__post_init__", graphs.Graph.__post_init__)

    def layer_metrics(self):
        """Per-pass layer metrics, keyed by their benchmark names."""
        def self_of(*names):
            return sum(self.self_s[n] for n in names)

        def layer_self(layer):
            return sum(v for n, v in self.self_s.items()
                       if n.startswith(layer + "."))

        total = self.sizes.__getitem__

        return {
            "families.build_s": layer_self("families"),
            "families.compositions": total("compositions"),
            "semigroups.s": layer_self("semigroups"),
            "semigroups.validate_s": self_of("semigroups.from_cayley_table",
                                             "semigroups.from_json_dict"),
            "semigroups.assoc_triples": total("assoc_triples"),
            "semigroups.involution_s": self_of("semigroups.check_involution"),
            "green.s": layer_self("green"),
            "green.calls": sum(v for n, v in self.calls.items()
                               if n.startswith("green.")),
            "pig.s": layer_self("pig"),
            "pig.graph_builds": sum(self.calls[n] for n in GRAPH_BUILDERS),
            "pig.quotient_s": self_of("pig.s_left_pig", "pig.s_right_pig"),
            "pig.edges_built": total("edges"),
            "graphs.s": layer_self("graphs"),
            "graphs.construct_s": self_of("graphs.Graph.__post_init__",
                                          "graphs.from_edges"),
            "graphs.constructions": self.calls["graphs.Graph.__post_init__"],
            "graphs.iso_s": self_of("graphs.verify_isomorphism",
                                    "graphs.are_isomorphic"),
            "graphs.iso_pairs": total("pairs"),
            "graphs.serialize_s": self_of("graphs.to_json_dict",
                                          "graphs.to_dot",
                                          "graphs.to_edge_list",
                                          "graphs.from_json_dict"),
            "skeletal.s": layer_self("skeletal"),
            "skeletal.verify_calls": self.calls["skeletal.verify_skeletal"],
            "skeletal.brute_partitions": self.nested[
                "skeletal.brute_force_has_proper_skeletal",
                "skeletal.quotient_by_partition"],
            "spectral.s": layer_self("spectral"),
            "spectral.rank_calls": self.calls["spectral.integer_rank"],
            "spectral.rank_work": total("work"),
            "verify.s": layer_self("verify"),
            "cli.s": layer_self("cli"),
        }

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "sizes"],
                       "names": names,
                       "spans": [[ids[n], p, s, e, z]
                                 for n, p, s, e, z in self.spans]}, fh)
