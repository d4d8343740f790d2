"""Per-layer tracing from outside the program.

Wraps the public functions of each infoalign module at the name its caller
looks it up by, and records for every layer its self time (the wrapped call's
duration minus the wrapped calls nested inside it), its call count, and the
work counts read from the call's arguments and result. Spans stay in memory;
`snapshot()` returns the totals so far and `delta()` the totals since one.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter


def _walk_counts(_args, _kwargs, walks):
    return {"walker.steps": sum(len(w.edge_weights) for w in walks),
            "walker.truncated": sum(1 for w in walks if w.truncated)}


def _similarity_counts(args, kwargs, added):
    graph, kind = args[0], (args[1] if len(args) > 1 else kwargs["kind"])
    n = sum(1 for nid in graph.node_ids()
            if graph.node(nid).kind is kind and graph.node(nid).modality_dim > 0)
    return {"ctxgraph.similarity_pairs": n * (n - 1) // 2, "ctxgraph.similarity_edges": added}


def _prop1_counts(_args, _kwargs, report):
    return {"mibounds.entries": len(report["entries"])}


# (module, attribute path, layer, count hook, opaque). An opaque layer keeps the
# time of wrapped calls nested in it: the probe's own autodiff steps belong to
# evalkit.probe, not to diffcore.
WRAPS = [
    ("infoalign.cli", "parse_smiles", "molparse.parse", None, False),
    ("infoalign.ctxgraph", "parse_smiles", "molparse.parse", None, False),
    ("infoalign.ctxgraph", "morgan_fingerprint", "fingerprint.morgan", None, False),
    ("infoalign.ctxgraph", "load_node_table", "ctxgraph.tables", None, False),
    ("infoalign.ctxgraph", "load_edge_table", "ctxgraph.tables", None, False),
    ("infoalign.ctxgraph", "ContextGraph.build_similarity_edges", "ctxgraph.similarity",
     _similarity_counts, False),
    ("infoalign.ctxgraph", "ContextGraph.finalize", "ctxgraph.finalize", None, False),
    ("infoalign.ctxgraph", "ContextGraph.load", "ctxgraph.load", None, False),
    ("infoalign.ctxgraph", "ContextGraph.save", "ctxgraph.save", None, False),
    ("infoalign.cli", "batch_walks", "walker.walks", _walk_counts, False),
    ("infoalign.model", "batch_walks", "walker.walks", _walk_counts, False),
    ("infoalign.model", "gin_encode", "model.encode", None, False),
    ("infoalign.evalkit", "gin_encode", "model.encode", None, False),
    ("infoalign.model", "decode_nll", "model.decode", None, False),
    ("infoalign.model", "infoalign_loss", "model.loss", None, False),
    ("infoalign.diffcore", "Tensor.backward", "diffcore.backward", None, False),
    ("infoalign.diffcore", "ParamStore.accumulate", "diffcore.accumulate", None, False),
    ("infoalign.diffcore", "adam_step", "diffcore.adam", None, False),
    ("infoalign.diffcore", "save_params", "diffcore.checkpoint_save", None, False),
    ("infoalign.diffcore", "load_params", "diffcore.checkpoint_load", None, False),
    ("infoalign.cli", "match_zero_shot", "evalkit.match", None, False),
    ("infoalign.cli", "probe_train", "evalkit.probe", None, True),
    ("infoalign.cli", "probe_eval", "evalkit.probe", None, True),
    ("infoalign.mibounds", "prop1_report", "mibounds.prop1", _prop1_counts, False),
    ("infoalign.synth", "generate", "synth.generate", None, False),
    ("infoalign.synth", "write_tables", "synth.generate", None, False),
]


class Tracer:
    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # per open span: time spent in wrapped children
        self._opaque = 0
        self._saved = []

    def _wrap(self, fn, layer, hook, opaque):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            tracer._stack.append(0.0)
            tracer._opaque += opaque
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer._opaque -= opaque
                children = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += dur
                tracer.self_s[layer] += dur - children
                tracer.calls[layer] += 1
            if hook is not None:
                tracer.counts.update(hook(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, path, layer, hook, opaque in WRAPS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, layer, hook, opaque))
            else:
                new = self._wrap(raw, layer, hook, opaque)
            setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def snapshot(self) -> dict:
        snap = {f"{layer}_s": v for layer, v in self.self_s.items()}
        snap.update({f"{layer}.calls": v for layer, v in self.calls.items()})
        snap.update(self.counts)
        return snap

    def delta(self, before: dict) -> dict:
        """Totals accumulated since `before` was taken."""
        return {k: v - before.get(k, 0) for k, v in self.snapshot().items()}
