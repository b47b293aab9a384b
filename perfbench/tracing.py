"""Spans around finsite's public functions, recorded from outside.

The tracer replaces each listed function in every ``finsite.*`` module that
binds it (``from .presheaf import sheafify`` copies the binding, so patching
the defining module alone would miss calls made through the copy).
Methods are replaced on their class.  Spans stay in memory as
``[name, start, end, parent, item]`` rows; per-layer figures are computed
from the span tree when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS_FILE = Path(__file__).resolve().parent / "layers.json"
ITEM = "item"


def load_layers() -> dict:
    return json.loads(LAYERS_FILE.read_text(encoding="utf-8"))["layers"]


def _count_families(result) -> dict:
    return {"families": len(result)}


def _count_plus(result) -> dict:
    return {
        "pairs": sum(len(v) for v in result.pairs.values()),
        "classes": sum(len(v) for v in result.presheaf.sets.values()),
    }


def _count_carrier(result) -> dict:
    return {"carrier_elems": sum(len(v) for v in result.carrier.sets.values())}


def _count_members(result) -> dict:
    return {"members": result.order}


# Counts read off each layer's return value, at the span boundary.
COUNTERS = {
    "presheaf.matching_families": _count_families,
    "presheaf.build_plus": _count_plus,
    "freeext.free_extension": _count_carrier,
    "isotropy.isotropy_group": _count_members,
}


class Tracer:
    def __init__(self, layers: dict):
        self.layers = layers
        self.layer_names = list(layers)
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._item = None

    def install(self) -> None:
        """Wrap every layer in the currently imported finsite modules."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "finsite" or name.startswith("finsite."))
        ]
        for layer in self.layer_names:
            module_name, *path = layer.split(".")
            owner = sys.modules[f"finsite.{module_name}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapped = self._wrap(layer, original, COUNTERS.get(layer))
            if len(path) > 1:
                setattr(owner, path[-1], wrapped)
                continue
            bound = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        bound += 1
            if not bound:
                raise RuntimeError(f"layer {layer} is bound nowhere")

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            row = [name, clock(), 0.0, stack[-1] if stack else -1, self._item]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if counter is not None:
                self.counts.update(
                    {f"{name}.{k}": v for k, v in counter(result).items()}
                )
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def item(self, key: str):
        """Root span for one item; every layer span inside carries its key."""
        row = [ITEM, 0.0, 0.0, -1, key]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        self._item = key
        row[1] = time.perf_counter()
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()
            self._item = None

    def calls(self) -> dict[str, int]:
        counts = Counter(row[0] for row in self.spans)
        return {layer: counts[layer] for layer in self.layer_names}

    def metrics(self) -> dict[str, float]:
        """calls, inclusive seconds and self seconds per layer, plus counts.

        Inclusive time counts only the outermost span of a name, so a layer
        that reaches itself is not counted twice; self time is a span's
        duration minus the durations of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += (end - start) - child_time[i]
            if not self._inside_same(i):
                total[name] += end - start
        out: dict[str, float] = {}
        for layer in self.layer_names:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.s"] = float(total[layer])
            out[f"{layer}.self_s"] = float(own[layer])
            for count in self.layers[layer]["counts"]:
                out[f"{layer}.{count}"] = self.counts[f"{layer}.{count}"]
        pairs = self.counts["presheaf.build_plus.pairs"]
        classes = self.counts["presheaf.build_plus.classes"]
        out["presheaf.build_plus.classes_per_pair"] = classes / pairs if pairs else 0.0
        return out

    def _inside_same(self, i: int) -> bool:
        name = self.spans[i][0]
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def nesting_errors(self) -> list[str]:
        """Spans that do not lie inside their parent or change item."""
        errors = []
        for i, (name, start, end, parent, item) in enumerate(self.spans):
            if end < start:
                errors.append(f"span {i} {name} ends before it starts")
            if parent < 0:
                if name != ITEM:
                    errors.append(f"span {i} {name} has no item")
                continue
            p = self.spans[parent]
            if not (p[1] <= start and end <= p[2]):
                errors.append(f"span {i} {name} lies outside its parent {p[0]}")
            if p[4] != item:
                errors.append(f"span {i} {name} changes item inside {p[0]}")
        return errors

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"fields": ["name", "start", "end", "parent", "item"], "spans": [\n')
            handle.write(",\n".join(json.dumps(row) for row in self.spans))
            handle.write("\n]}\n")
