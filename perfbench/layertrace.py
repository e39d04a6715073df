"""Per-layer tracing by wrapping module attributes of the scentgen package.

A `Tracer` replaces selected public functions with timing wrappers, keeps every
span (id, name, start, end, parent, op id, phase) and a few counters in memory,
and restores the original attributes on `uninstall`.  The program itself is not
changed: a span is taken around every call that goes through the module
attribute, including calls a module makes to its own functions by global name.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from typing import Callable

# Wrapped with a span, per module.
TRACED_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "numcore": ("backward", "adam_step", "load_checkpoint"),
    "egnn": ("egnn_forward", "fully_connected_edges"),
    "diffusion": ("train", "denoiser_forward"),
    "generator": ("sample", "propose_edges", "assign_bond_types", "finalize"),
    "dataio": ("load_csv", "load_corpus", "embed_coordinates"),
    "smiles": ("parse", "write", "canonicalize"),
    "chemrules": ("sanitize", "valence_check", "aromaticity_and_charge_check", "kekule_assignment_exists"),
    "sensorselect": ("exact_cover", "greedy_cover", "subtractive_prune"),
}

Span = tuple  # (id, name, start, end, parent id or -1, op id, phase)


class Tracer:
    """Collects spans and counters while installed; `phase` labels each span."""

    def __init__(self, modules: dict[str, object]):
        self.modules = modules
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phase = "setup"
        self.op_id = 0
        self._stack: list[int] = []
        self._forward_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        for module_name, attrs in TRACED_FUNCTIONS.items():
            module = self.modules[module_name]
            for attr in attrs:
                self._replace(module, attr, self._span_wrapper(f"{module_name}.{attr}", getattr(module, attr)))
        tensor_cls = self.modules["numcore"].Tensor
        self._replace(tensor_cls, "__init__", self._tensor_init_wrapper(tensor_cls.__init__))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _replace(self, owner: object, attr: str, wrapper: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        is_forward = name == "diffusion.denoiser_forward"
        is_backward = name == "numcore.backward"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_backward:  # counted before the span starts, so it costs the span nothing
                tracer.counts[f"{tracer.phase}:tape_tensors"] += tape_size(args[0])
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(span_id)
            if is_forward:
                tracer._forward_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if is_forward:
                    tracer._forward_depth -= 1
                tracer._stack.pop()
                tracer.spans[span_id] = (span_id, name, start, end, parent, tracer.op_id, tracer.phase)

        return wrapper

    def _tensor_init_wrapper(self, init: Callable) -> Callable:
        tracer = self

        @functools.wraps(init)
        def wrapper(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            if tracer._forward_depth:
                tracer.counts[f"{tracer.phase}:forward_tensors"] += 1
                tracer.counts[f"{tracer.phase}:forward_tensor_bytes"] += tensor.data.nbytes

        return wrapper

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op_id, phase in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id, "phase": phase}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def tape_size(loss) -> int:
    """Tensors reachable from the loss: the nodes `backward` visits."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class SpanStats:
    """Durations and self times of the spans of one phase, by name."""

    def __init__(self, spans: list[Span], phases: tuple[str, ...]):
        chosen = [s for s in spans if s[6] in phases]
        child_time: dict[int, float] = defaultdict(float)
        for s in chosen:
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_times: dict[str, list[float]] = defaultdict(list)
        ids = {s[0] for s in chosen}
        self.top_level = 0.0
        for s in chosen:
            duration = s[3] - s[2]
            self.durations[s[1]].append(duration)
            self.self_times[s[1]].append(duration - child_time[s[0]])
            if s[4] not in ids:
                self.top_level += duration

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def median_ms(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) * 1e3 if values else 0.0

    def median_self_ms(self, name: str) -> float:
        values = self.self_times.get(name)
        return statistics.median(values) * 1e3 if values else 0.0

    def self_share_by_layer(self, loop_seconds: float) -> dict[str, float]:
        """Share of the loop's busy time spent in each layer's own code.

        The remainder, `untraced`, is time inside the timed operations that no
        wrapped function covers (the rest of the package plus the wrappers).
        """
        by_layer: dict[str, float] = defaultdict(float)
        for name, values in self.self_times.items():
            by_layer[name.split(".")[0]] += sum(values)
        total = max(loop_seconds, 1e-12)
        shares = {layer: t / total for layer, t in sorted(by_layer.items())}
        shares["untraced"] = max(loop_seconds - self.top_level, 0.0) / total
        return shares


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from a finished traced run.

    Loop metrics use only spans of the timed loop; set-up metrics only spans
    of set-up.  A layer the workload never calls reports 0.  `extra` carries
    what the workload knows and the spans do not: the checkpoint size and the
    sample yield.
    """
    loop = SpanStats(tracer.spans, ("loop",))
    setup = SpanStats(tracer.spans, ("setup",))
    # generate and train solve the bundled scenario after their loop
    cover = SpanStats(tracer.spans, ("loop", "cover"))
    molecules = loop.calls("generator.sample")
    forwards = loop.calls("diffusion.denoiser_forward")
    values = {
        "diffusion.denoiser_forward_ms": loop.median_ms("diffusion.denoiser_forward"),
        "diffusion.denoiser_calls_per_mol": _ratio(forwards, molecules),
        "egnn.egnn_forward_ms": loop.median_ms("egnn.egnn_forward"),
        "egnn.fully_connected_edges_ms": loop.median_ms("egnn.fully_connected_edges"),
        "egnn.edge_builds_per_mol": _ratio(loop.calls("egnn.fully_connected_edges"), molecules),
        "numcore.tensors_per_forward": _ratio(tracer.counts["loop:forward_tensors"], forwards),
        "numcore.tensor_bytes_per_forward": _ratio(tracer.counts["loop:forward_tensor_bytes"], forwards),
        "numcore.tape_tensors_per_step": _ratio(tracer.counts["loop:tape_tensors"], loop.calls("numcore.backward")),
        "numcore.backward_ms": loop.median_ms("numcore.backward"),
        "numcore.adam_step_ms": loop.median_ms("numcore.adam_step"),
        "numcore.load_checkpoint_ms": setup.median_ms("numcore.load_checkpoint"),
        "numcore.checkpoint_bytes": extra.get("checkpoint_bytes", 0),
        "generator.sample_self_ms": loop.median_self_ms("generator.sample"),
        "generator.propose_edges_ms": loop.median_ms("generator.propose_edges"),
        "generator.assign_bond_types_ms": loop.median_ms("generator.assign_bond_types"),
        "generator.finalize_ms": loop.median_ms("generator.finalize"),
        "generator.valid_per_sample": extra.get("valid_per_sample", 0.0),
        "generator.multiatom_valid_per_sample": extra.get("multiatom_valid_per_sample", 0.0),
        "dataio.load_csv_s": setup.median_ms("dataio.load_csv") / 1e3,
        "dataio.embed_coordinates_ms": setup.median_ms("dataio.embed_coordinates"),
        "dataio.load_corpus_ms": setup.median_ms("dataio.load_corpus"),
        "smiles.parse_ms": loop.median_ms("smiles.parse"),
        "smiles.canonicalize_ms": loop.median_ms("smiles.canonicalize"),
        "smiles.write_calls_per_canonicalize": _ratio(loop.calls("smiles.write"), loop.calls("smiles.canonicalize")),
        "chemrules.sanitize_ms": loop.median_ms("chemrules.sanitize"),
        "chemrules.valence_check_ms": loop.median_ms("chemrules.valence_check"),
        "chemrules.aromaticity_and_charge_check_ms": loop.median_ms("chemrules.aromaticity_and_charge_check"),
        "chemrules.kekule_assignment_exists_ms": loop.median_ms("chemrules.kekule_assignment_exists"),
        "sensorselect.exact_cover_ms": cover.median_ms("sensorselect.exact_cover"),
        "sensorselect.greedy_cover_ms": cover.median_ms("sensorselect.greedy_cover"),
        "sensorselect.subtractive_prune_ms": cover.median_ms("sensorselect.subtractive_prune"),
    }
    return values
