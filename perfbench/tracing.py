"""Per-layer tracing from outside the program.

`install` wraps otkit's public functions and rebinds each wrapper wherever a
module of the package looks the original up, so the program runs unchanged
and every call into a layer opens a span. A span is (name, start, end,
parent). Spans are kept in memory, up to a cap, and written out when the
run ends; calls, bytes, self time and total time are summed for every span
as it closes, so the per-layer metrics cover the whole run whatever the cap.

A layer's self time is its span's duration minus the time its child spans
cover. A call made while a span of the same name is open (read_uint calling
read_u32, say) belongs to that span and opens none of its own.
"""

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from otkit import groupmath, harness, numth, paillier, primitives, supersonic, wire
from otkit.rng import SeededSource

# Every message type the protocols send; a workload reports 0 for the ones
# it does not send.
MSG_TYPES = tuple(t.name for t in harness.MsgType)

# Protocol functions as the session engine calls them, by the role that
# runs them. Supersonic's are looked up on the supersonic module.
ROLES = {
    "receiver": (
        "np_gen_query", "np_retrieve", "dq_r_request", "dq_r_retrieve",
        "duq_r_request", "duq_r_retrieve", "duqmr_r_setup", "duqmr_r_retrieve",
        "kgen", "comp_gen_query", "comp_retrieve",
        "sup_setup", "sup_gen_query", "sup_retrieve",
    ),
    "sender": (
        "np_gen_res", "dq_s_gen_res", "dqmr_s_gen_res_multi", "duq_s_gen_res",
        "duqmr_s_gen_res_multi", "comp_gen_res", "sup_gen_res",
    ),
    "p1": ("dq_p1_gen_query", "dqmr_p1_filter", "duqmr_p1_filter"),
    "p2": ("dq_p2_gen_query",),
    "issuer": ("duq_t_request", "duqmr_t_setup"),
    "server": ("sup_obl_filter",),
}

ROOT = "harness"  # the span around one run_session call
PAILLIER_OPS = ("kgen", "enc", "dec", "hscale", "hadd")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in report order."""

    def calls_ms(span, with_bytes=False):
        return [(f"{span}.calls", "count")] + (
            [(f"{span}.bytes", "bytes")] if with_bytes else []
        ) + [(f"{span}.ms", "ms")]

    return (
        [("harness.self.ms", "ms")]
        + calls_ms("harness.envelope")
        + calls_ms("wire.codec")
        + [(f"wire.bytes.{t}", "bytes") for t in MSG_TYPES]
        + calls_ms("groupmath.modexp_g")
        + calls_ms("groupmath.modexp_other")
        + calls_ms("groupmath.elem_div")
        + [("groupmath.gen_group.ms", "ms")]
        + calls_ms("groupmath.in_subgroup")
        + calls_ms("numth.powmod")
        + calls_ms("numth.prime_candidates")
        + [("numth.gen_prime.calls", "count")]
        + [m for op in PAILLIER_OPS for m in calls_ms(f"paillier.{op}")]
        + calls_ms("primitives.hash", with_bytes=True)
        + calls_ms("primitives.xor_bytes", with_bytes=True)
        + calls_ms("rng.randbytes", with_bytes=True)
        + [(f"role.{role}.ms", "ms") for role in ROLES]
    )


class Tracer:
    def __init__(self, keep_spans: int):
        self.keep_spans = keep_spans
        self.spans: list[tuple[str, int, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.nbytes: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self._open: list[list] = []  # [name, start, child_ns, span index]

    def call(self, name: str, fn, args, kwargs, count_bytes: bool = False):
        stack = self._open
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        parent = stack[-1][3] if stack else -1
        index = len(self.spans)
        if index < self.keep_spans:
            self.spans.append((name, 0, 0, parent))
        else:
            index = -1
        frame = [name, 0, 0, index]
        stack.append(frame)
        start = frame[1] = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.self_ns[name] += duration - frame[2]
            self.total_ns[name] += duration
            if stack:
                stack[-1][2] += duration
            if index >= 0:
                self.spans[index] = (name, start, end, parent)
        if count_bytes:
            self.nbytes[name] += len(out)
        return out

    def wrap(self, name, fn, count_bytes: bool = False):
        """fn traced under name; name may be a function of fn's arguments."""
        pick = name if callable(name) else None

        def traced(*args, **kwargs):
            span = pick(*args, **kwargs) if pick else name
            return self.call(span, fn, args, kwargs, count_bytes)

        return traced

    def metrics(self, sessions: int, wire_by_type: dict[str, int]) -> dict:
        """Every per-layer metric, per session."""
        def value(metric):
            span, _, kind = metric.rpartition(".")
            if span == "wire.bytes":
                return wire_by_type.get(kind, 0)
            if kind == "calls":
                return self.calls[span]
            if kind == "bytes":
                return self.nbytes[span]
            if span == "harness.self":
                return self.self_ns[ROOT] * 1e-6
            if span.startswith("role."):
                return self.total_ns[span] * 1e-6
            return self.self_ns[span] * 1e-6

        return {
            name: {"value": value(name) / sessions, "unit": unit}
            for name, unit in per_layer_names()
        }

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "spans": self.spans,
                    "dropped": sum(self.calls.values()) - len(self.spans),
                },
                f,
            )


def _modexp_kind(base, e, params):
    return "groupmath.modexp_g" if base == params.g else "groupmath.modexp_other"


def _otkit_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "otkit"]


@contextmanager
def install(tracer: Tracer):
    """Trace every layer while the block runs; restore the originals after."""
    undo = []

    def rebind(original, wrapper):
        for module in _otkit_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def rebind_method(cls, attr, name, count_bytes=False):
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(name, original, count_bytes))

    layers = [
        (harness.encode_envelope, "harness.envelope"),
        (harness.decode_envelope, "harness.envelope"),
        (wire.encode_uint, "wire.codec"),
        (wire.encode_bytes, "wire.codec"),
        (groupmath.modexp, _modexp_kind),
        (groupmath.elem_div, "groupmath.elem_div"),
        (groupmath.gen_group, "groupmath.gen_group"),
        (groupmath.in_subgroup, "groupmath.in_subgroup"),
        (numth.powmod, "numth.powmod"),
        (numth.is_probable_prime, "numth.prime_candidates"),
        (numth.gen_prime, "numth.gen_prime"),
    ] + [(getattr(paillier, op), f"paillier.{op}") for op in PAILLIER_OPS]
    try:
        for fn, name in layers:
            rebind(fn, tracer.wrap(name, fn))
        for fn, name in (
            (primitives.hash_H, "primitives.hash"),
            (primitives.hash_G, "primitives.hash"),
            (primitives.xor_bytes, "primitives.xor_bytes"),
        ):
            rebind(fn, tracer.wrap(name, fn, count_bytes=True))
        for attr in ("read_byte", "read_u32", "read_uint", "read_bytes"):
            rebind_method(wire.Reader, attr, "wire.codec")
        rebind_method(SeededSource, "randbytes", "rng.randbytes", count_bytes=True)
        # Roles last, so each role span wraps the layer wrappers beneath it.
        for role, functions in ROLES.items():
            for attr in functions:
                owner = harness if attr in vars(harness) else supersonic
                original = getattr(owner, attr)
                undo.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(f"role.{role}", original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
