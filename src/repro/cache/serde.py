"""Exact JSON serialization for cached artifacts.

A cache hit must be indistinguishable from a recomputation, so every
round-trip here is *exact*: the decoded object equals (and hashes equal
to) what the miss path would have built.  Three families are covered:

* a generic tagged codec (:func:`encode_obj` / :func:`decode_obj`) that
  preserves the ``tuple``/``list`` distinction, for nested-tuple keys
  and values;
* the dependence-analysis result types
  (:class:`~repro.depanalysis.pairs.AnalysisResult` with its
  :class:`~repro.depanalysis.pairs.DependenceInstance` tuple and stats);
* the symbolic building blocks (:class:`LinExpr` and the condition
  algebra including extensional :class:`PointSet`\\ s) that analysis keys
  and the symbolic analysis cache (:mod:`repro.symbolic.serde`) use.

Objects that cannot be represented exactly (e.g. an unknown condition
subclass) raise :class:`Unserializable`; callers treat that as "skip the
cache".
"""

from __future__ import annotations

from repro.depanalysis.pairs import AnalysisResult, DependenceInstance, PointSet
from repro.structures.conditions import (
    And,
    Condition,
    Eq,
    FALSE,
    Ne,
    Not,
    Or,
    TRUE,
    _False,
    _True,
)
from repro.structures.params import LinExpr

__all__ = [
    "Unserializable",
    "encode_obj",
    "decode_obj",
    "linexpr_to_payload",
    "linexpr_from_payload",
    "condition_to_payload",
    "condition_from_payload",
    "analysis_result_to_payload",
    "analysis_result_from_payload",
]


class Unserializable(TypeError):
    """The object has no exact JSON form; the caller must skip the cache."""


# ---------------------------------------------------------------------------
# Generic tagged codec (nested tuples, lists and dicts)
# ---------------------------------------------------------------------------

def encode_obj(value):
    """Encode ``None``/``bool``/``int``/``str`` and nested list/tuple/dict
    structures into JSON-safe form, keeping the tuple/list distinction."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, list):
        return {"l": [encode_obj(v) for v in value]}
    if isinstance(value, tuple):
        return {"t": [encode_obj(v) for v in value]}
    if isinstance(value, dict):
        return {
            "d": [[encode_obj(k), encode_obj(v)] for k, v in value.items()]
        }
    raise Unserializable(f"cannot encode {type(value).__name__} exactly")


def decode_obj(payload):
    """Inverse of :func:`encode_obj`."""
    if payload is None or isinstance(payload, (bool, int, str)):
        return payload
    if isinstance(payload, dict):
        if "l" in payload:
            return [decode_obj(v) for v in payload["l"]]
        if "t" in payload:
            return tuple(decode_obj(v) for v in payload["t"])
        if "d" in payload:
            return {decode_obj(k): decode_obj(v) for k, v in payload["d"]}
    raise Unserializable(f"malformed payload {payload!r}")


# ---------------------------------------------------------------------------
# Structure types
# ---------------------------------------------------------------------------

def linexpr_to_payload(expr: LinExpr) -> list:
    return [expr.const, [[name, c] for name, c in expr.coeffs]]


def linexpr_from_payload(payload) -> LinExpr:
    const, coeffs = payload
    return LinExpr(const, {name: c for name, c in coeffs})


def condition_to_payload(cond: Condition) -> list:
    if isinstance(cond, _True):
        return ["true"]
    if isinstance(cond, _False):
        return ["false"]
    if isinstance(cond, Eq):
        return ["eq", cond.axis, linexpr_to_payload(cond.value)]
    if isinstance(cond, Ne):
        return ["ne", cond.axis, linexpr_to_payload(cond.value)]
    if isinstance(cond, And):
        return ["and", [condition_to_payload(t) for t in cond.terms]]
    if isinstance(cond, Or):
        return ["or", [condition_to_payload(t) for t in cond.terms]]
    if isinstance(cond, Not):
        return ["not", condition_to_payload(cond.term)]
    if isinstance(cond, PointSet):
        return ["points", sorted(list(pt) for pt in cond.points), cond.offset]
    raise Unserializable(f"cannot encode condition {type(cond).__name__}")


def condition_from_payload(payload) -> Condition:
    tag = payload[0]
    if tag == "true":
        return TRUE
    if tag == "false":
        return FALSE
    if tag == "eq":
        return Eq(payload[1], linexpr_from_payload(payload[2]))
    if tag == "ne":
        return Ne(payload[1], linexpr_from_payload(payload[2]))
    if tag == "and":
        return And(*(condition_from_payload(t) for t in payload[1]))
    if tag == "or":
        return Or(*(condition_from_payload(t) for t in payload[1]))
    if tag == "not":
        return Not(condition_from_payload(payload[1]))
    if tag == "points":
        return PointSet(payload[1], offset=payload[2])
    raise Unserializable(f"unknown condition tag {tag!r}")


# ---------------------------------------------------------------------------
# Analysis results
# ---------------------------------------------------------------------------

def analysis_result_to_payload(result: AnalysisResult) -> dict:
    return {
        "instances": [
            [list(i.sink), list(i.vector), i.variable, i.kind]
            for i in result.instances
        ],
        "stats": dict(result.stats),
    }


def analysis_result_from_payload(payload) -> AnalysisResult:
    instances = [
        DependenceInstance(sink, vector, variable, kind)
        for sink, vector, variable, kind in payload["instances"]
    ]
    return AnalysisResult(instances, dict(payload["stats"]))
