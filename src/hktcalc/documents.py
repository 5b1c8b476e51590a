"""Typed input documents and deterministic reports for the CLI.

Documents are JSON with exact integer-pair rationals in every algebraic
payload; floats never cross the boundary into the exact core.  Reports are
deterministic given (input, seed): timings live in their own key so two
runs can be compared byte-for-byte after dropping it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Mapping

from .forms import BilinearForm, KForm
from .scalars import LongJsonInt, Polynomial, json_int, parse_json_int
from .structures import HypercomplexModel


class DocumentError(ValueError):
    """Malformed or inconsistent input document."""


VALID_KINDS = ("metric", "form", "potential", "conformal4d")

# The largest quaternionic dimension the exact engine accepts: the n = 3
# projector table builds in under a second, larger n are refused up front.
MAX_N = 3


@dataclass
class InputDocument:
    kind: str
    model: HypercomplexModel
    payload: object
    raw: dict

    @classmethod
    def from_json(cls, obj: Mapping) -> "InputDocument":
        if not isinstance(obj, Mapping):
            raise DocumentError("document must be a JSON object")
        kind = obj.get("kind")
        if kind not in VALID_KINDS:
            raise DocumentError(f"kind must be one of {VALID_KINDS}, got {kind!r}")
        model_spec = obj.get("model") or {}
        if not isinstance(model_spec, Mapping):
            raise DocumentError("model must be a JSON object")
        try:
            n = json_int(model_spec.get("n", 1), "model.n")
        except ValueError as exc:
            raise DocumentError(str(exc))
        if not 1 <= n <= MAX_N:
            raise DocumentError(f"model.n must be between 1 and {MAX_N}, got {n}")
        if model_spec.get("convention", "left") != "left":
            raise DocumentError("only the left-multiplication convention is supported")
        try:
            model = HypercomplexModel(n)
        except ValueError as exc:
            raise DocumentError(f"model: {exc}")
        payload = obj.get("payload")
        if payload is None:
            raise DocumentError("document has no payload")
        try:
            parsed = cls._parse_payload(kind, model, payload)
        except DocumentError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DocumentError(f"payload ({kind}): {exc}")
        return cls(kind, model, parsed, dict(obj))

    @staticmethod
    def _parse_payload(kind: str, model: HypercomplexModel, payload: Mapping):
        if kind == "metric":
            rows = payload["g"]
            entries = [[Polynomial.from_json(p) for p in row] for row in rows]
            tensor = BilinearForm(entries)
            if tensor.dim != model.dim:
                raise DocumentError(
                    f"metric is {tensor.dim}x{tensor.dim} but the model has dimension {model.dim}"
                )
            return tensor
        if kind == "form":
            form = KForm.from_json(payload["form"])
            if form.dim != model.dim:
                raise DocumentError("form dimension does not match the model")
            if form.degree != 2:
                raise DocumentError("form documents must carry a 2-form")
            return form
        if kind == "potential":
            mu = Polynomial.from_json(payload["mu"])
            if mu.dim != model.dim:
                raise DocumentError("potential dimension does not match the model")
            return mu
        # conformal4d
        if model.n != 1:
            raise DocumentError("conformal4d documents require n = 1")
        phi = Polynomial.from_json(payload["phi"])
        if phi.dim != 4:
            raise DocumentError("conformal factor must live on R^4")
        box = _box(payload.get("box", [-1.0, 1.0]))
        dirichlet = payload.get("dirichlet")
        if dirichlet is not None:
            dirichlet = Polynomial.from_json(dirichlet)
            if dirichlet.dim != 4:
                raise DocumentError("dirichlet data must live on R^4")
        return (phi, box, dirichlet)

    @classmethod
    def load(cls, path) -> "InputDocument":
        try:
            with open(path) as handle:
                obj = json.load(handle, parse_int=parse_json_int)
        except OSError as exc:
            raise DocumentError(f"cannot read {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise DocumentError(f"{path} is not valid JSON: {exc}")
        return cls.from_json(obj)

    def digest(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"), default=_long_int_text)
        return hashlib.sha256(canonical.encode()).hexdigest()


def _box(box) -> tuple[float, float]:
    """The conformal4d box [lo, hi] as floats: two finite JSON numbers
    (not bools, strings or over-long integers) with lo < hi."""
    if not isinstance(box, list) or len(box) != 2:
        raise DocumentError("box must be a list [lo, hi] of two numbers")
    ends = []
    for end in box:
        if isinstance(end, bool) or not isinstance(end, (int, float)):
            raise DocumentError(f"box entries must be finite JSON numbers, got {end!r}")
        try:
            value = float(end)
        except OverflowError:
            raise DocumentError("box entries must be finite JSON numbers, got an integer beyond the float range")
        if not math.isfinite(value):
            raise DocumentError(f"box entries must be finite JSON numbers, got {value!r}")
        ends.append(value)
    lo, hi = ends
    if not lo < hi:
        raise DocumentError(f"box must satisfy lo < hi, got [{lo!r}, {hi!r}]")
    return lo, hi


def _long_int_text(value):
    """Digest an over-long integer in a field no check reads by its digits."""
    if isinstance(value, LongJsonInt):
        return value.text
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


@dataclass
class CheckOutcome:
    """One named verification with its case count."""

    name: str
    ok: bool
    cases: int
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "cases": self.cases, "detail": self.detail}


@dataclass
class Report:
    command: str
    seed: int | None = None
    input_digest: str | None = None
    checks: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks) and all(bool(v) for v in self.verdicts.values())

    def first_failure(self) -> str | None:
        for c in self.checks:
            if not c.ok:
                return c.name
        for name, v in self.verdicts.items():
            if not v:
                return name
        return None

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            "input_digest": self.input_digest,
            "checks": [c.to_json() for c in self.checks],
            "verdicts": self.verdicts,
            "data": self.data,
            "warnings": self.warnings,
            "all_ok": self.all_ok,
            "timings": self.timings,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)

    def comparable(self) -> dict:
        """The deterministic part (everything except timings)."""
        out = self.to_json()
        out.pop("timings")
        return out
