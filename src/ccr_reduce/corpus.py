"""Deterministic test corpora of Gaussian packet fields."""

from __future__ import annotations

import json
from pathlib import Path
import numpy as np

from .modes import FieldVector, GaussianPacket, field_from_json, field_to_json

MAX_CORPUS_SIZE = 64


def generate_corpus(seed: int, size: int, mass: float = 0.0, s0: bool = False) -> dict:
    """Pseudo-random packet fields with frozen layout.

    Centers are uniform in [-3, 3]^3 and widths in [0.3, 1.5].  With s0 each
    field is the antisymmetrized pair across k_x -> -k_x, which kills the
    amplitude on the whole k_x = 0 plane and hence puts the field in the
    zero-mode-free subspace; |center_x| is kept away from zero so the pair
    does not cancel.
    """
    if size < 0 or size > MAX_CORPUS_SIZE:
        raise ValueError(f"corpus size must be between 0 and {MAX_CORPUS_SIZE}")
    rng = np.random.default_rng(int(seed))
    fields = []
    for _ in range(size):
        center = rng.uniform(-3.0, 3.0, size=3)
        if s0 and abs(center[0]) < 0.4:
            center[0] = 0.4 * np.sign(center[0]) if center[0] != 0.0 else 0.4
        width = rng.uniform(0.3, 1.5, size=3)
        coeff = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        packet = GaussianPacket(center, width, coeff)
        if s0:
            mirror = GaussianPacket(center * np.array([-1.0, 1.0, 1.0]), width, -coeff)
            field = FieldVector(mass, (packet, mirror))
        else:
            field = FieldVector(mass, (packet,))
        fields.append(field_to_json(field))
    return {
        "seed": int(seed),
        "size": int(size),
        "mass": float(mass),
        "s0": bool(s0),
        "fields": fields,
    }


def dump_corpus(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def load_corpus(source) -> list:
    """Load a corpus document (dict, JSON path, or the bundled 6-packet set).

    A document of the wrong shape raises ValueError naming the bad field.
    """
    if isinstance(source, dict):
        doc = source
    elif source == "bundled":
        doc = json.loads(bundled_corpus_text())
    else:
        doc = json.loads(Path(source).read_text())
    if not isinstance(doc, dict) or not isinstance(doc.get("fields"), list):
        raise ValueError('a corpus must be a JSON object with a "fields" list')
    fields = []
    for i, fd in enumerate(doc["fields"]):
        try:
            fields.append(field_from_json(fd))
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed corpus field {i}: {exc!r}") from exc
    return fields


def bundled_corpus_text() -> str:
    from importlib import resources

    return resources.files("ccr_reduce").joinpath("data/corpus6.json").read_text()
