"""Bitwise-exact, JSON-safe encoding of engine state snapshots.

The durable checkpoint format inherits the contract of
:meth:`~repro.core.manager.FleetEngine.state_snapshot` /
:meth:`~repro.core.manager.FleetEngine.restore_state`: restoring must
resume the run with *bit-identical* continuation.  That rules out any
lossy serialization of floats, so numpy arrays travel as raw
``tobytes()`` payloads (base64-wrapped for JSON), tagged with dtype and
shape; Python floats survive ``json`` round-trips exactly by the
shortest-repr guarantee, including NaN and the infinities.  A fleet
snapshot is dense — ``x (N, dim_x_max)``, ``P (N, dim_x_max,
dim_x_max)`` and five ``(N,)`` accounting vectors — so a checkpoint
carries seven tagged arrays whatever the fleet size.

Only plain state shapes are accepted — dicts with string keys, lists and
tuples, numpy arrays and scalars, ``bool``/``int``/``float``/``str`` and
``None`` — because a closed vocabulary is what makes a decoded payload
safe to validate before it ever touches a live engine.  Tuples decode as
lists (JSON has no tuple); a fleet engine refuses a list where its
state holds one dense array.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from repro.errors import CheckpointError

__all__ = ["encode_state", "decode_state", "dumps_payload", "loads_payload"]

#: Tag key marking an encoded numpy array; chosen to be implausible as a
#: real state-dict key so plain dicts can never be mistaken for arrays.
_ND_TAG = "__ndarray__"


def encode_state(obj):
    """Recursively convert a state snapshot into JSON-serializable form.

    Idempotent on already-encoded data, so callers may freely nest
    pre-encoded fragments inside a larger payload.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {
            _ND_TAG: {
                "dtype": str(data.dtype),
                "shape": list(data.shape),
                "data": base64.b64encode(data.tobytes()).decode("ascii"),
            }
        }
    if isinstance(obj, np.generic):
        # Numpy scalars round-trip exactly through their Python analogue
        # (float64 -> float is the same IEEE value; ints are unbounded).
        return encode_state(obj.item())
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise CheckpointError(
                    f"state dict keys must be strings, got {key!r}"
                )
            out[key] = encode_state(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [encode_state(v) for v in obj]
    raise CheckpointError(
        f"cannot encode {type(obj).__name__!r} into a durable checkpoint"
    )


def decode_state(obj):
    """Invert :func:`encode_state`; arrays come back writable and owned."""
    if isinstance(obj, dict):
        if set(obj) == {_ND_TAG}:
            spec = obj[_ND_TAG]
            try:
                dtype = np.dtype(spec["dtype"])
                shape = tuple(int(s) for s in spec["shape"])
                raw = base64.b64decode(spec["data"], validate=True)
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(f"malformed array encoding: {exc}") from exc
            expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            if len(raw) != expected:
                raise CheckpointError(
                    f"array payload has {len(raw)} bytes, "
                    f"dtype/shape promise {expected}"
                )
            return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        return {key: decode_state(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [decode_state(v) for v in obj]
    return obj


def dumps_payload(payload: dict) -> bytes:
    """Canonical bytes of an (encoded) payload: sorted keys, no whitespace.

    Canonical form matters because the store checksums these bytes — the
    same state must always produce the same digest.
    """
    try:
        text = json.dumps(
            encode_state(payload), sort_keys=True, separators=(",", ":")
        )
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"payload is not serializable: {exc}") from exc
    return text.encode("utf-8")


def loads_payload(data: bytes) -> dict:
    """Parse and decode payload bytes written by :func:`dumps_payload`."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"payload bytes do not parse: {exc}") from exc
    if not isinstance(obj, dict):
        raise CheckpointError(
            f"payload root must be an object, got {type(obj).__name__}"
        )
    return decode_state(obj)
