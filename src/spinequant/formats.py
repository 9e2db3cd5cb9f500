"""On-disk formats: VG1 volumes and VA1 annotation files.

VG1 is a JSON header next to a raw little-endian float32 blob in x-fastest
(Fortran) order: byte ``4*k`` holds voxel ``(k % nx, (k // nx) % ny,
k // (nx*ny))``.  Rasters keep that order in memory: ``read_vg1`` returns
a read-only Fortran-ordered view of the blob it read, and ``write_vg1``
writes a Fortran-ordered float32 raster without copying it.  The header is::

    {"shape": [nx, ny, nz], "spacing": [sx, sy, sz],
     "origin": [ox, oy, oz], "dtype": "f32", "data": "<relative path>"}

VA1 is a JSON annotation file::

    {"vertebrae": [{"label": ..., "keypoints_mm":
        {"as": [x, y, z], "ai": ..., "ms": ..., "mi": ..., "ps": ..., "pi": ...}}]}

with all coordinates in world mm.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import Volume3D, finite_numbers
from .genant import KEYPOINT_KEYS, VertebraKeypoints


class FormatError(ValueError):
    """Malformed or inconsistent input file."""


def read_json(path: Path) -> dict:
    """Load a JSON object; an unreadable path, invalid JSON or a non-object raises FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def write_json(path, obj) -> None:
    """Deterministic JSON writer used for every emitted artifact.

    The text is built before the file opens, so a value JSON cannot hold
    (NaN, infinity, an unknown type) raises without leaving a truncated file.
    """
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_vg1(path, vol: Volume3D) -> Path:
    """Write a volume as a VG1 header plus its raw data file."""
    path = Path(path)
    data_name = path.name + ".raw"
    header = {
        "shape": list(vol.shape),
        "spacing": [float(s) for s in vol.spacing],
        "origin": [float(o) for o in vol.origin],
        "dtype": "f32",
        "data": data_name,
    }
    # values.T in C order is the x-fastest blob: no copy for Fortran-ordered float32.
    with open(path.with_name(data_name), "wb") as fh:
        fh.write(np.ascontiguousarray(vol.values.T, dtype="<f4").data)
    write_json(path, header)
    return path


def read_vg1(path) -> Volume3D:
    """Read a VG1 volume; validates the header, the blob size and finiteness."""
    path = Path(path)
    header = read_json(path)
    for key in ("shape", "spacing", "origin", "dtype", "data"):
        if key not in header:
            raise FormatError(f"{path}: missing '{key}'")
    if header["dtype"] != "f32":
        raise FormatError(f"{path}: unsupported dtype {header['dtype']!r}")
    try:
        shape = finite_numbers(header["shape"], "shape", (3,), integer=True)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if min(shape) <= 0:
        raise FormatError(f"{path}: shape must be positive, got {shape}")
    if not isinstance(header["data"], str):
        raise FormatError(f"{path}: 'data' must be a file name, got {header['data']!r}")
    data_path = path.parent / header["data"]
    if not data_path.is_file():
        raise FormatError(f"{path}: data file not found: {data_path}")
    raw = np.fromfile(data_path, dtype="<f4")
    if raw.size != math.prod(shape):
        raise FormatError(
            f"{path}: data size {raw.size} does not match shape {shape}")
    if not np.isfinite(raw).all():
        raise FormatError(f"{path}: data holds NaN or infinite values")
    raw.flags.writeable = False  # so Volume3D adopts the blob instead of copying it
    values = raw.reshape(shape, order="F")
    try:
        return Volume3D(values, header["spacing"], header["origin"])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_va1(path, vertebrae: list[VertebraKeypoints]) -> Path:
    """Write annotations as VA1."""
    path = Path(path)
    doc = {"vertebrae": [
        {
            "label": kps.label,
            "keypoints_mm": {
                key: [float(c) for c in pt]
                for key, pt in zip(KEYPOINT_KEYS, kps.as_array())
            },
        }
        for kps in vertebrae
    ]}
    write_json(path, doc)
    return path


def read_va1(path) -> list[VertebraKeypoints]:
    """Read a VA1 annotation file into keypoint sets."""
    path = Path(path)
    doc = read_json(path)
    if "vertebrae" not in doc or not isinstance(doc["vertebrae"], list):
        raise FormatError(f"{path}: missing 'vertebrae' list")
    out = []
    for i, entry in enumerate(doc["vertebrae"]):
        kp = entry.get("keypoints_mm") if isinstance(entry, dict) else None
        if not isinstance(kp, dict):
            raise FormatError(f"{path}: vertebra {i} lacks 'keypoints_mm'")
        try:
            pts = np.array([finite_numbers(kp[key], f"keypoint {key!r}", (3,))
                            for key in KEYPOINT_KEYS])
        except KeyError as exc:
            raise FormatError(f"{path}: vertebra {i} lacks keypoint {exc}") from exc
        except ValueError as exc:
            raise FormatError(f"{path}: vertebra {i}: {exc}") from exc
        if not isinstance(label := entry.get("label"), (str, type(None))):
            raise FormatError(f"{path}: vertebra {i}: 'label' must be a string or null")
        out.append(VertebraKeypoints(pts, label=label))
    return out
