"""On-disk formats: VG1 volumes and VA1 annotation files.

VG1 is a JSON header next to a raw little-endian float32 blob in x-fastest
(Fortran) order: byte ``4*k`` holds voxel ``(k % nx, (k // nx) % ny,
k // (nx*ny))``.  Rasters keep that order in memory: ``read_vg1`` returns
a read-only Fortran-ordered map of the blob's file (one file descriptor while
it is alive), and ``write_vg1`` writes a Fortran-ordered float32 raster
without copying it, replacing a blob, never rewriting it in place.  The header is::

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
import os
from pathlib import Path

import numpy as np

from .core import Volume3D, finite_numbers
from .genant import KEYPOINT_KEYS, VertebraKeypoints

FINITE_CHUNK = 1 << 22  # elements per finiteness pass of read_vg1: a 4 MiB mask at any size


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
    """Write a VG1 header and its raw data file; the file is replaced, never rewritten."""
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
    # It goes to a temporary sibling, so a raster mapped from the old file keeps its values.
    tmp = path.with_name(data_name + ".tmp")
    try:
        tmp.write_bytes(np.ascontiguousarray(vol.values.T, dtype="<f4").data)
        os.replace(tmp, path.with_name(data_name))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    write_json(path, header)
    return path


def read_vg1(path) -> Volume3D:
    """Read a VG1 volume; validates the header, the blob size and finiteness.

    ``values`` maps the data file read-only, holding one file descriptor while alive."""
    path = Path(path)
    header = read_json(path)
    for key in ("shape", "spacing", "origin", "dtype", "data"):
        if key not in header:
            raise FormatError(f"{path}: missing '{key}'")
    if header["dtype"] != "f32":
        raise FormatError(f"{path}: unsupported dtype {header['dtype']!r}")
    try:
        shape = finite_numbers(header["shape"], "shape", (3,), integer=True, domain="> 0")
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not isinstance(header["data"], str):
        raise FormatError(f"{path}: 'data' must be a file name, got {header['data']!r}")
    data_path = path.parent / header["data"]
    if not data_path.is_file():
        raise FormatError(f"{path}: data file not found: {data_path}")
    if (size := data_path.stat().st_size) != 4 * math.prod(shape):
        raise FormatError(f"{path}: data size {size} bytes does not match shape {shape}")
    raw = np.memmap(data_path, "<f4", mode="r")  # read-only, so Volume3D adopts it
    if not all(np.isfinite(raw[i:i + FINITE_CHUNK]).all()
               for i in range(0, raw.size, FINITE_CHUNK)):
        raise FormatError(f"{path}: data holds NaN or infinite values")
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
            "keypoints_mm": dict(zip(KEYPOINT_KEYS, kps.as_array().tolist())),
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
