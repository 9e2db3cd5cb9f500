import json
import struct

import numpy as np
import pytest

from spinequant.core import Volume3D
from spinequant.formats import (FormatError, read_va1, read_vg1, write_json, write_va1,
                                write_vg1)

from test_genant import make_keypoints


def test_vg1_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    vol = Volume3D(rng.normal(size=(5, 4, 3)).astype(np.float32),
                   (0.5, 0.5, 0.8), (1.0, -2.0, 3.5))
    path = write_vg1(tmp_path / "vol.vg1", vol)
    back = read_vg1(path)
    assert back.values.tobytes() == vol.values.tobytes()
    assert back.spacing == vol.spacing
    assert back.origin == vol.origin


def test_vg1_byte_layout_is_x_fastest(tmp_path):
    nx, ny, nz = 3, 4, 2
    values = np.zeros((nx, ny, nz), dtype=np.float32)
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                values[i, j, k] = i + 10 * j + 100 * k
    path = write_vg1(tmp_path / "vol.vg1", Volume3D(values, (1, 1, 1)))
    raw = (tmp_path / "vol.vg1.raw").read_bytes()
    assert len(raw) == nx * ny * nz * 4
    for flat in range(nx * ny * nz):
        i, j, k = flat % nx, (flat // nx) % ny, flat // (nx * ny)
        (v,) = struct.unpack_from("<f", raw, 4 * flat)
        assert v == values[i, j, k]
    header = json.loads(path.read_text())
    assert header["dtype"] == "f32"
    assert header["shape"] == [nx, ny, nz]


def test_vg1_blob_does_not_depend_on_memory_layout(tmp_path):
    values = np.random.default_rng(1).normal(size=(5, 4, 3)).astype(np.float32)
    padded = np.zeros((5, 4, 6), dtype=np.float32)
    padded[:, :, ::2] = values
    frozen = padded.copy()
    frozen.flags.writeable = False
    layouts = {"C": values, "Fortran": np.asfortranarray(values),
               "strided": padded[:, :, ::2], "read-only strided": frozen[:, :, ::2],
               "float64": values.astype(np.float64),
               "float64 Fortran": np.asfortranarray(values, dtype=np.float64)}
    want = values.tobytes(order="F")
    for name, array in layouts.items():
        write_vg1(tmp_path / "v.vg1", Volume3D(array, (1, 1, 1)))
        assert (tmp_path / "v.vg1.raw").read_bytes() == want, name


def test_vg1_reads_as_a_read_only_fortran_view_of_the_blob(tmp_path):
    values = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    back = read_vg1(write_vg1(tmp_path / "v.vg1", Volume3D(values, (1, 1, 1))))
    assert np.array_equal(back.values, values)
    assert back.values.flags.f_contiguous and not back.values.flags.writeable
    assert back.values.base is not None  # adopted, not copied, by Volume3D


def test_vg1_raster_maps_its_file(tmp_path):
    back = read_vg1(write_vg1(tmp_path / "v.vg1",
                              Volume3D(np.zeros((2, 3, 4), dtype=np.float32), (1, 1, 1))))
    with open(tmp_path / "v.vg1.raw", "r+b") as fh:
        fh.write(np.float32(5.0).tobytes())  # in place, as write_vg1 never writes
    assert back.values[0, 0, 0] == 5.0


def test_vg1_rewrite_leaves_a_mapped_raster_its_values(tmp_path):
    values = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    back = read_vg1(write_vg1(tmp_path / "v.vg1", Volume3D(values, (1, 1, 1))))
    write_vg1(tmp_path / "v.vg1", Volume3D(-values, (1, 1, 1)))
    assert np.array_equal(back.values, values)
    assert np.array_equal(read_vg1(tmp_path / "v.vg1").values, -values)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.vg1", "v.vg1.raw"]


def test_vg1_write_that_fails_leaves_no_temporary_file(tmp_path):
    (tmp_path / "v.vg1.raw").mkdir()  # a file cannot replace a directory
    with pytest.raises(OSError):
        write_vg1(tmp_path / "v.vg1", Volume3D(np.ones((3, 2, 2)), (1, 1, 1)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.vg1.raw"]


@pytest.mark.parametrize("edit", [lambda raw: raw + b"\0", lambda raw: raw[:-1], lambda raw: b""],
                         ids=["one trailing byte", "one byte short", "empty"])
def test_vg1_refuses_a_blob_not_exactly_its_shape(tmp_path, edit):
    path = write_vg1(tmp_path / "v.vg1", Volume3D(np.ones((3, 2, 2)), (1, 1, 1)))
    raw = tmp_path / "v.vg1.raw"
    raw.write_bytes(edit(raw.read_bytes()))
    with pytest.raises(FormatError, match="data size .* does not match shape"):
        read_vg1(path)


def test_vg1_write_is_deterministic(tmp_path):
    vol = Volume3D(np.arange(24, dtype=np.float32).reshape(2, 3, 4), (1, 2, 3))
    write_vg1(tmp_path / "a.vg1", vol)
    write_vg1(tmp_path / "b.vg1", vol)
    assert (tmp_path / "a.vg1").read_text() != ""
    assert (tmp_path / "a.vg1.raw").read_bytes() == (tmp_path / "b.vg1.raw").read_bytes()
    a = json.loads((tmp_path / "a.vg1").read_text())
    b = json.loads((tmp_path / "b.vg1").read_text())
    a.pop("data"), b.pop("data")
    assert a == b


def test_vg1_errors(tmp_path):
    with pytest.raises(FormatError):
        read_vg1(tmp_path / "missing.vg1")
    bad = tmp_path / "bad.vg1"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        read_vg1(bad)
    truncated = tmp_path / "trunc.vg1"
    vol = Volume3D(np.ones((2, 2, 2), dtype=np.float32), (1, 1, 1))
    write_vg1(truncated, vol)
    with open(tmp_path / "trunc.vg1.raw", "wb") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(FormatError):
        read_vg1(truncated)
    header = json.loads(truncated.read_text())
    del header["spacing"]
    truncated.write_text(json.dumps(header))
    with pytest.raises(FormatError):
        read_vg1(truncated)


@pytest.mark.parametrize("field, value", [
    ("spacing", [float("nan"), 1.0, 1.0]),
    ("spacing", [1.0, float("inf"), 1.0]),
    ("spacing", [1.0, 1.0, 1e308]),
    ("spacing", [True, 1.0, 1.0]),
    ("spacing", 5),
    ("spacing", "abc"),
    ("spacing", [1.0, 0.0, 1.0]),
    ("shape", [3, 0, 3]),
    ("shape", [3, 3, -1]),
    ("origin", [0.0, 0.0]),
    ("origin", [0.0, float("nan"), 0.0]),
    ("origin", [float("-inf"), 0.0, 0.0]),
    ("origin", [0.0, 0.0, None]),
])
def test_vg1_rejects_bad_geometry_naming_the_field(tmp_path, field, value):
    path = write_vg1(tmp_path / "v.vg1", Volume3D(np.ones((3, 3, 3)), (1, 1, 1)))
    header = json.loads(path.read_text())
    header[field] = value  # 1e308 is finite, but two such steps are not
    path.write_text(json.dumps(header))
    with pytest.raises(FormatError, match=field):
        read_vg1(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vg1_rejects_non_finite_data(tmp_path, bad):
    values = np.ones((3, 2, 2), dtype=np.float32)
    values[1, 0, 1] = bad
    write_vg1(tmp_path / "v.vg1", Volume3D(values, (1, 1, 1)))
    with pytest.raises(FormatError, match="NaN or infinite"):
        read_vg1(tmp_path / "v.vg1")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), object()])
def test_write_json_leaves_no_file_for_a_value_json_cannot_hold(tmp_path, bad):
    with pytest.raises((ValueError, TypeError)):
        write_json(tmp_path / "x.json", {"a": 1.0, "x": bad})
    assert not (tmp_path / "x.json").exists()


def test_va1_round_trip(tmp_path):
    vertebrae = [make_keypoints(18, 20, 20, center=(1, 2, 30)),
                 make_keypoints(20, 20, 20, center=(1, 2, 54))]
    object.__setattr__(vertebrae[0], "label", "T5")
    path = write_va1(tmp_path / "gt.va1", vertebrae)
    back = read_va1(path)
    assert len(back) == 2
    assert back[0].label == "T5"
    np.testing.assert_allclose(back[0].as_array(), vertebrae[0].as_array())
    np.testing.assert_allclose(back[1].as_array(), vertebrae[1].as_array())


def test_va1_errors(tmp_path):
    path = tmp_path / "bad.va1"
    path.write_text(json.dumps({"vertebrae": [{"keypoints_mm": {"as": [0, 0, 0]}}]}))
    with pytest.raises(FormatError):
        read_va1(path)
    path.write_text(json.dumps({"nope": []}))
    with pytest.raises(FormatError):
        read_va1(path)
