"""On-disk formats: raw cube + JSON manifest, text label rasters, PGM maps,
trace CSVs, and flat key=value run configs.

All writers go through a temp-file-then-rename step so partially written
files are never observed.
"""

import dataclasses
import json
import math
import os
import tempfile
from io import StringIO

import numpy as np

from .classify import LabelField
from .cube import HsiCube
from .errors import CONFIG_NAMES, DegenerateInput, FormatError, NonFiniteData
from .pipeline import PipelineConfig
from .solver import DlrrParams
from .superpixel import SuperpixelPartition, first_appearance_ids

MANIFEST_KEYS = {"height", "width", "bands", "dtype", "layout", "data_path"}


def config_fields(cls):
    """{config key: field} for every int, float and str field of the
    dataclass cls, in field order."""
    fields = dataclasses.fields(cls)
    return {CONFIG_NAMES.get(f.name, f.name): f for f in fields if f.type in (int, float, str)}


# Each config key with its type: the input and output paths, then the
# scalar fields of the run's two dataclasses.
CONFIG_KEYS = {
    **dict.fromkeys(("cube", "labels", "partition", "out_dir"), str),
    **{k: f.type for c in (PipelineConfig, DlrrParams) for k, f in config_fields(c).items()},
}


def _atomic_write_bytes(path, payload):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path, text):
    _atomic_write_bytes(path, text.encode("utf-8"))


def _open_text(path):
    """The file as a UTF-8 text stream with universal newlines, as open()
    gives it; bytes that are not UTF-8 raise FormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def load_cube(manifest_path):
    """Read a cube described by a JSON manifest next to its raw payload.

    The payload is little-endian float32, band-sequential: band-major, then
    row-major within each band.  The cube holds it as read, in float32."""
    text = _open_text(manifest_path)
    try:
        manifest = json.load(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also over-long integers
        raise FormatError(f"{manifest_path}: invalid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or set(manifest) != MANIFEST_KEYS:
        raise FormatError(f"{manifest_path}: manifest must have keys {sorted(MANIFEST_KEYS)}")
    if manifest["dtype"] != "f32le":
        raise FormatError(f"{manifest_path}: unsupported dtype {manifest['dtype']!r}")
    if manifest["layout"] != "bsq":
        raise FormatError(f"{manifest_path}: unsupported layout {manifest['layout']!r}")
    h, w, b = manifest["height"], manifest["width"], manifest["bands"]
    if not all(type(v) is int for v in (h, w, b)):  # rejects 1.5 and true
        raise FormatError(f"{manifest_path}: non-integer dimensions")
    if h < 1 or w < 1 or b < 1:
        raise FormatError(f"{manifest_path}: dimensions must be positive")
    name = manifest["data_path"]
    if not (isinstance(name, str) and "\0" not in name and os.path.basename(name) == name):
        raise FormatError(f"{manifest_path}: data_path must be a string: a bare file name")
    data_path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)), name)
    if not os.path.isfile(data_path):
        raise FormatError(f"{manifest_path}: no such payload file {data_path}")
    expected = h * w * b * 4
    actual = os.path.getsize(data_path)
    if actual != expected:
        raise FormatError(
            f"{data_path}: raw size {actual} does not match {b}x{h}x{w} f32 ({expected}) of {manifest_path}"
        )
    x = np.fromfile(data_path, dtype="<f4").reshape(b, h * w)
    try:
        return HsiCube(h, w, x)
    except NonFiniteData as exc:  # HsiCube checks the entries, once
        raise NonFiniteData(f"{data_path}: NaN or Inf entries") from exc


def write_cube(cube, manifest_path):
    """Write a cube as raw f32le BSQ plus its manifest; the raw file sits
    next to the manifest, named after it with a .raw suffix.  A manifest
    path that ends in .raw itself raises ValueError before anything is
    written."""
    data_filename = os.path.splitext(os.path.basename(manifest_path))[0] + ".raw"
    if data_filename == os.path.basename(manifest_path):
        raise ValueError(f"{manifest_path}: the manifest would overwrite its own .raw payload")
    data_path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)), data_filename)
    _atomic_write_bytes(data_path, memoryview(np.ascontiguousarray(cube.x, dtype="<f4")))
    manifest = {
        "height": cube.height,
        "width": cube.width,
        "bands": cube.bands,
        "dtype": "f32le",
        "layout": "bsq",
        "data_path": data_filename,
    }
    _atomic_write_text(manifest_path, json.dumps(manifest, indent=2) + "\n")


def load_raster(path):
    """Read a text raster: a 'height width' line, then height rows of width
    non-negative integers.  Only blank lines may follow the last row."""
    fh = _open_text(path)

    def split_line():  # int() would also read '_' separators and non-ASCII digits
        line = fh.readline()
        if not line.isascii() or "_" in line:
            raise ValueError(line)
        return line.split()

    try:
        tokens = split_line()
        if len(tokens) != 2:
            raise FormatError(f"{path}: first line must be 'height width'")
        h, w = int(tokens[0]), int(tokens[1])
        if h < 1 or w < 1:
            raise FormatError(f"{path}: dimensions must be positive")
        rows = []
        for i in range(h):
            row = split_line()
            if len(row) != w:
                raise FormatError(f"{path}: row {i} has {len(row)} of {w} values")
            rows.append([int(v) for v in row])
        if any(line.strip() for line in fh):
            raise FormatError(f"{path}: data after the {h} declared rows")
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer raster value") from exc
    try:
        grid = np.array(rows, dtype=np.int64)
    except OverflowError as exc:
        raise FormatError(f"{path}: raster value out of the 64-bit range") from exc
    if (grid < 0).any():
        raise FormatError(f"{path}: raster values must be non-negative")
    return grid


def load_labels(path):
    """Read a class raster; class ids are re-densified to 1..C in order of
    first appearance (0 stays unlabeled).  Returns (field, mapping) where
    mapping sends original ids to dense ids."""
    grid = load_raster(path)
    dense, mapping = first_appearance_ids(grid, keep_zero=True)
    return LabelField(dense), mapping


def load_partition(path):
    """Read a superpixel raster; ids are re-densified to 0..S-1 in order of
    first appearance."""
    return SuperpixelPartition(first_appearance_ids(load_raster(path))[0])


def write_raster(values, path):
    """Write an integer raster in the text format read back by load_labels
    and load_partition."""
    # As int64, the type load_raster reads back: tolist() then yields Python
    # ints (bool would print as True/False).
    values = np.asarray(values).astype(np.int64, copy=False)
    h, w = values.shape
    lines = [f"{h} {w}"]
    lines.extend(" ".join(map(str, row)) for row in values.tolist())
    _atomic_write_text(path, "\n".join(lines) + "\n")


def class_gray_levels(n_classes):
    """Gray level for each class id 0..C: 0 for unlabeled, then
    round(255 * c / C) with half-up rounding."""
    levels = [0]
    levels.extend(int(math.floor(255.0 * c / n_classes + 0.5)) for c in range(1, n_classes + 1))
    return levels


def check_map_classes(n_classes):
    """Raise DegenerateInput when a map cannot give each class its own gray."""
    if n_classes > 255:
        raise DegenerateInput(f"{n_classes} classes do not fit 255 distinct gray levels")


def render_map(predictions, path, n_classes, class_ids):
    """Write a binary PGM classification map of classes 0..n_classes plus a
    '<path>.palette.txt' file listing 'class gray' pairs.  Gray levels are
    distinct per class, so more than 255 classes raise DegenerateInput.

    class_ids[c] is the palette's name for class c (e.g. its id in the
    source label raster; range(n_classes + 1) keeps the ids)."""
    labels = predictions.labels
    check_map_classes(n_classes)
    levels = np.array(class_gray_levels(n_classes), dtype=np.uint8)
    image = levels[labels]
    h, w = labels.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    _atomic_write_bytes(path, header + image.tobytes())
    palette = "\n".join(f"{c} {g}" for c, g in zip(class_ids, levels)) + "\n"
    _atomic_write_text(path + ".palette.txt", palette)


def write_trace_csv(trace, path):
    """Write one solver trace as CSV with columns iter, r1, r2, objective, mu."""
    lines = ["iter,r1,r2,objective,mu"]
    for i in range(trace.iterations):
        lines.append(
            f"{i + 1},{trace.r1[i]!r},{trace.r2[i]!r},{trace.objective[i]!r},{trace.mu[i]!r}"
        )
    _atomic_write_text(path, "\n".join(lines) + "\n")


def load_config(path):
    """Parse a flat 'key = value' config file.  Blank lines and '#' comments
    are allowed; unknown keys and keys given twice are rejected."""
    values = {}
    for lineno, line in enumerate(_open_text(path), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise FormatError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise FormatError(f"{path}:{lineno}: key {key!r} given twice")
        try:
            values[key] = CONFIG_KEYS[key](raw)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad value for {key!r}: {raw!r}") from exc
    return values


def write_metrics_json(report, path):
    _atomic_write_text(path, json.dumps(report.to_json_dict(), indent=2) + "\n")
