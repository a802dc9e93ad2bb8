import contextlib
import dataclasses
import io
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spdlrr import DegenerateInput, DlrrParams, FormatError, HsiCube, LabelField, NonFiniteData
from spdlrr import PipelineConfig
from spdlrr import io as spio
from spdlrr.cli import cli_main


def read_pgm(path):
    """Minimal independent PGM reader used as the round-trip oracle."""
    with open(path, "rb") as fh:
        assert fh.readline().strip() == b"P5"
        w, h = (int(v) for v in fh.readline().split())
        maxval = int(fh.readline())
        assert maxval == 255
        data = fh.read()
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


class TestCubeRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 12)).astype(np.float32).astype(np.float64)
        cube = HsiCube(3, 4, x)
        manifest = tmp_path / "cube.json"
        spio.write_cube(cube, str(manifest))
        loaded = spio.load_cube(str(manifest))
        assert (loaded.height, loaded.width, loaded.bands) == (3, 4, 5)
        np.testing.assert_array_equal(loaded.x, x)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_payload_is_the_f32_array_bytes(self, tmp_path, order):
        # A Fortran-ordered x (a transposed array) is written band-major too.
        x = np.asarray(np.random.default_rng(1).standard_normal((5, 12)), order=order)
        manifest = tmp_path / "cube.json"
        spio.write_cube(HsiCube(3, 4, x), str(manifest))
        payload = (tmp_path / "cube.raw").read_bytes()
        assert payload == np.ascontiguousarray(x, dtype="<f4").tobytes()
        loaded = spio.load_cube(str(manifest)).x
        assert loaded.dtype == np.float32 and loaded.tobytes() == x.astype("<f4").tobytes()

    def test_band_sequential_layout(self, tmp_path):
        raw = tmp_path / "d.raw"
        raw.write_bytes(np.array([1, 2, 3, 4], "<f4").tobytes())
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                {
                    "height": 2,
                    "width": 2,
                    "bands": 1,
                    "dtype": "f32le",
                    "layout": "bsq",
                    "data_path": "d.raw",
                }
            )
        )
        cube = spio.load_cube(str(manifest))
        np.testing.assert_array_equal(cube.x, [[1.0, 2.0, 3.0, 4.0]])
        np.testing.assert_array_equal(cube.x[0].reshape(2, 2), [[1.0, 2.0], [3.0, 4.0]])

    def test_truncated_raw_rejected(self, tmp_path):
        cube = HsiCube(2, 2, np.ones((2, 4)))
        manifest = tmp_path / "cube.json"
        spio.write_cube(cube, str(manifest))
        raw = tmp_path / "cube.raw"
        raw.write_bytes(raw.read_bytes()[:-4])
        with pytest.raises(FormatError):
            spio.load_cube(str(manifest))

    def test_nan_rejected(self, tmp_path):
        manifest = tmp_path / "cube.json"
        spio.write_cube(HsiCube(1, 2, np.ones((1, 2))), str(manifest))
        (tmp_path / "cube.raw").write_bytes(
            np.array([1.0, np.nan], "<f4").tobytes()
        )
        with pytest.raises(NonFiniteData):
            spio.load_cube(str(manifest))

    @pytest.mark.parametrize(
        "patch",
        [
            {"dtype": "f64le"},
            {"layout": "bil"},
            {"height": 0},
            {"height": 1.5},
            {"height": True},
            {"data_path": 5},
            {"extra": 1},
            {"data_path": "/abs/cube.raw"},
            {"data_path": "../cube.raw"},
            {"data_path": "sub/cube.raw"},
            {"data_path": "missing.raw"},
        ],
    )
    def test_bad_manifests_rejected(self, tmp_path, patch):
        manifest_path = tmp_path / "cube.json"
        spio.write_cube(HsiCube(1, 2, np.ones((1, 2))), str(manifest_path))
        manifest = json.loads(manifest_path.read_text())
        manifest.update(patch)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError):
            spio.load_cube(str(manifest_path))

    @pytest.mark.parametrize("where", ["absolute", "parent", "subdirectory"])
    def test_payload_outside_the_manifest_directory_rejected(self, tmp_path, where):
        # A valid payload sits at each place, so only the name check rejects it.
        home = tmp_path / "home"
        (home / "sub").mkdir(parents=True)
        cube = HsiCube(1, 2, np.ones((1, 2)))
        for manifest_path in (home / "cube.json", tmp_path / "cube.json", home / "sub" / "cube.json"):
            spio.write_cube(cube, str(manifest_path))
        names = {"absolute": str(tmp_path / "cube.raw"), "parent": "../cube.raw", "subdirectory": "sub/cube.raw"}
        manifest = json.loads((home / "cube.json").read_text())
        manifest["data_path"] = names[where]
        (home / "cube.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="bare file name"):
            spio.load_cube(str(home / "cube.json"))

    def test_manifest_named_like_its_payload_rejected(self, tmp_path):
        # The payload would be written to scene.raw, then the manifest over it.
        with pytest.raises(ValueError, match="overwrite its own .raw payload"):
            spio.write_cube(HsiCube(1, 2, np.ones((1, 2))), str(tmp_path / "scene.raw"))
        assert os.listdir(tmp_path) == []

    def test_no_temp_files_left_behind(self, tmp_path):
        spio.write_cube(HsiCube(1, 2, np.ones((1, 2))), str(tmp_path / "c.json"))
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        assert leftovers == []


class TestLabelRasters:
    def test_densification_order(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1 3\n0 2 5\n")
        field, mapping = spio.load_labels(str(path))
        np.testing.assert_array_equal(field.labels, [[0, 1, 2]])
        assert mapping == {2: 1, 5: 2}

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1 2\n0 -1\n")
        with pytest.raises(FormatError):
            spio.load_labels(str(path))

    def test_all_zero_loads_but_cannot_split(self, tmp_path):
        from spdlrr import DegenerateInput, split

        path = tmp_path / "labels.txt"
        path.write_text("1 2\n0 0\n")
        field, mapping = spio.load_labels(str(path))
        assert mapping == {}
        assert field.n_classes == 0
        with pytest.raises(DegenerateInput):
            split(field, 0.1, seed=0)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("2 3\n1 2 3\n1 2\n")
        with pytest.raises(FormatError):
            spio.load_labels(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 2\n1 2\n3 4\n5 6\n", "after the 2 declared rows"),
            ("2 2\n1 2\n3 4\n\n7\n", "after the 2 declared rows"),
            ("0 3\n", "must be positive"),
            ("3 0\n\n\n\n", "must be positive"),
            ("-1 2\n1 2\n", "must be positive"),
        ],
        ids=["extra-row", "data-after-blank", "zero-height", "zero-width", "negative-height"],
    )
    def test_malformed_shape_rejected(self, tmp_path, text, message):
        path = tmp_path / "r.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match=message):
            spio.load_raster(str(path))
        spio.write_raster(np.ones((2, 2), int), str(tmp_path / "ok.txt"))
        assert cli_main(["metrics", str(path), str(tmp_path / "ok.txt")]) == 2

    def test_trailing_blank_lines_allowed(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("1 2\n3 4\n\n  \n")
        np.testing.assert_array_equal(spio.load_raster(str(path)), [[3, 4]])

    def test_raster_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = rng.integers(0, 5, size=(4, 6))
        path = tmp_path / "r.txt"
        spio.write_raster(grid, str(path))
        np.testing.assert_array_equal(spio.load_raster(str(path)), grid)

    @pytest.mark.parametrize(
        "values",
        [
            np.array([[0, -7, 2**63 - 1], [-(2**63), 12, 3]], dtype=np.int64),
            np.broadcast_to(np.arange(5, dtype=np.int64), (3, 5)),  # read-only view
            np.array([[True, False], [False, True]]),
        ],
        ids=["int64", "broadcast-view", "bool"],
    )
    def test_raster_bytes_equal_per_scalar_formatting(self, tmp_path, values):
        h, w = values.shape
        rows = (" ".join(str(int(v)) for v in row) for row in values)
        expected = "\n".join([f"{h} {w}", *rows]) + "\n"
        path = tmp_path / "r.txt"
        spio.write_raster(values, str(path))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_partition_round_trip(self, tmp_path):
        labels = np.array([[0, 0, 1], [2, 2, 1]])
        path = tmp_path / "part.txt"
        spio.write_raster(labels, str(path))
        part = spio.load_partition(str(path))
        assert part.count == 3
        np.testing.assert_array_equal(part.labels, labels)


class TestRenderMap:
    def test_two_class_levels(self, tmp_path):
        path = tmp_path / "m.pgm"
        spio.render_map(LabelField(np.array([[1, 2]])), str(path), n_classes=2, class_ids=range(3))
        image = read_pgm(str(path))
        np.testing.assert_array_equal(image, [[128, 255]])
        palette = (tmp_path / "m.pgm.palette.txt").read_text().splitlines()
        assert palette == ["0 0", "1 128", "2 255"]

    def test_unlabeled_is_black(self, tmp_path):
        path = tmp_path / "m.pgm"
        spio.render_map(LabelField(np.zeros((3, 3), int)), str(path), n_classes=4, class_ids=range(5))
        np.testing.assert_array_equal(read_pgm(str(path)), np.zeros((3, 3)))

    @pytest.mark.parametrize("n_classes", [2, 7, 255])
    def test_gray_levels_invert_to_classes(self, tmp_path, n_classes):
        labels = np.arange(n_classes + 1).reshape(1, -1)
        path = tmp_path / "m.pgm"
        spio.render_map(
            LabelField(labels), str(path), n_classes=n_classes, class_ids=range(n_classes + 1)
        )
        image = read_pgm(str(path)).astype(np.float64)
        recovered = np.round(image * n_classes / 255.0).astype(int)
        np.testing.assert_array_equal(recovered, labels)

    @pytest.mark.parametrize("n_classes", [256])
    def test_more_than_255_classes_rejected(self, tmp_path, n_classes):
        labels = np.arange(257).reshape(1, -1)
        path = tmp_path / "m.pgm"
        with pytest.raises(DegenerateInput):
            spio.render_map(
                LabelField(labels), str(path), n_classes=n_classes, class_ids=range(n_classes + 1)
            )
        assert not path.exists()

    def test_gray_mapping_injective_up_to_255(self):
        levels = spio.class_gray_levels(255)
        assert len(set(levels)) == 256


class TestAtomicWrite:
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_replace_leaves_the_target_and_no_temporary(self, tmp_path, existing):
        target = tmp_path / "out.txt"
        if existing:
            target.write_bytes(b"old bytes")
        with mock.patch.object(spio.os, "replace", side_effect=OSError("replace failed")):
            with pytest.raises(OSError, match="replace failed"):
                spio._atomic_write_bytes(str(target), b"new bytes")
        assert sorted(p.name for p in tmp_path.iterdir()) == (["out.txt"] if existing else [])
        if existing:
            assert target.read_bytes() == b"old bytes"


class TestTraceCsv:
    def test_columns_and_rows(self, tmp_path):
        from spdlrr import SolveTrace

        trace = SolveTrace()
        trace.append(0.5, 0.25, 10.0, 1e-4)
        trace.append(0.05, 0.02, 9.0, 1.1e-4)
        path = tmp_path / "trace.csv"
        spio.write_trace_csv(trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,r1,r2,objective,mu"
        assert lines[1].startswith("1,0.5,0.25,10.0,")
        assert len(lines) == 3


class TestConfig:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\nlambda = 0.05\nbeta = 1\nsuperpixels = 64  # trailing\n\nclassifier = knn\n"
        )
        values = spio.load_config(str(path))
        assert values == {
            "lambda": 0.05,
            "beta": 1.0,
            "superpixels": 64,
            "classifier": "knn",
        }

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(FormatError):
            spio.load_config(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("superpixels = many\n")
        with pytest.raises(FormatError):
            spio.load_config(str(path))

    def test_key_given_twice_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lambda = 0.05\n# again\nlambda = 0.5\n")
        with pytest.raises(FormatError, match=r"run.cfg:3: key 'lambda' given twice"):
            spio.load_config(str(path))

    def test_shipped_presets_parse(self):
        import spdlrr

        preset_dir = os.path.join(os.path.dirname(spdlrr.__file__), "configs")
        presets = sorted(os.listdir(preset_dir))
        assert presets == [
            "indian_pines.cfg",
            "pavia_university.cfg",
            "salinas_valley.cfg",
        ]
        for name in presets:
            # beta = 0.5 with rho = 1.5 (README, Command line): a preset
            # that drops either key falls back to the solver's defaults.
            values = spio.load_config(os.path.join(preset_dir, name))
            assert (values["beta"], values["rho"]) == (0.5, 1.5), name
        values = spio.load_config(os.path.join(preset_dir, "indian_pines.cfg"))
        assert values["lambda"] == 0.05
        assert values["superpixels"] == 64
        assert values["delta"] == 0.7
        assert values["m_split"] == 5
        assert values["percent"] == 0.05

    def test_keys_are_the_paths_then_the_dataclasses_scalar_fields(self):
        fields = [*spio.config_fields(PipelineConfig), *spio.config_fields(DlrrParams)]
        assert list(spio.CONFIG_KEYS) == ["cube", "labels", "partition", "out_dir", *fields]
        assert {"lambda", "superpixels", "percent"} <= set(fields)

    def test_config_fields_picks_up_a_new_scalar_field(self):
        @dataclasses.dataclass
        class Options:
            threads: int = 1
            lam: float = 0.1
            name: str = ""
            dlrr: DlrrParams = dataclasses.field(default_factory=DlrrParams)
            sizes: tuple = ()

        fields = spio.config_fields(Options)
        assert {key: f.name for key, f in fields.items()} == {
            "threads": "threads",
            "lambda": "lam",
            "name": "name",
        }


VALID_RASTER = b"2 3\n1 0 2\n3 4 5\n"
VALID_CONFIG = b"# run\nlambda = 0.5\nseed = 3  # trailing\n\nclassifier = knn\n"
VALID_MANIFEST = {"height": 2, "width": 3, "bands": 4, "dtype": "f32le", "layout": "bsq",
                  "data_path": "cube.raw"}
ENCODINGS = ["utf-16", "utf-16-be", "utf-32", "cp1252"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def spliced(valid):
    """valid with one span replaced by random bytes: corrupted, cut short or
    grown, anywhere."""
    return st.tuples(st.integers(0, len(valid)), st.integers(0, 8), st.binary(max_size=8)).map(
        lambda t: valid[: t[0]] + t[2] + valid[t[0] + t[1] :]
    )


def malformed(valid, alphabet):
    return st.one_of(
        st.binary(max_size=200),
        spliced(valid),
        st.text(alphabet=alphabet, max_size=120).map(str.encode),
        st.sampled_from(ENCODINGS).map(lambda enc: valid.decode().encode(enc)),
    )


def load_or_exit_two(loader, data, name, argv):
    """Write data to name in a fresh directory and load it.  Returns what
    the loader gave, or None after checking that a FormatError from it is
    also the CLI's exit 2, with nothing written and the file named."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, name)
        with open(path, "wb") as fh:
            fh.write(data)
        if name.endswith(".json"):
            np.zeros(24, "<f4").tofile(os.path.join(work, "cube.raw"))
        try:
            return loader(path)
        except FormatError:
            before = sorted(os.listdir(work))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert cli_main([a.format(path=path, work=work) for a in argv]) == 2
            assert sorted(os.listdir(work)) == before
            assert path in err.getvalue()
            return None


class TestMalformedInputs:
    @pytest.mark.parametrize("encoding", ["utf-16", "utf-16-le"])  # 0xFF 0xFE first
    def test_utf16_files_are_format_errors(self, tmp_path, encoding):
        files = {
            "truth.txt": (spio.load_raster, VALID_RASTER.decode()),
            "run.cfg": (spio.load_config, VALID_CONFIG.decode()),
            "cube.json": (spio.load_cube, json.dumps(VALID_MANIFEST)),
        }
        for name, (loader, text) in files.items():
            data = text.encode(encoding)
            if encoding == "utf-16-le":
                data = b"\xff\xfe" + data
            assert data.startswith(b"\xff\xfe")
            (tmp_path / name).write_bytes(data)
            with pytest.raises(FormatError, match="not UTF-8 text"):
                loader(str(tmp_path / name))

    @pytest.mark.parametrize("value", ["9223372036854775808", "-99999999999999999999"])
    def test_raster_value_beyond_int64(self, tmp_path, value):
        path = tmp_path / "r.txt"
        path.write_text(f"1 2\n0 {value}\n")
        with pytest.raises(FormatError, match="64-bit"):
            spio.load_raster(str(path))

    @pytest.mark.parametrize(
        "text",
        ["2 2\n1_0 2\n3 4\n", "2 2\n1 2\n3 \u0663\n", "1_0 2\n", "\u0661 2\n1 2\n"],
        ids=["row-underscore", "row-arabic-indic-digit", "header-underscore", "header-arabic-indic-digit"],
    )
    def test_raster_digits_are_ascii_without_separators(self, tmp_path, text):
        # int() alone would read '1_0' as 10 and '\u0663' as 3.
        path = tmp_path / "r.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match="non-integer raster value"):
            spio.load_raster(str(path))
        assert cli_main(["metrics", str(path), str(path)]) == 2

    def test_nul_in_data_path(self, tmp_path):
        (tmp_path / "cube.json").write_text(json.dumps({**VALID_MANIFEST, "data_path": "a\0b"}))
        with pytest.raises(FormatError, match="data_path"):
            spio.load_cube(str(tmp_path / "cube.json"))

    @given(malformed(VALID_RASTER, "0123456789 -+_\n\r\t"))
    @settings(max_examples=300, deadline=None)
    def test_raster(self, data):
        grid = load_or_exit_two(spio.load_raster, data, "r.txt", ["metrics", "{path}", "{path}"])
        if grid is not None:
            assert grid.dtype == np.int64 and grid.ndim == 2 and grid.size and (grid >= 0).all()

    @given(malformed(VALID_CONFIG, "abdelmnoprstx_ =#.0159\n\r"))
    @settings(max_examples=300, deadline=None)
    def test_config(self, data):
        argv = ["segment", "--config", "{path}", "--cube", "{work}/none.json", "--out", "{work}/p.txt"]
        values = load_or_exit_two(spio.load_config, data, "run.cfg", argv)
        if values is not None:
            assert set(values) <= set(spio.CONFIG_KEYS)
            assert all(type(v) is spio.CONFIG_KEYS[k] for k, v in values.items())

    @given(
        st.one_of(
            malformed(json.dumps(VALID_MANIFEST).encode(), '{}[]":,0123456789 abtrue'),
            st.tuples(st.sampled_from(sorted(VALID_MANIFEST)), json_values).map(
                lambda kv: {**VALID_MANIFEST, kv[0]: kv[1]}
            ),
            st.sampled_from(sorted(VALID_MANIFEST)).map(
                lambda k: {key: v for key, v in VALID_MANIFEST.items() if key != k}
            ),
            st.text(max_size=6).map(lambda t: {**VALID_MANIFEST, "data_path": t + "\0"}),
        )
    )
    @example({**VALID_MANIFEST, "data_path": "none.raw"})  # the manifest names a missing payload
    @example({**VALID_MANIFEST, "data_path": ""})
    @settings(max_examples=300, deadline=None)
    def test_manifest(self, manifest):
        if isinstance(manifest, dict):
            manifest = json.dumps(manifest).encode()
        argv = ["segment", "--cube", "{path}", "--out", "{work}/p.txt"]
        cube = load_or_exit_two(spio.load_cube, manifest, "cube.json", argv)
        if cube is not None:
            assert (cube.height, cube.width, cube.bands) == (2, 3, 4)

    @given(st.integers(0, 200).filter(lambda n: n != 96))
    @settings(max_examples=50, deadline=None)
    def test_payload_size(self, size):
        with tempfile.TemporaryDirectory() as work:
            with open(os.path.join(work, "cube.json"), "w") as fh:
                json.dump(VALID_MANIFEST, fh)
            with open(os.path.join(work, "cube.raw"), "wb") as fh:
                fh.write(bytes(size))
            with pytest.raises(FormatError, match="raw size"):
                spio.load_cube(os.path.join(work, "cube.json"))
