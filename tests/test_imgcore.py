import re

import numpy as np
import pytest

from marmopipe import flatfield, mapping, nnseg
from marmopipe.evalsynth import PhantomSpec, reference_block_mean, reference_gaussian_blur
from marmopipe.imgcore import (
    FormatError,
    Stack3D,
    StackReader,
    StackWriter,
    Tile2D,
    downsample_stack,
    gaussian_blur,
    gaussian_kernel1d,
    read_stack,
    read_tile,
    read_tile_info,
    write_stack,
    write_tile,
)


def make_tile(pixels, **kw):
    kw.setdefault("channel", "CG")
    return Tile2D(pixels=np.asarray(pixels, dtype=np.float64), **kw)


class TestTileIO:
    def test_round_trip_constant(self, tmp_path):
        tile = make_tile(np.full((720, 720), 100.0))
        write_tile(tile, tmp_path / "t")
        back = read_tile(tmp_path / "t")
        assert np.array_equal(back.pixels, tile.pixels)
        assert back.channel == tile.channel

    def test_metadata_preserved(self, tmp_path):
        tile = make_tile(
            np.zeros((8, 8)), world_offset=(750.0, 0.0, 0.0), tile_index=3, pixel_pitch=1.34
        )
        write_tile(tile, tmp_path / "t")
        back = read_tile(tmp_path / "t")
        assert back.world_offset == (750.0, 0.0, 0.0)
        assert back.pixel_pitch == 1.34
        assert back.tile_index == 3

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(0)
        for k in range(20):
            h, w = rng.integers(1, 40, size=2)
            tile = Tile2D(
                pixels=rng.integers(0, 65536, size=(h, w)).astype(np.float64),
                channel=["CR", "CG", "CB"][k % 3],
                world_offset=tuple(rng.normal(size=3)),
                tile_index=int(rng.integers(0, 1000)),
                pixel_pitch=float(rng.uniform(0.5, 5.0)),
            )
            write_tile(tile, tmp_path / f"t{k}")
            back = read_tile(tmp_path / f"t{k}")
            assert np.array_equal(back.pixels, tile.pixels)
            assert back.world_offset == tile.world_offset
            assert back.pixel_pitch == tile.pixel_pitch
            assert back.tile_index == tile.tile_index
            assert back.channel == tile.channel

    @pytest.mark.parametrize("value", [-1.0, 65535.5, 70000.0])
    def test_write_rejects_out_of_range_pixels(self, tmp_path, value):
        """A tile holds any float64; ``write_tile`` rejects one whose rounded pixels leave
        [0, 65535] and writes no file."""
        pixels = np.full((4, 4), 100.0)
        pixels[2, 1] = value
        with pytest.raises(ValueError, match="outside u16 range"):
            write_tile(make_tile(pixels), tmp_path / "t")
        assert list(tmp_path.iterdir()) == []

    def test_short_payload_rejected(self, tmp_path):
        tile = make_tile(np.zeros((4, 4)))
        pgm = write_tile(tile, tmp_path / "t")
        blob = pgm.read_bytes()
        pgm.write_bytes(blob[:-2])
        with pytest.raises(FormatError, match="payload"):
            read_tile(pgm)

    def test_bad_magic(self, tmp_path):
        tile = make_tile(np.zeros((4, 4)))
        pgm = write_tile(tile, tmp_path / "t")
        pgm.write_bytes(b"P2" + pgm.read_bytes()[2:])
        with pytest.raises(FormatError):
            read_tile(pgm)

    def test_tile_info_reads_header_and_sidecar(self, tmp_path):
        tile = make_tile(np.ones((6, 9)), channel="CR", world_offset=(1.5, 2.5, 50.0),
                         tile_index=7, pixel_pitch=1.34)
        pgm = write_tile(tile, tmp_path / "t.pgm")
        info = read_tile_info(pgm)
        assert (info.path, info.width, info.height) == (pgm, 9, 6)
        assert (info.channel, info.world_offset, info.tile_index, info.pixel_pitch) == (
            "CR", (1.5, 2.5, 50.0), 7, 1.34)

    def test_unknown_channel(self, tmp_path):
        tile = make_tile(np.zeros((4, 4)))
        write_tile(tile, tmp_path / "t")
        meta = tmp_path / "t.meta"
        meta.write_text(meta.read_text().replace("channel=CG", "channel=CX"))
        with pytest.raises(FormatError, match="channel"):
            read_tile(tmp_path / "t")


class TestStackIO:
    def test_round_trip_zeros(self, tmp_path):
        stack = Stack3D(np.zeros((4, 4, 4)), (1.0, 1.0, 1.0), dtype="u16")
        write_stack(stack, tmp_path / "s")
        back = read_stack(tmp_path / "s")
        assert np.array_equal(back.data, stack.data)
        assert back.voxel_size == stack.voxel_size

    def test_voxel_size_preserved(self, tmp_path):
        stack = Stack3D(np.zeros((2, 3, 4)), (50.0, 50.0, 50.0), channel="CB", dtype="u16")
        write_stack(stack, tmp_path / "s")
        back = read_stack(tmp_path / "s")
        assert back.voxel_size == (50.0, 50.0, 50.0)
        assert back.channel == "CB"

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(1)
        for k in range(10):
            nz, ny, nx = rng.integers(1, 8, size=3)
            if k % 2:
                data = rng.integers(0, 65536, size=(nz, ny, nx)).astype(np.float64)
                dtype = "u16"
            else:
                data = rng.random((nz, ny, nx)).astype(np.float32).astype(np.float64)
                dtype = "f32"
            stack = Stack3D(data, tuple(rng.uniform(0.5, 60, size=3)), dtype=dtype)
            write_stack(stack, tmp_path / f"s{k}")
            back = read_stack(tmp_path / f"s{k}")
            assert np.array_equal(back.data, stack.data)
            assert back.voxel_size == stack.voxel_size

    def test_slice_writer_and_reader(self, tmp_path):
        """Slices written one by one read back as written, one by one or as a slab of
        slices; a stack left short of its ``nz`` slices gets no header, so it cannot be
        read as if complete."""
        data = np.random.default_rng(2).integers(0, 65536, size=(3, 5, 4)).astype(np.float64)
        with StackWriter(tmp_path / "s", (4, 5, 3), (1.0, 1.0, 2.0), "CB", "u16") as out:
            for plane in data:
                out.write(plane)
        reader = StackReader(tmp_path / "s")
        assert (reader.shape, reader.voxel_size, reader.channel) == ((3, 5, 4), (1.0, 1.0, 2.0), "CB")
        assert np.array_equal(np.stack(list(reader)), data)
        for z0, z1 in ((0, 3), (1, 2), (2, 3), (1, 1)):
            assert np.array_equal(reader.slab(z0, z1), data[z0:z1])
        with pytest.raises(IndexError, match="outside 0:3"):
            reader.slab(2, 4)

        short = StackWriter(tmp_path / "s", (4, 5, 3), (1.0, 1.0, 2.0), "CB", "u16")
        short.write(data[0])
        with pytest.raises(ValueError, match="1 of 3 slices"):
            short.close()
        assert not (tmp_path / "s.hdr").exists()

    @pytest.mark.parametrize("dtype, disk", [("u16", "<u2"), ("f32", "<f4")])
    def test_reader_yields_the_on_disk_dtype(self, tmp_path, dtype, disk):
        """Iteration and ``slab`` give the stored values in the stored dtype, read-only;
        ``read_stack`` gives the same values as float64."""
        rng = np.random.default_rng(3)
        if dtype == "u16":
            data = rng.integers(0, 65536, size=(4, 5, 6)).astype(np.float64)
        else:
            data = rng.normal(0, 1e3, size=(4, 5, 6)).astype(np.float32).astype(np.float64)
        write_stack(Stack3D(data, (1.0, 1.0, 2.0), dtype=dtype), tmp_path / "s")
        reader = StackReader(tmp_path / "s")
        planes = list(reader)
        assert all(p.dtype == np.dtype(disk) and not p.flags.writeable for p in planes)
        assert np.array_equal(np.stack(planes), data)
        for z0, z1 in ((0, 4), (1, 3), (3, 4), (2, 2)):
            slab = reader.slab(z0, z1)
            assert slab.dtype == np.dtype(disk) and slab.shape == (z1 - z0, 5, 6)
            assert np.array_equal(slab, data[z0:z1])
        back = read_stack(tmp_path / "s")
        assert back.data.dtype == np.float64 and np.array_equal(back.data, data)

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.uint16, np.int8, np.uint64, np.float32])
    @pytest.mark.parametrize("stack_dtype", ["u16", "f32"])
    def test_writer_bytes_of_the_float64_path(self, tmp_path, dtype, stack_dtype):
        """A bool, integer or f32 slice is written with the bytes of its float64 copy:
        u16 clips values below 0 and above 65535 as the float path does."""
        rng = np.random.default_rng(4)
        if dtype is bool:
            plane = rng.random((6, 7)) < 0.5
        elif dtype is np.float32:
            plane = rng.uniform(-100.0, 70000.0, (6, 7)).astype(dtype)
        else:
            info = np.iinfo(dtype)
            values = [info.min, info.max, -1, 0, 1, 65535, 65536, 70000, 12345]
            plane = rng.choice(np.array([v for v in values if info.min <= v <= info.max],
                                        dtype=dtype), (6, 7))
        for name, slab in (("direct", plane), ("float64", plane.astype(np.float64))):
            with StackWriter(tmp_path / name, (7, 6, 2), (1.0, 1.0, 1.0), dtype=stack_dtype) as w:
                w.write(slab)
                w.write(slab[:, ::-1])  # a non-contiguous view
        assert (tmp_path / "direct.raw").read_bytes() == (tmp_path / "float64.raw").read_bytes()

    @pytest.mark.parametrize("stack_dtype, dtype", [
        ("u16", np.float64), ("u16", np.int64), ("u16", bool),
        ("f32", np.float64), ("f32", np.float32),
    ])
    def test_row_blocks_give_the_bytes_of_one_conversion(self, tmp_path, stack_dtype, dtype):
        """A (300, 1000) slice is written in several row blocks, the last one short;
        the file holds the bytes of the whole slice converted at once."""
        rng = np.random.default_rng(5)
        if dtype is bool:
            plane = rng.random((300, 1000)) < 0.5
        elif dtype is np.int64:
            plane = rng.integers(-70000, 140000, (300, 1000))
        else:
            plane = rng.uniform(-100.0, 70000.0, (300, 1000)).astype(dtype)
            plane[0, :4] = [0.5, 1.5, 2.5, -0.5]  # rint rounds halves to even
        if stack_dtype == "f32":
            want = plane.astype("<f4")
        elif dtype is np.float64:
            want = np.clip(np.rint(plane), 0, 65535).astype("<u2")
        else:
            want = np.clip(plane, 0, 65535).astype("<u2")
        with StackWriter(tmp_path / "s", (1000, 300, 2), (1.0, 1.0, 1.0), dtype=stack_dtype) as w:
            w.write(plane)
            w.write(plane[::-1])  # a non-contiguous view
        assert (tmp_path / "s.raw").read_bytes() == want.tobytes() + want[::-1].tobytes()

    def test_u16_write_makes_no_slice_sized_copy(self, tmp_path):
        """Writing a 1040 x 1040 float64 slice (8.25 MiB) to a u16 stack allocates less
        than 1 MiB: no whole-slice float64 or u16 copy."""
        plane = np.random.default_rng(6).uniform(0.0, 65535.0, (1040, 1040))
        with StackWriter(tmp_path / "s", (1040, 1040, 1), (1.0, 1.0, 1.0), dtype="u16") as w:
            assert traced_peak(w.write, plane) < 1 << 20

    def test_truncated_payload(self, tmp_path):
        stack = Stack3D(np.zeros((4, 4, 4)), (1, 1, 1), dtype="u16")
        write_stack(stack, tmp_path / "s")
        raw = tmp_path / "s.raw"
        raw.write_bytes(raw.read_bytes()[:-3])
        with pytest.raises(FormatError, match="payload"):
            read_stack(tmp_path / "s")



def _save_atlas(v, prefix):
    mapping.RegionAtlas(np.full((2, 3, 4), v), (1.0, 1.0, 2.0), {v: f"region{v}"}).save(prefix)


def _save_field(v, prefix):
    mapping.save_field(mapping.DisplacementField(np.full((3, 2, 3, 4), v), (1.0, 1.0, 2.0)), prefix)


def _save_shading(v, prefix):
    for ch in ("CR", "CG"):
        shading = flatfield.ShadingField(np.full((3, 4), v), ch)
        write_stack(flatfield.field_to_stack(shading, 1.34), f"{prefix}_{ch}")


# each kind of file set: a writer of a set that holds the integer v, and its reader
FILE_SETS = {
    "stack": (lambda v, p: write_stack(Stack3D(np.full((2, 3, 4), v), (1.0, 1.0, 2.0)), p),
              lambda p: read_stack(p).data.max()),
    "model": (lambda v, p: nnseg.save_model(nnseg.init_unet(1, 2, 1, seed=v), p),
              lambda p: nnseg.load_model(p).seed),
    "atlas": (_save_atlas, lambda p: mapping.RegionAtlas.load(p).names),
    "field": (_save_field, lambda p: mapping.load_field(p).disp.max()),
    "flatfield": (_save_shading,
                  lambda p: [flatfield.field_from_stack(read_stack(f"{p}_{ch}")).values.max()
                             for ch in ("CR", "CG")]),
}


class TestFileSets:
    @pytest.mark.parametrize("kind", FILE_SETS)
    def test_dotted_prefix_names_its_own_files(self, tmp_path, kind):
        """A dot in a prefix is part of its name: ``x_v1.5`` round-trips, and writing
        ``x_v1.7`` leaves every byte of it as it was."""
        save, load = FILE_SETS[kind]
        save(5, tmp_path / "x_v1.5")
        want = load(tmp_path / "x_v1.5")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert all(name.startswith("x_v1.5") for name in before)
        save(7, tmp_path / "x_v1.7")
        assert {p.name: p.read_bytes() for p in tmp_path.glob("x_v1.5*")} == before
        assert load(tmp_path / "x_v1.5") == want != load(tmp_path / "x_v1.7")

    def test_prefix_with_its_suffix_names_the_same_set(self, tmp_path):
        stack = Stack3D(np.ones((1, 2, 2)), (1.0, 1.0, 1.0))
        assert write_stack(stack, tmp_path / "s.v2.raw") == tmp_path / "s.v2.hdr"
        assert read_stack(tmp_path / "s.v2.hdr").data.sum() == 4

    @pytest.mark.parametrize("kind", ["header", "sidecar", "manifest", "spec"])
    def test_line_without_equals_names_file_and_line(self, tmp_path, kind):
        if kind == "spec":
            path, read = tmp_path / "spec.txt", PhantomSpec.load
            PhantomSpec().save(path)
        elif kind == "manifest":
            nnseg.save_model(nnseg.init_unet(1, 2, 1), tmp_path / "m")
            path, read = tmp_path / "m.manifest", nnseg.load_model
        elif kind == "sidecar":
            write_tile(make_tile(np.zeros((4, 4))), tmp_path / "t")
            path, read = tmp_path / "t.meta", read_tile
        else:
            write_stack(Stack3D(np.zeros((1, 2, 2)), (1.0, 1.0, 1.0)), tmp_path / "s")
            path, read = tmp_path / "s.hdr", read_stack
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "", "# note", "stray", *lines[1:]]) + "\n")
        with pytest.raises(FormatError, match=rf"{re.escape(str(path))} line 4: .*'stray'"):
            read(path)

    @pytest.mark.parametrize("kind, stray", [
        ("names", "2"), ("cells", "4 5"), ("table", "src 1")])
    def test_short_line_names_file_and_line(self, tmp_path, kind, stray):
        """The whitespace-separated line readers of the atlas names, the cells and the
        connectivity table name the file and the line of a line too short to read."""
        from marmopipe.injsite import CellPointCloud
        if kind == "names":
            mapping.RegionAtlas(np.ones((1, 2, 2)), (1.0, 1.0, 1.0), {1: "a", 3: "b"}).save(
                tmp_path / "atlas")
            path, read = tmp_path / "atlas.names", mapping.atlas_names
        elif kind == "cells":
            CellPointCloud(points=[[1, 2, 0], [3, 4, 0]], scores=[0.5, 0.7]).save(tmp_path / "c.txt")
            path, read = tmp_path / "c.txt", CellPointCloud.load
        else:
            mapping.ConnectivityTable("b", "i", sources={1: 2.0}, targets={1: 3.0}).save(
                tmp_path / "t.txt")
            path, read = tmp_path / "t.txt", mapping.ConnectivityTable.load
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "", lines[1], stray, *lines[2:]]) + "\n")
        with pytest.raises(FormatError, match=rf"{re.escape(str(path))} line 4: .*'{stray}'"):
            read(path)

    @pytest.mark.parametrize("kind, old, new, key", [
        ("table", r"outside_src=\S+", "outside_src=zero", "outside_src"),
        ("manifest", r"depth=\d+\n", "", "depth"),
        ("spec", r"n_cells=\d+", "n_cells=x", "n_cells"),
        ("sidecar", r"index=\d+", "index=x", "index"),
        ("header", r"dims=\d+ \d+ \d+", "dims=2 x 1", "dims"),
    ], ids=["table", "manifest", "spec", "sidecar", "header"])
    def test_value_that_does_not_read_names_file_and_key(self, tmp_path, kind, old, new, key):
        """A table header value that is not a number, a manifest without ``depth=``, a
        spec with ``n_cells=x``, a tile sidecar with ``index=x`` and a stack header with
        ``dims=2 x 1`` name the file and the key they could not read."""
        if kind == "sidecar":
            write_tile(make_tile(np.zeros((4, 4))), tmp_path / "t")
            path, read = tmp_path / "t.meta", read_tile
        elif kind == "header":
            write_stack(Stack3D(np.zeros((1, 2, 2)), (1.0, 1.0, 1.0)), tmp_path / "s")
            path, read = tmp_path / "s.hdr", read_stack
        elif kind == "table":
            mapping.ConnectivityTable("b", "i", sources={1: 2.0}, targets={1: 3.0}).save(
                tmp_path / "t.txt")
            path, read = tmp_path / "t.txt", mapping.ConnectivityTable.load
        elif kind == "manifest":
            nnseg.save_model(nnseg.init_unet(1, 2, 1), tmp_path / "m")
            path, read = tmp_path / "m.manifest", nnseg.load_model
        else:
            PhantomSpec().save(tmp_path / "spec.txt")
            path, read = tmp_path / "spec.txt", PhantomSpec.load
        text, count = re.subn(old, new, path.read_text())
        assert count == 1
        path.write_text(text)
        with pytest.raises(FormatError, match=rf"{re.escape(str(path))}\b.*\b{key}\b"):
            read(path)


class TestDownsample:
    def test_2x2_mean(self):
        stack = Stack3D(np.array([[[1.0, 3.0], [5.0, 7.0]]]), (1, 1, 1))
        out = downsample_stack(stack, (2, 2, 1))
        assert out.data.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 4.0

    def test_constant_preserved(self):
        stack = Stack3D(np.full((4, 6, 6), 7.5), (1, 1, 1))
        out = downsample_stack(stack, (3, 2, 2))
        assert np.allclose(out.data, 7.5)

    def test_matches_block_mean_oracle(self):
        rng = np.random.default_rng(2)
        stack = Stack3D(rng.integers(0, 1000, (2, 8, 8)).astype(float), (1, 1, 1))
        out = downsample_stack(stack, (2, 2, 2))
        want = reference_block_mean(stack.data, (1, 1, 1), 2.0)
        assert np.array_equal(out.data, want)

    def test_non_integer_ratio_oracle(self):
        rng = np.random.default_rng(3)
        stack = Stack3D(rng.integers(0, 65536, (3, 11, 13)).astype(float), (1.34, 1.34, 50.0))
        out = downsample_stack(stack, 50.0)
        want = reference_block_mean(stack.data, (1.34, 1.34, 50.0), 50.0)
        assert np.array_equal(out.data, want)

    def test_target_finer_rejected(self):
        stack = Stack3D(np.zeros((2, 2, 2)), (2, 2, 2))
        with pytest.raises(ValueError, match="finer"):
            downsample_stack(stack, 1.0)


class TestGaussianBlur:
    def test_kernel_normalized(self):
        k = gaussian_kernel1d(3.0)
        assert len(k) == 2 * 12 + 1
        assert abs(k.sum() - 1.0) < 1e-12

    def test_delta_gives_kernel(self):
        img = np.zeros(41)
        img[20] = 1.0
        out = gaussian_blur(img, 3.0)
        x = np.arange(-12, 13, dtype=float)
        want = np.exp(-0.5 * (x / 3.0) ** 2)
        want /= want.sum()
        assert np.allclose(out[8:33], want, atol=1e-9)
        assert abs(out.sum() - 1.0) < 1e-9

    def test_constant_invariant(self):
        out = gaussian_blur(np.full((10, 12), 5.0), 2.0)
        assert np.allclose(out, 5.0, atol=1e-12)

    def test_sum_conserved(self):
        rng = np.random.default_rng(4)
        img = np.zeros((40, 40))
        img[10:30, 10:30] = rng.random((20, 20))
        out = gaussian_blur(img, 1.5)
        assert abs(out.sum() - img.sum()) / img.sum() < 1e-6

    def test_linear(self):
        rng = np.random.default_rng(5)
        a, b = rng.random((2, 16, 16))
        lhs = gaussian_blur(2.0 * a + 3.0 * b, 1.2)
        rhs = 2.0 * gaussian_blur(a, 1.2) + 3.0 * gaussian_blur(b, 1.2)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_shift_covariant_interior(self):
        rng = np.random.default_rng(6)
        img = np.zeros(64)
        img[24:40] = rng.random(16)
        out = gaussian_blur(img, 1.0)
        out_shift = gaussian_blur(np.roll(img, 3), 1.0)
        assert np.allclose(out_shift[10:-10], np.roll(out, 3)[10:-10], atol=1e-9)

    def test_anisotropic_voxels(self):
        rng = np.random.default_rng(7)
        vol = rng.random((6, 10, 10))
        out = gaussian_blur(vol, 150.0, voxel_size=(50.0, 50.0, 50.0))
        want = reference_gaussian_blur(vol, 3.0)
        assert np.allclose(out, want, atol=1e-9)

    def test_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            gaussian_blur(np.zeros((4, 4)), 0.0)


def _mirror(n: int, radius: int) -> np.ndarray:
    """Indices of a mirror extension without edge repeat, folded with period 2(n-1) as
    often as the radius needs; a single sample repeats."""
    idx = np.arange(-radius, n + radius)
    if n == 1:
        return np.zeros_like(idx)
    j = np.abs(idx) % (2 * (n - 1))
    return np.where(j > n - 1, 2 * (n - 1) - j, j)


def per_tap_blur(image, sigma, voxel_size) -> np.ndarray:
    """``gaussian_blur`` in its documented order, one axis and one pair of taps at a
    time: ``out = k[r]*p[r:r+n]``, then ``out = out + k[j]*(p[j:j+n] + p[2r-j:2r-j+n])``
    for j = 0..r-1."""
    out = np.asarray(image, dtype=np.float64)
    for axis, v in enumerate(voxel_size):
        k = gaussian_kernel1d(sigma / v)
        r, n = len(k) // 2, out.shape[axis]
        p = np.take(np.moveaxis(out, axis, 0), _mirror(n, r), axis=0)
        acc = k[r] * p[r:r + n]
        for j in range(r):
            acc = acc + k[j] * (p[j:j + n] + p[2 * r - j:2 * r - j + n])
        out = np.moveaxis(acc, 0, axis)
    return out


def traced_peak(fn, *args) -> int:
    """Bytes ``fn(*args)`` allocates at its peak, as tracemalloc counts them."""
    import tracemalloc
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestFixedOrderBlur:
    """The blur sums its taps elementwise in a fixed order: no BLAS routine, bits that
    do not depend on the BLAS build, and no K-fold copy of the image."""

    @pytest.mark.parametrize("shape, sigma, voxel_size", [
        ((57,), 2.5, (1.0,)),
        ((31, 44), 1.5, (1.0, 1.0)),
        ((1, 5), 5.0, (1.0, 1.0)),
        ((3, 1), 5.0, (1.0, 1.0)),
        ((6, 17, 23), 3.0, (2.0, 1.0, 0.5)),
    ])
    def test_equals_per_tap_loop(self, shape, sigma, voxel_size):
        img = np.random.default_rng(31).random(shape) * 1000.0
        got = gaussian_blur(img, sigma, voxel_size=voxel_size)
        assert np.array_equal(got, per_tap_blur(img, sigma, voxel_size))

    def test_calls_no_blas(self, monkeypatch):
        from marmopipe.injsite import hessian_cell_filter

        def blas(*args, **kwargs):
            raise AssertionError("BLAS-backed routine called")
        for name in ("tensordot", "dot", "matmul", "einsum", "inner"):
            monkeypatch.setattr(np, name, blas)
        img = np.random.default_rng(32).random((40, 36))
        gaussian_blur(img, 5.0)
        gaussian_blur(img[None].repeat(3, axis=0), 1.0, voxel_size=(2.0, 1.0, 1.0))
        hessian_cell_filter(img, (2.0, 3.0, 4.0, 5.0))

    def test_blur_peak_is_a_few_images(self):
        img = np.random.default_rng(33).random((300, 300))
        assert traced_peak(gaussian_blur, img, 5.0) <= 6 * img.nbytes

    def test_hessian_peak_is_a_few_windows(self):
        from marmopipe.injsite import hessian_cell_filter
        img = np.random.default_rng(34).random((300, 300))
        assert traced_peak(hessian_cell_filter, img, (2.0, 3.0, 4.0, 5.0)) <= 12 * img.nbytes


def test_mirror_indices_small():
    """The mirror rule the kernels pad by: no edge repeat, period 2(n-1); a single sample
    repeats."""
    assert list(np.pad(np.arange(4), (3, 3), mode="reflect")) == [3, 2, 1, 0, 1, 2, 3, 2, 1, 0]
    assert list(np.pad(np.arange(1), (2, 2), mode="reflect")) == [0, 0, 0, 0, 0]


class TestOldFormulaOracle:
    """Binning and u16 quantization give the bits of their earlier formulas, which
    are copied here."""

    @pytest.mark.parametrize("nz, vz, tz", [
        (4, 50.0, 50.0),   # one slice per bin
        (5, 10.0, 20.0),   # two per bin, a short last bin
        (7, 10.0, 30.0),   # three per bin, a short last bin
    ], ids=["1-slice", "2-slice", "3-slice"])
    def test_box_grid_mean_bits(self, nz, vz, tz):
        from marmopipe.imgcore import BoxGrid, _axis_bins
        rng = np.random.default_rng(nz)
        data = rng.uniform(0.0, 65535.0, (nz, 23, 29))
        voxel, target = (1.34, 1.34, vz), (5.0, 4.0, tz)
        grid = BoxGrid(data.shape, voxel, target)
        by, bx = _axis_bins(23, 1.34, 4.0), _axis_bins(29, 1.34, 5.0)
        _, oy, ox = grid.shape
        lengths = [z1 - z0 for z0, z1 in grid.z_ranges]
        assert lengths[-1] < max(lengths) or max(lengths) == 1
        for _ in range(2):  # the second pass reads the cached counts
            for z0, z1 in grid.z_ranges:
                slab = data[z0:z1]
                flat = np.tile((by[:, None] * ox + bx[None, :]).ravel(), len(slab))
                sums = np.bincount(flat, weights=slab.ravel(), minlength=oy * ox)
                counts = np.bincount(flat, minlength=oy * ox)
                want = (sums / counts).reshape(oy, ox)
                assert grid.mean(slab).tobytes() == want.tobytes()
                assert grid.mean(list(slab)).tobytes() == want.tobytes()

    def test_u16_write_bits(self, tmp_path):
        plane = np.array([[-3.0, -0.5, -0.2, 0.5, 1.5, 2.5],
                          [65534.5, 65535.0, 65535.5, 70000.0, 3.49, 1e9]])
        kept = plane.copy()
        with StackWriter(tmp_path / "s", (6, 2, 1), (1.0, 1.0, 1.0), "NONE", "u16") as out:
            out.write(plane)
        want = np.clip(np.rint(kept), 0, 65535).astype("<u2")
        assert (tmp_path / "s.raw").read_bytes() == want.tobytes()
        assert plane.tobytes() == kept.tobytes()  # the caller's slice is left as it was
