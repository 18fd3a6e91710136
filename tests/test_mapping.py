import hashlib

import numpy as np
import pytest

from marmopipe import mapping
from marmopipe.imgcore import Stack3D, StackWriter, write_stack
from marmopipe.injsite import CellPointCloud
from marmopipe.mapping import (
    ConnectivityTable,
    DisplacementField,
    FieldReader,
    RegionAtlas,
    apply_field,
    injection_regions,
    load_field,
    map_stack,
    projection_strengths,
    save_field,
    tally_regions,
)

import oracles


def stack_of(data, voxel=(1.0, 1.0, 1.0)):
    return Stack3D(np.asarray(data, dtype=np.float64), voxel)


class TestApplyField:
    def test_identity_nearest_exact(self):
        rng = np.random.default_rng(0)
        stack = stack_of(rng.integers(0, 100, (4, 5, 6)).astype(float), (1.34, 1.34, 50.0))
        field = DisplacementField(np.zeros((3, *stack.data.shape)), stack.voxel_size)
        out = apply_field(stack, field, interpolation="nearest")
        assert np.array_equal(out.data, stack.data)

    def test_identity_linear_exact(self):
        rng = np.random.default_rng(1)
        stack = stack_of(rng.random((4, 5, 6)), (1.34, 1.34, 50.0))
        field = DisplacementField(np.zeros((3, *stack.data.shape)), stack.voxel_size)
        out = apply_field(stack, field, interpolation="linear")
        assert np.array_equal(out.data, stack.data)

    def test_translation_by_one_voxel(self):
        rng = np.random.default_rng(2)
        stack = stack_of(rng.random((4, 6, 6)), (2.0, 2.0, 2.0))
        field = DisplacementField(np.zeros((3, *stack.data.shape)), stack.voxel_size)
        field.disp[0, :, :, :] = 2.0  # +1 voxel in x: sample from x+1
        out = apply_field(stack, field, interpolation="nearest")
        assert np.array_equal(out.data[:, :, :-1], stack.data[:, :, 1:])
        assert np.all(out.data[:, :, -1] == 0.0)

    @pytest.mark.parametrize("case", ["random", "y_only", "integer_shift"])
    def test_random_smooth_field_vs_scalar_oracle(self, case):
        rng = np.random.default_rng(3)
        if case == "random":
            stack = stack_of(rng.random((5, 7, 6)), (2.0, 3.0, 4.0))
            field = DisplacementField(np.zeros((3, 4, 5, 5)), (3.0, 3.5, 4.5))
            field.disp[:] = rng.normal(0, 2.0, field.disp.shape)
        else:  # congruent grids, so x and z (and with whole voxels, y) fractions are 0
            stack = stack_of(rng.random((4, 5, 5)), (3.0, 3.5, 4.5))
            field = DisplacementField(np.zeros((3, 4, 5, 5)), (3.0, 3.5, 4.5))
            if case == "y_only":
                field.disp[1] = rng.normal(0, 2.0, field.disp[1].shape)
            else:
                voxels = rng.integers(-2, 3, field.disp.shape)
                field.disp[:] = voxels * np.array(field.voxel_size)[:, None, None, None]
        out = apply_field(stack, field, interpolation="linear")
        (vx, vy, vz), (sx, sy, sz) = field.voxel_size, stack.voxel_size
        nz, ny, nx = field.shape
        for z in range(nz):
            for y in range(ny):
                for x in range(nx):
                    pos = np.array([
                        ((z + 0.5) * vz + field.disp[2, z, y, x]) / sz - 0.5,
                        ((y + 0.5) * vy + field.disp[1, z, y, x]) / sy - 0.5,
                        ((x + 0.5) * vx + field.disp[0, z, y, x]) / sx - 0.5,
                    ])
                    want = oracles.linear_resample_oracle(stack.data, pos)
                    assert abs(out.data[z, y, x] - want) < 1e-12

    def test_out_of_domain_zero(self):
        stack = stack_of(np.ones((2, 2, 2)))
        field = DisplacementField(np.zeros((3, 2, 2, 2)), (1.0, 1.0, 1.0))
        field.disp[2] = -100.0
        out = apply_field(stack, field, interpolation="nearest")
        assert not out.data.any()

    def test_bad_interpolation(self):
        stack = stack_of(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            apply_field(stack, DisplacementField(np.zeros((3, 2, 2, 2)), (1, 1, 1)), "cubic")


def resample_case(i: int, root) -> str:
    """Write random case ``i``, a source stack ``root/src`` and a saved field
    ``root/field``, and return its interpolation.  Every third case is congruent; the
    others put the field on a grid of other spacings over about the source's extent.
    Offsets of about 0.4 source voxels, plus a shift of 1.5 voxels in every fifth case,
    take some samples out of the source; an axis without offsets (drawn 3 times in 10)
    has its upper corners skipped."""
    rng = np.random.default_rng(500 + i)
    shape = tuple(int(n) for n in rng.integers(2, 8, 3))
    voxel = np.round(rng.uniform(0.5, 3.0, 3), 2)
    dtype = "u16" if i % 4 == 1 else "f32"
    scale = 1000.0 if dtype == "u16" else 1.0
    write_stack(Stack3D(rng.random(shape) * scale, tuple(voxel), dtype=dtype), root / "src")
    grid, spacing = shape, voxel
    if i % 3:
        spacing = voxel * rng.uniform(0.7, 1.3, 3)
        grid = tuple(max(2, round(n * v / w))
                     for n, v, w in zip(shape, voxel[::-1], spacing[::-1]))
    disp = rng.normal(0.0, 0.4, (3,) + grid)
    disp[rng.random(3) < 0.3] = 0.0
    if i % 5 == 4:
        disp += 1.5
    save_field(DisplacementField(disp * voxel[:, None, None, None], tuple(spacing)),
               root / "field")
    return ("linear", "nearest")[i % 2]


# sha256 (first 16 hex digits) of the .hdr and .raw bytes of each case, as the map
# stage wrote them before it streamed: load_field, then apply_field on the whole
# source, then write_stack.
PINNED_RESAMPLE = (
    "53db4f33faf4e09a", "e877955dc449a553", "881caa3affc15ac6", "cd872881d79c321a",
    "3d2e19c8dd102839", "40fb50a1b7f8040b", "be21d1731f4c270b", "1463ab373c0c00a5",
    "5013691055c7b9de", "e01c3061126b4613", "93b4b5b15d0e28f0", "b533515db041cab3",
    "5384442f7530fc3f", "a3f36c5e7f9bbee4", "0a52c2933d38bc6b", "71d599bc6fe1cb2e",
    "8828e423ec4fecf8", "dcb22f2396d8eb0e", "db66e8e6e3d0683e", "dc8f6e3ec5557b97",
    "c56b41a60b21dd34", "b483e34efa1c2c05", "37f04006ad86fe2d", "da34a0b4e1c498f1",
    "5975d8786165da39", "f0ae824b10e4d015", "3e4f1899a77ee63e", "62b8f2f64589a566",
    "71ad1a3cb11adc4d", "20d67b84034341d3", "e89d0b2ee0f5e91b", "0a83a9adef8bef7a",
    "af2c8bdbf13cb1d9", "f2534740cfb92f4a", "658d09d3e7f184be", "9da9d23a9e401da6",
)


def test_streamed_map_matches_the_whole_volume_bytes(tmp_path):
    """``map_stack`` writes, case by case, the bytes of the whole-volume map stage."""
    got = []
    for i in range(len(PINNED_RESAMPLE)):
        root = tmp_path / str(i)
        root.mkdir()
        map_stack(root / "src", root / "field", resample_case(i, root), root / "out")
        blob = (root / "out.hdr").read_bytes() + (root / "out.raw").read_bytes()
        got.append(hashlib.sha256(blob).hexdigest()[:16])
    assert [i for i, (a, b) in enumerate(zip(got, PINNED_RESAMPLE)) if a != b] == []


@pytest.mark.parametrize("rows", [1, 3])
def test_row_blocks_keep_the_pinned_bytes(tmp_path, monkeypatch, rows):
    """Blocks of one or of three rows, so that most cases take several, give every
    case the bytes pinned for the whole-volume map stage."""
    got = []
    for i in range(len(PINNED_RESAMPLE)):
        root = tmp_path / str(i)
        root.mkdir()
        interpolation = resample_case(i, root)
        monkeypatch.setattr(mapping, "_BLOCK_PIXELS", rows * FieldReader(root / "field").shape[2])
        map_stack(root / "src", root / "field", interpolation, root / "out")
        blob = (root / "out.hdr").read_bytes() + (root / "out.raw").read_bytes()
        got.append(hashlib.sha256(blob).hexdigest()[:16])
    assert [i for i, (a, b) in enumerate(zip(got, PINNED_RESAMPLE)) if a != b] == []


def banded_case(congruent: bool):
    """A 3 x 40 x 37 source with signed zeros and a field whose offsets change from
    band to band of rows: x moves in rows 8-23 only, y by whole source voxels in rows
    0-19 and by fractions below, z in rows 30-39 only (some samples leave the source),
    and row 5 holds -0.0 offsets.  On a congruent grid a block of rows 0-7 has no
    offset in x or z and no fraction at all."""
    rng = np.random.default_rng(37)
    shape, voxel = (3, 40, 37), (1.5, 2.0, 4.0)
    source = rng.random(shape) * 100.0
    source[rng.random(shape) < 0.2] = -0.0
    spacing = voxel if congruent else (1.3, 2.2, 3.5)
    disp = np.zeros((3,) + shape)
    disp[0, :, 8:24] = rng.normal(0.0, 0.7, (3, 16, 37)) * voxel[0]
    disp[1, :, :20] = rng.integers(-2, 3, (3, 20, 37)) * voxel[1]
    disp[1, :, 20:] = rng.normal(0.0, 1.5, (3, 20, 37)) * voxel[1]
    disp[2, :, 30:] = rng.normal(0.0, 1.0, (3, 10, 37)) * voxel[2]
    disp[:, :, 5] = -0.0
    return Stack3D(source, voxel), DisplacementField(disp, spacing)


@pytest.mark.parametrize("interpolation", ["linear", "nearest"])
@pytest.mark.parametrize("congruent", [True, False])
def test_row_blocks_give_the_bytes_of_one_block(tmp_path, monkeypatch, congruent,
                                                 interpolation):
    """Where blocks differ in which axes move and which fractions are 0, blocks of 1, 3
    and 7 rows give the bytes of one 40-row block, signed zeros included: in memory
    (float64) and through ``map_stack`` (f32 source and field on disk)."""
    stack, field = banded_case(congruent)
    write_stack(stack, tmp_path / "src")
    save_field(field, tmp_path / "field")
    _, ny, nx = field.shape

    def resampled(rows):
        monkeypatch.setattr(mapping, "_BLOCK_PIXELS", rows * nx)
        in_memory = apply_field(stack, field, interpolation).data.tobytes()
        map_stack(tmp_path / "src", tmp_path / "field", interpolation, tmp_path / "out")
        return in_memory, (tmp_path / "out.raw").read_bytes()

    one_block = resampled(ny)
    if interpolation == "nearest":  # the compared bytes hold signed zeros
        assert np.signbit(np.frombuffer(one_block[0])).any()
    for rows in (1, 3, 7):
        assert resampled(rows) == one_block, rows


@pytest.mark.parametrize("interpolation", ["linear", "nearest"])
def test_one_slab_per_slice_however_the_z_offsets_vary(monkeypatch, interpolation):
    """One-row blocks of a field whose z offsets change from row to row read one source
    slab per reference slice, the slices its positions touch; with no z offset on the
    source grid a reference slice reads its own source slice alone."""
    stack, field = banded_case(congruent=True)
    monkeypatch.setattr(mapping, "_BLOCK_PIXELS", field.shape[2])
    reads = []

    def slab(z0, z1):
        reads.append((z0, z1))
        return stack.data[z0:z1]

    pull = mapping._PullBack(field.shape, field.voxel_size, stack.data.shape,
                             stack.voxel_size, slab, interpolation)
    nz = field.shape[0]
    for z in range(nz):
        pull(z, field.disp[:, z])
    to_index, corners = (np.rint, 1) if interpolation == "nearest" else (np.floor, 2)
    start = to_index(np.arange(nz)[:, None, None] + field.disp[2] / stack.voxel_size[2])
    assert reads == [(max(int(s.min()), 0), min(int(s.max()) + corners, nz)) for s in start]
    field.disp[2] = 0.0
    reads.clear()
    for z in range(nz):
        pull(z, field.disp[:, z])
    assert reads == [(z, z + 1) for z in range(nz)]


class TestFieldReader:
    def test_yields_the_stored_f4_planes(self, tmp_path):
        rng = np.random.default_rng(41)
        disp = rng.normal(0.0, 3.0, (3, 4, 5, 6))
        save_field(DisplacementField(disp, (1.0, 2.0, 3.0)), tmp_path / "f")
        planes = list(FieldReader(tmp_path / "f"))
        assert len(planes) == 4
        for z, parts in enumerate(planes):
            assert [p.dtype for p in parts] == [np.dtype("<f4")] * 3
            assert [p.tobytes() for p in parts] == [d[z].astype("<f4").tobytes() for d in disp]

    @pytest.mark.parametrize("tag", ["dx", "dy", "dz"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_nonfinite_part_fails_and_leaves_no_header(self, tmp_path, tag, bad):
        """A non-finite value in the last slice of any part fails ``load_field`` and
        ``map_stack``, which leaves no ``dest`` header, not even the previous one."""
        shape, voxel = (3, 4, 5), (1.0, 1.0, 1.0)
        write_stack(Stack3D(np.ones(shape), voxel), tmp_path / "src")
        save_field(DisplacementField(np.full((3,) + shape, 0.25), voxel), tmp_path / "f")
        map_stack(tmp_path / "src", tmp_path / "f", "linear", tmp_path / "out")
        assert (tmp_path / "out.hdr").exists()
        part = np.full(shape, 0.25, dtype=np.float32)
        part[-1, 2, 3] = bad
        with StackWriter(tmp_path / f"f_{tag}", shape[::-1], voxel) as out:
            for plane in part:
                out.write(plane)
        with pytest.raises(ValueError, match="displacement vectors must be finite"):
            load_field(tmp_path / "f")
        with pytest.raises(ValueError, match="displacement vectors must be finite"):
            map_stack(tmp_path / "src", tmp_path / "f", "linear", tmp_path / "out")
        assert not (tmp_path / "out.hdr").exists()


def test_streamed_target_sums_are_one_bincount():
    """Carried through one ``bincount`` per slice, the target sums are the bits of one
    whole-volume ``bincount``; per-slice partial sums, added up, are not."""
    rng = np.random.default_rng(14)
    labels = rng.integers(0, 6, (40, 24, 24))
    signal = rng.random(labels.shape) * 10.0 ** rng.uniform(-4, 4, labels.shape)
    whole = np.bincount(labels.ravel(), weights=signal.ravel())
    assert tally_regions(labels, signal=signal).sums.tobytes() == whole.tobytes()
    partial = sum(np.bincount(lab.ravel(), weights=sig.ravel(), minlength=6)
                  for lab, sig in zip(labels, signal))
    assert partial.tobytes() != whole.tobytes()


def three_region_atlas(shape=(3, 4, 9)):
    labels = np.zeros(shape, dtype=np.int64)
    labels[:, :, 0:3] = 1
    labels[:, :, 3:6] = 2
    labels[:, :, 6:9] = 3
    return RegionAtlas(labels=labels, voxel_size=(1.0, 1.0, 1.0))


class TestInjectionRegions:
    def test_mask_in_one_region(self):
        atlas = three_region_atlas()
        mask = np.zeros((3, 4, 9))
        mask[1, 1:3, 0:2] = 1.0
        counts, outside = injection_regions(stack_of(mask), atlas)
        assert counts == {1: 4, 2: 0, 3: 0}
        assert outside == 0

    def test_empty_mask(self):
        counts, outside = injection_regions(stack_of(np.zeros((3, 4, 9))), three_region_atlas())
        assert counts == {1: 0, 2: 0, 3: 0}
        assert outside == 0

    def test_random_mask_vs_loop(self):
        rng = np.random.default_rng(9)
        atlas = three_region_atlas()
        mask = (rng.random((3, 4, 9)) > 0.5).astype(float)
        counts, outside = injection_regions(stack_of(mask), atlas)
        want = {}
        for z in range(3):
            for y in range(4):
                for x in range(9):
                    if mask[z, y, x]:
                        rid = int(atlas.labels[z, y, x])
                        want[rid] = want.get(rid, 0) + 1
        for rid in (1, 2, 3):
            assert counts[rid] == want.get(rid, 0)

    def test_point_cloud_counts(self):
        atlas = three_region_atlas()
        cloud = CellPointCloud(
            points=np.array([[0, 0, 0], [4, 1, 1], [8, 3, 2], [50, 0, 0]]),
            scores=np.ones(4),
        )
        counts, outside = injection_regions(cloud, atlas)
        assert counts == {1: 1, 2: 1, 3: 1}
        assert outside == 1  # out-of-bounds point


class TestProjectionStrengths:
    def test_zero_signal(self):
        sums, outside = projection_strengths(stack_of(np.zeros((3, 4, 9))), three_region_atlas())
        assert all(v == 0.0 for v in sums.values())
        assert outside == 0.0

    def test_indicator_sums_voxel_count(self):
        atlas = three_region_atlas()
        signal = (atlas.labels == 2).astype(float)
        sums, _ = projection_strengths(stack_of(signal), atlas)
        assert sums[2] == float((atlas.labels == 2).sum())
        assert sums[1] == 0.0

    def test_random_vs_loop_and_conservation(self):
        rng = np.random.default_rng(10)
        atlas = three_region_atlas()
        signal = rng.random((3, 4, 9)) * 10
        sums, outside = projection_strengths(stack_of(signal), atlas)
        for rid in (1, 2, 3):
            want = float(signal[atlas.labels == rid].sum())
            assert abs(sums[rid] - want) < 1e-9
        total = sum(sums.values()) + outside
        assert abs(total - signal.sum()) / signal.sum() < 1e-6

    def test_normalized(self):
        atlas = three_region_atlas()
        signal = np.ones((3, 4, 9))
        sums, _ = projection_strengths(stack_of(signal), atlas, normalize=True)
        assert sums == {1: 1.0, 2: 1.0, 3: 1.0}


class TestPersistence:
    def test_field_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        field = DisplacementField(
            disp=rng.normal(0, 3, (3, 2, 3, 4)).astype(np.float32).astype(np.float64),
            voxel_size=(1.0, 2.0, 3.0),
        )
        save_field(field, tmp_path / "f")
        back = load_field(tmp_path / "f")
        assert np.array_equal(back.disp, field.disp)
        assert back.voxel_size == field.voxel_size

    def test_atlas_round_trip(self, tmp_path):
        atlas = three_region_atlas()
        atlas.names[1] = "left"
        atlas.save(tmp_path / "atlas")
        back = RegionAtlas.load(tmp_path / "atlas")
        assert np.array_equal(back.labels, atlas.labels)
        assert back.names[1] == "left"
        assert back.names[2] == "region_2"

    def test_table_round_trip(self, tmp_path):
        table = ConnectivityTable(
            brain_id="b01", injection_id="i02",
            sources={1: 40.0}, targets={1: 0.0, 2: 123.5, 3: 7.25},
            outside_source=2.0, outside_target=0.5,
            meta={"resolution_um": "1.34"},
        )
        table.save(tmp_path / "t.txt")
        back = ConnectivityTable.load(tmp_path / "t.txt")
        assert back.brain_id == "b01" and back.injection_id == "i02"
        assert back.sources == table.sources
        assert back.targets == table.targets
        assert back.outside_source == 2.0 and back.outside_target == 0.5
        assert back.meta["resolution_um"] == "1.34"


def test_linear_on_labels_warns(caplog):
    import logging
    labels = Stack3D(np.zeros((3, 3, 3)), (1.0, 1.0, 1.0), dtype="u16")
    labels.data[1, 1, 1] = 2.0
    field = DisplacementField(np.zeros((3, 3, 3, 3)), (1.0, 1.0, 1.0))
    with caplog.at_level(logging.WARNING, logger="marmopipe.mapping"):
        apply_field(labels, field, interpolation="linear")
    assert any("nearest" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("interpolation", ["linear", "nearest"])
def test_apply_field_memory_is_bounded_by_slices(interpolation):
    import tracemalloc
    rng = np.random.default_rng(12)
    stack = stack_of(rng.random((24, 40, 32)), (1.34, 1.34, 50.0))
    field = DisplacementField(np.zeros((3, *stack.data.shape)), stack.voxel_size)
    field.disp[1] = 3.0 * np.sin(np.arange(32) / 5.0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        apply_field(stack, field, interpolation=interpolation)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * stack.data.nbytes


@pytest.mark.parametrize("interpolation", ["linear", "nearest"])
def test_map_stack_peak_is_a_few_slices(tmp_path, interpolation):
    """One ``map_stack`` call through a y-only field holds a few reference slices at a
    time, not one array per corner: intensities on the field's own grid (linear), and
    a coarse u16 mask mapped onto it (nearest)."""
    import tracemalloc
    rng = np.random.default_rng(23)
    shape, voxel = (6, 120, 96), (1.34, 1.34, 50.0)
    nz, ny, nx = shape
    disp = np.zeros((3, *shape))
    disp[1] = 3.0 * np.cos(np.arange(nz) / 4.0)[:, None, None] * np.sin(np.arange(nx) / 9.0)
    save_field(DisplacementField(disp, voxel), tmp_path / "field")
    if interpolation == "linear":
        source = Stack3D(rng.random(shape) * 100.0, voxel)
    else:
        source = Stack3D(rng.integers(0, 3, (4, 3, 6)).astype(float), (50.0, 50.0, 50.0),
                         dtype="u16")
    write_stack(source, tmp_path / "src")
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        map_stack(tmp_path / "src", tmp_path / "field", interpolation, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 24 * ny * nx * 8


@pytest.mark.parametrize("interpolation", ["linear", "nearest"])
def test_non_finite_source_voxels_stay_where_they_are(interpolation):
    """``inf`` and ``NaN`` source voxels reach only the samples that weigh them: every
    sample outside the source is exactly 0.0, even where a clipped index would read a
    non-finite voxel, and a weight-0 upper corner on an ``inf`` adds no ``NaN``."""
    rng = np.random.default_rng(31)
    source = rng.random((3, 4, 5))
    source[1, 2, :] = np.inf
    source[0, 0, 0] = source[2, 3, 4] = source[1, 3, 0] = np.nan
    field = DisplacementField(np.zeros((3, 3, 4, 5)), (1.0, 1.0, 1.0))
    field.disp[1] = 0.25     # a y fraction on the slice, so upper y corners are visited
    field.disp[1, 1, 1] = 0.0  # on source row y = 1: the upper corner is the inf row, weight 0
    outside = np.zeros((3, 4, 5), dtype=bool)
    for where, axis, offset in (((0, slice(None), 0), 0, -10.0), ((2, slice(None), 4), 0, 10.0),
                                ((2, 0, slice(None)), 2, -100.0), ((0, 3, slice(1, 4)), 1, 5.0)):
        field.disp[(axis,) + where] = offset
        outside[where] = True
    with np.errstate(invalid="raise"):
        out = apply_field(stack_of(source), field, interpolation=interpolation).data
    assert np.array_equal(out[outside], np.zeros(outside.sum()))
    assert not np.signbit(out[outside]).any()
    assert np.array_equal(out[1, 1], source[1, 1])
