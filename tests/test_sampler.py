import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torusfp as tf
from torusfp import report, sampler
from torusfp.errors import ValidationError
from torusfp.lattice import RESOLUTION_CAP, grid_points
from torusfp.potential import fine_lattice
from torusfp.report import csv_text, fast_domain
from torusfp.sampler import GibbsDensity, box_probabilities, density_tv_quadrature

from conftest import coupled_potential, small_mlp
from oracles import discrete_state_tv, interpolation_error_bound_check


def _normalized(fld):
    return tf.GridField(fld.lattice, fld.values / fld.norm(), is_real=fld.is_real)


def _uniform_state(lat):
    return tf.GridField(lat, np.full(lat.shape, 1 / math.sqrt(lat.size)), is_real=True)


# ---------------------------------------------------------------------------
# upsampling


def test_upsample_identity_at_M_equals_N(rng):
    lat = tf.make_lattice(1, 6, 1.0)
    psi = _normalized(tf.GridField(lat, rng.standard_normal(lat.shape), is_real=True))
    out = tf.upsample(psi, 6)
    assert np.abs(out.values - psi.values).max() <= 1e-12


def test_upsample_nyquist_band_limited(rng):
    # a function with max frequency <= N discretizes consistently on any
    # finer lattice, up to the node-count normalization
    l = 1.0
    for d in (1, 2):
        latN = tf.make_lattice(d, 4, l)
        latM = tf.make_lattice(d, 9, l)

        def u(pts):
            phase = 2 * np.pi / l
            s = np.cos(phase * pts[..., 0]) + 0.3
            for j in range(1, d):
                s = s + 0.5 * np.sin(2 * phase * pts[..., j])
            return s + 2.0

        uN = _normalized(tf.discretize(u, latN))
        uM = _normalized(tf.discretize(u, latM))
        up = tf.upsample(uN, 9)
        assert np.abs(up.values - uM.values).max() <= 1e-10


def test_upsample_isometry_and_validation(rng):
    lat = tf.make_lattice(2, 3, 1.0)
    psi = _normalized(tf.GridField(lat, rng.standard_normal(lat.shape), is_real=True))
    out = tf.upsample(psi, 8)
    assert abs(out.norm() - 1.0) <= 1e-12
    with pytest.raises(ValidationError):
        tf.upsample(psi, 2)
    with pytest.raises(ValidationError):
        tf.upsample(tf.GridField(lat, 2.0 * psi.values), 8)
    # one NaN node makes the norm NaN, which fails the unit-norm check too
    values = psi.values.copy()
    values[1, 2] = np.nan
    with pytest.raises(ValidationError, match="unit-norm"):
        tf.upsample(tf.GridField(lat, values, is_real=True), 8)


# ---------------------------------------------------------------------------
# continuous sampling


def test_one_hot_state_samples_center_box():
    lat = tf.make_lattice(1, 4, 1.0)
    vals = np.zeros(lat.shape)
    vals[4] = 1.0  # node n = 0
    batch = tf.continuous_sample(tf.GridField(lat, vals, is_real=True), 500, seed=1)
    half_box = 1.0 / (2 * (2 * 4 + 1))
    assert np.abs(batch.points).max() <= half_box


def test_uniform_state_chi2_goodness_of_fit():
    lat = tf.make_lattice(1, 64, 1.0)
    batch = tf.continuous_sample(_uniform_state(lat), 100_000, seed=42)
    counts, _ = np.histogram(batch.points[:, 0], bins=50, range=(-0.5, 0.5))
    expected = 100_000 / 50
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < scipy.stats.chi2.ppf(1 - 1e-3, 49)


def test_box_frequencies_match_multinomial(rng):
    lat = tf.make_lattice(1, 16, 1.0)
    vals = rng.random(lat.shape) + 0.2
    psi = _normalized(tf.GridField(lat, vals, is_real=True))
    n = 100_000
    batch = tf.continuous_sample(psi, n, seed=123)
    p = box_probabilities(psi)
    idx = np.floor((batch.points[:, 0] + 0.5) * lat.points_per_axis).astype(int)
    counts = np.bincount(idx, minlength=lat.size)
    z = np.abs(counts - n * p) / np.sqrt(n * p * (1 - p))
    assert z.max() <= 4.0


def test_sampling_determinism():
    lat = tf.make_lattice(2, 4, 1.0)
    psi = _uniform_state(lat)
    b1 = tf.continuous_sample(psi, 1000, seed=77)
    b2 = tf.continuous_sample(psi, 1000, seed=77)
    assert np.array_equal(b1.points, b2.points)
    assert b1.to_csv() == b2.to_csv()
    b3 = tf.continuous_sample(psi, 1000, seed=78)
    assert not np.array_equal(b1.points, b3.points)


def test_sampling_does_not_lay_out_the_lattice(rng, monkeypatch):
    # the drawn box centres come from their multi-indices: the same points as
    # indexing the coordinates of every node, which are never laid out
    lat = tf.make_lattice(2, 6, 2 * np.pi)
    psi = _normalized(tf.GridField(lat, rng.standard_normal(lat.shape), is_real=True))
    count, seed = 1000, 5
    philox = np.random.Generator(np.random.Philox(key=seed))
    cum = np.cumsum(box_probabilities(psi).reshape(-1))
    cum[-1] = 1.0
    idx = np.searchsorted(cum, philox.random(count), side="right")
    offsets = (philox.random((count, lat.d)) - 0.5) * (lat.l / lat.points_per_axis)
    expected = np.mod(lat.points()[idx] + offsets + lat.l / 2, lat.l) - lat.l / 2

    def no_points(self):
        raise AssertionError("every node was laid out")

    monkeypatch.setattr(tf.TorusLattice, "points", no_points)
    assert np.array_equal(tf.continuous_sample(psi, count, seed).points, expected)


def _mod_oracle(psi, count, seed):
    """The sample of ``continuous_sample`` by the direct formula: searchsorted
    on the draws as they come, every node's coordinates, and np.mod."""
    lat = psi.lattice
    philox = np.random.Generator(np.random.Philox(key=seed))
    cum = np.cumsum(box_probabilities(psi).reshape(-1))
    cum[-1] = 1.0
    idx = np.searchsorted(cum, philox.random(count), side="right")
    offsets = (philox.random((count, lat.d)) - 0.5) * (lat.l / lat.points_per_axis)
    return np.mod(lat.points()[idx] + offsets + lat.l / 2, lat.l) - lat.l / 2


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    N=st.integers(0, 4),
    l=st.sampled_from([1.0, 0.3, 2 * np.pi, 1e5]),
    support=st.sampled_from(["all", "sparse", "edge"]),
    count=st.integers(1, 3000),
    seed=st.integers(0, 2**64 - 1),
    chunk=st.sampled_from([1, 7, 256, sampler.CSV_CHUNK]),
)
@example(d=2, N=0, l=1.0, support="all", count=500, seed=1, chunk=sampler.CSV_CHUNK)
@example(d=3, N=1, l=2 * np.pi, support="edge", count=3000, seed=2, chunk=7)
@example(d=1, N=4, l=0.3, support="sparse", count=3000, seed=3, chunk=256)
@example(d=2, N=4, l=1.0, support="edge", count=2 * sampler.CSV_CHUNK + 5, seed=4, chunk=sampler.CSV_CHUNK)
def test_sampling_matches_searchsorted_and_mod(d, N, l, support, count, seed, chunk):
    # boxes of zero probability leave flat runs in the cumulative sum; a
    # one-node axis (N = 0) makes its box the whole period; mass on the edge
    # boxes alone sends about half the points past the domain's ends.  The
    # sampler draws and places its points ``chunk`` rows at a time, so counts
    # past one chunk cross its boundaries
    lat = tf.TorusLattice(d, N, l)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(lat.shape)
    if support == "sparse":
        values[rng.random(lat.shape) < 0.7] = 0.0
        values.flat[rng.integers(lat.size)] = 1.0
    elif support == "edge":
        inner = tuple(slice(1, -1) for _ in range(d))
        values[inner] = 0.0
        values.flat[0] = 1.0
    psi = _normalized(tf.GridField(lat, values, is_real=True))
    with mock.patch.object(sampler, "CSV_CHUNK", chunk):
        points = tf.continuous_sample(psi, count, seed).points
    assert np.array_equal(points, _mod_oracle(psi, count, seed))


@pytest.mark.parametrize("d, N", [(1, 40), (2, 6), (3, 3)])
@pytest.mark.parametrize("count", [1, 5, 300, 2**14 + 3])
def test_guide_table_inversion_is_searchsorted_on_adversarial_draws(d, N, count):
    # box masses over twelve decades put runs of tiny boxes into one bucket
    # (past the four steps); a zero stretch mid-lattice and the last boxes
    # zeroed leave flat runs of cum, the last ones near 1.  The draws are the
    # cum entries and the doubles just below them, the bucket edges k / K and
    # the doubles just below them, whose u K is just below an integer.  One
    # table for all the draws serves them in chunks, as in the sampler
    rng = np.random.default_rng(40 + d)
    lat = tf.TorusLattice(d, N, 1.0)
    values = rng.standard_normal(lat.size) * 10.0 ** rng.uniform(-6, 0, lat.size)
    values[lat.size // 3 : lat.size // 2] = 0.0
    values[-3:] = 0.0
    cum = np.cumsum(box_probabilities(tf.GridField(lat, values.reshape(lat.shape), is_real=True)).reshape(-1))
    cum[-1] = 1.0
    guide = sampler._guide_table(cum, count)
    assert guide.dtype == np.int32
    assert guide.size == 1 << (min(4 * lat.size, count).bit_length() - 1)
    edges = np.arange(guide.size) / guide.size
    special = np.concatenate([cum, np.nextafter(cum, 0), edges, np.nextafter(edges, 0), [np.nextafter(1.0, 0)]])
    special = special[(special >= 0) & (special < 1)]
    draws = rng.random(count)
    draws[: special.size] = rng.permutation(special)[:count]
    boxes = np.concatenate([sampler._invert_cdf(cum, guide, draws[s : s + 97]) for s in range(0, count, 97)])
    assert boxes.dtype == np.int32
    assert np.array_equal(boxes, np.searchsorted(cum, draws, side="right"))


def test_box_indices_fit_int32(monkeypatch):
    # the sampler holds its boxes as int32: it samples lattices of at most
    # RESOLUTION_CAP nodes, so every box index is below it, and refuses a
    # larger one built without make_lattice
    assert RESOLUTION_CAP - 1 <= np.iinfo(np.int32).max
    lat = tf.TorusLattice(2, 4, 1.0)
    monkeypatch.setattr(sampler, "RESOLUTION_CAP", lat.size - 1)
    with pytest.raises(tf.SizeError, match="lattice has 81 nodes, exceeding the cap 80"):
        tf.continuous_sample(_uniform_state(lat), 10, seed=1)


def test_sampling_memory_stays_near_its_output():
    # 100000 points at d = 2 are 1.5 MiB and their int32 boxes 0.4 MiB; the
    # rest is done a chunk of rows at a time.  The direct formula held about
    # 9 MiB, and one pass over the whole batch with int64 boxes and divmod 4.6
    lat = tf.make_lattice(2, 25, 1.0)
    psi = _normalized(tf.GridField(lat, np.random.default_rng(4).standard_normal(lat.shape), is_real=True))
    tracemalloc.start()
    try:
        batch = tf.continuous_sample(psi, 100_000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.count == 100_000
    assert peak < 2.5 * 2**20


def test_sample_count_cap(monkeypatch):
    lat = tf.make_lattice(2, 4, 1.0)
    with pytest.raises(tf.SizeError, match=f"sample count 100000000000 needs 200000000000 coordinates, cap is {sampler.SAMPLE_CAP}"):
        tf.continuous_sample(_uniform_state(lat), 10**11, seed=1)
    with pytest.raises(tf.SizeError, match="sample count 100000000000"):
        tf.run_pipeline(tf.cosine_potential(1.0, 1, 1.0), N=4, count=10**11, seed=1)
    # the cap counts coordinates: count * d
    monkeypatch.setattr(sampler, "SAMPLE_CAP", 1000)
    assert tf.continuous_sample(_uniform_state(lat), 500, seed=1).count == 500
    with pytest.raises(tf.SizeError, match="sample count 501 needs 1002 coordinates, cap is 1000"):
        tf.continuous_sample(_uniform_state(lat), 501, seed=1)


@pytest.mark.parametrize(
    "value, inside",
    [
        (-0.5, True),
        (np.nextafter(0.5, 0), True),
        (np.nextafter(-0.5, -1), False),
        (0.5, False),
        (-np.inf, False),
        (np.nan, False),
    ],
)
def test_sample_batch_holds_points_inside_the_domain(value, inside):
    # [-l/2, l/2) is half open, and holds no NaN; the batch is checked by its
    # min and max
    points = np.zeros((5, 2))
    points[3, 1] = value
    if inside:
        assert sampler.SampleBatch(points, l=1.0).count == 5
    else:
        with pytest.raises(ValidationError, match="outside the fundamental domain"):
            sampler.SampleBatch(points, l=1.0)
    assert sampler.SampleBatch(np.empty((0, 2)), l=1.0).count == 0


@pytest.mark.parametrize("chunk", [7, 200, report.CSV_CHUNK])
@pytest.mark.parametrize("d", [1, 3])
def test_samples_csv_matches_csv_text(rng, d, chunk, monkeypatch):
    monkeypatch.setattr(report, "CSV_CHUNK", chunk)
    l = 1e300
    points = rng.uniform(-l / 2, l / 2, (200, d)) * 10.0 ** rng.integers(-320, 1, (200, d))
    # negative zero, the smallest subnormal, a negative subnormal, a huge value
    points.flat[:4] = [-0.0, 5e-324, -1e-310, 4.9e299]
    batch = sampler.SampleBatch(points, l=l)
    header = [f"x{i}" for i in range(d)]
    expected = csv_text(header, ([repr(float(v)) for v in row] for row in batch.points))
    assert batch.to_csv().encode() == expected.encode()
    empty = sampler.SampleBatch(np.empty((0, d)), l=l)
    assert empty.to_csv() == csv_text(header, [])


#: values whose shortest repr is easy to get wrong: signed zero, the smallest
#: subnormal, exponent form, the domain's edges and a float with 16 digits
_AWKWARD = [-0.0, 5e-324, 1e-05, -0.5, 0.49999999999999994, 1 / 3]


@pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 9000])
@pytest.mark.parametrize("d", range(1, 5))
def test_samples_csv_formats_each_chunk_like_csv_text(d, count):
    # the chunks around CSV_CHUNK = 4096 rows: a partial one, exactly one,
    # one plus a row, and more than two
    points = np.random.default_rng(count + d).random((count, d)) - 0.5
    flat = points.reshape(-1)
    for at in {0, count * d - 1, min(report.CSV_CHUNK * d, count * d) - 1}:
        flat[at : at + len(_AWKWARD)] = _AWKWARD[: count * d - at]
    batch = sampler.SampleBatch(points, l=1.0)
    assert batch.to_csv() == csv_text([f"x{i}" for i in range(d)], points.tolist())


@pytest.mark.parametrize("d", range(2, 7))
def test_integer_root_corrects_the_float_root_both_ways(d):
    # past 2^53 the float root misses by more than 0.5, below and above:
    # both correction loops run at every d here
    for k in (2, 3, 10**5 + 7, 10**9 + 9, 3 * 10**16 + 5, 10**17 - 1, 10**17 + 3):
        for n in (k**d - 1, k**d, k**d + 1):
            r = sampler._integer_root(n, d)
            assert r**d <= n < (r + 1) ** d


def test_sample_validation():
    lat = tf.make_lattice(1, 4, 1.0)
    with pytest.raises(ValidationError):
        tf.continuous_sample(_uniform_state(lat), 0, seed=1)
    with pytest.raises(ValidationError, match="sample count must be an integer, got 5.0"):
        tf.continuous_sample(_uniform_state(lat), 5.0, seed=1)
    with pytest.raises(ValidationError):
        tf.continuous_sample(tf.constant_field(lat), 10, seed=1)  # not unit norm
    nan_node = _uniform_state(lat).values.copy()
    nan_node[3] = np.nan
    with pytest.raises(ValidationError, match="unit-norm"):
        tf.continuous_sample(tf.GridField(lat, nan_node, is_real=True), 5, seed=1)


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5, True, math.nan])
def test_sample_seed_outside_the_philox_keys_is_a_validation_error(seed):
    # a float or a bool was once taken as int(seed): recorded as given, drawn as another key
    lat = tf.make_lattice(1, 4, 1.0)
    with pytest.raises(ValidationError, match="seed must be an integer in"):
        tf.continuous_sample(_uniform_state(lat), 10, seed=seed)
    with pytest.raises(ValidationError, match="seed must be an integer in"):
        tf.run_pipeline(tf.cosine_potential(1.0, 1, 1.0), N=4, count=10, seed=seed)
    # the ends of the key range draw
    for key in (0, 2**128 - 1):
        assert tf.continuous_sample(_uniform_state(lat), 10, seed=key).count == 10


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"count": 5.0}, "sample count must be an integer"),
        ({"count": True}, "sample count must be an integer"),
        ({"subcells": 2.5}, "subcells=2.5"),
        ({"M": 6.0}, "M must be an integer"),
        ({"M_cap": 8.5}, "M_cap must be an integer"),
    ],
)
def test_pipeline_refuses_non_integer_arguments(kwargs, match):
    args = {"N": 4, "count": 5, "seed": 1, **kwargs}
    with pytest.raises(ValidationError, match=match):
        tf.run_pipeline(tf.cosine_potential(1.0, 1, 1.0), **args)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tv_distance_refuses_a_non_integer_subcell_count(d):
    # at d = 3 the Monte Carlo TV reads no subcells, and took any value
    E = tf.cosine_potential(1.0, d, 1.0)
    state = _uniform_state(tf.make_lattice(d, 2, 1.0))
    for subcells in (2.5, True, 0):
        with pytest.raises(ValidationError, match="positive integer count of subcells"):
            tf.tv_distance(state, E, subcells=subcells)


def test_pipeline_samples_csv_is_a_repr_join_at_another_seed():
    # the gibbs-dense-2d shape at a smaller size and a seed other than 7
    result = tf.run_pipeline(tf.cosine_potential(1.0, 2, 1.0), N=6, M=12, count=9000, seed=11)
    points = result.batch.points
    assert not np.all(fast_domain(points.ravel()))  # a few values take the repr fallback
    expected = "x0,x1\n" + "".join(f"{x!r},{y!r}\n" for x, y in points.tolist())
    assert result.batch.to_csv() == expected


def test_sampling_density_integrates_to_one(rng):
    lat = tf.make_lattice(2, 5, 1.0)
    psi = _normalized(tf.GridField(lat, rng.standard_normal(lat.shape), is_real=True))
    mu = box_probabilities(psi) * (lat.points_per_axis / lat.l) ** 2
    box_vol = (lat.l / lat.points_per_axis) ** 2
    assert abs(mu.sum() * box_vol - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# exact density and TV


def test_exact_gibbs_density_flat():
    oracle = GibbsDensity(tf.zero_potential(1, 2.0))
    np.testing.assert_allclose(oracle.density(np.array([[0.3]])), 0.5, rtol=1e-12)


def test_exact_gibbs_density_bessel_normalizer():
    # Z = 2 pi e^{-2} I_0(2) for E = 2(1 - cos x) on l = 2 pi
    E = tf.cosine_potential(2.0, 1, 2 * np.pi)
    oracle = GibbsDensity(E)
    exact_Z = 2 * math.pi * math.exp(-2) * tf.bessel_i(0, 2.0)
    assert abs(oracle.Z - exact_Z) <= 1e-10 * exact_Z


def test_tv_discretized_gibbs_state():
    # |(e^{-E/2})_M> at M=256 lands within 0.01 of the Gibbs density
    E = tf.cosine_potential(2.0, 1, 2 * np.pi)
    lat = tf.make_lattice(1, 256, 2 * np.pi)
    fld = tf.discretize(lambda p: np.exp(-E.evaluate(p) / 2), lat)
    rep = tf.tv_distance(_normalized(fld), E)
    assert rep.method == "quadrature"
    assert rep.tv <= 0.01


def _two_pass_tv(state, raw_density, subcells=32):
    """The quadrature TV as two passes over the grid: the first for Z, the
    second for sum |mu - rho / Z|, each evaluating every subcell midpoint."""
    lat = state.lattice
    n, S, d = lat.points_per_axis, subcells, lat.d
    offsets = ((np.arange(S) + 0.5) / S - 0.5) * (lat.l / n)
    axis = (lat.axis_points()[:, None] + offsets[None, :]).reshape(-1)
    sub_vol = (lat.l / (n * S)) ** d
    mu = box_probabilities(state) * (n / lat.l) ** d
    rows = n ** (2 - d)

    def raw_block(r0):
        pts = grid_points(axis[r0 * S : (r0 + rows) * S], *[axis] * (d - 1))
        return np.asarray(raw_density(pts), dtype=float)

    Z = sum(float(raw_block(r0).sum()) * sub_vol for r0 in range(0, n, rows))
    acc = 0.0
    for r0 in range(0, n, rows):
        rho = (raw_block(r0) / Z).reshape((rows, S) + (n, S) * (d - 1))
        mu_block = mu[r0 : r0 + rows].reshape((rows, 1) + (n, 1) * (d - 1))
        acc += float(np.abs(mu_block - rho).sum()) * sub_vol
    return 0.5 * acc


def _gibbs(E):
    return lambda pts: np.exp(-E.evaluate(pts))


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 2),
    M=st.integers(1, 6),
    z=st.floats(0.0, 8.0),
    subcells=st.integers(1, 16),
    noise=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, None]),
    seed=st.integers(0, 2**16),
)
@example(d=2, M=6, z=8.0, subcells=16, noise=1e-6, seed=0)
@example(d=1, M=1, z=8.0, subcells=3, noise=None, seed=0)
def test_single_pass_tv_matches_two_pass_oracle(d, M, z, subcells, noise, seed):
    # states near the Gibbs density (its discretized square root, perturbed
    # by a relative noise) and far from it (noise None: a random state)
    E = tf.cosine_potential(z, d, 1.0)
    lat = tf.make_lattice(d, M if d == 2 else 7 * M, 1.0)
    rng = np.random.default_rng(seed)
    if noise is None:
        values = rng.standard_normal(lat.shape)
    else:
        values = tf.discretize(lambda p: np.exp(-E.evaluate(p) / 2), lat).values
        values = values * (1 + noise * rng.standard_normal(lat.shape))
    state = _normalized(tf.GridField(lat, values, is_real=True))
    tv = density_tv_quadrature(state, _gibbs(E), subcells)
    assert abs(tv - _two_pass_tv(state, _gibbs(E), subcells)) <= 1e-14


def _gibbs_grid(E):
    return lambda axes: np.exp(-E.evaluate_grid(axes))


def _counting(raw_density):
    """``raw_density`` recording the number of values of each call: points
    handed to a point callable, or grid values returned by an axes callable."""
    counts = []

    def counted(arg):
        vals = np.asarray(raw_density(arg))
        counts.append(vals.size)
        return vals

    return counted, counts


def test_tv_evaluates_each_point_once_at_the_benchmark_smoke_size():
    # the gibbs-dense-2d smoke size: d = 2, M = 8, so 17 boxes per axis
    E = tf.cosine_potential(1.0, 2, 1.0)
    result = tf.run_pipeline(E, N=8, M=8, count=10, seed=7)
    n, S = 17, 32
    counted, counts = _counting(_gibbs(E))
    tv = density_tv_quadrature(result.upsampled, counted)
    assert sum(counts) == (n * S) ** 2 + n**2  # two passes took 2 (n S)^2
    assert abs(tv - _two_pass_tv(result.upsampled, _gibbs(E))) <= 1e-14
    # the pipeline's cosine is a sum over axes: its TV reads one line of
    # midpoints per axis
    assert abs(result.tv_report.tv - tv) <= 1e-14
    assert result.health["tv_passes"] == 1
    assert result.health["tv_eval_points"] == 2 * n * S
    assert result.tv_report.health == {"tv_passes": 1, "tv_eval_points": 2 * n * S}
    assert "health" not in json.loads(result.tv_report.to_json())


def _tv_case(E, M, seed, noise):
    """A state on the d = 2 lattice of half-width M: random for noise None,
    else the discretized square root of e^{-E} perturbed by a relative noise."""
    lat = tf.make_lattice(2, M, E.l)
    rng = np.random.default_rng(seed)
    if noise is None:
        values = rng.standard_normal(lat.shape)
    else:
        values = tf.discretize(lambda p: np.exp(-E.evaluate(p) / 2), lat).values
        values = values * (1 + noise * rng.standard_normal(lat.shape))
    return _normalized(tf.GridField(lat, values, is_real=True))


@settings(max_examples=40, deadline=None)
@given(
    z=st.floats(-4.0, 8.0),
    M=st.integers(1, 8),
    subcells=st.integers(1, 16),
    noise=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, None]),
    seed=st.integers(0, 2**16),
)
@example(z=30.0, M=2, subcells=16, noise=0.0, seed=0)
@example(z=30.0, M=2, subcells=1, noise=None, seed=1)
@example(z=30.0, M=2, subcells=7, noise=1e-3, seed=2)
@example(z=0.0, M=3, subcells=5, noise=0.0, seed=0)
def test_per_axis_tv_matches_the_two_pass_oracle(z, M, subcells, noise, seed):
    # a sum-over-axes potential at d = 2 is scored from its per-axis factors;
    # z = 30 on 5 boxes is the density the box centres under-resolve
    E = tf.cosine_potential(z, 2, 1.0)
    state = _tv_case(E, M, seed, noise)
    report = tf.tv_distance(state, E, subcells=subcells)
    n = state.lattice.points_per_axis
    assert report.health == {"tv_passes": 1, "tv_eval_points": 2 * n * subcells}
    assert abs(report.tv - _two_pass_tv(state, _gibbs(E), subcells)) <= 1e-14


def test_per_axis_tv_survives_an_underflowing_axis_factor():
    # z = 400: e^{-E} along each axis spans e^0 .. e^{-800}, so most of the
    # factor a' underflows to 0 and its thresholds mu / a' are inf or nan
    E = tf.cosine_potential(400.0, 2, 1.0)
    state = _tv_case(E, 6, 3, None)
    tv = tf.tv_distance(state, E).tv
    assert math.isfinite(tv) and 0.0 <= tv <= 1.0
    assert abs(tv - _two_pass_tv(state, _gibbs(E))) <= 1e-14


def test_grid_walk_tv_keeps_its_values_off_the_per_axis_route():
    # an MLP and a coupled potential are not sums over axes: tv_distance
    # walks the midpoint grid as it did before the per-axis route, to the bit
    mlp = tf.mlp_potential(small_mlp(2, seed=3))
    report = tf.tv_distance(_tv_case(mlp, 6, 5, None), mlp, subcells=8)
    assert report.tv == 0.4589166747396089
    assert report.health == {"tv_passes": 1, "tv_eval_points": 10985}
    coupled = coupled_potential(2.0, 0.5)
    report = tf.tv_distance(_tv_case(coupled, 5, 9, None), coupled, subcells=12)
    assert report.tv == 0.8116797363250945
    assert report.health == {"tv_passes": 2, "tv_eval_points": 34969}


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 2), M=st.integers(1, 12), z=st.floats(-4.0, 8.0), subcells=st.integers(1, 16), seed=st.integers(0, 2**16))
def test_tv_on_the_grid_is_bitwise_the_tv_on_points(d, M, z, subcells, seed):
    # the grid walk evaluates the cosine potential on each block's axes, the
    # public quadrature on laid-out points: the same values, the same TV
    E = tf.cosine_potential(z, d, 1.0)
    lat = tf.make_lattice(d, M, 1.0)
    state = _normalized(tf.GridField(lat, np.random.default_rng(seed).standard_normal(lat.shape), is_real=True))
    tv, _ = sampler._tv_quadrature(state, _gibbs_grid(E), subcells)
    assert tv == density_tv_quadrature(state, _gibbs(E), subcells)


def test_tv_falls_back_to_two_passes_when_the_centres_under_resolve():
    # z = 30 on 5 boxes per axis: the box centres miss most of e^{-E}
    for d, M in ((1, 2), (2, 2)):
        E = tf.cosine_potential(30.0, d, 1.0)
        lat = tf.make_lattice(d, M, 1.0)
        state = _normalized(tf.discretize(lambda p: np.exp(-E.evaluate(p) / 2), lat))
        n, S = lat.points_per_axis, 32
        counted, counts = _counting(_gibbs_grid(E))
        tv, health = sampler._tv_quadrature(state, counted, S)
        assert health["tv_passes"] == 2
        # d = 1 keeps its one block between the passes
        assert sum(counts) == health["tv_eval_points"] == (1 if d == 1 else 2) * (n * S) ** d + n**d
        assert abs(tv - _two_pass_tv(state, _gibbs(E))) <= 1e-14


@pytest.mark.parametrize("d", [1, 2])
def test_tv_falls_back_when_every_subcell_sits_on_the_breakpoint(d):
    # the uniform state against the flat density: mu = rho / Z everywhere,
    # so no subcell has a sign; the band would hold the whole grid
    lat = tf.make_lattice(d, 16 if d == 2 else 500, 1.0)
    state = _uniform_state(lat)
    flat = tf.zero_potential(d, 1.0)
    grid_bytes = (lat.points_per_axis * 32) ** d * 8
    tracemalloc.start()
    try:
        tv, health = sampler._tv_quadrature(state, _gibbs_grid(flat), 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert health["tv_passes"] == 2
    assert tv <= 1e-12 and abs(tv - _two_pass_tv(state, _gibbs(flat))) <= 1e-14
    if d == 2:
        # a block and its temporaries, not a buffer of the whole grid
        assert peak < grid_bytes / 4


def test_tv_orthogonal_supports():
    lat = tf.make_lattice(1, 8, 1.0)
    left = np.zeros(lat.shape)
    left[: lat.N] = 1.0

    def right_density(pts):
        return np.where(pts[..., 0] > 0, 1.0, 0.0)

    psi = _normalized(tf.GridField(lat, left, is_real=True))
    tv = density_tv_quadrature(psi, right_density)
    assert tv >= 1 - 1e-9


def test_tv_chain_bound_random_pairs(rng):
    lat = tf.make_lattice(1, 12, 1.0)
    for _ in range(10):
        psi = _normalized(tf.GridField(lat, rng.standard_normal(lat.shape), is_real=True))
        phi = _normalized(tf.GridField(lat, rng.standard_normal(lat.shape), is_real=True))
        tv = discrete_state_tv(psi, phi)
        assert tv <= np.linalg.norm(psi.flat - phi.flat) + 1e-10


def test_tv_quadrature_resolution_cap():
    lat = tf.make_lattice(2, 64, 1.0)
    psi = _uniform_state(lat)
    with pytest.raises(tf.SizeError):
        density_tv_quadrature(psi, lambda p: np.ones(p.shape[0]), subcells=512)


def test_tv_monte_carlo_d3():
    lat = tf.make_lattice(3, 4, 1.0)
    rep = tf.tv_distance(_uniform_state(lat), tf.zero_potential(3, 1.0))
    assert rep.method == "histogram"
    assert rep.tv <= 1e-9
    assert rep.ci_99 is not None


def test_born_rule_convention():
    # squared amplitudes of the evolved W = E/2 state target e^{-E}
    E = tf.cosine_potential(2.0, 1, 1.0)
    lat = tf.make_lattice(1, 16, 1.0)
    op = tf.build_generator(E, lat)
    res = tf.evolve(op, tf.constant_field(lat), T=2.0, snapshots=2)
    psi = _normalized(tf.GridField(lat, res.final.reshape(lat.shape), is_real=True))
    p = box_probabilities(psi)
    target = np.exp(-E.evaluate(lat.points()))
    target /= target.sum()
    assert np.abs(p - target.reshape(lat.shape)).max() <= 1e-8
    wrong = np.exp(-E.evaluate(lat.points()) / 2)
    wrong /= wrong.sum()
    assert np.abs(p - wrong.reshape(lat.shape)).max() > 1e-2


def test_lem_T_chain_along_trajectory():
    # chi-square closeness at level delta forces TV(u^2, rho_s^2) <= 2 delta e^{D/2}
    E = tf.cosine_potential(1.0, 1, 1.0)
    lat = tf.make_lattice(1, 16, 1.0)
    op = tf.build_generator(E, lat)
    res = tf.evolve(op, tf.constant_field(lat), T=2.0 / op.spectral_gap, snapshots=12)
    rho = tf.GridField(lat, op.stationary.reshape(lat.shape), is_real=True)
    for i in range(len(res.times)):
        delta = math.sqrt(res.chi2[i] / res.chi2[0]) if res.chi2[0] > 0 else 0.0
        state = _normalized(tf.GridField(lat, res.states[i].reshape(lat.shape), is_real=True))
        tv = discrete_state_tv(state, _normalized(rho))
        assert tv <= 2 * delta * math.exp(op.delta_W / 2) + 1e-6


# ---------------------------------------------------------------------------
# M selection and the pipeline


def test_choose_M_examples():
    assert tf.choose_M(0.1, 1.0, 1.0, 1, 1.0, 1.0, 1.0) == 2579
    assert tf.choose_M(0.99, 0.0, 1.0, 1, 1e-9, 1e-9, 1.0) == 1  # floor
    base = tf.choose_M(0.2, 1.0, 1.0, 1, 1.0, 1.0, 1.0)
    assert tf.choose_M(0.1, 1.0, 1.0, 1, 1.0, 1.0, 1.0) in (2 * base - 1, 2 * base, 2 * base + 1)
    with pytest.raises(ValidationError):
        tf.choose_M(1.2, 1.0, 1.0, 1, 1.0, 1.0, 1.0)


def test_pipeline_flat_potential():
    result = tf.run_pipeline(tf.zero_potential(1, 1.0), N=8, M=64, T=0.5, count=500, seed=5)
    assert result.tv_report.tv <= 0.01
    assert result.resolved["M"] == 64


def test_pipeline_d3_uses_monte_carlo_tv():
    E = tf.cosine_potential(0.5, 3, 1.0)
    result = tf.run_pipeline(E, N=3, M=6, T=0.2, eps=0.3, count=1000, seed=2)
    assert result.tv_report.method == "histogram"
    assert result.tv_report.ci_99 is not None
    assert result.tv_report.tv <= 0.3
    assert result.batch.points.shape == (1000, 3)


def test_pipeline_auto_resolution():
    E = tf.cosine_potential(2.0, 1, 1.0)
    result = tf.run_pipeline(E, N=16, eps=0.05, count=2000, seed=7)
    assert result.resolved["T_mode"] == "auto"
    assert result.resolved["M_mode"] == "auto"
    assert result.resolved["M"] <= 512
    assert result.tv_report.tv <= 0.05
    assert result.batch.count == 2000
    with pytest.raises(ValidationError):
        tf.run_pipeline(E, N=16, M=8, count=10, seed=0)


def test_pipeline_auto_M_never_below_N():
    # an M_cap below N must not push the automatic M under the source N
    result = tf.run_pipeline(tf.cosine_potential(1.0, 1, 1.0), N=20, M_cap=16, count=100)
    assert result.resolved["M_mode"] == "auto"
    assert result.resolved["M"] >= 20


def test_pipeline_auto_M_stays_within_quadrature_cap(monkeypatch):
    # d=2 auto-M used to clamp only to M_cap, so the TV quadrature asked for
    # ((2M+1) * subcells)^2 evaluations beyond QUADRATURE_CAP and raised SizeError
    monkeypatch.setattr(sampler, "QUADRATURE_CAP", 2**20)
    N, subcells = 8, 32
    result = tf.run_pipeline(tf.cosine_potential(1.0, 2, 1.0), N=N, count=100, seed=1, subcells=subcells)
    M = result.resolved["M"]
    assert result.resolved["M_mode"] == "auto"
    assert N <= M
    assert ((2 * M + 1) * subcells) ** 2 <= 2**20
    assert result.resolved["M_raw"] > M  # the clamp was exercised


def test_pipeline_auto_M_stays_within_the_node_budget(monkeypatch):
    # d >= 3 auto-M used to clamp only to M_cap: cosine z=1 at N=3 asks for
    # M_raw = 3214, so M was 512 and the upsampling target 1025^3 complex
    # values (17 GB); the run stops at upsample here, before any allocation
    asked = []

    class Stop(Exception):
        pass

    def stop(state, M):
        asked.append(M)
        raise Stop

    monkeypatch.setattr(sampler, "upsample", stop)
    with pytest.raises(Stop):
        tf.run_pipeline(tf.cosine_potential(1.0, 3, 1.0), N=3, count=10, seed=1)
    (M,) = asked
    assert (2 * M + 1) ** 3 <= RESOLUTION_CAP < (2 * M + 3) ** 3  # M = 80


# ---------------------------------------------------------------------------
# means


def test_mean_of_constant():
    lat = tf.make_lattice(1, 8, 1.0)
    batch = tf.continuous_sample(_uniform_state(lat), 200, seed=9)
    est = tf.estimate_mean(lambda p: np.full(p.shape[0], 2.5), batch)
    assert est.mean == pytest.approx(2.5)
    assert est.stderr == 0.0


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_gibbs_oracle_makes_one_grid_call_on_the_fine_lattice(monkeypatch, d):
    # the normalizer and the exact mean each evaluate e^{-E} once, on the axes
    # of potential.fine_lattice: at most 2^18 nodes, d = 5 included
    E = tf.cosine_potential(1.5, d, 1.0)
    axes = fine_lattice(d, 1.0).axis_points()
    calls, evaluate_grid = [], tf.EnergyPotential.evaluate_grid

    def recorded(self, grid):
        calls.append(grid)
        return evaluate_grid(self, grid)

    monkeypatch.setattr(tf.EnergyPotential, "evaluate_grid", recorded)
    for oracle in (lambda: GibbsDensity(E), lambda: tf.exact_mean(lambda p: p[..., 0], E)):
        calls.clear()
        oracle()
        assert len(calls) == 1 and len(calls[0]) == d
        assert all(np.array_equal(axis, axes) for axis in calls[0])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("z", [1.0, 8.0])
def test_gibbs_oracle_matches_the_bessel_closed_forms(d, z):
    # Z = (e^{-z} I_0(z))^d and E[cos 2 pi x_0] = I_1(z) / I_0(z) on l = 1;
    # the trapezoid sum over n nodes per axis misses them by about
    # 2 I_n(z) / I_0(z) per axis: rounding at d <= 3, 3e-9 at d = 4 (n = 21)
    # and z = 8
    E = tf.cosine_potential(z, d, 1.0)
    rtol = 1e-14 if d <= 3 else 1e-8
    Z = (math.exp(-z) * tf.bessel_i(0, z)) ** d
    assert GibbsDensity(E).Z == pytest.approx(Z, rel=rtol)
    mean = tf.exact_mean(lambda p: np.cos(2 * np.pi * p[..., 0]), E)
    assert mean == pytest.approx(tf.bessel_i(1, z) / tf.bessel_i(0, z), rel=rtol)


def test_both_quadratures_share_one_budget(monkeypatch):
    # lowering QUADRATURE_CAP alone makes the TV quadrature (41 * 32 midpoints
    # here) refuse before laying anything out
    def no_points(*args):
        raise AssertionError("midpoints laid out past the budget")

    monkeypatch.setattr(sampler, "QUADRATURE_CAP", 2**10)
    monkeypatch.setattr(sampler, "grid_points", no_points)
    with pytest.raises(tf.SizeError, match="quadrature needs 1312 evaluations, cap is 1024"):
        density_tv_quadrature(_uniform_state(tf.make_lattice(1, 20, 1.0)), no_points)


def test_exact_mean_bessel_ratio():
    E = tf.cosine_potential(2.0, 1, 1.0)
    got = tf.exact_mean(lambda p: np.cos(2 * np.pi * p[..., 0]), E)
    assert got == pytest.approx(tf.bessel_i(1, 2.0) / tf.bessel_i(0, 2.0), abs=1e-12)
    np.testing.assert_allclose(got, 0.69777, atol=1e-5)


def test_mean_clt_scaling():
    lat = tf.make_lattice(1, 32, 1.0)
    psi = _uniform_state(lat)
    f = lambda p: np.cos(2 * np.pi * p[..., 0])
    small = tf.estimate_mean(f, tf.continuous_sample(psi, 20_000, seed=3))
    large = tf.estimate_mean(f, tf.continuous_sample(psi, 80_000, seed=3))
    ratio = large.stderr / small.stderr
    assert 0.4 <= ratio <= 0.6


# ---------------------------------------------------------------------------
# interpolation error bound check


def test_interpolation_check_band_limited():
    l = 1.0

    def u(p):
        return np.cos(2 * np.pi * p[..., 0] / l)

    def u_hat(k):
        return 0.5 if abs(k) == 1 else 0.0

    params = tf.SemiAnalyticityParams(C=1 / math.sqrt(2), a=1.0)
    rep = interpolation_error_bound_check(u, u_hat, params, N=4, l=l, lipschitz=1.05 * 2 * math.pi)
    assert rep.measured_distance <= 1e-10
    assert rep.distance_ok


def test_interpolation_check_expcos_sweep():
    u, _, _, C, a, u_hat = tf.expcos_family(2.0, l=1.0)
    params = tf.SemiAnalyticityParams(C, a)
    lip = 1.05 * 4 * math.pi * math.exp(2)  # coarse bound on |u'|
    measured = []
    for N in (8, 12, 16, 24, 32, 40, 48):
        rep = interpolation_error_bound_check(u, u_hat, params, N, 1.0, lip, k_max=80)
        assert rep.distance_ok
        assert rep.tv_ok
        measured.append((N, rep.measured_distance))
    pts = [(N, math.log(m)) for N, m in measured if m > 1e-13]
    slope = np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0]
    assert slope <= -0.6 / a + 0.05


def test_interpolation_check_evaluates_the_series_once_per_k():
    u, _, _, C, a, u_hat = tf.expcos_family(2.0, l=1.0)
    calls = []

    def counted(k):
        calls.append(k)
        return u_hat(k)

    rep = interpolation_error_bound_check(u, counted, tf.SemiAnalyticityParams(C, a), 8, 1.0, 200.0, k_max=80)
    assert sorted(calls) == list(range(-80, 81))
    state = _normalized(tf.discretize(u, tf.make_lattice(1, 8, 1.0)))
    assert rep.measured_distance == pytest.approx(sampler._series_distance(state, u_hat, 80)[0], rel=1e-9)


def test_interpolation_chain_scales_before_squaring():
    # at z = 400 u^2, the squared norm of the lattice values and U^2 all pass
    # float64 (e^(2z)); each is divided by its peak first
    u, _, _, C, a, u_hat = tf.expcos_family(400.0, l=1.0)
    state, distance, U, tv_at = sampler._interpolation_chain(u, u_hat, tf.make_lattice(1, 202, 1.0), 808)
    assert state.norm() == pytest.approx(1.0, rel=1e-14)
    assert 0 <= distance < 1e-13
    assert U == pytest.approx(math.sqrt(sum((u_hat(k) / u_hat(0)) ** 2 for k in range(-808, 809))) * u_hat(0), rel=1e-13)
    assert 0 <= tv_at(200) <= 1


def test_interpolation_check_precondition():
    u, _, _, C, a, u_hat = tf.expcos_family(2.0, l=1.0)
    with pytest.raises(tf.PreconditionError):
        interpolation_error_bound_check(u, u_hat, tf.SemiAnalyticityParams(C, a), N=1, l=1.0, lipschitz=1.0)


def test_series_distance_matches_manual(rng):
    # independent accumulation of the same distance
    u, _, _, _, _, u_hat = tf.expcos_family(1.0, l=1.0)
    lat = tf.make_lattice(1, 5, 1.0)
    fld = tf.discretize(u, lat)
    state = _normalized(fld)
    got = sampler._series_distance(state, u_hat, 50)[0]
    coeffs = tf.dft(state).flat
    ks = np.arange(-50, 51)
    series = np.array([u_hat(int(k)) for k in ks])
    series = series / np.linalg.norm(series)
    manual = np.concatenate([coeffs - series[(ks >= -5) & (ks <= 5)], series[np.abs(ks) > 5]])
    assert got == pytest.approx(float(np.linalg.norm(manual)), rel=1e-12)


@pytest.mark.parametrize("d, N", [(1, 8), (2, 4)])
def test_pipeline_health_carries_the_mixing_distance(d, N):
    E = tf.cosine_potential(1.0, d, 1.0)
    short = tf.run_pipeline(E, N=N, M=N, T=0.01, count=10, seed=0)
    longer = tf.run_pipeline(E, N=N, M=N, T=0.02, count=10, seed=0)
    op = short.operator
    stationary = op.stationary / np.linalg.norm(op.stationary)
    direct = np.linalg.norm(short.state.flat - stationary)
    assert short.health["mixing_l2"] == pytest.approx(direct, rel=1e-12, abs=1e-15)
    assert 0 < longer.health["mixing_l2"] < short.health["mixing_l2"]


def test_mixing_distance_decays_at_the_spectral_gap():
    # the uniform start excites the gap's modes, so past the faster modes
    # doubling T multiplies mixing_l2 by e^{-gap T}; for the cosine the next
    # distinct eigenvalue is twice the gap, which leaves a relative error of
    # order e^{-gap T} in the ratio.  At gap T = 8 the two distances are
    # about 1e-4 and 3e-8, far above rounding
    E = tf.cosine_potential(1.0, 2, 1.0)
    gap = tf.build_generator(E, tf.make_lattice(2, 8, 1.0)).spectral_gap
    T = 8 / gap
    first = tf.run_pipeline(E, N=8, M=8, T=T, count=10, seed=0).health["mixing_l2"]
    second = tf.run_pipeline(E, N=8, M=8, T=2 * T, count=10, seed=0).health["mixing_l2"]
    decay = math.exp(-gap * T)
    assert second / first == pytest.approx(decay, rel=decay)
