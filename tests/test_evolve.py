import importlib
import math
import tracemalloc

import numpy as np
import pytest

import torusfp as tf
from torusfp.errors import ValidationError
from torusfp.evolve import nested_restriction_error
from torusfp.generator import BLOCK_VALUES
from torusfp.lattice import SpectralField, idft
from torusfp.report import CSV_CHUNK, csv_text


def _ones(lat):
    return tf.constant_field(lat)


def stationary_projection(op, u0):
    """The t -> infinity limit of the evolution: the kernel-mode component."""
    q0 = op.kernel_vector()
    coeff = q0 @ (u0.flat / op.u_diag)
    return op.u_diag * (coeff * q0)


def test_kernel_state_is_fixed():
    lat = tf.make_lattice(1, 6, 1.0)
    op = tf.build_generator(tf.zero_potential(1, 1.0), lat)
    res = tf.evolve(op, _ones(lat), T=5.0, snapshots=6)
    for state in res.states:
        np.testing.assert_allclose(state, 1.0, atol=1e-12)


def test_t_zero_is_bit_exact(rng):
    lat = tf.make_lattice(1, 8, 1.0)
    op = tf.build_generator(tf.cosine_potential(1.0, 1, 1.0), lat)
    u0 = tf.GridField(lat, rng.standard_normal(lat.shape), is_real=True)
    res = tf.evolve(op, u0, T=0.0)
    assert res.times.tolist() == [0.0]
    assert np.array_equal(res.final, u0.flat)


def test_long_time_limit_is_gibbs():
    # W = E/2 with E = 2(1 - cos x): u(50) aligns with e^{-W}
    E = tf.cosine_potential(2.0, 1, 2 * np.pi)
    lat = tf.make_lattice(1, 16, 2 * np.pi)
    op = tf.build_generator(E, lat)
    res = tf.evolve(op, _ones(lat), T=50.0, snapshots=4)
    u = res.final
    s = op.stationary
    cos_sim = (u @ s) / (np.linalg.norm(u) * np.linalg.norm(s))
    assert cos_sim >= 1 - 1e-6
    # agrees with the kernel projection of the initial state
    np.testing.assert_allclose(u, stationary_projection(op, _ones(lat)), atol=1e-9)


def test_lattice_mismatch_rejected():
    op = tf.build_generator(tf.zero_potential(1, 1.0), tf.make_lattice(1, 4, 1.0))
    with pytest.raises(ValidationError):
        tf.evolve(op, _ones(tf.make_lattice(1, 5, 1.0)), T=1.0)
    with pytest.raises(ValidationError):
        tf.evolve(op, _ones(tf.make_lattice(1, 4, 1.0)), T=-1.0)


@pytest.mark.parametrize("snapshots", [1, 0, -3])
def test_evolve_needs_two_snapshots(snapshots):
    lat = tf.make_lattice(1, 4, 1.0)
    op = tf.build_generator(tf.cosine_potential(1.0, 1, 1.0), lat)
    with pytest.raises(ValidationError, match=f"need at least 2 snapshots, got {snapshots}"):
        tf.evolve(op, _ones(lat), 1.0, snapshots=snapshots)


def test_choose_T():
    assert tf.choose_T(1.0, 2.0, 0.1) == pytest.approx(math.log(2 * math.e / 0.1))
    np.testing.assert_allclose(tf.choose_T(1.0, 2.0, 0.1), 3.9957, atol=1e-4)
    assert tf.choose_T(2.0, 2.0, 0.1) == pytest.approx(2 * tf.choose_T(1.0, 2.0, 0.1))
    with pytest.raises(ValidationError):
        tf.choose_T(1.0, 0.0, 2.0)
    with pytest.raises(ValidationError):
        tf.choose_T(0.0, 1.0, 0.5)


def test_semigroup_property(rng):
    E = tf.cosine_potential(1.0, 1, 1.0)
    lat = tf.make_lattice(1, 10, 1.0)
    op = tf.build_generator(E, lat)
    u0 = tf.GridField(lat, rng.standard_normal(lat.shape) + 2.0, is_real=True)
    t1, t2 = 0.013, 0.041
    direct = tf.evolve(op, u0, t1 + t2).final
    mid = tf.evolve(op, u0, t1).final
    stacked = tf.evolve(op, tf.GridField(lat, mid.reshape(lat.shape), is_real=True), t2).final
    assert np.linalg.norm(direct - stacked) <= 1e-9 * np.linalg.norm(direct)


def test_stationary_limit_positive():
    for E in (tf.cosine_potential(2.0, 1, 1.0), tf.invcos_potential(4.0, 1.0)):
        lat = tf.make_lattice(1, 12, 1.0)
        op = tf.build_generator(E, lat)
        limit = stationary_projection(op, _ones(lat))
        assert limit.min() > 0


def test_decay_report_single_mode():
    # one excited mode at k=1 decays at exactly 2 (2 pi / l)^2
    l = 1.0
    lat = tf.make_lattice(1, 8, l)
    op = tf.build_generator(tf.zero_potential(1, l), lat)
    coeffs = np.zeros(lat.shape, dtype=complex)
    coeffs[lat.N] = 1.0 * math.sqrt(lat.size)
    coeffs[lat.N + 1] = 0.05
    coeffs[lat.N - 1] = 0.05
    u0 = idft(SpectralField(lat, coeffs))
    res = tf.evolve(op, tf.GridField(lat, u0.values.real, is_real=True), T=0.02, snapshots=10)
    rep = tf.decay_report(op, res)
    expected = 2 * (2 * math.pi / l) ** 2
    assert rep.fitted_rate == pytest.approx(expected, rel=0.01)
    assert rep.stationary_input is False


def test_decay_report_flags_stationary():
    lat = tf.make_lattice(1, 8, 1.0)
    op = tf.build_generator(tf.cosine_potential(1.0, 1, 1.0), lat)
    rho = tf.GridField(lat, op.stationary.reshape(lat.shape), is_real=True)
    res = tf.evolve(op, rho, T=0.1, snapshots=8)
    rep = tf.decay_report(op, res)
    assert rep.stationary_input is True  # a Python bool, which evolution.json writes as true
    assert rep.fitted_rate is None
    assert rep.rate_vs_gap_ok and rep.rate_vs_floor_ok


def test_decay_report_validation():
    lat = tf.make_lattice(1, 6, 1.0)
    op = tf.build_generator(tf.cosine_potential(1.0, 1, 1.0), lat)
    res3 = tf.evolve(op, _ones(lat), T=0.1, snapshots=3)
    with pytest.raises(ValidationError):
        tf.decay_report(op, res3)


@pytest.mark.parametrize(
    "T, match",
    [
        (math.nan, "must be finite"),
        (math.inf, "must be finite"),
        (5e-324, r"T=5e-324 is too short to split into 4 distinct snapshot times"),
    ],
)
def test_evolve_rejects_unusable_T(T, match):
    lat = tf.make_lattice(1, 4, 1.0)
    op = tf.build_generator(tf.cosine_potential(1.0, 1, 1.0), lat)
    with pytest.raises(ValidationError, match=match):
        tf.evolve(op, _ones(lat), T, snapshots=4)


def test_decay_report_rejects_too_short_span():
    # distinct, positive times whose squares underflow: no rate can be fitted
    lat = tf.make_lattice(1, 4, 1.0)
    op = tf.build_generator(tf.cosine_potential(1.0, 1, 1.0), lat)
    res = tf.evolve(op, _ones(lat), 1e-300, snapshots=4)
    with pytest.raises(ValidationError, match="too short to fit"):
        tf.decay_report(op, res)


def test_decay_rate_beats_gap_and_floor():
    for E in (tf.cosine_potential(1.0, 1, 1.0), tf.invcos_potential(4.0, 1.0)):
        lat = tf.make_lattice(1, 16, 1.0)
        op = tf.build_generator(E, lat)
        res = tf.evolve(op, _ones(lat), T=3.0 / op.spectral_gap, snapshots=20)
        rep = tf.decay_report(op, res)
        assert rep.rate_vs_gap_ok and rep.rate_vs_floor_ok
        # TV chain bound shrinks along the trajectory
        assert rep.tv_chain_bound[-1] < rep.tv_chain_bound[0]


def test_norm_trace_report():
    E = tf.cosine_potential(2.0, 1, 1.0)  # Delta_W = 2
    lat = tf.make_lattice(1, 16, 1.0)
    op = tf.build_generator(E, lat)
    res = tf.evolve(op, _ones(lat), T=2.0 / op.spectral_gap, snapshots=20)
    rep = tf.norm_and_max_principle_report(op, res)
    # the operator bound uses the grid diameter of W, just below the
    # continuum value e^{Delta/2} = e
    assert rep.norm_bound <= math.e
    assert rep.norm_bound == pytest.approx(math.e, rel=0.01)
    assert rep.max_norm_ok and rep.min_norm_ok and rep.inner_ok
    assert rep.max_norm_ratio <= math.e
    assert abs(rep.min_norm_ratio - 1.0) <= 1e-10

    with pytest.raises(ValidationError):
        tf.norm_and_max_principle_report(op, tf.evolve(op, tf.GridField(lat, op.stationary.reshape(lat.shape), is_real=True), T=0.1))


def test_norm_traces_constant_for_flat_potential():
    lat = tf.make_lattice(1, 8, 1.0)
    op = tf.build_generator(tf.zero_potential(1, 1.0), lat)
    res = tf.evolve(op, _ones(lat), T=1.0, snapshots=10)
    rep = tf.norm_and_max_principle_report(op, res)
    assert rep.max_norm_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.inner_drift <= 1e-12
    assert not rep.max_principle_warnings


def test_nested_restriction_error_decays():
    # steep enough cosine that the discretization error is visible above
    # round-off at the small N end
    E = tf.cosine_potential(6.0, 1, 2 * np.pi)
    errs = {N: nested_restriction_error(E, N, T=0.3) for N in (8, 12, 16, 24, 32)}
    assert errs[12] < errs[8] * 0.1
    assert errs[16] < errs[12] * 0.1
    assert errs[32] < 1e-10
    visible = [(N, math.log(e)) for N, e in errs.items() if e > 1e-11]
    slope = np.polyfit([p[0] for p in visible], [p[1] for p in visible], 1)[0]
    assert slope <= -0.5  # at least geometric decay in N


def test_nested_restriction_refuses_a_fine_lattice_past_the_dense_cap(monkeypatch):
    # N = 700 nests in N_ref = 2101 (4203 nodes): with DENSE_CAP checked only
    # by build_generator, the fine lattice must be refused before the coarse
    # one is built
    built = []

    def recording(E, lattice, halve=True):
        built.append(lattice.size)
        return build_generator(E, lattice, halve)

    evolve_module = importlib.import_module("torusfp.evolve")  # torusfp.evolve is also the function
    build_generator = evolve_module.build_generator
    monkeypatch.setattr(evolve_module, "build_generator", recording)
    with pytest.raises(tf.SizeError):
        nested_restriction_error(tf.cosine_potential(1.0, 1, 1.0), 700, T=0.1)
    assert built == [4203]


def test_traces_csv():
    # the repr table of the traces, in pieces; 9000 snapshots cross CSV_CHUNK
    # and BLOCK_VALUES boundaries
    cases = [
        (tf.cosine_potential(1.0, 1, 1.0), 4, 5),
        (tf.zero_potential(2, 1.0), 3, 7),
        (tf.invcos_potential(4.0, 1.0), 4, 9000),
    ]
    for E, N, snapshots in cases:
        lat = tf.make_lattice(E.d, N, 1.0)
        op = tf.build_generator(E, lat)
        res = tf.evolve(op, _ones(lat), T=0.5, snapshots=snapshots)
        columns = (res.times, res.norms, res.inners, res.chi2, res.max_principle)
        rows = ([repr(float(v)) for v in row] for row in zip(*columns))
        pieces = list(res.csv_chunks())  # the header, then one piece per CSV_CHUNK rows
        assert len(pieces) == 1 + math.ceil(snapshots / CSV_CHUNK)
        assert "".join(pieces) == csv_text(["t", "norm", "inner", "chi2", "max_principle"], rows)


def test_traces_match_whole_array_reductions():
    # the block pass gives each row what one reduction over all states
    # gives, up to a last block of one row
    lat = tf.make_lattice(1, 200, 1.0)
    op = tf.build_generator(tf.cosine_potential(1.0, 1, 1.0), lat)
    res = tf.evolve(op, _ones(lat), T=0.5, snapshots=2 * (BLOCK_VALUES // lat.size) + 1)
    h = res.states * np.exp(op.W.flat)
    pi = np.exp(-op.W.flat)
    pi = pi / pi.sum()
    mean = (h * pi).sum(axis=1)
    assert np.array_equal(res.norms, np.linalg.norm(res.states, axis=1))
    assert np.array_equal(res.inners, res.states.sum(axis=1))
    assert np.array_equal(res.max_principle, h.max(axis=1))
    assert np.array_equal(res.chi2, ((h - mean[:, None]) ** 2 * pi).sum(axis=1))


def test_evolve_traces_hold_little_beyond_the_states():
    # the four traces take one pass over blocks of the states: whole-array
    # traces took three states-sized temporaries (46.2 MiB here)
    lat = tf.make_lattice(1, 200, 1.0)
    op = tf.build_generator(tf.cosine_potential(1.0, 1, 1.0), lat)
    tracemalloc.start()
    try:
        res = tf.evolve(op, _ones(lat), 0.5, snapshots=5000)
        for trace in (res.norms, res.inners, res.max_principle, res.chi2):
            assert np.all(np.isfinite(trace))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * res.states.nbytes


def reference_max_principle_warnings(result):
    """The max-principle scan as one loop over consecutive snapshots, kept
    as the oracle of the report's one array comparison."""
    warnings = []
    mp = result.max_principle
    tol = 1e-6 * max(1.0, float(np.abs(mp).max()))
    for i in range(1, len(mp)):
        if mp[i] > mp[i - 1] + tol:
            warnings.append(
                f"max principle rose between t={result.times[i-1]:.6g} and t={result.times[i]:.6g}: "
                f"{mp[i-1]:.12g} -> {mp[i]:.12g}"
            )
    return warnings


def test_max_principle_warnings_name_each_rise():
    # a falling max-principle trace with rises at known indices, one of
    # them within the tolerance 1e-6 max|mp| and so no warning
    lat = tf.make_lattice(1, 4, 1.0)
    op = tf.build_generator(tf.cosine_potential(1.0, 1, 1.0), lat)
    count = 1000
    traces = np.zeros((5, count))
    traces[0] = np.linspace(0.0, 3.0, count)
    traces[1] = math.sqrt(op.size)
    traces[2] = op.size
    mp = traces[4]
    mp[:] = np.linspace(2.0, 1.0, count)
    rises = [1, 17, 500, count - 1]
    for i in rises:
        mp[i] = mp[i - 1] + 0.25
    mp[300] = mp[299] + 1e-7  # inside the tolerance
    result = tf.EvolutionResult(states=np.ones((count, op.size)), traces=traces)
    warnings = tf.norm_and_max_principle_report(op, result).max_principle_warnings
    assert warnings == reference_max_principle_warnings(result)
    assert [w.split(" and t=")[0] for w in warnings] == [
        f"max principle rose between t={traces[0][i - 1]:.6g}" for i in rises
    ]


def test_chi_square_weights_past_float64_name_w_range():
    # a potential shifted down by 1600 builds (the generator sees only W's
    # differences), but e^{-W} of W near -800 overflows: the refusal names
    # chi-square's weights and W's range, not a steep potential
    cosine = tf.cosine_potential(1.0, 1, 1.0)
    shifted = tf.EnergyPotential(l=1.0, d=1, diameter=2.0, axes=[lambda x: cosine.axes[0](x) - 1600.0], name="low")
    lat = tf.make_lattice(1, 8, 1.0)
    op = tf.build_generator(shifted, lat)
    assert op.spectral_gap > 0
    lo, hi = float(op.W.flat.min()), float(op.W.flat.max())
    message = rf"chi-square weights e\^\(\+-W\) overflow float64 for W in \[{lo:.6g}, {hi:.6g}\]"
    with pytest.raises(tf.PreconditionError, match=message):
        tf.evolve(op, _ones(lat), 0.1)
    with pytest.raises(tf.PreconditionError, match=message):
        tf.run_pipeline(shifted, N=8, count=10, seed=1)
