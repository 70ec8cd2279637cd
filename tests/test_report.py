import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusfp.evolve import DecayReport
from torusfp.report import csv_text, fast_domain, float_rows
from torusfp.semianalytic import MlpAnalyticityReport, SemiAnalyticityParams


def test_report_dict_is_fields_then_verdicts():
    rep = DecayReport(
        fitted_rate=3.0, gap=1.0, poincare_floor=0.5, stationary_input=False, tv_chain_bound=np.array([0.5, 0.25])
    )
    doc = rep.as_dict()
    assert list(doc) == [
        "fitted_rate", "gap", "poincare_floor", "stationary_input", "slack", "rate_vs_gap_ok", "rate_vs_floor_ok",
    ]
    # the per-snapshot bound stays on the report, out of its artifact
    assert rep.tv_chain_bound.tolist() == [0.5, 0.25]
    assert doc["rate_vs_gap_ok"] is True
    assert rep.to_json() == json.dumps(doc)


def test_report_expands_nested_dataclasses():
    rep = MlpAnalyticityReport(bound=4.0, fitted=SemiAnalyticityParams(C=1.5, a=2.0))
    assert json.loads(rep.to_json()) == {"bound": 4.0, "fitted": {"C": 1.5, "a": 2.0}, "ok": True}
    assert MlpAnalyticityReport(bound=4.0, fitted=None).as_dict() == {"bound": 4.0, "fitted": None, "ok": True}


def test_csv_text():
    assert csv_text(["a", "b"], [[1, "x"], [2, ""]]) == "a,b\n1,x\n2,\n"
    assert csv_text(["a"], []) == "a\n"


# ---------------------------------------------------------------------------
# float_rows: the bytes of repr, row by row


def _repr_rows(block) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in np.asarray(block).tolist())


def _assert_rows_match_repr(values, d=1):
    values = np.asarray(values, dtype=float).reshape(-1)
    block = values[: values.size // d * d].reshape(-1, d)
    assert float_rows(block).encode() == _repr_rows(block).encode()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64), st.integers(1, 4))
def test_float_rows_is_repr_for_any_float(values, d):
    _assert_rows_match_repr(values, 1)
    _assert_rows_match_repr(values, d)


def test_float_rows_is_repr_on_a_million_random_bit_patterns_in_the_fast_domain():
    # sign, significand and exponent drawn uniformly over every double with
    # 2^-14 <= |x| < 2^54, then kept where 1e-4 <= |x| < 1e16
    rng = np.random.default_rng(20)
    n = 1_100_000
    exponent = rng.integers(1023 - 14, 1023 + 54, n, dtype=np.uint64)
    bits = (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)) | (exponent << np.uint64(52))
    bits |= rng.integers(0, 2**52, n, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[fast_domain(values)]
    assert values.size >= 1_000_000
    for start in range(0, values.size, 2**16):
        _assert_rows_match_repr(values[start : start + 2**16], 2)


def test_float_rows_is_repr_at_powers_and_domain_edges():
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309)])
    edges = np.array([1e-4, 1e16, 2.0**-14, 2.0**53, 2.0**54, 9007199254740993.0, 4503599627370495.5])
    centres = np.concatenate([powers, edges])
    values = np.concatenate([centres, np.nextafter(centres, 0), np.nextafter(centres, np.inf)])
    values = np.concatenate([values, -values])
    # both sides of each edge of the fast domain are there
    assert fast_domain(np.array([1e-4, np.nextafter(1e-4, 0)])).tolist() == [True, False]
    assert fast_domain(np.array([np.nextafter(1e16, 0), 1e16])).tolist() == [True, False]
    for d in (1, 3):
        _assert_rows_match_repr(values, d)


def test_float_rows_is_repr_for_1_to_17_digits_and_exact_ties():
    rng = np.random.default_rng(21)
    texts = []
    for digits in range(1, 18):
        mantissas = rng.integers(10 ** (digits - 1), 10**digits, 400, dtype=np.int64)
        exponents = rng.integers(-22, 18, 400)
        texts += [f"{m}e{e - digits}" for m, e in zip(mantissas.tolist(), exponents.tolist())]
    shortest = np.array([float(t) for t in texts])
    # odd multiples of 2^-j, whose exact decimals end in 5, and halves,
    # quarters and eighths up to 2^49, where the spacing is 1/8
    odd = 2 * rng.integers(0, 2**20, 4000) + 1
    ties = odd * 2.0 ** -rng.integers(1, 40, 4000)
    halves = (rng.integers(0, 2**49, 4000) + rng.choice([0.5, 0.25, 0.125, 0.375], 4000)) * rng.choice([1, -1], 4000)
    for values in (shortest, ties, halves):
        _assert_rows_match_repr(values, 2)


def test_float_rows_is_repr_for_signed_zero_and_subnormals():
    rng = np.random.default_rng(22)
    subnormals = rng.integers(1, 2**52, 2000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308], subnormals, -subnormals])
    _assert_rows_match_repr(values, 1)


@pytest.mark.parametrize("d", range(1, 5))
def test_float_rows_puts_fallback_values_mid_chunk(d):
    rng = np.random.default_rng(23 + d)
    block = rng.random((4096, d)) - 0.5
    block.flat[rng.choice(block.size, 64, replace=False)] = rng.choice(
        [0.0, -0.0, 5e-324, 1e-05, -2.5e-300, 0.5, -0.25, 1e16, -1.7976931348623157e308, np.inf, -np.inf, np.nan], 64
    )
    assert not fast_domain(block.ravel()).all()
    assert float_rows(block) == _repr_rows(block)
    assert float_rows(block[:0]) == ""


@pytest.mark.parametrize("kind", ["samples", "mixed"])
def test_float_rows_of_a_sample_chunk_peaks_below_a_mebibyte(kind):
    # one chunk of samples.csv, 4096 rows at d = 2: the text matrix, its
    # mask and the kept bytes, with the digit arithmetic's temporaries freed
    # before the layout; "mixed" spans every decade of the fast domain and
    # some fallback values
    rng = np.random.default_rng(27)
    block = rng.random((4096, 2)) - 0.5
    if kind == "mixed":
        block *= 10.0 ** rng.integers(-5, 17, block.shape)
    assert not fast_domain(block.ravel()).all()
    float_rows(block)
    tracemalloc.start()
    try:
        text = float_rows(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == _repr_rows(block)
    assert peak < 2**20
