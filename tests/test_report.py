import json

import numpy as np

from torusfp.evolve import DecayReport
from torusfp.report import csv_text
from torusfp.semianalytic import MlpAnalyticityReport, SemiAnalyticityParams


def test_report_dict_is_fields_then_verdicts():
    rep = DecayReport(
        fitted_rate=3.0, gap=1.0, poincare_floor=0.5, stationary_input=False, tv_chain_bound=np.array([0.5, 0.25])
    )
    doc = rep.as_dict()
    assert list(doc) == [
        "fitted_rate", "gap", "poincare_floor", "stationary_input", "tv_chain_bound", "slack",
        "rate_vs_gap_ok", "rate_vs_floor_ok",
    ]
    assert doc["tv_chain_bound"] == [0.5, 0.25]
    assert doc["rate_vs_gap_ok"] is True
    assert rep.to_json() == json.dumps(doc)


def test_report_expands_nested_dataclasses():
    rep = MlpAnalyticityReport(bound=4.0, fitted=SemiAnalyticityParams(C=1.5, a=2.0))
    assert json.loads(rep.to_json()) == {"bound": 4.0, "fitted": {"C": 1.5, "a": 2.0}, "ok": True}
    assert MlpAnalyticityReport(bound=4.0, fitted=None).as_dict() == {"bound": 4.0, "fitted": None, "ok": True}


def test_csv_text():
    assert csv_text(["a", "b"], [[1, "x"], [2, ""]]) == "a,b\n1,x\n2,\n"
    assert csv_text(["a"], []) == "a\n"
