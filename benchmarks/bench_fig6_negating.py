"""Figure 6 — negating windows: NJ-WN, NJ-WUON and TA.

The paper's Fig. 6 measures the computation of negating windows on WebKit
(6a) and Meteo (6b): the TA baseline against NJ measured two ways — WUON
(the full window pipeline including the WUO prework) and WN (the negating
windows alone).  Reported shape: NJ-WUON is 4–10× faster than TA and NJ-WN is
12–20× faster.

The three benchmark series below are the computations ``python -m
repro.harness fig6`` times, call for call.  NJ-WN is ``nj_wn``: the overlap
join plus the negating sweep, without LAWAU's gap windows and without copying
WUO to the output — every series starts from the base relations, so NJ-WN
leads NJ-WUON by the cost of LAWAU only, less than the paper's WN, which
takes WUO as given.  Compare the group means (TA / NJ-WUON and TA / NJ-WN).
"""

from __future__ import annotations

import pytest

from repro.baselines import ta_wuon
from repro.core import nj_wn, nj_wuon


@pytest.mark.benchmark(group="fig6a-webkit-negating")
def test_fig6a_nj_wn_webkit(benchmark, webkit_window_workload):
    positive, negative, theta = webkit_window_workload
    windows = benchmark(nj_wn, positive, negative, theta)
    assert windows


@pytest.mark.benchmark(group="fig6a-webkit-negating")
def test_fig6a_nj_wuon_webkit(benchmark, webkit_window_workload):
    positive, negative, theta = webkit_window_workload
    windows = benchmark(nj_wuon, positive, negative, theta)
    assert windows


@pytest.mark.benchmark(group="fig6a-webkit-negating")
def test_fig6a_ta_webkit(benchmark, webkit_window_workload):
    positive, negative, theta = webkit_window_workload
    windows = benchmark(ta_wuon, positive, negative, theta)
    assert windows


@pytest.mark.benchmark(group="fig6b-meteo-negating")
def test_fig6b_nj_wn_meteo(benchmark, meteo_window_workload):
    positive, negative, theta = meteo_window_workload
    windows = benchmark(nj_wn, positive, negative, theta)
    assert windows


@pytest.mark.benchmark(group="fig6b-meteo-negating")
def test_fig6b_nj_wuon_meteo(benchmark, meteo_window_workload):
    positive, negative, theta = meteo_window_workload
    windows = benchmark(nj_wuon, positive, negative, theta)
    assert windows


@pytest.mark.benchmark(group="fig6b-meteo-negating")
def test_fig6b_ta_meteo(benchmark, meteo_window_workload):
    positive, negative, theta = meteo_window_workload
    windows = benchmark(ta_wuon, positive, negative, theta)
    assert windows


def test_fig6_nj_and_ta_compute_the_same_negating_windows(webkit_window_workload):
    """Sanity check: the measured computations agree on the negating windows."""
    positive, negative, theta = webkit_window_workload
    nj = nj_wn(positive, negative, theta)
    ta = [w for w in ta_wuon(positive, negative, theta) if w.window_class.value == "negating"]
    assert len(nj) == len(ta)
