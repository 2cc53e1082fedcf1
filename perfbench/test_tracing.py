"""Span arithmetic and reference comparison on synthetic inputs.

    python3 -m pytest perfbench/test_tracing.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import artifacts  # noqa: E402
from tracing import Recorder, Span, layer_metrics, root_time, self_times  # noqa: E402


def _tree():
    # cli.run_experiment [0, 10]
    #   bilinear.j_sweep [1, 9]
    #     bilinear.j_eval [2, 8]            recursive, as in the A-J branch
    #       bilinear.j_eval [3, 6]
    #         quadrature.panel_sums [4, 5]
    #       quadrature.panel_sums [6.5, 7]
    # cli.run_experiment [11, 12]
    return [
        Span("cli.run_experiment", 0.0, 10.0, -1),
        Span("bilinear.j_sweep", 1.0, 9.0, 0),
        Span("bilinear.j_eval", 2.0, 8.0, 1),
        Span("bilinear.j_eval", 3.0, 6.0, 2, error="QuadratureNonConvergent"),
        Span("quadrature.panel_sums", 4.0, 5.0, 3, work=16),
        Span("quadrature.panel_sums", 6.5, 7.0, 2, work=8),
        Span("cli.run_experiment", 11.0, 12.0, -1),
    ]


def test_self_time_of_nested_and_recursive_spans():
    assert self_times(_tree()) == [2.0, 2.0, 2.5, 2.0, 1.0, 0.5, 1.0]


def test_self_times_add_up_to_root_time():
    spans = _tree()
    assert sum(self_times(spans)) == pytest.approx(root_time(spans)) == 11.0


def test_layer_metrics():
    m = layer_metrics(_tree())
    assert m["bilinear.j_eval.calls"] == 2
    assert m["bilinear.j_eval.self_s"] == pytest.approx(4.5)
    assert m["bilinear.j_eval.fallbacks"] == 1
    assert m["quadrature.panel_sums.nodes"] == 24
    assert m["quadrature.self_s"] == pytest.approx(1.5)
    assert m["cli.self_s"] == pytest.approx(3.0)


def test_recorder_records_recursion_and_errors():
    rec = Recorder()

    def fact(n):
        if n < 0:
            raise ValueError("negative")
        return 1 if n == 0 else n * traced(n - 1)

    traced = rec.wrap("layer.fact", fact)
    assert traced(3) == 6
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 2]
    with pytest.raises(ValueError):
        traced(-1)
    assert rec.spans[-1].error == "ValueError" and rec.stack == []


def test_compare_within_and_beyond_tolerance(tmp_path):
    ref_file = tmp_path / "a.csv"
    ref_file.write_text("x,label\n1.0,p\n2.0,q\n")
    ref = artifacts.summarize(ref_file)
    ref_file.write_text("x,label\n1.0000001,p\n2.0,q\n")
    close = artifacts.summarize(ref_file)
    assert close["sha256"] != ref["sha256"]
    assert artifacts.compare(ref, close, 1e-6) == []
    assert artifacts.compare(ref, close, 1e-9)
    ref_file.write_text("x,label\n1.0,p\n2.0,r\n")
    assert artifacts.compare(ref, artifacts.summarize(ref_file), 1.0)
