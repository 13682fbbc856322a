import os

import numpy as np
import pytest

from asynctrig.presets import preset_config
from asynctrig.simulation import SimTrace, prepare, simulate
from asynctrig.svgplots import emit_plots, float_texts, lyapunov_svg, parse_polyline, schedule_svg, states_svg
from helpers import oracle_svgs, special_value_traces


@pytest.fixture(scope="module")
def trace():
    cfg = preset_config("online-unperturbed")
    return simulate(cfg, prepare(cfg))


def _single_step_trace():
    return SimTrace(
        times=np.array([0.0]),
        X=np.array([[1.0, -2.0]]),
        XHAT=np.array([[1.0, -2.0]]),
        U=np.array([[7.0]]),
        actions=np.array([2], dtype=int),
        V=np.array([3.5]),
        boundaries=[0],
        boundary_V=[3.5],
        decisions=[],
        decision_rows=[],
    )


def test_emit_rejects_empty_trace(tmp_path):
    empty = SimTrace(
        times=np.array([]), X=np.zeros((0, 2)), XHAT=np.zeros((0, 2)), U=np.zeros((0, 1)),
        actions=np.array([], dtype=int), V=np.array([]), boundaries=[], boundary_V=[],
        decisions=[], decision_rows=[],
    )
    with pytest.raises(ValueError):
        emit_plots(empty, str(tmp_path / "plots"))
    assert not (tmp_path / "plots").exists() or not os.listdir(tmp_path / "plots")


def test_emit_writes_three_files(trace, tmp_path):
    paths = emit_plots(trace, str(tmp_path), mu=0.0)
    assert [os.path.basename(p) for p in paths] == ["states.svg", "lyapunov.svg", "schedule.svg"]
    for p in paths:
        text = open(p).read()
        assert text.startswith("<svg") or "<svg" in text.splitlines()[0]
        assert "<desc>" in text


def test_parse_back_matches_trace(trace):
    svg = states_svg(trace)
    for i in (1, 2):
        xs, ys = parse_polyline(svg, f"x_{i}")
        np.testing.assert_allclose(xs, trace.times, atol=1e-9)
        np.testing.assert_allclose(ys, trace.X[:, i - 1], atol=1e-9)
        xs, ys = parse_polyline(svg, f"xhat_{i}")
        np.testing.assert_allclose(ys, trace.XHAT[:, i - 1], atol=1e-9)
    svg = lyapunov_svg(trace)
    xs, ys = parse_polyline(svg, "logV")
    np.testing.assert_allclose(ys, np.log10(np.maximum(trace.V, 1e-300)), atol=1e-9)
    svg = schedule_svg(trace)
    xs, ys = parse_polyline(svg, "action")
    assert xs.size == 2 * trace.actions.size  # step-post outline
    np.testing.assert_allclose(ys[::2], trace.actions, atol=1e-9)
    np.testing.assert_allclose(ys[1::2], trace.actions, atol=1e-9)


def test_mu_reference_line(trace):
    svg = lyapunov_svg(trace, mu=4.0)
    xs, ys = parse_polyline(svg, "log_mu")
    np.testing.assert_allclose(ys, [np.log10(4.0)] * 2, atol=1e-9)
    with pytest.raises(ValueError):
        parse_polyline(lyapunov_svg(trace, mu=0.0), "log_mu")


def test_single_step_trace_renders(tmp_path):
    tr = _single_step_trace()
    paths = emit_plots(tr, str(tmp_path))
    assert len(paths) == 3
    xs, ys = parse_polyline(open(paths[2]).read(), "action")
    np.testing.assert_allclose(xs, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(ys, [2.0, 2.0], atol=1e-12)
    xs, ys = parse_polyline(open(paths[0]).read(), "x_1")
    np.testing.assert_allclose(ys, [1.0], atol=1e-12)


def test_rendering_is_deterministic(trace, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_plots(trace, str(a))
    emit_plots(trace, str(b))
    for name in ("states.svg", "lyapunov.svg", "schedule.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_parse_polyline_unknown_id(trace):
    with pytest.raises(ValueError):
        parse_polyline(states_svg(trace), "nonexistent")
    with pytest.raises(ValueError):
        parse_polyline("<svg></svg>", "x_1")


def test_documents_match_the_per_point_oracle(preset_traces):
    traces = [tr for _, _, tr in preset_traces.values()] + special_value_traces()
    for i, tr in enumerate(traces):
        for mu in (0.0, 4.0):
            got = [states_svg(tr), lyapunov_svg(tr, mu=mu), schedule_svg(tr)]
            assert got == oracle_svgs(tr, mu=mu), (i, mu)
        # the step-post outline: the action chosen at step k holds on [k, k+1)
        xs, ys = parse_polyline(got[2], "action")
        steps = np.repeat(np.arange(tr.actions.size), 2) + np.tile([0, 1], tr.actions.size)
        np.testing.assert_allclose(xs, steps, rtol=0, atol=1e-9)
        np.testing.assert_allclose(ys, np.repeat(tr.actions, 2), rtol=0, atol=1e-9)


def test_float_texts_formats_each_bit_pattern_as_repr():
    # repeats, both zeros side by side, nan, both infinities, the least subnormal and a huge value
    arr = np.array(
        [[0.5, 0.0, -0.0, 0.5], [np.nan, np.inf, -np.inf, 0.0], [5e-324, 1e300, -0.0, 0.1 + 0.2], [1e300, 0.5, 5e-324, np.nan]]
    )
    assert float_texts(arr) == [repr(v) for v in arr.ravel().tolist()]
    assert float_texts(arr.T) == [repr(v) for v in arr.T.ravel().tolist()]
    assert float_texts(np.array([])) == []
