import ast
import dataclasses
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asynctrig import svgplots
from asynctrig.presets import preset_config
from asynctrig.simulation import SimTrace, prepare, read_trace_csv, simulate, write_trace_csv
from asynctrig.svgplots import (
    AXIS_MEMO,
    emit_plots,
    float_texts,
    lyapunov_svg,
    parse_polyline,
    schedule_svg,
    states_svg,
    time_texts,
    write_text,
)
from helpers import oracle_svgs, oracle_write_trace_csv, special_value_traces

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)


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
        text = Path(p).read_text()
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
    xs, ys = parse_polyline(Path(paths[2]).read_text(), "action")
    np.testing.assert_allclose(xs, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(ys, [2.0, 2.0], atol=1e-12)
    xs, ys = parse_polyline(Path(paths[0]).read_text(), "x_1")
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


@PROPERTY
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_time_texts_are_the_repr_of_every_time(values):
    # any float, -0.0, nan, infinities and subnormals included: the memo is keyed by bits, not values
    times = np.array(values)
    t, px_t, px_step = time_texts(times)
    assert t == tuple(repr(float(v)) for v in times)
    assert (len(px_t), len(px_step)) == (times.size, times.size + 1)


def test_a_warm_time_axis_gives_what_a_cold_one_gives(trace):
    svgplots._axis_texts.cache_clear()
    cold = time_texts(trace.times)
    cold_docs = [states_svg(trace), lyapunov_svg(trace, mu=2.0), schedule_svg(trace)]
    warm = time_texts(trace.times.copy())  # equal bytes in another array
    assert svgplots._axis_texts.cache_info().hits >= 1
    assert warm == cold
    assert [states_svg(trace), lyapunov_svg(trace, mu=2.0), schedule_svg(trace)] == cold_docs
    # the memo holds at most AXIS_MEMO axes, the latest
    for k in range(AXIS_MEMO + 3):
        time_texts(trace.times + k)
    assert svgplots._axis_texts.cache_info().currsize == AXIS_MEMO


def test_a_time_one_ulp_away_changes_only_its_own_text(trace):
    base = time_texts(trace.times)[0]
    for k in (0, trace.times.size // 2, trace.times.size - 1):
        moved = trace.times.copy()
        moved[k] = np.nextafter(moved[k], np.inf)
        texts = time_texts(moved)[0]
        assert [i for i, (a, b) in enumerate(zip(base, texts)) if a != b] == [k]
        assert texts[k] == repr(float(moved[k]))


def test_a_trace_read_back_writes_the_same_csv_and_plots(preset_traces, tmp_path):
    # the read-back axis has the bytes of the written one: its texts come warm from the memo
    traces = [tr for _, _, tr in preset_traces.values()] + special_value_traces()
    for i, tr in enumerate(traces):
        first, second = tmp_path / f"{i}a", tmp_path / f"{i}b"
        first.mkdir()
        write_trace_csv(tr, str(first / "trace.csv"))
        emit_plots(tr, str(first), mu=2.0)
        back = read_trace_csv(str(first / "trace.csv"))
        second.mkdir()
        write_trace_csv(back, str(second / "trace.csv"))
        emit_plots(back, str(second), mu=2.0)
        for name in ("trace.csv", "states.svg", "lyapunov.svg", "schedule.svg"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), (i, name)


def test_traces_on_one_time_axis_keep_their_own_state_texts(trace, tmp_path):
    other = dataclasses.replace(
        trace, X=-3.0 * trace.X, XHAT=trace.XHAT + 0.25, U=0.5 * trace.U, V=7.0 * trace.V, actions=trace.actions[::-1]
    )
    for i, tr in enumerate((trace, other, trace)):
        got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
        write_trace_csv(tr, str(got))
        oracle_write_trace_csv(tr, str(want))
        assert got.read_bytes() == want.read_bytes(), i
        assert [states_svg(tr), lyapunov_svg(tr, mu=2.0), schedule_svg(tr)] == oracle_svgs(tr, mu=2.0), i


def test_write_text_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * 5000 + b"\n")
    write_text(str(path), "step,t\n0,0.5\n")
    assert path.read_bytes() == b"step,t\n0,0.5\n"
    write_text(str(path), "")
    assert path.read_bytes() == b""
    write_text(str(path), "\u03c3 = (1, 2)\n")  # text is written as UTF-8
    assert path.read_bytes() == "\u03c3 = (1, 2)\n".encode("utf-8")


def test_write_text_keeps_an_existing_mode_and_creates_a_missing_file(tmp_path):
    kept = tmp_path / "kept.json"
    kept.write_text("{}\n")
    kept.chmod(0o640)
    write_text(str(kept), "[]\n")
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640 and kept.read_text() == "[]\n"
    # a new file gets what open(path, "w") gives it: 0o666 less the umask
    with open(tmp_path / "reference", "w"):
        pass
    write_text(str(tmp_path / "new.json"), "{}\n")
    assert (tmp_path / "new.json").read_text() == "{}\n"
    assert stat.S_IMODE((tmp_path / "new.json").stat().st_mode) == stat.S_IMODE((tmp_path / "reference").stat().st_mode)


def test_write_text_follows_links_and_leaves_devices_and_directories_as_open_does(tmp_path):
    target = tmp_path / "target.svg"
    target.write_text("old and longer\n")
    (tmp_path / "symlink.svg").symlink_to(target)
    os.link(target, tmp_path / "hardlink.svg")
    write_text(str(tmp_path / "symlink.svg"), "new\n")
    assert (tmp_path / "symlink.svg").is_symlink()
    assert target.read_text() == (tmp_path / "hardlink.svg").read_text() == "new\n"
    write_text(os.devnull, "a device is written, never cut\n")
    with pytest.raises(OSError):
        write_text(str(tmp_path), "a directory is no file\n")


def _write_calls(tree: ast.AST):
    """(line, text) of each call in `tree` that may open a file for writing: open(), io.open() or
    Path.open() in any mode but a literal read-only one, and os.open anywhere but in write_text."""
    helper = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "write_text"]
    helper_lines = {line for n in helper for line in range(n.lineno, n.end_lineno + 1)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or getattr(node.func, "attr", getattr(node.func, "id", None)) != "open":
            continue
        if isinstance(node.func, ast.Attribute) and getattr(node.func.value, "id", None) == "os":
            if node.lineno not in helper_lines:
                found.append((node.lineno, ast.unparse(node)))
            continue
        # the mode follows the path, except in Path.open, whose path is the object it is called on
        at = 1 if isinstance(node.func, ast.Name) or getattr(node.func.value, "id", None) in ("io", "builtins") else 0
        mode = node.args[at] if len(node.args) > at else next((k.value for k in node.keywords if k.arg == "mode"), None)
        read_only = mode is None or (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+"))
        if not read_only:
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_every_file_the_package_writes_goes_through_write_text():
    # an open(path, "w") truncates the old file to zero before writing; write_text rewrites it in place
    src = Path(__file__).resolve().parent.parent / "src" / "asynctrig"
    found = {path.name: _write_calls(ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}
    # the scan sees each kind of writer, and passes readers and the helper's own os.open
    planted = (
        "def write_text(p):\n    os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)\n"
        "def f(p, m):\n    open(p, 'w')\n    open(p).read()\n    open(p, mode='rb')\n"
        "    os.open(p, os.O_WRONLY)\n    Path(p).open('a')\n    open(p, m)\n"
    )
    assert [line for line, _ in _write_calls(ast.parse(planted))] == [4, 7, 8, 9]
