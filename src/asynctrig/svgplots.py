"""Hand-rendered SVG views of a simulation trace.

No plotting dependency: each series is one <polyline> whose pixel coordinates
are an affine image of the data, and the two affine maps are printed inside
the <desc> element at full precision.  That makes the files machine-readable:
parse the maps, invert them on the polyline points, and the original numbers
come back to within rounding.
"""

import functools
import math
import os
import re
import stat

import numpy as np

W, H = 800, 500
ML, MR, MT, MB = 70, 20, 28, 45
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
AXIS_MEMO = 8  # time axes whose texts `time_texts` keeps; the traces of one configuration share a few


def _affine(lo: float, hi: float, p0: float, p1: float):
    # px = a + s * value; degenerate ranges get a unit span, or none where lo + 1 rounds to lo
    if not hi > lo:
        hi = lo + 1.0
    s = (p1 - p0) / (hi - lo) if hi != lo else 0.0
    return p0 - s * lo, s


def float_texts(values) -> list:
    """`repr(float(v))` of every element of `values`, in C order.

    Each distinct bit pattern is formatted once, since a held estimate repeats
    its value until it is refreshed.  Keying on the bits and not on the value
    keeps -0.0 apart from 0.0.
    """
    flat = np.ascontiguousarray(values, dtype=float).ravel()
    _, first, inverse = np.unique(flat.view(np.int64), return_index=True, return_inverse=True)
    texts = list(map(repr, flat[first].tolist()))
    return [texts[i] for i in inverse.tolist()]


def write_text(path, text: str):
    """Write `text` to `path` as UTF-8, rewriting an existing file in place.

    Every file the package produces goes through here.  The file is opened
    without O_TRUNC, overwritten from its start and then cut at the end of
    what was written, so it ends up holding exactly the bytes `open(path, "w")`
    would leave, with the same mode bits (0o666 less the umask when created,
    unchanged otherwise) and the same symlink and hard-link behaviour.  A
    device or pipe is not cut, as O_TRUNC leaves one alone.

    Truncating an existing file to zero frees its blocks, and ext4 (its
    `auto_da_alloc` heuristic) then starts writing the file back on close,
    which costs several times the write itself.  Neither way calls fsync, so
    no durability is given up: that writeback is a filesystem heuristic, not
    a flush the code asks for.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _pixels(values: np.ndarray) -> list:
    # one repr per element, for pixels that seldom repeat; tolist() yields Python floats
    return list(map(repr, values.tolist()))


def time_texts(times) -> tuple:
    """(t, px_t, px_step): `repr(float(t))` of every time, their x pixels on the frame of
    `states_svg` and `lyapunov_svg`, and the x pixels of steps 0..len(times) on `schedule_svg`'s.
    A memo of the AXIS_MEMO latest axes, keyed by their exact bytes, formats each axis once."""
    return _axis_texts(np.ascontiguousarray(times, dtype=float).tobytes())


@functools.lru_cache(maxsize=AXIS_MEMO)
def _axis_texts(key: bytes) -> tuple:
    ts = np.frombuffer(key)
    ax, sx = _affine(float(ts[0]), float(ts[-1]), ML, W - MR) if ts.size else (0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # an axis with no finite pixel map still gets its t texts
        px_t = _pixels(ax + sx * ts)
    bx, bs = _affine(0.0, float(ts.size), ML, W - MR)  # schedule_svg's frame: one step per time
    return tuple(_pixels(ts)), tuple(px_t), tuple(_pixels(bx + bs * np.arange(ts.size + 1)))


def _poly(pxs, pys, stroke, ident, dash=None):
    # pxs, pys: the formatted pixel coordinates of the points, in order
    pts = " ".join(map(",".join, zip(pxs, pys)))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline id="{ident}" fill="none" stroke="{stroke}" stroke-width="1.5"{extra} points="{pts}"/>'


def _padded(lo: float, hi: float):
    pad = 0.05 * (hi - lo or 1.0)
    return lo - pad, hi + pad


def _frame(title, xlabel, ylabel, xlo, xhi, ylo, yhi):
    """The pixel maps (ax, sx, ay, sy) of the data box, and the frame drawn around it."""
    ax, sx = _affine(xlo, xhi, ML, W - MR)
    ay, sy = _affine(ylo, yhi, H - MB, MT)
    parts = [
        f'<rect x="0" y="0" width="{W}" height="{H}" fill="#ffffff"/>',
        f'<text x="{W//2}" y="18" text-anchor="middle" font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{ML}" y1="{H-MB}" x2="{W-MR}" y2="{H-MB}" stroke="#000000"/>',
        f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{H-MB}" stroke="#000000"/>',
        f'<text x="{(ML+W-MR)//2}" y="{H-8}" text-anchor="middle" font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{(MT+H-MB)//2}" text-anchor="middle" font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {(MT+H-MB)//2})">{ylabel}</text>',
    ]
    for k in range(6):
        xv = xlo + (xhi - xlo) * k / 5
        yv = ylo + (yhi - ylo) * k / 5
        px = repr(ax + sx * xv)
        py = repr(ay + sy * yv)
        parts.append(f'<line x1="{px}" y1="{H-MB}" x2="{px}" y2="{H-MB+4}" stroke="#000000"/>')
        parts.append(
            f'<text x="{px}" y="{H-MB+16}" text-anchor="middle" font-family="sans-serif" font-size="10">{xv:.4g}</text>'
        )
        parts.append(f'<line x1="{ML-4}" y1="{py}" x2="{ML}" y2="{py}" stroke="#000000"/>')
        parts.append(
            f'<text x="{ML-6}" y="{py}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="10">{yv:.4g}</text>'
        )
    return (ax, sx, ay, sy), parts


def _document(xname, yname, maps, body: list) -> str:
    # the <desc> records both pixel maps at full precision, for parse_polyline
    ax, sx, ay, sy = maps
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">\n'
        f"<desc>px = {ax!r} + {sx!r} * {xname}; py = {ay!r} + {sy!r} * {yname}</desc>\n"
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _legend(entries):
    # entries: (label, color, dashed) per series, top to bottom
    parts = []
    x = W - MR - 120
    y = MT + 14
    for k, (label, color, dashed) in enumerate(entries):
        dash = ' stroke-dasharray="5,3"' if dashed else ""
        parts.append(f'<line x1="{x}" y1="{y + 14*k}" x2="{x+24}" y2="{y + 14*k}" stroke="{color}" stroke-width="1.5"{dash}/>')
        parts.append(
            f'<text x="{x+30}" y="{y + 14*k + 4}" font-family="sans-serif" font-size="11">{label}</text>'
        )
    return parts


def states_svg(trace) -> str:
    ts = trace.times
    vals = np.concatenate([trace.X.ravel(), trace.XHAT.ravel()])
    maps, body = _frame(
        "state and held estimate", "t", "value", float(ts[0]), float(ts[-1]), *_padded(float(vals.min()), float(vals.max()))
    )
    ay, sy = maps[2:]
    # the time axis is shared by every series; a held estimate repeats its value until refreshed
    px_t = time_texts(ts)[1]
    px_X = _pixels((ay + sy * trace.X).T.ravel())
    px_XHAT = float_texts((ay + sy * trace.XHAT).T)
    legend = []
    for i in range(trace.X.shape[1]):
        c = COLORS[i % len(COLORS)]
        col = slice(i * ts.size, (i + 1) * ts.size)
        body.append(_poly(px_t, px_X[col], c, f"x_{i+1}"))
        body.append(_poly(px_t, px_XHAT[col], c, f"xhat_{i+1}", dash="5,3"))
        legend += [(f"x_{i+1}", c, False), (f"xhat_{i+1}", c, True)]
    return _document("t", "value", maps, body + _legend(legend))


def lyapunov_svg(trace, mu: float = 0.0) -> str:
    ts = trace.times
    logv = np.log10(np.maximum(trace.V, 1e-300))
    ylo, yhi = float(logv.min()), float(logv.max())
    if mu > 0:
        ylo = min(ylo, math.log10(mu))
        yhi = max(yhi, math.log10(mu))
    maps, body = _frame("certificate value (log scale)", "t", "log10 V", float(ts[0]), float(ts[-1]), *_padded(ylo, yhi))
    ay, sy = maps[2:]
    px_t = time_texts(ts)[1]
    body.append(_poly(px_t, _pixels(ay + sy * logv), COLORS[0], "logV"))
    legend = [("log10 V", COLORS[0], False)]
    if mu > 0:
        py = repr(ay + sy * math.log10(mu))
        body.append(_poly([px_t[0], px_t[-1]], [py, py], COLORS[1], "log_mu", dash="5,3"))
        legend.append(("log10 mu", COLORS[1], True))
    return _document("t", "log10(V)", maps, body + _legend(legend))


def schedule_svg(trace) -> str:
    acts = trace.actions
    steps = acts.size
    m = int(acts.max()) if steps else 1
    maps, body = _frame("sensor schedule", "step", "action", 0.0, float(steps), -0.5, max(m, 1) + 0.5)
    ay, sy = maps[2:]
    # step-post: the action chosen at step k holds on [k, k+1); every point is a step or an action level
    px_step = time_texts(trace.times)[2]  # a trace has one time per action
    py_action = _pixels(ay + sy * np.arange(m + 1))
    pxs, pys = [""] * (2 * steps), [""] * (2 * steps)
    pxs[0::2], pxs[1::2] = px_step[:-1], px_step[1:]
    pys[0::2] = pys[1::2] = [py_action[a] for a in acts.tolist()]
    body.append(_poly(pxs, pys, COLORS[2], "action"))
    return _document("step", "action", maps, body + _legend([("action (0 = idle)", COLORS[2], False)]))


def emit_plots(trace, outdir: str, mu: float = 0.0) -> list:
    """Write the three standard views; returns the file paths.  Their time-axis texts come from `time_texts`."""
    if trace.actions.size == 0:
        raise ValueError("cannot plot an empty trace")
    os.makedirs(outdir, exist_ok=True)
    out = []
    for name, text in (
        ("states.svg", states_svg(trace)),
        ("lyapunov.svg", lyapunov_svg(trace, mu)),
        ("schedule.svg", schedule_svg(trace)),
    ):
        path = os.path.join(outdir, name)
        write_text(path, text)
        out.append(path)
    return out


def parse_polyline(svg_text: str, ident: str):
    """Recover a polyline's data coordinates by inverting the recorded maps."""
    m = re.search(r"<desc>px = ([^ ]+) \+ ([^ ]+) \* [^;]+; py = ([^ ]+) \+ ([^ ]+) \*", svg_text)
    if not m:
        raise ValueError("no coordinate maps recorded")
    ax, sx, ay, sy = (float(g) for g in m.groups())
    pm = re.search(rf'<polyline id="{re.escape(ident)}"[^>]* points="([^"]*)"', svg_text)
    if not pm:
        raise ValueError(f"no polyline with id {ident!r}")
    pts = [tuple(float(v) for v in pair.split(",")) for pair in pm.group(1).split()]
    xs = np.array([(px - ax) / sx for px, _ in pts])
    ys = np.array([(py - ay) / sy for _, py in pts])
    return xs, ys
