"""Hand-rendered SVG views of a simulation trace.

No plotting dependency: each series is one <polyline> whose pixel coordinates
are an affine image of the data, and the two affine maps are printed inside
the <desc> element at full precision.  That makes the files machine-readable:
parse the maps, invert them on the polyline points, and the original numbers
come back to within rounding.
"""

import math
import os
import re

import numpy as np

W, H = 800, 500
ML, MR, MT, MB = 70, 20, 28, 45
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _affine(lo: float, hi: float, p0: float, p1: float):
    # px = a + s * value; degenerate ranges get a unit span
    if not hi > lo:
        hi = lo + 1.0
    s = (p1 - p0) / (hi - lo)
    return p0 - s * lo, s


def _poly(xs, ys, ax, sx, ay, sy, stroke, ident, dash=None):
    pts = " ".join(f"{ax + sx * float(x)!r},{ay + sy * float(y)!r}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline id="{ident}" fill="none" stroke="{stroke}" stroke-width="1.5"{extra} points="{pts}"/>'


def _frame(title, xlabel, ylabel, xlo, xhi, ylo, yhi, ax, sx, ay, sy):
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
        px = ax + sx * xv
        py = ay + sy * yv
        parts.append(f'<line x1="{px!r}" y1="{H-MB}" x2="{px!r}" y2="{H-MB+4}" stroke="#000000"/>')
        parts.append(
            f'<text x="{px!r}" y="{H-MB+16}" text-anchor="middle" font-family="sans-serif" font-size="10">{xv:.4g}</text>'
        )
        parts.append(f'<line x1="{ML-4}" y1="{py!r}" x2="{ML}" y2="{py!r}" stroke="#000000"/>')
        parts.append(
            f'<text x="{ML-6}" y="{py!r}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="10">{yv:.4g}</text>'
        )
    return parts


def _document(desc: str, body: list) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">\n'
        f"<desc>{desc}</desc>\n"
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _legend(labels_colors, dashed_flags=None):
    parts = []
    x = W - MR - 120
    y = MT + 14
    for k, (label, color) in enumerate(labels_colors):
        dash = ' stroke-dasharray="5,3"' if dashed_flags and dashed_flags[k] else ""
        parts.append(f'<line x1="{x}" y1="{y + 14*k}" x2="{x+24}" y2="{y + 14*k}" stroke="{color}" stroke-width="1.5"{dash}/>')
        parts.append(
            f'<text x="{x+30}" y="{y + 14*k + 4}" font-family="sans-serif" font-size="11">{label}</text>'
        )
    return parts


def _desc(xname, yname, ax, sx, ay, sy) -> str:
    return f"px = {ax!r} + {sx!r} * {xname}; py = {ay!r} + {sy!r} * {yname}"


def states_svg(trace) -> str:
    ts = trace.times
    n = trace.X.shape[1]
    vals = np.concatenate([trace.X.ravel(), trace.XHAT.ravel()])
    ylo, yhi = float(vals.min()), float(vals.max())
    pad = 0.05 * (yhi - ylo or 1.0)
    ylo, yhi = ylo - pad, yhi + pad
    ax, sx = _affine(float(ts[0]), float(ts[-1]), ML, W - MR)
    ay, sy = _affine(ylo, yhi, H - MB, MT)
    body = _frame("state and held estimate", "t", "value", float(ts[0]), float(ts[-1]), ylo, yhi, ax, sx, ay, sy)
    labels = []
    flags = []
    for i in range(n):
        c = COLORS[i % len(COLORS)]
        body.append(_poly(ts, trace.X[:, i], ax, sx, ay, sy, c, f"x_{i+1}"))
        body.append(_poly(ts, trace.XHAT[:, i], ax, sx, ay, sy, c, f"xhat_{i+1}", dash="5,3"))
        labels += [(f"x_{i+1}", c), (f"xhat_{i+1}", c)]
        flags += [False, True]
    body += _legend(labels, flags)
    return _document(_desc("t", "value", ax, sx, ay, sy), body)


def lyapunov_svg(trace, mu: float = 0.0) -> str:
    ts = trace.times
    logv = np.log10(np.maximum(trace.V, 1e-300))
    ylo, yhi = float(logv.min()), float(logv.max())
    if mu > 0:
        ylo = min(ylo, math.log10(mu))
        yhi = max(yhi, math.log10(mu))
    pad = 0.05 * (yhi - ylo or 1.0)
    ylo, yhi = ylo - pad, yhi + pad
    ax, sx = _affine(float(ts[0]), float(ts[-1]), ML, W - MR)
    ay, sy = _affine(ylo, yhi, H - MB, MT)
    body = _frame("certificate value (log scale)", "t", "log10 V", float(ts[0]), float(ts[-1]), ylo, yhi, ax, sx, ay, sy)
    body.append(_poly(ts, logv, ax, sx, ay, sy, COLORS[0], "logV"))
    labels = [("log10 V", COLORS[0])]
    flags = [False]
    if mu > 0:
        yv = math.log10(mu)
        body.append(
            _poly([ts[0], ts[-1]], [yv, yv], ax, sx, ay, sy, COLORS[1], "log_mu", dash="5,3")
        )
        labels.append(("log10 mu", COLORS[1]))
        flags.append(True)
    body += _legend(labels, flags)
    return _document(_desc("t", "log10(V)", ax, sx, ay, sy), body)


def schedule_svg(trace) -> str:
    acts = trace.actions
    steps = acts.size
    m = int(acts.max()) if steps else 1
    # step-post: the action chosen at step k holds on [k, k+1)
    xs, ys = [], []
    for k, a in enumerate(acts):
        xs += [k, k + 1]
        ys += [int(a), int(a)]
    ax, sx = _affine(0.0, float(steps), ML, W - MR)
    ay, sy = _affine(-0.5, max(m, 1) + 0.5, H - MB, MT)
    body = _frame("sensor schedule", "step", "action", 0.0, float(steps), -0.5, max(m, 1) + 0.5, ax, sx, ay, sy)
    body.append(_poly(xs, ys, ax, sx, ay, sy, COLORS[2], "action"))
    body += _legend([("action (0 = idle)", COLORS[2])])
    return _document(_desc("step", "action", ax, sx, ay, sy), body)


def emit_plots(trace, outdir: str, mu: float = 0.0) -> list:
    """Write the three standard views; returns the file paths."""
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
        with open(path, "w") as fh:
            fh.write(text)
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
