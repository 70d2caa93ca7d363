#!/usr/bin/env python3
"""Folded-stack viewer: render a sampling-profiler capture offline.

Consumes the collapsed-stack artifact written by `benchmark_run
--cpu-profile=PATH` (or by the Fig. 4 bench) — one stack per line,
semicolon-separated frames root-first with a trailing sample count:

  thread:driver.0;op:complex.Q9;opr:join2;main;...;Lookup 17

and renders it as either (or both):

  * --svg OUT         a self-contained interactive flamegraph SVG
                      (hover titles, click-free, no JavaScript, no
                      external assets — opens in any browser);
  * --speedscope OUT  a speedscope-format JSON profile for
                      https://www.speedscope.app (drag-and-drop).

Pure stdlib on purpose: this is the only viewer guaranteed to exist in
the benchmark container, so the flamegraph recipe in EXPERIMENTS.md
cannot rot on a missing dependency.

Exit codes: 0 = ok, 2 = bad input / bad usage.
"""

import argparse
import hashlib
import json
import sys

# ---------------------------------------------------------------------------
# Folded-stack parsing.
# ---------------------------------------------------------------------------


def parse_folded(text, path="<input>"):
    """Parses folded text into a list of (frames, count) tuples.

    Frames are root-first, exactly as written. Raises SystemExit(2) on a
    malformed line — a truncated artifact should fail loudly, not render
    a silently wrong graph.
    """
    stacks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        stack, sep, count_str = line.rpartition(" ")
        if not sep or not stack:
            print(f"error: {path}:{lineno}: expected 'frames... count', "
                  f"got {raw!r}", file=sys.stderr)
            raise SystemExit(2)
        try:
            count = int(count_str)
        except ValueError:
            print(f"error: {path}:{lineno}: sample count {count_str!r} is "
                  f"not an integer", file=sys.stderr)
            raise SystemExit(2)
        if count <= 0:
            print(f"error: {path}:{lineno}: sample count must be positive, "
                  f"got {count}", file=sys.stderr)
            raise SystemExit(2)
        frames = [f for f in stack.split(";") if f]
        if not frames:
            print(f"error: {path}:{lineno}: empty frame list", file=sys.stderr)
            raise SystemExit(2)
        stacks.append((frames, count))
    if not stacks:
        print(f"error: {path}: no stacks (empty capture?)", file=sys.stderr)
        raise SystemExit(2)
    return stacks


# ---------------------------------------------------------------------------
# Flamegraph SVG.
# ---------------------------------------------------------------------------


class Node:
    __slots__ = ("name", "total", "children")

    def __init__(self, name):
        self.name = name
        self.total = 0
        self.children = {}


def build_tree(stacks):
    root = Node("all")
    for frames, count in stacks:
        root.total += count
        node = root
        for frame in frames:
            child = node.children.get(frame)
            if child is None:
                child = Node(frame)
                node.children[frame] = child
            child.total += count
            node = child
    return root


def frame_color(name):
    """Deterministic warm color per frame name (flamegraph convention).

    Hash-seeded so the same function keeps its color across captures —
    diffs by eye stay possible.
    """
    digest = hashlib.md5(name.encode("utf-8")).digest()
    # Red 200-255, green 60-210, blue 0-70: the classic flame palette.
    r = 200 + digest[0] * 55 // 255
    g = 60 + digest[1] * 150 // 255
    b = digest[2] * 70 // 255
    # Context frames (thread:/op:/opr:) render cool so the attribution
    # bands are visually separable from real code frames.
    if name.startswith(("thread:", "op:", "opr:")):
        return f"rgb({b},{g},{r})"
    return f"rgb({r},{g},{b})"


def esc(text):
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def max_depth(node, depth=0):
    if not node.children:
        return depth
    return max(max_depth(c, depth + 1) for c in node.children.values())


def render_svg(stacks, title, width, min_fraction):
    root = build_tree(stacks)
    row_h = 17
    font_px = 11
    # Approximate glyph advance for the truncation heuristic; SVG text is
    # not clipped, so over-long labels must be cut before emission.
    char_w = font_px * 0.62
    depth = max_depth(root)
    top_pad = 34
    height = top_pad + (depth + 1) * row_h + 12
    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="monospace" font-size="{font_px}px">')
    out.append(f'<rect width="{width}" height="{height}" fill="#f8f8f8"/>')
    out.append(f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
               f'font-size="15px">{esc(title)}</text>')
    total = root.total

    def emit(node, depth_idx, x, w):
        # Flamegraph orientation: root row at the bottom, leaves on top.
        y = height - 12 - (depth_idx + 1) * row_h
        pct = 100.0 * node.total / total
        label = f"{node.name} ({node.total} samples, {pct:.2f}%)"
        out.append(f'<g><title>{esc(label)}</title>'
                   f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" '
                   f'height="{row_h - 1}" fill="{frame_color(node.name)}" '
                   f'rx="1"/>')
        max_chars = int(w / char_w)
        if max_chars >= 3:
            text = node.name
            if len(text) > max_chars:
                text = text[:max_chars - 2] + ".."
            out.append(f'<text x="{x + 2:.2f}" y="{y + row_h - 5}">'
                       f'{esc(text)}</text>')
        out.append("</g>")
        child_x = x
        # Lexicographic child order keeps the layout stable run to run.
        for name in sorted(node.children):
            child = node.children[name]
            child_w = w * child.total / node.total
            if child.total / total >= min_fraction and child_w >= 0.5:
                emit(child, depth_idx + 1, child_x, child_w)
            child_x += child_w

    emit(root, 0, 10.0, width - 20.0)
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Speedscope JSON.
# ---------------------------------------------------------------------------


def render_speedscope(stacks, title):
    frame_index = {}
    frame_list = []
    samples = []
    weights = []
    for frames, count in stacks:
        indexed = []
        for frame in frames:
            idx = frame_index.get(frame)
            if idx is None:
                idx = len(frame_list)
                frame_index[frame] = idx
                frame_list.append({"name": frame})
            indexed.append(idx)
        samples.append(indexed)  # Root-first, as speedscope expects.
        weights.append(count)
    total = sum(weights)
    doc = {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frame_list},
        "profiles": [{
            "type": "sampled",
            "name": title,
            "unit": "none",
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        }],
        "name": title,
        "exporter": "snb profile_view.py",
    }
    return json.dumps(doc, indent=1) + "\n"


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(
        description="render a folded-stack CPU profile as a flamegraph SVG "
                    "and/or a speedscope JSON document")
    parser.add_argument("folded", help="collapsed-stack input file "
                        "(from --cpu-profile or /profile)")
    parser.add_argument("--svg", metavar="OUT",
                        help="write a flamegraph SVG here")
    parser.add_argument("--speedscope", metavar="OUT",
                        help="write a speedscope JSON profile here")
    parser.add_argument("--title", default="snb cpu profile",
                        help="graph title (default: 'snb cpu profile')")
    parser.add_argument("--width", type=int, default=1200,
                        help="SVG width in px (default 1200)")
    parser.add_argument("--min-percent", type=float, default=0.1,
                        metavar="PCT",
                        help="prune SVG frames below this share of total "
                             "samples (default 0.1)")
    args = parser.parse_args()
    if not args.svg and not args.speedscope:
        print("error: nothing to do — pass --svg and/or --speedscope",
              file=sys.stderr)
        return 2

    try:
        with open(args.folded, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print(f"error: cannot read {args.folded}: {e}", file=sys.stderr)
        return 2
    stacks = parse_folded(text, args.folded)
    total = sum(count for _, count in stacks)

    if args.svg:
        svg = render_svg(stacks, args.title, args.width,
                         args.min_percent / 100.0)
        with open(args.svg, "w", encoding="utf-8") as f:
            f.write(svg)
        print(f"wrote {args.svg} ({len(stacks)} stacks, {total} samples)")
    if args.speedscope:
        doc = render_speedscope(stacks, args.title)
        with open(args.speedscope, "w", encoding="utf-8") as f:
            f.write(doc)
        print(f"wrote {args.speedscope} ({len(stacks)} stacks, "
              f"{total} samples)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
