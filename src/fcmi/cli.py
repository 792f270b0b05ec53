"""Command-line entry point: run, sweep, verify-lemmas, and report.

Every file a command writes goes through ``harness.persist``, which creates
the directories it lacks; ``run`` and ``sweep`` still create ``-o`` before
any fit, so an unusable output directory is refused early, and ``report --svg
DIR`` creates ``DIR`` even when no bound is drawn.

Exit codes are the only success/failure channel: 0 on success, 2 for a
``ConfigError`` (refused input or usage), 3 for any other failure, which is
printed as ``error: <message>``; no failure leaves as a traceback. Stdout
carries data, stderr carries diagnostics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import ConfigError
from .harness import (
    ExperimentConfig,
    canonical_json,
    curve_rows,
    curve_table_csv,
    load_report,
    persist,
    run_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _apply_override(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    dotted, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    keys = dotted.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {dotted!r} crosses a non-object value")
    node[keys[-1]] = value


def _load_config_dict(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: {e}") from e


def _config_from_args(raw, args) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"an experiment config must be a JSON object, got {raw!r}")
    for assignment in args.set or []:
        _apply_override(raw, assignment)
    if args.seed is not None:
        raw["master_seed"] = args.seed
    if args.jobs is not None:
        raw["jobs"] = args.jobs
    if args.clip_bounds:
        raw["clip_bounds"] = True
    return ExperimentConfig.from_json_dict(raw)


def _cmd_run(args) -> int:
    config = _config_from_args(_load_config_dict(args.config), args)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = run_experiment(config, keep_tables=args.dump_tables)
    persist(report, out / "report.json")
    persist(curve_table_csv(curve_rows(report)), out / "curves.csv")
    if args.verbose:
        for res in report.supersamples:
            mi = (f" mean_mi={sum(res.mi_per_index) / len(res.mi_per_index):.5f}"
                  if res.mi_per_index else "")
            print(f"{res.supersample_id}: gap={res.gap_mean:+.4f}{mi}",
                  file=sys.stderr)
    for table in report.tables or []:
        persist(table, out / "tables" / f"{table.supersample_id}.json")
    print(f"gap_mean={report.gap_mean:.6f} "
          + " ".join(f"{b.name}={b.value:.6f}" for b in report.bounds)
          + f" wall_clock={report.wall_clock_sec:.2f}s", file=sys.stderr)
    return EXIT_OK


def _sweep_configs(raw, args) -> list[ExperimentConfig]:
    shape = set(raw) if isinstance(raw, dict) else None
    if shape == {"configs"} and isinstance(raw["configs"], list):
        members = raw["configs"]
    elif (shape == {"base", "vary"} and isinstance(raw["base"], dict)
          and isinstance(raw["vary"], list) and all(isinstance(p, dict) for p in raw["vary"])):
        members = [{**json.loads(json.dumps(raw["base"])), **patch} for patch in raw["vary"]]
    else:
        raise ConfigError('a sweep config is {"configs": [...]} or '
                          '{"base": {...}, "vary": [{...}, ...]}')
    if not members:
        raise ConfigError("sweep config lists no members")
    configs = []
    for idx, member in enumerate(members):
        try:
            configs.append(_config_from_args(member, args))
        except ConfigError as e:
            raise ConfigError(f"sweep member {idx}: {e}") from e
    return configs


def _cmd_sweep(args) -> int:
    """Run the members in order, each already checked when it was built, and
    write each report as it completes; the first failing run stops the sweep."""
    configs = _sweep_configs(_load_config_dict(args.config), args)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for idx, config in enumerate(configs):
        try:
            report = run_experiment(config)
        except Exception as e:
            persist({"failed_index": idx, "error": str(e)}, out / "errors.json")
            print(f"error: sweep member {idx} failed: {e}", file=sys.stderr)
            return EXIT_RUNTIME
        persist(report, out / f"report_{idx:03d}.json")
        rows.extend(curve_rows(report))
    persist(curve_table_csv(rows), out / "curves.csv")
    print(f"swept {len(configs)} configs -> {out}/curves.csv", file=sys.stderr)
    return EXIT_OK


def _cmd_verify_lemmas(args) -> int:
    from .lemma_lab import run_all_verifiers  # here: no other command needs the verifiers
    if args.instances < 1:
        raise ConfigError(f"--instances must be >= 1, got {args.instances}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    reports = run_all_verifiers(instances=args.instances, seed=args.seed)
    summary = {"verifiers": [r.to_json_dict() for r in reports]}
    if args.output:
        persist(summary, args.output)
    else:
        sys.stdout.write(canonical_json(summary))
    bad = [r for r in reports if r.violations > 0]
    for r in reports:
        status = "ok" if r.violations == 0 else "VIOLATED"
        print(f"{r.lemma}: {r.instances} instances, min_margin={r.min_margin:.3e} "
              f"[{status}]", file=sys.stderr)
    return EXIT_RUNTIME if bad else EXIT_OK


def _cmd_report(args) -> int:
    rows = []
    for path in args.reports:
        report = load_report(path)
        rows.extend(curve_rows(report))
    csv_text = curve_table_csv(rows)
    if args.csv:
        persist(csv_text, args.csv)
    else:
        sys.stdout.write(csv_text)
    if args.svg:
        svg_dir = Path(args.svg)
        svg_dir.mkdir(parents=True, exist_ok=True)  # also when no bound is drawn
        for name in sorted({r["bound_name"] for r in rows}):
            series = [r for r in rows if r["bound_name"] == name]
            persist(render_curves_svg(name, series), svg_dir / f"{name}.svg")
    return EXIT_OK


# one colour per (learner, mode) series, reused in order past the eighth
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#e377c2", "#17becf")
# (curve, its value and spread columns, its stroke pattern)
_CURVES = (("gap", "gap_mean", "gap_std", ' stroke-dasharray="6,4"'),
           ("bound", "bound_value", "bound_spread", ""))


def render_curves_svg(bound_name: str, rows: list[dict]) -> str:
    """Deterministic line chart of one bound against n, with error bars: one
    series per (learner, mode) in its own colour, its gap dashed and its
    bound solid, each series sorted by n and named in the legend."""
    from xml.sax.saxutils import escape  # here: it loads urllib.request, which no run needs
    series: dict[tuple[str, str], list[dict]] = {}
    for r in sorted(rows, key=lambda r: (r["learner"], r["mode"], r["n"])):
        series.setdefault((r["learner"], r["mode"]), []).append(r)
    plot_w, height, pad = 640, 440, 60.0
    width = plot_w + 240  # the legend's column
    xs = [r["n"] for r in rows]
    ends = [(r[value], r[spread] or 0.0) for r in rows for _, value, spread, _ in _CURVES]
    ymax = max(max(v + e for v, e in ends), 1e-9)
    ymin = min(0.0, min(v - e for v, e in ends))
    xmin, xmax = min(xs), max(xs)
    xspan = max(xmax - xmin, 1)

    def px(x):
        return pad + (x - xmin) / xspan * (plot_w - 2 * pad)

    def py(y):
        return height - pad - (y - ymin) / (ymax - ymin) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad:.2f}" y1="{height - pad:.2f}" x2="{plot_w - pad:.2f}" '
        f'y2="{height - pad:.2f}" stroke="black"/>',
        f'<line x1="{pad:.2f}" y1="{pad:.2f}" x2="{pad:.2f}" '
        f'y2="{height - pad:.2f}" stroke="black"/>',
        f'<text x="{plot_w / 2:.2f}" y="{height - 20:.2f}" font-size="14" '
        f'text-anchor="middle">n</text>',
        f'<text x="{plot_w / 2:.2f}" y="30" font-size="14" '
        f'text-anchor="middle">{escape(bound_name)}: gap vs bound</text>',
        f'<text x="{pad:.2f}" y="{height - pad + 18:.2f}" font-size="12" '
        f'text-anchor="middle">{xmin}</text>',
        f'<text x="{plot_w - pad:.2f}" y="{height - pad + 18:.2f}" font-size="12" '
        f'text-anchor="middle">{xmax}</text>',
        f'<text x="{pad - 8:.2f}" y="{py(ymax):.2f}" font-size="12" '
        f'text-anchor="end">{ymax:.3g}</text>',
        f'<text x="{pad - 8:.2f}" y="{py(0.0):.2f}" font-size="12" '
        f'text-anchor="end">0</text>',
    ]
    colors = [_PALETTE[idx % len(_PALETTE)] for idx in range(len(series))]
    for color, members in zip(colors, series.values()):
        for curve, value, spread, dash in _CURVES:
            pts = [(px(r["n"]), r[value], r[spread] or 0.0) for r in members]
            coords = " ".join(f"{x:.2f},{py(v):.2f}" for x, v, _ in pts)
            parts.append(f'<polyline class="{curve}" points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="2"{dash}/>')
            for x, v, e in pts:
                parts.append(f'<circle cx="{x:.2f}" cy="{py(v):.2f}" r="3" '
                             f'fill="{color}"/>')
                if e > 0:
                    parts.append(f'<line x1="{x:.2f}" y1="{py(v - e):.2f}" '
                                 f'x2="{x:.2f}" y2="{py(v + e):.2f}" '
                                 f'stroke="{color}" stroke-width="1"/>')
    legend = [(f"{learner} ({mode})", color, "")
              for (learner, mode), color in zip(series, colors)]
    legend += [(curve, "black", dash) for curve, _, _, dash in _CURVES]
    for idx, (label, color, dash) in enumerate(legend):
        y = pad + 16 * idx
        parts.append(f'<line x1="{plot_w:.2f}" y1="{y:.2f}" x2="{plot_w + 24:.2f}" '
                     f'y2="{y:.2f}" stroke="{color}" stroke-width="2"{dash}/>')
        parts.append(f'<text x="{plot_w + 30:.2f}" y="{y + 4:.2f}" '
                     f'font-size="12">{escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcmi",
        description="Estimate prediction-based generalization bounds and verify "
                    "their underlying inequalities numerically.")
    sub = parser.add_subparsers(dest="command", required=True)

    # the arguments run and sweep share, each config taking them alike
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("config")
    experiment.add_argument("-o", "--output-dir", default=".")
    experiment.add_argument("--seed", type=int, default=None, help="override master_seed")
    experiment.add_argument("--jobs", type=int, default=None,
                            help="worker pool size for supersamples")
    experiment.add_argument("--set", action="append", metavar="KEY=VALUE",
                            help="dotted-path config override")
    experiment.add_argument("--clip-bounds", action="store_true",
                            help="clip plotted bound values at 1")

    run_p = sub.add_parser("run", parents=[experiment], help="run one experiment config")
    run_p.set_defaults(handler=_cmd_run)
    run_p.add_argument("--dump-tables", action="store_true",
                       help="also write per-supersample prediction tables")
    run_p.add_argument("-v", "--verbose", action="store_true",
                       help="per-supersample diagnostics on stderr")
    sub.add_parser("sweep", parents=[experiment],
                   help="run a list of experiment configs").set_defaults(handler=_cmd_sweep)

    ver_p = sub.add_parser("verify-lemmas",
                           help="check every implemented inequality numerically")
    ver_p.set_defaults(handler=_cmd_verify_lemmas)
    ver_p.add_argument("--instances", type=int, default=1000)
    ver_p.add_argument("--seed", type=int, default=0)
    ver_p.add_argument("-o", "--output", default=None,
                       help="write the JSON summary here instead of stdout")

    rep_p = sub.add_parser("report", help="merge reports into a curve table")
    rep_p.set_defaults(handler=_cmd_report)
    rep_p.add_argument("reports", nargs="+")
    rep_p.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    rep_p.add_argument("--svg", default=None, metavar="DIR",
                       help="also render one SVG chart per bound")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
