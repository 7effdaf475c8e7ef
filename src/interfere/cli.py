"""Command-line interface: estimate, contrast, simulate, probcheck.

Exit codes: 0 success (and, for estimate, every validity condition met);
1 data or configuration error; 2 usage error; 4 at least one validity
condition failed (the numeric output is still produced).

All output is deterministic for fixed inputs and seeds: JSON is key-sorted
with round-trippable floats, and nothing emits timestamps.

Every subcommand's parser comes from ``_subcommand``, which declares the
shared flags, each once: ``--config``, ``--data`` (not in ``simulate``),
``--out``, ``--seed`` and ``--format`` for all four, and ``--alpha`` and
``--dump-matrices`` for the two commands that take each. ``_SUFFIXES`` names
each format's file in ``--out``. ``estimate``, ``contrast`` and
``probcheck`` write the chosen format with ``_emit``, to stdout or to
``--out``/``<command>.<suffix>``; ``simulate --out`` writes all three
``coverage`` files and still prints the chosen format. ``--dump-matrices``
needs ``--out``.

``estimate``, ``contrast`` and ``probcheck`` read their ``RunConfig`` with
``_run_config``, which applies ``--seed`` and ``--alpha`` (``contrast``
without ``--config`` starts from rho 0.5 and no design), and reject with
``_unread`` a key they do not read: ``bonferroni`` and ``diagnostics`` in
``contrast`` and ``probcheck``, a design in a bonferroni scan, a design or a
Monte Carlo ``p_method`` in ``contrast --count-mode``, and a Monte Carlo
``p_method`` in ``contrast`` without a design. ``simulate``
passes its file's ``Scenario`` arguments on as given, so ``Scenario`` holds
their defaults.

They build their one design with ``_neighborhoods`` (a mapping, and the
``--neighborhoods`` file or k-NN of size ``neighborhood.d``: one without the
other is an error) and ``_profile`` (Monte Carlo when ``p_method`` asks for
it, with ``--seed`` as its seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import io as pkgio
from .contrast import attributable_contrast, attributable_contrast_from_counts, exposure_attributable_contrast
from .design import build_knn_neighborhoods, evaluate_exposure
from .errors import InterfereError, ValidationError
from .exposure import enumerated_profile, exact_profile, monte_carlo_profile
from .monotone import bonferroni_scan, upper_confidence_bound
from .simulate import CoverageRow, Scenario, _southern_half, run_coverage_experiment, synthetic_layout

CONDITION_FAILED_EXIT = 4


def _out_file(out_dir, filename: str) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path / filename


# --format -> the suffix of its file in --out, in the order --format lists its choices
_SUFFIXES = {"json": "json", "text": "txt", "csv": "csv"}


def _emit(args, name: str, **renderers) -> None:
    """Write the ``args.format`` renderer's text to stdout or ``--out``/``<name>.json``, ``.txt`` or ``.csv``."""
    text = renderers[args.format]()
    if args.out is None:
        sys.stdout.write(text)
    else:
        _out_file(args.out, f"{name}.{_SUFFIXES[args.format]}").write_text(text)


def _run_config(args) -> pkgio.RunConfig:
    """The ``--config`` file (for ``contrast`` without one, rho 0.5 and no
    design), with ``--seed`` as its Monte Carlo seed and ``--alpha`` as its
    level when given."""
    config = pkgio.RunConfig(rho=0.5) if args.config is None else pkgio.load_run_config(args.config)
    flags = {"mc_seed": args.seed, "alpha": getattr(args, "alpha", None)}
    return dataclasses.replace(config, **{key: value for key, value in flags.items() if value is not None})


def _unread(what: str, config: pkgio.RunConfig, *groups) -> None:
    """An error naming the first of the ``groups`` of analysis keys (space-separated) that ``config``
    sets, which ``what`` does not read."""
    given = {"mapping": config.mapping, "neighborhood": config.d, "bonferroni": config.bonferroni,
             "p_method": config.mc_samples, "diagnostics": config.variance_floor}
    for keys in map(str.split, groups):
        if any(given[key] is not None for key in keys):
            raise ValidationError(f"{what} takes no " + " or ".join(f"config.{key}" for key in keys))


def _neighborhoods(command: str, config: pkgio.RunConfig, pop, path=None):
    """The analysed sets: those of the ``path`` file (``estimate
    --neighborhoods``) when given, else the k-NN sets of size ``config.d``.
    A design needs a mapping and sets."""
    if config.mapping is None or (path is None and config.d is None):
        raise ValidationError(f"{command} needs config.mapping and config.neighborhood")
    if path is None:
        return build_knn_neighborhoods(pop, config.d)
    nbhd = pkgio.load_neighborhoods(path)
    if nbhd.n != pop.n:
        raise ValidationError("neighborhood file and unit table differ in unit count")
    return nbhd


def _profile(config: pkgio.RunConfig, nbhd):
    """The exposure profile: Monte Carlo when the config asks for it, else exact."""
    if config.mc_samples is None:
        return exact_profile(nbhd, config.mapping, config.rho)
    return monte_carlo_profile(nbhd, config.mapping, config.rho, config.mc_samples, config.mc_seed)


def _dump_matrices(profile, out_dir) -> None:
    """The profile in O(n + pairs): ``diag.csv`` has a row per unit, ``pairs.csv``
    a row per pattern pair i < j. A pair not listed has joint p^2 and excess 0."""
    p, diag = profile.p, profile.diag
    tables = {
        "diag.csv": dict(i=np.arange(profile.n), joint=diag, excess=diag - p * (1.0 - p) - p * p,
                         row_excess=profile.row_excess),
        "pairs.csv": dict(i=profile.rows, j=profile.cols, joint=profile.values, excess=profile.values - p * p),
    }
    step = 1 << 16  # rows are made and written a chunk at a time, so no column becomes one list
    for name, table in tables.items():
        rows = (row for lo in range(0, table["i"].size, step)
                for row in zip(*(c[lo:lo + step].tolist() for c in table.values())))
        with _out_file(out_dir, name).open("w") as handle:
            pkgio.write_csv(handle, list(table), rows)


def _estimate_text(payload) -> str:
    lines = [
        f"upper confidence bounds on the full-treatment mean outcome "
        f"(nominal alpha={payload['alpha']}, bonferroni={'yes' if payload['bonferroni'] else 'no'})",
        f"{'d_min':>5} {'d':>3} {'alpha_eff':>10} {'estimate':>10} {'upper':>10} "
        f"{'condition':>9} {'n_eff':>5} {'p':>8} {'min_joint':>10} {'overlap':>7}",
    ]
    for r in payload["configs"]:
        d_min, d = ("-" if r[key] is None else r[key] for key in ("d_min", "d"))
        lines.append(
            f"{d_min:>5} {d:>3} {r['alpha']:>10.5f} {r['estimate']:>10.4f} {r['upper_bound']:>10.4f} "
            f"{'met' if r['condition_ok'] else 'FAILED':>9} {r['n_effective']:>5} "
            f"{r['p']:>8.4f} {r['min_joint']:>10.3g} {r['overlap_degree']:>7}"
        )
        lines.append(f"      interval: [0, {r['upper_bound']:.6g}]")
        if not r["condition_ok"]:
            lines.append(
                "      warning: validity condition failed; the bound is reported "
                "for diagnostics but its coverage guarantee does not apply"
            )
        if "note" in r:
            lines.append(f"      note: {r['note']}")
    return "\n".join(lines) + "\n"


_REPORT_FIELDS = (
    "d_min", "d", "alpha", "estimate", "variance", "upper_bound",
    "condition_ok", "n_effective", "p", "min_joint", "overlap_degree", "fallback_ok",
)


def cmd_estimate(args) -> int:
    config = _run_config(args)
    pop = pkgio.load_units(args.data, config.rho)
    bonferroni = bool(config.bonferroni)
    if bonferroni:
        if args.neighborhoods is not None:
            raise ValidationError("--neighborhoods cannot be combined with a bonferroni scan")
        if args.dump_matrices:
            raise ValidationError("--dump-matrices cannot be combined with a bonferroni scan")
        if config.mc_samples is not None:
            raise ValidationError("Monte Carlo p_method is not supported in bonferroni scans")
        _unread("a bonferroni scan", config, "mapping neighborhood")
        reports = bonferroni_scan(pop, config.bonferroni, config.alpha, config.variance_floor)
    else:
        nbhd = _neighborhoods("estimate", config, pop, args.neighborhoods)
        profile = _profile(config, nbhd)
        exposure = evaluate_exposure(pop, nbhd, config.mapping)
        report = upper_confidence_bound(pop, exposure, profile, config.alpha, config.variance_floor)
        reports = [dataclasses.replace(report, d_min=config.mapping.d_min, d=nbhd.k)]
        if args.dump_matrices:
            _dump_matrices(profile, args.out)
    payload = {
        "command": "estimate",
        "alpha": config.alpha,
        "bonferroni": bonferroni,
        "n_units": pop.n,
        "configs": [pkgio.monotone_report_dict(r) for r in reports],
        "all_conditions_met": all(r.condition_ok for r in reports),
    }
    for entry in payload["configs"]:
        if entry["d"] == 1:
            entry["note"] = "singleton neighborhoods; spatial information is not used"
    _emit(args, "estimate", json=lambda: pkgio.dump_json(payload),
          csv=lambda: pkgio.dump_csv(_REPORT_FIELDS, ([getattr(r, f) for f in _REPORT_FIELDS] for r in reports)),
          text=lambda: _estimate_text(payload))
    return 0 if payload["all_conditions_met"] else CONDITION_FAILED_EXIT


def _contrast_text(payload) -> str:
    lines = []
    for key in ("treatment_split", "exposure_split"):
        block = payload.get(key)
        if block is None:
            continue
        lines.append(f"{key.replace('_', ' ')} attributable contrast (alpha={block['alpha']})")
        lines.append(f"  delta:            {block['delta']:.6g}")
        lines.append(f"  one-sided lower:  {block['one_sided_lower']:.6g}")
        lines.append(f"  two-sided:        [{block['two_sided'][0]:.6g}, {block['two_sided'][1]:.6g}]")
        lines.append(f"  group sizes:      {block['n_exposed']} exposed / {block['n_unexposed']} unexposed")
        if block.get("lambda_1") is not None:
            lines.append(
                f"  lambda_1:         {block['lambda_1']:.6g} ({block['lambda_1_certificate']} bound; "
                f"Ritz value {block['lambda_1_ritz']:.6g} after {block['lambda_1_steps']} iterations)"
            )
        lines.append(f"  assumptions:      {block['assumptions']}")
    return "\n".join(lines) + "\n"


def cmd_contrast(args) -> int:
    config = _run_config(args)
    _unread("contrast", config, "bonferroni", "diagnostics")
    design = config.mapping is not None or config.d is not None
    payload = {"command": "contrast", "alpha": config.alpha}
    if args.count_mode:
        _unread("contrast --count-mode", config, "mapping neighborhood", "p_method")
        report = attributable_contrast_from_counts(alpha=config.alpha, **pkgio.load_count_table(args.data))
    else:
        if not design:
            _unread("contrast without a design", config, "p_method")
        pop = pkgio.load_units(args.data, config.rho)
        report = attributable_contrast(pop.treatment, pop.outcome, config.alpha)
        if design:
            nbhd = _neighborhoods("contrast", config, pop)
            profile = _profile(config, nbhd)
            exposure = evaluate_exposure(pop, nbhd, config.mapping)
            zreport = exposure_attributable_contrast(pop.outcome, exposure, profile, config.alpha)
            payload["exposure_split"] = pkgio.contrast_report_dict(zreport)
    payload["treatment_split"] = pkgio.contrast_report_dict(report)
    header = ("split", "delta", "one_sided_lower", "two_sided_low", "two_sided_high", "alpha")
    blocks = [(key, payload[key]) for key in ("treatment_split", "exposure_split") if key in payload]
    rows = [(key, b["delta"], b["one_sided_lower"], *b["two_sided"], b["alpha"]) for key, b in blocks]
    _emit(args, "contrast", json=lambda: pkgio.dump_json(payload), csv=lambda: pkgio.dump_csv(header, rows),
          text=lambda: _contrast_text(payload))
    return 0


def cmd_simulate(args) -> int:
    config = pkgio.load_sim_config(args.config)
    params = config.params if args.seed is None else dict(config.params, seed=args.seed)
    layout = synthetic_layout(config.layout_kind, config.n, config.layout_seed)
    scenario = Scenario(kind=config.scenario, layout=layout, **params)
    table = run_coverage_experiment(scenario, config.configs, config.alpha, config.replicates)
    metadata = {
        "layout": {"kind": config.layout_kind, "n": config.n, "seed": config.layout_seed},
        "seed": scenario.seed,
    }
    if config.layout_kind == "two_cluster":
        south = int(_southern_half(layout).sum())
        metadata["layout"]["south_north_split"] = [south, config.n - south]
    payload = dict(pkgio.coverage_table_dict(table), metadata=metadata)
    header = [f.name for f in dataclasses.fields(CoverageRow)]
    renderers = dict(json=lambda: pkgio.dump_json(payload), text=table.to_text,
                     csv=lambda: pkgio.dump_csv(header, map(dataclasses.astuple, table.rows)))
    if args.out is not None:  # every format's file, and the chosen one on stdout as well
        for fmt, render in renderers.items():
            _out_file(args.out, f"coverage.{_SUFFIXES[fmt]}").write_text(render())
    sys.stdout.write(renderers[args.format]())
    return 0


def _compare(exact, other) -> tuple:
    """|``other`` - ``exact``| joint probabilities, and ``exact``'s, on the diagonal and then on each pair
    of the all-pairs profile ``other`` (row-major order; off its pattern ``exact`` has p^2). Pair
    positions are int64: from n = 46 341 they pass 2^31."""
    n, i, j = exact.n, exact.rows.astype(np.int64), exact.cols.astype(np.int64)
    truth = np.full(n + other.rows.size, exact.p * exact.p)
    truth[:n] = exact.diag
    truth[n + i * (2 * n - i - 1) // 2 + j - i - 1] = exact.values
    return np.abs(np.concatenate((other.diag, other.values)) - truth), truth


def _probcheck_text(payload) -> str:
    lines = [f"exposure probability check: n={payload['n_units']}, p={payload['p_exact']!r}"]
    if payload["oracle"] is not None:
        lines.append(f"  enumeration oracle: max |joint diff| = {payload['oracle']['max_abs_diff_joint']:.3e}")
    if payload["mc"] is not None:
        lines.append(
            "  monte carlo ({samples} samples): max |joint diff| = {max_abs_diff_joint:.3e}, max diff/SE = "
            "{max_se_ratio:.2f}, {n_within_4se}/{n_entries} entries within 4 SE".format(**payload["mc"])
        )
    return "\n".join(lines) + "\n"


def cmd_probcheck(args) -> int:
    config = _run_config(args)
    _unread("probcheck", config, "bonferroni", "diagnostics")
    pop = pkgio.load_units(args.data, config.rho)
    nbhd = _neighborhoods("probcheck", config, pop)
    exact = exact_profile(nbhd, config.mapping, config.rho)
    payload = {
        "command": "probcheck",
        "n_units": pop.n,
        "p_exact": exact.p,
        "min_joint": exact.min_joint,
        "overlap_degree": exact.overlap_degree,
        "oracle": None,
        "mc": None,
    }
    if args.oracle:
        oracle = enumerated_profile(nbhd, config.mapping, config.rho)
        payload["oracle"] = {
            "max_abs_diff_joint": float(_compare(exact, oracle)[0].max()),
            "abs_diff_p": abs(exact.p - oracle.p),
        }
    if config.mc_samples is not None:
        diff, truth = _compare(exact, _profile(config, nbhd))
        se = np.sqrt(truth * (1.0 - truth) / config.mc_samples)
        positive = se > 0
        within = (diff <= 4.0 * se) | ~positive
        payload["mc"] = {
            "samples": config.mc_samples,
            "seed": config.mc_seed,
            "max_abs_diff_joint": float(diff.max()),
            "max_se_ratio": float((diff[positive] / se[positive]).max()) if positive.any() else 0.0,
            "n_entries": pop.n * pop.n,
            "n_within_4se": int(within[: pop.n].sum() + 2 * within[pop.n :].sum()),
        }
    if args.dump_matrices:
        _dump_matrices(exact, args.out)
    _emit(args, "probcheck", json=lambda: pkgio.dump_json(payload), text=lambda: _probcheck_text(payload))
    return 0


def _subcommand(sub, func, summary: str, *, config=True, data="unit table CSV", formats=tuple(_SUFFIXES),
                default="json", alpha=False, dump=False):
    """The parser of ``func`` (``cmd_<name>``). Every command takes ``--config`` (required when ``config``),
    ``--data`` (unless ``data`` is None), ``--out``, ``--seed`` and ``--format``; with ``alpha`` and ``dump``
    it also takes ``--alpha`` and ``--dump-matrices``."""
    parser = sub.add_parser(func.__name__.removeprefix("cmd_"), help=summary)
    parser.add_argument("--config", required=config, help="JSON configuration file")
    if data is not None:
        parser.add_argument("--data", required=True, help=data)
    parser.add_argument("--out", default=None, help="directory for output files (default: stdout)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--format", choices=formats, default=default, help=f"output format (default: {default})")
    if alpha:
        parser.add_argument("--alpha", type=float, default=None, help="significance level override")
    if dump:
        parser.add_argument("--dump-matrices", action="store_true", help="write the profile as diag.csv and pairs.csv")
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interfere",
        description="Design-based confidence bounds for experiments under network interference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = _subcommand(sub, cmd_estimate, "upper bounds on the full-treatment mean outcome", alpha=True, dump=True)
    p_est.add_argument("--neighborhoods", default=None, help="explicit adjacency JSON instead of k-NN")

    p_con = _subcommand(sub, cmd_contrast, "attributable-contrast intervals (binary outcomes)", config=False,
                        data="unit table CSV, or count table with --count-mode", alpha=True)
    p_con.add_argument("--count-mode", action="store_true", help="data is an aggregate two-arm count table")

    _subcommand(sub, cmd_simulate, "coverage and condition-met tables", data=None, default="text")

    p_prob = _subcommand(sub, cmd_probcheck, "exposure probability diagnostics", formats=("json", "text"), dump=True)
    p_prob.add_argument("--oracle", action="store_true", help="compare against full enumeration (n <= 20)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "dump_matrices", False) and args.out is None:
        parser.error(f"{args.command}: --dump-matrices needs --out")
    try:
        return args.func(args)
    except (InterfereError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
