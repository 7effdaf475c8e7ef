"""Command-line interface: estimate, contrast, simulate, probcheck.

Exit codes: 0 success (and, for estimate, every validity condition met);
1 data or configuration error; 2 usage error; 4 at least one validity
condition failed (the numeric output is still produced).

All output is deterministic for fixed inputs and seeds: JSON is key-sorted
with round-trippable floats, and nothing emits timestamps.

``estimate``, ``contrast`` and ``probcheck`` read their ``RunConfig`` with
``_run_config``, which applies ``--seed`` and ``--alpha`` (``contrast``
without ``--config`` starts from rho 0.5 and no design), and reject with
``_unread`` a key that chooses an analysis they do not run: ``bonferroni``
in ``contrast`` and ``probcheck``, a design in a bonferroni scan or in
``contrast --count-mode``. ``simulate`` passes its file's ``Scenario``
arguments on as given, so ``Scenario`` holds their defaults.

They build their one design with ``_neighborhoods`` (a mapping, and the
``--neighborhoods`` file or k-NN of size ``neighborhood.d``: one without the
other is an error) and ``_profile`` (Monte Carlo when ``p_method`` asks for
it, with ``--seed`` as its seed), and write the chosen ``--format`` with
``_emit``. ``--dump-matrices`` needs ``--out``.
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


def _write_or_print(text: str, out_dir, filename: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
    else:
        _out_file(out_dir, filename).write_text(text)


def _emit(args, name: str, **renderers) -> None:
    """Write the ``args.format`` renderer's text to stdout or ``--out``/``<name>.json``, ``.csv`` or ``.txt``."""
    suffix = "txt" if args.format == "text" else args.format
    _write_or_print(renderers[args.format](), args.out, f"{name}.{suffix}")


def _run_config(args) -> pkgio.RunConfig:
    """The ``--config`` file (for ``contrast`` without one, rho 0.5 and no
    design), with ``--seed`` as its Monte Carlo seed and ``--alpha`` as its
    level when given."""
    config = pkgio.RunConfig(rho=0.5) if args.config is None else pkgio.load_run_config(args.config)
    flags = {"mc_seed": args.seed, "alpha": getattr(args, "alpha", None)}
    return dataclasses.replace(config, **{key: value for key, value in flags.items() if value is not None})


def _unread(what: str, config: pkgio.RunConfig, *keys) -> None:
    """An error when ``config`` sets one of the analysis ``keys``, which ``what`` does not read."""
    given = {"mapping": config.mapping, "neighborhood": config.d, "bonferroni": config.bonferroni}
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


def _estimate_text(reports, bonferroni, alpha) -> str:
    lines = [
        f"upper confidence bounds on the full-treatment mean outcome "
        f"(nominal alpha={alpha}, bonferroni={'yes' if bonferroni else 'no'})",
        f"{'d_min':>5} {'d':>3} {'alpha_eff':>10} {'estimate':>10} {'upper':>10} "
        f"{'condition':>9} {'n_eff':>5} {'p':>8} {'min_joint':>10} {'overlap':>7}",
    ]
    for r in reports:
        lines.append(
            f"{r.d_min if r.d_min is not None else '-':>5} "
            f"{r.d if r.d is not None else '-':>3} {r.alpha:>10.5f} "
            f"{r.estimate:>10.4f} {r.upper_bound:>10.4f} "
            f"{'met' if r.condition_ok else 'FAILED':>9} {r.n_effective:>5} "
            f"{r.p:>8.4f} {r.min_joint:>10.3g} {r.overlap_degree:>7}"
        )
        lines.append(f"      interval: [0, {r.upper_bound:.6g}]")
        if not r.condition_ok:
            lines.append(
                "      warning: validity condition failed; the bound is reported "
                "for diagnostics but its coverage guarantee does not apply"
            )
        if r.d == 1:
            lines.append("      note: singleton neighborhoods; spatial information is not used")
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
        _unread("a bonferroni scan", config, "mapping", "neighborhood")
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
          text=lambda: _estimate_text(reports, bonferroni, config.alpha))
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
                f"Ritz value {block['lambda_1_ritz']:.6g} after {block['lambda_1_steps']} Lanczos steps)"
            )
        lines.append(f"  assumptions:      {block['assumptions']}")
    return "\n".join(lines) + "\n"


def cmd_contrast(args) -> int:
    config = _run_config(args)
    _unread("contrast", config, "bonferroni")
    design = config.mapping is not None or config.d is not None
    payload = {"command": "contrast", "alpha": config.alpha}
    if args.count_mode:
        _unread("contrast --count-mode", config, "mapping", "neighborhood")
        report = attributable_contrast_from_counts(alpha=config.alpha, **pkgio.load_count_table(args.data))
    else:
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
    coverage_csv = pkgio.dump_csv(
        [f.name for f in dataclasses.fields(CoverageRow)], map(dataclasses.astuple, table.rows)
    )
    if args.out is not None:
        _write_or_print(coverage_csv, args.out, "coverage.csv")
        _write_or_print(table.to_text(), args.out, "coverage.txt")
        _write_or_print(pkgio.dump_json(payload), args.out, "coverage.json")
    if args.format == "csv":
        sys.stdout.write(coverage_csv)
    elif args.format == "json":
        sys.stdout.write(pkgio.dump_json(payload))
    else:
        sys.stdout.write(table.to_text())
    return 0


def _compare(exact, other) -> tuple:
    """|``other`` - ``exact``| joint probabilities, and ``exact``'s, on the diagonal and then on each pair
    of the all-pairs profile ``other`` (``np.triu_indices`` order; off its pattern ``exact`` has p^2)."""
    n, i, j = exact.n, exact.rows, exact.cols
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
    _unread("probcheck", config, "bonferroni")
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


def _add_common(parser, *, data=True):
    parser.add_argument("--config", required=True, help="JSON configuration file")
    if data:
        parser.add_argument("--data", required=True, help="unit table CSV")
    parser.add_argument("--out", default=None, help="directory for output files (default: stdout)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interfere",
        description="Design-based confidence bounds for experiments under network interference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="upper bounds on the full-treatment mean outcome")
    _add_common(p_est)
    p_est.add_argument("--alpha", type=float, default=None, help="significance level override")
    p_est.add_argument("--neighborhoods", default=None, help="explicit adjacency JSON instead of k-NN")
    p_est.add_argument("--format", choices=("json", "text", "csv"), default="json")
    p_est.add_argument("--dump-matrices", action="store_true", help="write the profile as diag.csv and pairs.csv")
    p_est.set_defaults(func=cmd_estimate)

    p_con = sub.add_parser("contrast", help="attributable-contrast intervals (binary outcomes)")
    p_con.add_argument("--config", default=None, help="JSON configuration file")
    p_con.add_argument("--data", required=True, help="unit table CSV, or count table with --count-mode")
    p_con.add_argument("--count-mode", action="store_true", help="data is an aggregate two-arm count table")
    p_con.add_argument("--out", default=None)
    p_con.add_argument("--seed", type=int, default=None)
    p_con.add_argument("--alpha", type=float, default=None)
    p_con.add_argument("--format", choices=("json", "text", "csv"), default="json")
    p_con.set_defaults(func=cmd_contrast)

    p_sim = sub.add_parser("simulate", help="coverage and condition-met tables")
    p_sim.add_argument("--config", required=True, help="JSON simulation configuration")
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--format", choices=("json", "text", "csv"), default="text")
    p_sim.set_defaults(func=cmd_simulate)

    p_prob = sub.add_parser("probcheck", help="exposure probability diagnostics")
    _add_common(p_prob)
    p_prob.add_argument("--oracle", action="store_true", help="compare against full enumeration (n <= 20)")
    p_prob.add_argument("--format", choices=("json", "text"), default="json")
    p_prob.add_argument("--dump-matrices", action="store_true")
    p_prob.set_defaults(func=cmd_probcheck)
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
