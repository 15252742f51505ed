"""Command line entry point.

Subcommands: ``single``, ``convergence``, ``dependence``, ``verify``.
Exit codes: 0 success, 1 configuration error, 2 nonlinear solver failure,
3 verification violations.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (StudyConfig, parse_config_text, parse_value,
                      run_convergence, run_dependence, run_single)
from .solver import LinearSolveFailure, NonConvergence
from .verify import run_verify

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_NEWTON_FAILURE = 2
EXIT_VERIFY_VIOLATIONS = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedflow",
        description="Mixed P1-P1 solver for pre-Darcy/Darcy/post-Darcy flow")
    sub = parser.add_subparsers(dest="study", required=True)
    for name, desc in (
        ("single", "one march at the first configured level"),
        ("convergence", "refinement study against the manufactured solution"),
        ("dependence", "difference norms between two coefficient vectors"),
        ("verify", "randomized inequality and scheme verification suite"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", metavar="PATH",
                       help="flat key = value configuration file")
        p.add_argument("--levels", metavar="4,8,16",
                       help="comma separated mesh levels")
        p.add_argument("--seed", type=int, metavar="N")
        p.add_argument("--out", metavar="PATH", help="CSV / dump output path")
        p.add_argument("--verbose", action="store_true")
        p.add_argument("--problem", metavar="NAME",
                       help="builtin problem (example1, example2_F2, example2_F1)")
        p.add_argument("--dt-ratio", type=float, metavar="R", dest="dt_ratio")
        p.add_argument("--trials", type=int, metavar="N")
        p.add_argument("--psi-t", dest="psi_t_mode",
                       choices=("discrete", "analytic"))
        p.add_argument("--momentum-bc", dest="momentum_bc",
                       choices=("none", "exact"))
        p.add_argument("--pairing", choices=("manufactured", "shared_data"))
    return parser


def _config_from_args(args: argparse.Namespace) -> StudyConfig:
    fields: dict = {}
    if args.config:
        with open(args.config) as fh:
            fields.update(parse_config_text(fh.read()))
    fields["study"] = args.study
    if args.levels is not None:  # typed by StudyConfig, as a config value is
        fields["levels"] = parse_value("levels", args.levels)
    for key in ("seed", "out", "problem", "dt_ratio", "trials",
                "psi_t_mode", "momentum_bc", "pairing"):
        value = getattr(args, key)
        if value is not None:
            fields[key] = value
    if args.verbose:  # a flag: absent leaves the config's value
        fields["verbose"] = True
    known = set(StudyConfig.__dataclass_fields__)
    unknown = set(fields) - known
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    return StudyConfig(**fields)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        if cfg.study == "single":
            final, diags = run_single(cfg)
            last = diags[-1] if diags else None
            print(f"single: problem={cfg.problem} N={cfg.levels[0]} "
                  f"steps={len(diags)} "
                  f"final_residual={last.residual_norm if last else 0.0:.3e}")
        elif cfg.study == "convergence":
            report = run_convergence(cfg)
            print(report.text)
        elif cfg.study == "dependence":
            report = run_dependence(cfg)
            print(report.text)
        else:
            report = run_verify(cfg)
            print(report.summary())
            if not report.ok:
                return EXIT_VERIFY_VIOLATIONS
    except (NonConvergence, LinearSolveFailure) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NEWTON_FAILURE
    except OSError as exc:  # writing --out failed after the config check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
