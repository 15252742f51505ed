"""Command line entry point.

Subcommands: ``single``, ``convergence``, ``dependence``, ``verify``; each
takes only the flags its study reads (``_STUDY_FLAGS``).
Exit codes: 0 success, 1 configuration error or out of memory, 2 nonlinear
solver failure, 3 verification violations.
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


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ``ValueError`` where argparse would print usage and exit 2."""

    def error(self, message):
        raise ValueError(message)


# Every flag, by name, with its argparse options.
_FLAGS = {
    "config": dict(metavar="PATH", help="flat key = value configuration file"),
    "levels": dict(metavar="4,8,16", help="comma separated mesh levels"),
    "seed": dict(type=int, metavar="N"),
    "out": dict(metavar="PATH", help="CSV / dump output path"),
    "verbose": dict(action="store_const", const=True),
    "problem": dict(metavar="NAME",
                    help="builtin problem (example1, example2_F2, example2_F1)"),
    "dt-ratio": dict(type=float, metavar="R", dest="dt_ratio"),
    "trials": dict(type=int, metavar="N"),
    "psi-t": dict(dest="psi_t_mode", choices=("discrete", "analytic")),
    "momentum-bc": dict(dest="momentum_bc", choices=("none", "exact")),
    "pairing": dict(choices=("manufactured", "shared_data")),
}

# Each subcommand takes the flags its study reads; a config file may still
# set any key.
_MARCH_FLAGS = {"config", "levels", "out", "verbose", "dt-ratio", "psi-t",
                "momentum-bc"}
_STUDY_FLAGS = {
    "single": _MARCH_FLAGS | {"problem"},
    "convergence": _MARCH_FLAGS | {"problem"},
    "dependence": _MARCH_FLAGS | {"pairing"},
    "verify": {"config", "seed", "trials", "psi-t", "momentum-bc"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
        for flag, options in _FLAGS.items():
            if flag in _STUDY_FLAGS[name]:
                p.add_argument(f"--{flag}", **options)
    return parser


def _config_from_args(args: argparse.Namespace) -> StudyConfig:
    fields: dict = {}
    if args.config:
        with open(args.config) as fh:
            fields.update(parse_config_text(fh.read()))
    # every given flag; an absent one is None and leaves the config's value
    for key, value in vars(args).items():
        if value is not None and key != "config":
            # levels is typed by StudyConfig, as a config value is
            fields[key] = parse_value(key, value) if key == "levels" else value
    known = set(StudyConfig.__dataclass_fields__)
    unknown = set(fields) - known
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    return StudyConfig(**fields)


def main(argv=None) -> int:
    try:
        cfg = _config_from_args(_build_parser().parse_args(argv))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        if cfg.study == "single":
            _, diags = run_single(cfg)
            print(f"single: problem={cfg.problem} N={cfg.levels[0]} "
                  f"steps={len(diags)} "
                  f"final_residual={diags[-1].residual_norm:.3e}")
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
    except MemoryError as exc:  # a level too fine for this machine
        print(f"error: out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
