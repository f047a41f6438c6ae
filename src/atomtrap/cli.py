"""Command-line front end.

Subcommands: simulate, analyze, classify, fit, validate-seq. Exit codes:
0 success, 1 usage error, 2 data error (unreadable/invalid input files,
non-converging fits, sequence violations).
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (
    FitError,
    classify_burst,
    detect_steps,
    fit_exponential_survival,
    fit_relaxation,
    fit_relaxation_joint,
    infer_atom_numbers,
)
from .runner import (ConfigError, count, export_dataset, load_config, non_negative, positive,
                     run_experiment, seed)
from .sequence import DIPOLE_HOLD, MOT_OPERATION, sequence_from_csv, validate_sequence
from .signals import BurstModel, DetectorModel, PhotonTrace, read_csv_table

USAGE_EXIT = 1
DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="atomtrap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p, what="output file (default: standard output)"):
        p.add_argument("--out", default=None, help=what)

    p = sub.add_parser("simulate", help="run a configured experiment and export the dataset")
    p.set_defaults(handler=_cmd_simulate)
    p.add_argument("config", help="INI experiment configuration file")
    p.add_argument("--seed", type=seed, default=None, help="override the master seed")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both",
                   help="export format for datasets")
    add_out(p, "output directory (default: the config's output_dir)")

    p = sub.add_parser("analyze", help="change-point segmentation of a photon trace CSV")
    p.set_defaults(handler=_cmd_analyze)
    p.add_argument("trace", help="photon trace CSV (header: bin_start_s,counts)")
    p.add_argument("--penalty", type=non_negative, default=None,
                   help="log-likelihood penalty per change point (default 1.5*ln(n))")
    p.add_argument("--per-atom-rate", type=positive, default=DetectorModel.per_atom_rate)
    p.add_argument("--background-rate", type=non_negative,
                   default=DetectorModel.background_rate)
    add_out(p)

    p = sub.add_parser("classify", help="posterior over bright atoms in a detection window")
    p.set_defaults(handler=_cmd_classify)
    p.add_argument("counts", type=count, help="photon counts in the detection window")
    p.add_argument("--atoms", type=count, required=True, help="number of atoms in the trap")
    p.add_argument("--mean-photons", type=non_negative,
                   default=BurstModel.mean_photons_per_atom)
    p.add_argument("--background", type=non_negative,
                   default=BurstModel.background_photons_per_window)
    add_out(p)

    p = sub.add_parser("fit", help="maximum-likelihood fit of a dataset CSV")
    p.set_defaults(handler=_cmd_fit)
    p.add_argument("data", nargs="+",
                   help="CSV file(s) with the header t_s,survived,total (survival) or "
                        "t_s,p4,n (relaxation), which simulate's exports do not have; "
                        "two relaxation files (F=3 then F=4) select the joint fit")
    p.add_argument("--model", choices=("survival", "relaxation"), required=True)
    p.add_argument("--offset-free", action="store_true",
                   help="fit the survival amplitude instead of pinning it to 1")
    p.add_argument("--f-initial", type=int, choices=(3, 4), default=None,
                   help="prepared state for a single-arm relaxation fit")
    add_out(p)

    p = sub.add_parser("validate-seq", help="check a switching-sequence CSV for violations")
    p.set_defaults(handler=_cmd_validate_seq)
    p.add_argument("sequence", help="sequence CSV (header: time_s,channel,state)")
    p.add_argument("--initial-state", choices=("mot", "hold"), default="mot")
    add_out(p)

    return parser


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_SURVIVAL_COLUMNS = {"t_s": float, "survived": int, "total": int}
_RELAXATION_COLUMNS = {"t_s": float, "p4": float, "n": int}


def _read_fit_csv(path: str, columns: dict[str, type]):
    return list(zip(*(col.tolist() for col in read_csv_table(path, columns))))


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.master_seed = args.seed
    ds = run_experiment(cfg)
    formats = ("csv", "json") if args.format == "both" else (args.format,)
    out_dir = args.out if args.out is not None else cfg.output_dir
    for path in export_dataset(ds, out_dir, formats=formats):
        print(path)
    return 0


def _cmd_analyze(args) -> int:
    trace = PhotonTrace.from_csv(args.trace)
    seg = detect_steps(trace, penalty=args.penalty)
    det = DetectorModel(per_atom_rate=args.per_atom_rate,
                        background_rate=args.background_rate,
                        bin_width=trace.bin_width)
    infer_atom_numbers(seg, det)
    rec = {
        "n_bins": seg.n_bins,
        "bin_width_s": seg.bin_width,
        "change_points": seg.change_points,
        "levels_per_s": seg.levels,
        "inferred_n": seg.inferred_n,
        "ambiguous": seg.ambiguous,
    }
    _write_or_print(json.dumps(rec, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_classify(args) -> int:
    model = BurstModel(mean_photons_per_atom=args.mean_photons,
                       background_photons_per_window=args.background)
    cl = classify_burst(args.counts, args.atoms, model)
    rec = {
        "n_atoms": cl.n_atoms,
        "posterior": [float(p) for p in cl.posterior],
        "map_bright_atoms": cl.map_k,
    }
    if cl.n_atoms == 1:
        rec["map_state"] = cl.map_state
    _write_or_print(json.dumps(rec, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_fit(args) -> int:
    if args.offset_free and args.model != "survival":
        raise ValueError("--offset-free applies only to the survival model")
    if args.f_initial is not None and (args.model, len(args.data)) != ("relaxation", 1):
        raise ValueError("--f-initial applies only to a single-arm relaxation fit")
    if args.model == "survival":
        if len(args.data) != 1:
            raise ValueError("the survival model takes exactly one data file")
        pts = _read_fit_csv(args.data[0], _SURVIVAL_COLUMNS)
        fit = fit_exponential_survival(pts, offset_free=args.offset_free)
    elif len(args.data) == 1:
        if args.f_initial is None:
            raise ValueError("a single-arm relaxation fit needs --f-initial {3,4}")
        pts = _read_fit_csv(args.data[0], _RELAXATION_COLUMNS)
        fit = fit_relaxation(pts, f_initial=args.f_initial)
    elif len(args.data) == 2:
        p3, p4 = (_read_fit_csv(path, _RELAXATION_COLUMNS) for path in args.data)
        fit = fit_relaxation_joint(p3, p4)
    else:
        raise ValueError("the relaxation model takes one or two data files")
    _write_or_print(fit.to_json() + "\n", args.out)
    return 0


def _cmd_validate_seq(args) -> int:
    initial = MOT_OPERATION if args.initial_state == "mot" else DIPOLE_HOLD
    seq = sequence_from_csv(args.sequence, initial_state=initial)
    violations = validate_sequence(seq)
    rec = {
        "valid": not violations,
        "violations": [
            {"code": v.code, "time_s": v.time, "message": v.message} for v in violations
        ],
    }
    _write_or_print(json.dumps(rec, sort_keys=True, indent=2) + "\n", args.out)
    return 0 if not violations else DATA_EXIT


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, FitError, OSError, ValueError) as exc:
        print(f"atomtrap: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
