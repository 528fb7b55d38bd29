"""Command-line front end.

Subcommands: ``alpha`` (cutoff fits and evaluations), ``planck`` (spectral
curves and the thermal integral), ``dispersion`` (analytic flight-time
fluctuations and limit verdicts), ``simulate`` (Monte Carlo photon flights)
and ``report`` (the full reproduction table).

Each ``cmd_*`` returns ``(payload, rows)``: the JSON payload, and the row
dicts that ``--format csv`` writes (``None`` when the output has no table,
as for ``simulate`` and ``planck --integrate``).  ``main`` alone renders
and writes, and maps errors to exit codes.  Flag values are checked by the
library that uses them, not a second time here.

Exit codes: 0 success; 1 numerical or acceptance failure (an
``errors.Failure``: an unreadable or invalid species table, a root or
quadrature that cannot converge, a mode count that overflows; or a report
row that fails); 2 usage error (argparse rejects the flags, or the library
rejects a value with any other ``ValueError``, ``KeyError``, ``OSError`` or
``ArithmeticError``; JSON output refuses NaN and infinity with a
``ValueError``; stdout is closed or cannot be written).  Failures print
``error: ...`` and never a traceback; a closed or full stderr loses that
line but not the exit code.  Output is deterministic for
identical flags; Monte Carlo seeds are always explicit flags, never
environment variables.

A call imports only what its subcommand runs: each ``cmd_*`` imports its
modules, and ``build_parser`` adds flags only to the subcommand named in
argv.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .constants import CODATA
from .errors import Failure

if TYPE_CHECKING:
    from . import dispersion
    from .particles import SpeciesRegistry


def __getattr__(name: str):
    # cli.load_registry resolves on first use (PEP 562), so that importing
    # cli does not import the species table code.
    if name == "load_registry":
        from .particles import load_registry

        return load_registry
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _stderr(text: str) -> None:
    """Write ``text`` to stderr.  A closed or full stderr loses it, as it
    loses a warning, and leaves the exit code as it was chosen."""
    try:
        if sys.stderr is not None:  # None when fd 2 was closed at start-up
            sys.stderr.write(text)
    except OSError:
        pass


def _render(payload: dict, rows: list[dict] | None, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if rows is None:
        raise ValueError("this output has no table; use --format json")
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _registry_from(args: argparse.Namespace) -> SpeciesRegistry:
    from .particles import default_registry, load_registry

    if args.species_file:
        return load_registry(args.species_file)
    return default_registry()


def _refuse_flags(
    args: argparse.Namespace, mode: str, dests: tuple[str, ...], hint: str = ""
) -> None:
    """Reject a flag that ``mode`` would ignore, naming it (a usage error).

    A flag counts as given when its value is neither ``None`` nor ``False``,
    so each of ``dests`` has one of those as its parser default.
    """
    for dest in dests:
        value = getattr(args, dest)
        if value is not None and value is not False:
            raise ValueError(f"{mode} takes no --{dest.replace('_', '-')}{hint}")


def _lifetime_model(
    args: argparse.Namespace, kind: dispersion.LifetimeKind
) -> dispersion.LifetimeModel:
    """The ``kind`` model from the lifetime flags given; ``LifetimeModel``
    supplies the default of each flag left out (``None``)."""
    from . import dispersion

    given = {
        dest: getattr(args, dest)
        for dest in ("k_factor", "custom_tau_s")
        if getattr(args, dest) is not None
    }
    return dispersion.LifetimeModel(kind, **given)


def _model_from(args: argparse.Namespace) -> dispersion.LifetimeModel:
    from . import dispersion

    kind = dispersion.LifetimeKind(args.model)
    if kind is not dispersion.LifetimeKind.K_SCALED:
        _refuse_flags(args, f"--model {kind.value}", ("k_factor",))
    if kind is not dispersion.LifetimeKind.CUSTOM:
        _refuse_flags(args, f"--model {kind.value}", ("custom_tau_s",))
    return _lifetime_model(args, kind)


def cmd_alpha(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    from . import vacuum_response

    if args.fit:
        _refuse_flags(args, "--fit", ("cutoff_mev", "chiral_quark_cutoff_mev"), "; use --eval")
    elif args.cutoff_mev is not None:
        _refuse_flags(args, "--eval", ("policy",), "; use --fit")
    registry = _registry_from(args)
    target = args.target
    if args.fit:
        policy = vacuum_response.fit_cutoff(registry, target, args.policy or "global-constant")
    elif args.cutoff_mev is not None:
        if args.chiral_quark_cutoff_mev is not None:
            policy = vacuum_response.chiral_cutoff_policy(
                registry, args.chiral_quark_cutoff_mev, args.cutoff_mev
            )
        else:
            policy = vacuum_response.CutoffPolicy.global_constant(args.cutoff_mev)
    else:
        raise ValueError("one of --fit or --eval with --cutoff-mev is required")
    breakdown = vacuum_response.inverse_alpha_total(registry, policy)
    payload = {
        "policy": {
            "kind": policy.kind.value,
            "cutoff_mev": policy.cutoff_mev,
            "scale_a": policy.scale_a,
            "per_species_mev": policy.per_species_mev,
        },
        "target_inverse_alpha": target,
        "total_inverse_alpha": breakdown.total_inverse_alpha,
        "ratio_to_target": breakdown.total_inverse_alpha / target,
        "species": breakdown.to_dict()["species"],
    }
    if policy.kind is vacuum_response.PolicyKind.MASS_PROPORTIONAL:
        payload["pair_volume_compton_units"] = vacuum_response.pair_volume_compton_units(
            policy.scale_a
        )
    return payload, payload["species"]


def cmd_planck(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    from . import statmech

    state = statmech.ThermalState(args.temperature_k)
    if args.integrate:
        _refuse_flags(args, "--integrate", ("with_zpf", "points", "x_max"))
        quad = statmech.integrate_thermal_density(state)
        closed = statmech.stefan_boltzmann_density(state)
        payload = {
            "temperature_k": args.temperature_k,
            "thermal_density_quadrature_j_m3": quad,
            "stefan_boltzmann_j_m3": closed,
            "rel_dev": quad / closed - 1.0,
        }
        return payload, None
    grid = {"x_max": args.x_max, "n_points": args.points}
    samples = statmech.planck_curve(
        state,
        include_zero_point=not args.thermal_only,
        **{name: value for name, value in grid.items() if value is not None},
    )
    rows = [
        {
            "momentum_kg_m_s": s.abscissa,
            "energy_density_per_momentum": s.value,
            "includes_zero_point": s.includes_zero_point,
        }
        for s in samples
    ]
    return {"temperature_k": args.temperature_k, "samples": rows}, rows


def cmd_dispersion(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    from . import dispersion

    if args.all:
        _refuse_flags(args, "--all", ("model", "custom_tau_s"))
        models = [
            _lifetime_model(args, kind)
            for kind in dispersion.LifetimeKind
            if kind is not dispersion.LifetimeKind.CUSTOM
        ]
    elif args.model is not None:
        models = [_model_from(args)]
    else:
        raise ValueError("either --model or --all is required")
    species = _registry_from(args).get(args.reference_species)
    rows = []
    for model in models:
        verdict = dispersion.compare_to_limits(model, species)
        rows.append(
            {
                "model": model.kind.value,
                "tau_s": dispersion.lifetime(model, species),
                "sigma_fs_per_sqrt_m": verdict.sigma_fs_per_sqrt_m,
                "sigma_1m_fs": dispersion.analytic_sigma(model, 1.0, species) * 1e15,
                "band_verdict": verdict.band_verdict,
                "literature_verdict": verdict.literature_verdict,
            }
        )
    band = list(dispersion.LIMIT_BAND_FS_PER_SQRT_M)
    return {"limit_band_fs_per_sqrt_m": band, "models": rows}, rows


def cmd_simulate(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    from . import dispersion
    from .particles import default_registry

    model = _model_from(args)
    species = _registry_from(args).get(args.reference_species)
    if species != default_registry().get("e"):
        # Flight configs carry a lifetime, not a species; fold the species
        # into an explicit custom lifetime so the echo stays faithful.
        model = dispersion.LifetimeModel.custom(dispersion.lifetime(model, species))
    config = dispersion.FlightConfig(
        length_m=args.length_m,
        lifetime_model=model,
        n_photons=args.photons,
        seed=args.seed,
        delay_distribution=dispersion.DelayDistribution(args.delay),
        interaction_process=dispersion.InteractionProcess(args.process),
        sampling=dispersion.SamplingMethod(args.sampling),
        n_workers=args.workers,
    )
    result = dispersion.simulate_flight(config, keep_samples=args.samples_out is not None)
    if args.samples_out:
        # The rows csv.writer would give, as no field needs quoting, streamed
        # one chunk of Python floats at a time, so that memory stays that of
        # the delays.
        delays = result.delays_s
        with open(args.samples_out, "w", encoding="utf-8") as handle:
            handle.write("photon_index,delay_s\n")
            for start in range(0, len(delays), dispersion.CHUNK_SIZE):
                chunk = delays[start : start + dispersion.CHUNK_SIZE].tolist()
                handle.writelines(f"{i},{x!r}\n" for i, x in enumerate(chunk, start))
    # The config echoes the lifetime that ran; these name what was asked for.
    payload = result.to_dict() | {"model": args.model, "reference_species": args.reference_species}
    return payload, None


def cmd_report(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    from . import report

    seed = report.REPORT_SEED if args.seed is None else args.seed
    rows = report.build_report(_registry_from(args), seed=seed)
    for row in rows:
        if row.status == "fail":
            _stderr(
                f"FAIL {row.quantity}: computed {row.computed!r}, "
                f"reference {row.reference!r} +- {row.abs_tol!r}\n"
            )
    dicts = [row.to_dict() for row in rows]
    return {"seed": seed, "all_pass": report.all_pass(rows), "rows": dicts}, dicts


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="output path (default stdout)")


def _table_common(p: argparse.ArgumentParser) -> None:
    """``_common`` for the subcommands that read the species table."""
    p.add_argument("--species-file", help="JSON species table overriding the default")
    _common(p)


def _lifetime_flags(p: argparse.ArgumentParser, *, required: bool) -> None:
    from . import dispersion

    p.add_argument(
        "--model", required=required, choices=[k.value for k in dispersion.LifetimeKind]
    )
    # LifetimeModel supplies the default, so that a model other than
    # k-scaled can tell a given --k-factor from the default.
    p.add_argument("--k-factor", type=float, default=None)
    p.add_argument("--custom-tau-s", type=float, default=None)
    p.add_argument("--reference-species", default="e")


def _alpha_flags(p: argparse.ArgumentParser) -> None:
    _table_common(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--fit", action="store_true", help="fit the cutoff to the target")
    mode.add_argument("--eval", action="store_true", help="evaluate at --cutoff-mev")
    # The default, global-constant, is filled in by cmd_alpha, so that
    # --eval can tell a given --policy from the default.
    p.add_argument("--policy", choices=("global-constant", "mass-proportional"), default=None)
    p.add_argument("--cutoff-mev", type=float, default=None)
    p.add_argument(
        "--chiral-quark-cutoff-mev",
        type=float,
        default=None,
        help="with --eval: cap quark cutoffs at the chiral-symmetry scale",
    )
    p.add_argument("--target", type=float, default=CODATA.inverse_alpha_target)


def _planck_flags(p: argparse.ArgumentParser) -> None:
    _common(p)
    p.add_argument("--temperature-k", type=float, required=True)
    zpf = p.add_mutually_exclusive_group()
    zpf.add_argument("--thermal-only", action="store_true")
    zpf.add_argument("--with-zpf", action="store_true")
    p.add_argument("--integrate", action="store_true")
    # planck_curve supplies the defaults (15.0 and 200), so that --integrate
    # can tell a given --x-max or --points from the default.
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)


def _dispersion_flags(p: argparse.ArgumentParser) -> None:
    _table_common(p)
    _lifetime_flags(p, required=False)
    p.add_argument("--all", action="store_true")


def _simulate_flags(p: argparse.ArgumentParser) -> None:
    from . import dispersion

    _table_common(p)
    _lifetime_flags(p, required=True)
    p.add_argument("--length-m", type=float, required=True)
    p.add_argument("--photons", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--delay", choices=[d.value for d in dispersion.DelayDistribution], default="fixed")
    p.add_argument("--process", choices=[q.value for q in dispersion.InteractionProcess], default="poisson")
    p.add_argument("--sampling", choices=[s.value for s in dispersion.SamplingMethod], default="aggregate")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--samples-out", default=None, help="per-photon delay CSV path")


def _report_flags(p: argparse.ArgumentParser) -> None:
    _table_common(p)
    # The default, report.REPORT_SEED, is filled in by cmd_report, so that
    # parsing the flags does not import the report.
    p.add_argument("--seed", type=int, default=None)


#: Each subcommand: its name, its help line, what adds its flags, what runs it.
SUBCOMMANDS = (
    ("alpha", "inverse fine-structure fits and evaluations", _alpha_flags, cmd_alpha),
    ("planck", "Planck spectral curve / thermal integral", _planck_flags, cmd_planck),
    ("dispersion", "analytic flight-time fluctuation table", _dispersion_flags, cmd_dispersion),
    ("simulate", "Monte Carlo photon flight ensemble", _simulate_flags, cmd_simulate),
    ("report", "full reproduction table with pass/fail", _report_flags, cmd_report),
)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """Every subcommand, with flags only on those named in ``argv``.

    argparse runs the subcommand named by an element of ``argv``, so that
    one has its flags.  No usage or error text of the parse shows another's
    flags, and building ``simulate``'s would import ``dispersion``.
    """
    parser = argparse.ArgumentParser(
        prog="vacuumpairs",
        description=(
            "Zero-point mode statistics, virtual-pair vacuum response and "
            "photon flight-time dispersion toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, add_flags, func in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_line)
        if name in argv:
            add_flags(p)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, rows = args.func(args)
        text = _render(payload, rows, args.format)
        if args.output is None or args.output == "-":
            if sys.stdout is None:
                raise OSError("stdout is closed")
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
    except Failure as exc:
        _stderr(f"error: {exc}\n")
        return 1
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        _stderr(f"error: {exc}\n")
        return 2
    # Only the report carries a verdict; a failed row is an acceptance failure.
    return 0 if payload.get("all_pass", True) else 1


def main_entry() -> None:
    """``main`` on the process's argv, then exit without interpreter teardown.

    The entry of the console script and of ``python -m vacuumpairs``.  It
    flushes stdout and stderr and ends with ``os._exit``, which skips
    freeing every module and the final garbage collection.  That is safe
    because every file is closed by its ``with`` block, the worker threads
    are joined by theirs, and no ``atexit`` handler is needed.  A failed
    flush of stdout is a usage error, as a failed write is: one ``error:``
    line and exit code 2.  A failed flush of stderr loses its lines, as
    ``_stderr`` does, and keeps the exit code.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code != 2:  # exit code 2 has printed its error line already
            _stderr(f"error: {exc}\n")
        code = 2
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    main_entry()
