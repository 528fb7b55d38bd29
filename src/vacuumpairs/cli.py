"""Command-line front end.

Subcommands: ``alpha`` (cutoff fits and evaluations), ``planck`` (spectral
curves and the thermal integral), ``dispersion`` (analytic flight-time
fluctuations and limit verdicts), ``simulate`` (Monte Carlo photon flights)
and ``report`` (the full reproduction table).

Exit codes: 0 success, 1 numerical/acceptance failure, 2 usage error.
Output is deterministic for identical flags; Monte Carlo seeds are always
explicit flags, never environment variables.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import dispersion, report, statmech, vacuum_response
from .constants import CODATA
from .numerics import MaxDepthExceededError, MaxIterExceededError, NoSignChangeError
from .particles import (
    RegistryParseError,
    RegistryValidationError,
    SpeciesRegistry,
    default_registry,
    load_registry,
)

_MODEL_FLAGS = {
    "half-compton": dispersion.LifetimeModel.half_compton,
    "k-scaled": dispersion.LifetimeModel.k_scaled,
    "quasistationary": dispersion.LifetimeModel.quasistationary,
}


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_dump(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_dump(rows: list[dict], fields: tuple[str, ...]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k) for k in fields})
    return buffer.getvalue()


def _registry_from(args: argparse.Namespace) -> SpeciesRegistry:
    if args.species_file:
        return load_registry(args.species_file)
    return default_registry()


def _model_from(args: argparse.Namespace, parser: argparse.ArgumentParser):
    if args.model == "custom":
        if args.custom_tau_s is None:
            parser.error("--model custom requires --custom-tau-s")
        return dispersion.LifetimeModel.custom(args.custom_tau_s)
    factory = _MODEL_FLAGS.get(args.model)
    if factory is None:
        parser.error(f"unknown model {args.model!r}")
    if args.model == "k-scaled":
        return dispersion.LifetimeModel.k_scaled(args.k_factor)
    return factory()


def cmd_alpha(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    registry = _registry_from(args)
    target = args.target
    if args.fit:
        policy = vacuum_response.fit_cutoff(registry, target, args.policy)
    elif args.cutoff_mev is not None:
        if args.chiral_quark_cutoff_mev is not None:
            policy = vacuum_response.chiral_cutoff_policy(
                registry, args.chiral_quark_cutoff_mev, args.cutoff_mev
            )
        else:
            policy = vacuum_response.CutoffPolicy.global_constant(args.cutoff_mev)
    else:
        parser.error("one of --fit or --eval with --cutoff-mev is required")
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
        electron = registry.get("e")
        payload["pair_volume_compton_units"] = (
            vacuum_response.average_pair_volume(electron, policy.scale_a)
            / CODATA.compton_length_m(electron.mass_mev) ** 3
        )
    if args.format == "csv":
        _emit(
            _csv_dump(
                payload["species"], ("name", "cutoff_mev", "contribution", "share")
            ),
            args.output,
        )
    else:
        _emit(_json_dump(payload), args.output)
    return 0


def cmd_planck(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.temperature_k <= 0:
        parser.error("--temperature-k must be > 0")
    state = statmech.ThermalState(args.temperature_k)
    include_zpf = not args.thermal_only
    if args.integrate:
        quad = statmech.integrate_thermal_density(state)
        closed = statmech.stefan_boltzmann_density(state)
        payload = {
            "temperature_k": args.temperature_k,
            "thermal_density_quadrature_j_m3": quad,
            "stefan_boltzmann_j_m3": closed,
            "rel_dev": quad / closed - 1.0,
        }
        _emit(_json_dump(payload), args.output)
        return 0
    samples = statmech.planck_curve(
        state, x_max=args.x_max, n_points=args.points, include_zero_point=include_zpf
    )
    rows = [
        {
            "momentum_kg_m_s": s.abscissa,
            "energy_density_per_momentum": s.value,
            "includes_zero_point": s.includes_zero_point,
        }
        for s in samples
    ]
    if args.format == "csv":
        _emit(
            _csv_dump(
                rows,
                ("momentum_kg_m_s", "energy_density_per_momentum", "includes_zero_point"),
            ),
            args.output,
        )
    else:
        _emit(_json_dump({"temperature_k": args.temperature_k, "samples": rows}), args.output)
    return 0


def _reference_species(args: argparse.Namespace):
    registry = _registry_from(args)
    return registry.get(args.reference_species)


def cmd_dispersion(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.all:
        models = [factory() for factory in _MODEL_FLAGS.values()]
    else:
        if args.model is None:
            parser.error("either --model or --all is required")
        models = [_model_from(args, parser)]
    species = _reference_species(args)
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
    if args.format == "csv":
        _emit(
            _csv_dump(
                rows,
                (
                    "model",
                    "tau_s",
                    "sigma_fs_per_sqrt_m",
                    "sigma_1m_fs",
                    "band_verdict",
                    "literature_verdict",
                ),
            ),
            args.output,
        )
    else:
        _emit(
            _json_dump(
                {
                    "limit_band_fs_per_sqrt_m": list(dispersion.LIMIT_BAND_FS_PER_SQRT_M),
                    "models": rows,
                }
            ),
            args.output,
        )
    return 0


def cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    model = _model_from(args, parser)
    species = _reference_species(args)
    if species.name != "e":
        # Flight configs carry a lifetime, not a species; fold the species
        # into an explicit custom lifetime so the echo stays faithful.
        model = dispersion.LifetimeModel.custom(dispersion.lifetime(model, species))
    try:
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
    except (dispersion.FlightConfigError, ValueError) as exc:
        parser.error(str(exc))
    result = dispersion.simulate_flight(config, keep_samples=args.samples_out is not None)
    if args.samples_out:
        with open(args.samples_out, "w", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("photon_index", "delay_s"))
            for i, delay in enumerate(result.delays_s):
                writer.writerow((i, repr(float(delay))))
    _emit(_json_dump(result.to_dict()), args.output)
    return 0


def cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    rows = report.build_report(_registry_from(args), seed=args.seed)
    passed = report.all_pass(rows)
    dicts = [row.to_dict() for row in rows]
    if args.format == "csv":
        _emit(_csv_dump(dicts, report.CSV_FIELDS), args.output)
    else:
        _emit(_json_dump({"seed": args.seed, "all_pass": passed, "rows": dicts}), args.output)
    if not passed:
        for row in rows:
            if row.status == "fail":
                sys.stderr.write(
                    f"FAIL {row.quantity}: computed {row.computed!r}, "
                    f"reference {row.reference!r} +- {row.abs_tol!r}\n"
                )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vacuumpairs",
        description=(
            "Zero-point mode statistics, virtual-pair vacuum response and "
            "photon flight-time dispersion toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--species-file", help="JSON species table overriding the default")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p_alpha = sub.add_parser("alpha", help="inverse fine-structure fits and evaluations")
    common(p_alpha)
    mode = p_alpha.add_mutually_exclusive_group()
    mode.add_argument("--fit", action="store_true", help="fit the cutoff to the target")
    mode.add_argument("--eval", action="store_true", help="evaluate at --cutoff-mev")
    p_alpha.add_argument(
        "--policy",
        choices=("global-constant", "mass-proportional"),
        default="global-constant",
    )
    p_alpha.add_argument("--cutoff-mev", type=float, default=None)
    p_alpha.add_argument(
        "--chiral-quark-cutoff-mev",
        type=float,
        default=None,
        help="with --eval: cap quark cutoffs at the chiral-symmetry scale",
    )
    p_alpha.add_argument("--target", type=float, default=CODATA.inverse_alpha_target)
    p_alpha.set_defaults(func=cmd_alpha)

    p_planck = sub.add_parser("planck", help="Planck spectral curve / thermal integral")
    common(p_planck)
    p_planck.add_argument("--temperature-k", type=float, required=True)
    zpf = p_planck.add_mutually_exclusive_group()
    zpf.add_argument("--thermal-only", action="store_true")
    zpf.add_argument("--with-zpf", action="store_true")
    p_planck.add_argument("--integrate", action="store_true")
    p_planck.add_argument("--x-max", type=float, default=15.0)
    p_planck.add_argument("--points", type=int, default=200)
    p_planck.set_defaults(func=cmd_planck)

    p_disp = sub.add_parser("dispersion", help="analytic flight-time fluctuation table")
    common(p_disp)
    p_disp.add_argument("--model", default=None)
    p_disp.add_argument("--all", action="store_true")
    p_disp.add_argument("--k-factor", type=float, default=31.9)
    p_disp.add_argument("--custom-tau-s", type=float, default=None)
    p_disp.add_argument("--reference-species", default="e")
    p_disp.set_defaults(func=cmd_dispersion)

    p_sim = sub.add_parser("simulate", help="Monte Carlo photon flight ensemble")
    common(p_sim)
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--k-factor", type=float, default=31.9)
    p_sim.add_argument("--custom-tau-s", type=float, default=None)
    p_sim.add_argument("--length-m", type=float, required=True)
    p_sim.add_argument("--photons", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--delay", choices=[d.value for d in dispersion.DelayDistribution], default="fixed")
    p_sim.add_argument("--process", choices=[p.value for p in dispersion.InteractionProcess], default="poisson")
    p_sim.add_argument("--sampling", choices=[s.value for s in dispersion.SamplingMethod], default="aggregate")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--reference-species", default="e")
    p_sim.add_argument("--samples-out", default=None, help="per-photon delay CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_report = sub.add_parser("report", help="full reproduction table with pass/fail")
    common(p_report)
    p_report.add_argument("--seed", type=int, default=report.REPORT_SEED)
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, parser)
    except SystemExit as exc:  # parser.error inside a command
        return int(exc.code or 0)
    except (
        RegistryParseError,
        RegistryValidationError,
        NoSignChangeError,
        MaxIterExceededError,
        MaxDepthExceededError,
        dispersion.FlightConfigError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
