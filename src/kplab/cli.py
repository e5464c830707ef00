"""Command-line front door: dataset generation, identity/estimate
verification, experiment orchestration, and machine-readable results.

Exit codes: 0 = all tolerances met, 1 = a tolerance failed or a diagnostic
fired (structured cause in the JSON report), 2 = unusable configuration.
Reruns with identical config and seed produce byte-identical CSV/JSON.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import numbers
import os
import sys
import time

import numpy as np

from . import __version__
from .data import (gaussian_datum, member_rng, random_band_field,
                   scattering_datum, sector_indicator_datum,
                   two_bump_lattice_datum)
from .decomposition import NormParams, lqlp_norm, sector_masses
from .errors import ConfigurationError, KplabError
from .estimates import (bilinear_mu_sweep, circle_measure_closed_form,
                        circle_measure_integral, phase_difference_roots,
                        random_measure_config, random_resonance_point,
                        resonance_identity_defect, sector_gamma_sweep,
                        strichartz_ratio)
from .illposedness import IllposedParams, growth_sweep
from .reporting import config_hash, json_dumps, write_csv, write_json
from .scattering import asymptotic_state
from .solver import (SimConfig, band_weight, bands_for_extent, evolve, mass_series,
                     picard_iterate, slope_filtered_product, spectral_product,
                     slope_band_extent)
from .spectral import (GridSpec, SpectralField, grid_geometry, read_snapshot,
                       require_number, scaling_transform, trilinear_pairing,
                       write_snapshot)


_GRID_KEYS = ("modes_x", "modes_y1", "modes_y2", "length_x", "length_y1", "length_y2")


def _grid(*values) -> dict:
    return dict(zip(_GRID_KEYS, values))


_SIM_GRID = _grid(64, 32, 32, 8 * math.pi, 8 * math.pi, 8 * math.pi)

# Every config key each verb or `run` experiment reads, with its default.
# `grid` is the full default grid; a partial config grid merges into it.
_CONFIG_KEYS = {
    "make-data": {"grid": _SIM_GRID},
    "verify": {},
    "norms": {},
    "sim": {"grid": _SIM_GRID, "dt": 0.01, "T": 1.0, "samples_per_unit": 8,
            "amplitude": 1e-3, "center_xi": 1.5},
    "picard": {"grid": _grid(24, 12, 12, 4 * math.pi, 4 * math.pi, 4 * math.pi),
               "T": 1.0, "samples_per_unit": 64, "datum_norm": 1e-3},
    "scatter": {"grid": _grid(192, 24, 24, 32 * math.pi, 8 * math.pi, 8 * math.pi),
                "dt": 1 / 16, "T": 8.0, "datum_norm": 1e-3, "member": 0},
    "illposed-sweep": {},
    "spaces-lab": {"p": 2.0, "comb_p": 3.0},
}


def _load_config(path, name):
    """(config as read, settings) of verb or experiment `name`: each key of
    `_CONFIG_KEYS[name]`, checked and merged over its default, with `grid` a
    GridSpec and a solver experiment's `sim` its SimConfig.  An unusable
    config raises ConfigurationError here, before the verb runs."""
    cfg = {}
    if path:
        with open(path) as fh:
            try:
                cfg = json.load(fh)
            except ValueError as ex:   # malformed JSON or not text
                raise ConfigurationError(f"config {path} is not valid JSON: {ex}") from ex
        if not isinstance(cfg, dict):
            raise ConfigurationError(f"config {path} must hold a JSON object")
    table = _CONFIG_KEYS[name]
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigurationError(f"unknown config keys {unknown} for {name}; "
                                 f"known: {sorted(table)}")
    for key, value in cfg.items():
        if key != "grid":
            require_number(value, key, numbers.Integral if key == "member" else numbers.Real)
    s = {**table, **cfg}
    if "member" in cfg and not 0 <= cfg["member"] < 2 ** 32:
        raise ConfigurationError("config value 'member' must lie in [0, 2^32)")
    for key in ("p", "comb_p"):
        if key in cfg and not 1.0 <= cfg[key] < math.inf:
            raise ConfigurationError(f"config value '{key}' must lie in [1, inf)")
    if "grid" in table:
        gd = cfg.get("grid", {})
        if not isinstance(gd, dict):
            raise ConfigurationError("config value 'grid' must be a JSON object")
        unknown = sorted(set(gd) - set(_GRID_KEYS))
        if unknown:
            raise ConfigurationError(f"unknown grid keys {unknown}; known: {list(_GRID_KEYS)}")
        s["grid"] = GridSpec(**{**table["grid"], **gd})
    if "T" in table:   # scatter samples whole times; picard reads no dt
        spu = s.get("samples_per_unit", 1)
        if not 0 < spu < math.inf:
            raise ConfigurationError("config value 'samples_per_unit' must be positive and finite")
        s["sim"] = SimConfig(s["grid"], s.get("dt", 1 / spu), s["T"], spu)
    return cfg, s


def _seed(text):
    value = int(text)
    if not 0 <= value < 2 ** 32:
        raise argparse.ArgumentTypeError(f"{text} is not a seed in [0, 2^32)")
    return value


def _count(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a count >= 1")
    return value


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number")
    return value


def _positive(text):
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text} is not a positive finite number")
    return value


def _positives(text):
    return [_positive(v) for v in text.split(",")]


def _int_pair(text):
    a, b = (int(v) for v in text.split(","))
    return a, b


def _reported_norms(what, field, params) -> dict:
    """{"l2": l2 norm, label: lqlp_norm per label of params}, refused on overflow."""
    with np.errstate(over="ignore"):
        norms = {"l2": field.l2_norm(), **{k: lqlp_norm(field, v) for k, v in params.items()}}
    bad = [k for k, v in norms.items() if not math.isfinite(v)]
    if bad:
        raise ConfigurationError(f"{what} has norms that are not finite doubles: {bad}")
    return norms


def _emit(args, name, payload):
    if args.out:
        write_json(os.path.join(args.out, f"{name}.json"), payload)
    else:
        sys.stdout.write(json_dumps(payload))


# ----------------------------------------------------------------------
# make-data
# ----------------------------------------------------------------------

def cmd_make_data(args, cfg, s) -> int:
    grid = s["grid"]
    if args.kind == "gaussian":
        field = gaussian_datum(grid, amplitude=args.amplitude,
                               scale=args.width, center_xi=args.center_xi)
    elif args.kind == "sector":
        field = sector_indicator_datum(grid, args.lam, args.k, args.amplitude)
    elif args.kind == "illposed":
        if "grid" in cfg:
            raise ConfigurationError("make-data illposed builds its own grid from --mu, --lam "
                                     "and --illposed-modes-x; remove the config 'grid'")
        ip = IllposedParams(args.mu, args.lam, coupling=False)
        mu, lam = ip.mu, ip.lam
        # dedicated fine-x grid hosting both bumps at resolution mu/4, lam*mu/4
        nx = args.illposed_modes_x
        dxi = mu / 4.0
        deta = lam * mu / 4.0
        grid = GridSpec(nx, 24, 24, 2 * math.pi / dxi,
                        2 * math.pi / deta, 2 * math.pi / deta)
        if (lam + mu) / dxi >= nx // 2 - 1:
            raise ConfigurationError(f"grid of {nx} x-modes cannot host xi up to {lam + mu}")
        field = two_bump_lattice_datum(grid, ip, args.p)
    else:  # random-band
        rng = member_rng(args.seed, 0)
        field = random_band_field(grid, rng, args.band_lo, args.band_hi,
                                  eta_max=args.eta_max)
    if not field.coeff.any():
        raise ConfigurationError(f"make-data {args.kind} datum is zero on this grid: "
                                 "it lies wholly off the lattice")
    norms = _reported_norms(f"make-data {args.kind} datum", field, {
        f"q={'inf' if q == math.inf else q},p={p}": NormParams(q=q, p=p)
        for q, p in ((math.inf, args.p), (math.inf, 2.0), (2.0, 2.0))})
    write_snapshot(field, args.file)
    payload = {"file": args.file, "kind": args.kind,
               "grid": {"shape": list(field.grid.shape)},
               "l2_norm": norms.pop("l2"), "lqlp_norms": norms}
    _emit(args, "make-data", payload)
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _verify_resonance(args):
    rng = member_rng(args.seed, 0)
    worst = 0.0
    n = args.samples
    for _ in range(n):
        worst = max(worst, resonance_identity_defect(random_resonance_point(rng)))
    return worst <= 1e-9, {"samples": n, "max_defect": worst, "tol": 1e-9}


def _verify_circle(args):
    rng = member_rng(args.seed, 0)
    worst = 0.0
    for _ in range(args.configs):
        cfg = random_measure_config(rng)
        val, geo = circle_measure_integral(cfg)
        ref = circle_measure_closed_form(cfg)
        worst = max(worst, abs(val - ref) / ref)
    return worst <= 1e-6, {"configs": args.configs, "max_rel_defect": worst,
                           "tol": 1e-6}


def _verify_grho(args):
    rng = member_rng(args.seed, 0)
    worst_defect = 0.0
    max_roots = 0
    for _ in range(args.configs):
        xi1, xi2 = rng.uniform(-3, 3, 2)
        if abs(xi1 - xi2) < 0.1:
            continue
        rep = phase_difference_roots(xi1, xi2, rng.uniform(-2, 2, 2),
                                     rng.uniform(-2, 2, 2), rng.uniform(-20, 20))
        max_roots = max(max_roots, rep.count)
        if rep.count:
            worst_defect = max(worst_defect, float(np.max(rep.defects)))
    ok = max_roots <= 4 and worst_defect <= 1e-9
    return ok, {"configs": args.configs, "max_roots": max_roots,
                "max_derivative_defect": worst_defect, "tol": 1e-9}


def _verify_strichartz(args):
    grid = GridSpec(64, 32, 32, 8 * math.pi, 8 * math.pi, 8 * math.pi)
    u0 = gaussian_datum(grid, center_xi=1.5, width_xi=0.5, width_eta=0.5)
    base = strichartz_ratio(u0, 4, 4, T=4.0)
    rels = []
    for h in (0.5, 2.0):
        uh = scaling_transform(u0, h)
        rels.append(abs(strichartz_ratio(uh, 4, 4, T=4.0 / h ** 3) / base - 1))
    ok = max(rels) <= 0.05
    return ok, {"ratio": base, "dilation_rel_gaps": rels, "tol": 0.05}


def _verify_bilinear(args):
    grid = GridSpec(232, 64, 64, 32 * math.pi, 32 * math.pi, 32 * math.pi)
    mus = [0.25, 0.5, 1.0] if not args.mu_sweep else [0.125, 0.25, 0.5, 1.0]
    rep = bilinear_mu_sweep(mus, args.lam, args.ensemble, T=1.0, grid=grid,
                            seed=args.seed, threads=args.threads)
    ok = 0.8 <= rep.slope <= 1.2
    return ok, {"mus": list(rep.xs), "values": list(rep.values),
                "slope": rep.slope, "band": [0.8, 1.2]}


def _verify_sector_bilinear(args):
    rep = sector_gamma_sweep([64, 128, 256, 512], mu=0.25, lam=2.0,
                             ensemble_size=args.ensemble, T=4.0, seed=args.seed)
    ok = 0.35 <= rep.slope <= 0.65
    return ok, {"areas": list(rep.xs), "values": list(rep.values),
                "slope": rep.slope, "band": [0.35, 0.65]}


def _verify_tl_symmetry(args):
    grid = GridSpec(16, 16, 16, 32 * math.pi, 4 * math.pi, 4 * math.pi)
    rng = member_rng(args.seed, 0)
    worst = 0.0
    scale = 0.0
    for _ in range(3):
        u = random_band_field(grid, rng, 0.0, 0.4, eta_max=1.5)
        v = random_band_field(grid, rng, 0.0, 0.4, eta_max=1.5)
        w = random_band_field(grid, rng, 0.0, 0.2, eta_max=1.5)
        for L in (1.0, 2.0, 4.0):
            a = trilinear_pairing(u, slope_filtered_product(v, w, L))
            b = trilinear_pairing(v, slope_filtered_product(u, w, L))
            c = trilinear_pairing(w, slope_filtered_product(u, v, L))
            worst = max(worst, abs(a - b), abs(a - c))
            scale = max(scale, abs(a))
    ok = worst <= 1e-10 * max(scale, 1.0)
    return ok, {"max_gap": worst, "scale": scale, "tol": 1e-10}


def _verify_partition(args):
    rng = member_rng(args.seed, 0)
    s = rng.uniform(-4000, 4000, (2, 2048))
    bands = bands_for_extent(4000.0)
    tot = sum(band_weight(L, s[0], s[1]) for L in bands)
    worst = float(np.max(np.abs(tot - 1.0)))
    grid = GridSpec(16, 16, 16, 32 * math.pi, 4 * math.pi, 4 * math.pi)
    u = random_band_field(grid, rng, 0.0, 0.4, eta_max=1.5)
    v = random_band_field(grid, rng, 0.0, 0.4, eta_max=1.5)
    acc = None
    for L in bands_for_extent(slope_band_extent(grid)):
        f = slope_filtered_product(u, v, L)
        acc = f.coeff if acc is None else acc + f.coeff
    prod = spectral_product(u, v)
    gap = float(np.max(np.abs(acc - prod.coeff)))
    ok = worst <= 1e-12 and gap <= 1e-10 * max(float(np.max(np.abs(prod.coeff))), 1e-30)
    return ok, {"pointwise_defect": worst, "telescoping_gap": gap,
                "tols": [1e-12, 1e-10]}


_VERIFY_CHECKS = {
    "resonance": _verify_resonance, "circle-measure": _verify_circle,
    "g-rho": _verify_grho, "strichartz": _verify_strichartz,
    "bilinear": _verify_bilinear, "sector-bilinear": _verify_sector_bilinear,
    "tl-symmetry": _verify_tl_symmetry, "partition-of-unity": _verify_partition}


def cmd_verify(args, cfg, s) -> int:
    t0 = time.time()
    ok, detail = _VERIFY_CHECKS[args.check](args)
    payload = {"check": args.check, "passed": bool(ok), "seed": args.seed,
               "wall_clock_s": round(time.time() - t0, 3), **detail}
    _emit(args, f"verify-{args.check}", payload)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------

def _run_sim(args, s):
    g = s["grid"]
    u0 = gaussian_datum(g, amplitude=s["amplitude"], center_xi=s["center_xi"])
    on_box = SpectralField(g, np.where(grid_geometry(g).active, u0.coeff, 0.0), True)
    with np.errstate(over="ignore"):   # evolve refuses a mass that overflows
        mass = on_box.l2_norm()
    if mass == 0.0:   # the mass drift is relative to this mass
        raise ConfigurationError("run sim datum has zero mass on the solver box; "
                                 "check amplitude and center_xi")
    tr = evolve(u0, s["sim"])
    ms = mass_series(tr)
    drift = float(np.max(np.abs(ms - ms[0])) / ms[0])
    if args.out:
        for i, state in enumerate(tr.states):
            write_snapshot(state, os.path.join(args.out, f"state_{i:04d}.kp3f"))
    return drift <= 1e-6, {"times": list(tr.times), "mass_drift": drift, "mass_tol": 1e-6}


def _run_picard(args, s):
    npar = NormParams()
    u0 = gaussian_datum(s["grid"], amplitude=1.0, center_xi=1.0,
                        width_xi=0.4, width_eta=0.4)
    norm = lqlp_norm(u0, npar)
    if norm == 0.0:   # the datum is rescaled to datum_norm
        raise ConfigurationError("run picard datum has zero norm on this grid; check the grid")
    u0 = SpectralField(s["grid"], u0.coeff * (s["datum_norm"] / norm), True)
    _, rep = picard_iterate(u0, s["sim"])
    ok = rep.converged and all(r <= 0.5 for r in rep.ratios)
    return ok, {"iterates": rep.iterates, "diffs": rep.diffs, "ratios": rep.ratios,
                "converged": rep.converged}


def _run_scatter(args, s):
    npar = NormParams()
    u0 = scattering_datum(s["grid"], member_rng(args.seed, s["member"]),
                          s["datum_norm"], npar)
    rep = asymptotic_state(evolve(u0, s["sim"]), npar, strict=False)
    if args.format == "csv":
        write_csv(os.path.join(args.out, "residuals.csv"), ["t", "residual"],
                  list(zip(rep.sample_times, rep.residuals)))
    return rep.detected, {"checkpoints": list(rep.sample_times),
                          "cauchy_gaps": list(rep.cauchy_gaps),
                          "residuals": list(rep.residuals), "detected": rep.detected}


def _run_illposed_sweep(args, s):
    rep = growth_sweep(args.lams, args.p)
    ok = abs(rep.slope - rep.predicted) <= 0.3 if args.p != 2.0 else rep.slope <= 0.3
    if args.out:
        write_csv(os.path.join(args.out, "growth.csv"),
                  ["lam", "mu", "p", "norm", "fitted_slope"],
                  [(l, m, args.p, n, rep.slope)
                   for l, m, n in zip(rep.lams, rep.mus, rep.norms)])
    return ok, {"lams": list(rep.lams), "mus": list(rep.mus), "norms": list(rep.norms),
                "slope": rep.slope, "predicted": rep.predicted,
                "quadrature_gaps": list(rep.gaps)}


def _run_spaces_lab(args, s):
    # imported here so that no other verb loads scipy.special
    from .function_spaces import (AnalyticDatum, divergent_sequence_check,
                                  sector_sum_decay, zero_mean_blowup)
    d = AnalyticDatum()
    tab = sector_sum_decay(d, s["p"])
    dich = zero_mean_blowup(d, s["p"])
    comb = divergent_sequence_check([2.0 ** -a for a in (2, 4, 8, 16, 32, 40)], s["comb_p"])
    return True, {"decay_lams": list(tab.lams), "decay_values": list(tab.values),
                  "low_slope": tab.low_slope, "partial_slope": dich.partial_slope,
                  "divergent": dich.divergent, "comb_norms": list(comb.norms),
                  "comb_pairings": list(comb.pairings),
                  "comb_growth_exponent": comb.growth_exponent}


_RUNS = {"sim": _run_sim, "picard": _run_picard, "scatter": _run_scatter,
         "illposed-sweep": _run_illposed_sweep, "spaces-lab": _run_spaces_lab}


def cmd_run(args, cfg, s) -> int:
    t0 = time.time()
    try:
        ok, extra = _RUNS[args.experiment](args, s)
    except ConfigurationError:   # an unusable configuration: exit 2 in main
        raise
    except KplabError as ex:   # a failure of the experiment itself: exit 1
        ok, extra = False, {"diagnostic": str(ex), "cause": type(ex).__name__}
    _emit(args, f"run-{args.experiment}", {
        "config": cfg, "config_hash": config_hash(cfg), "seed": args.seed,
        "versions": {"kplab": __version__, "numpy": np.__version__},
        "wall_clock_s": round(time.time() - t0, 3), **extra, "passed": bool(ok)})
    return 0 if ok else 1


# ----------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------

def cmd_norms(args, cfg, s) -> int:
    field = read_snapshot(args.file)
    norms = _reported_norms(f"snapshot {args.file}", field,
                            {"lqlp": NormParams(q=args.q, p=args.p)})
    records = [
        {"norm_name": "l2", "params": {}, "value": norms["l2"]},
        # RFC 8259 JSON has no Infinity: q = inf is the string make-data's keys use
        {"norm_name": "lqlp", "params": {"q": "inf" if args.q == math.inf else args.q,
                                         "p": args.p}, "value": norms["lqlp"]},
    ]
    payload = {"file": args.file, "records": records}
    if args.format == "csv":
        masses = sector_masses(field)
        write_csv(os.path.join(args.out, "sector_masses.csv"),
                  ["lam", "k1", "k2", "mass"],
                  [(2.0 ** j, k1, k2, m) for (j, k1, k2), m in masses.items()])
    _emit(args, "norms", payload)
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    # allow_abbrev=False everywhere: a new flag must not change what another means
    ap = argparse.ArgumentParser(prog="kplab", description=__doc__, allow_abbrev=False)
    ap.add_argument("--config", default=None, help="JSON config file")
    ap.add_argument("--seed", type=_seed, default=0)
    ap.add_argument("--out", default=None, help="output directory (created if missing)")
    sub = ap.add_subparsers(dest="verb", required=True)

    mk = sub.add_parser("make-data", help="generate a datum snapshot", allow_abbrev=False)
    mk.set_defaults(func=cmd_make_data)
    # every kind reports --p norms
    shared = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    shared.add_argument("--file", default="datum.kp3f")
    shared.add_argument("--p", type=_positive, default=3.0)
    kinds = mk.add_subparsers(dest="kind", required=True)
    kind = {k: kinds.add_parser(k, parents=[shared], allow_abbrev=False)
            for k in ("gaussian", "sector", "illposed", "random-band")}
    for k in ("gaussian", "sector"):
        kind[k].add_argument("--amplitude", type=_finite, default=1.0)
    kind["gaussian"].add_argument("--width", type=_positive, default=1.0)
    kind["gaussian"].add_argument("--center-xi", type=_finite, default=2.0)
    for k in ("sector", "illposed"):
        kind[k].add_argument("--lam", type=_positive, default=2.0)
    kind["sector"].add_argument("--k", type=_int_pair, default="0,0",
                                help="sector index k1,k2; write a negative k1 as --k=-1,1")
    kind["illposed"].add_argument("--mu", type=_positive, default=1 / 64)
    kind["illposed"].add_argument("--illposed-modes-x", type=int, default=8192)
    kind["random-band"].add_argument("--band-lo", type=float, default=0.0)
    kind["random-band"].add_argument("--band-hi", type=float, default=2.0)
    kind["random-band"].add_argument("--eta-max", type=float, default=2.0)

    vf = sub.add_parser("verify", help="run one identity/estimate check", allow_abbrev=False)
    vf.set_defaults(func=cmd_verify)
    checks = vf.add_subparsers(dest="check", required=True)
    check = {c: checks.add_parser(c, allow_abbrev=False) for c in _VERIFY_CHECKS}
    check["resonance"].add_argument("--samples", type=_count, default=10000)
    for c in ("circle-measure", "g-rho"):
        check[c].add_argument("--configs", type=_count, default=100)
    check["bilinear"].add_argument("--lam", type=_positive, default=4.0)
    check["bilinear"].add_argument("--mu-sweep", action="store_true")
    check["bilinear"].add_argument("--threads", type=_count, default=1, help="worker threads")
    for c in ("bilinear", "sector-bilinear"):
        check[c].add_argument("--ensemble", type=_count, default=4)

    rn = sub.add_parser("run", help="run an experiment", allow_abbrev=False)
    rn.set_defaults(func=cmd_run)
    experiments = rn.add_subparsers(dest="experiment", required=True)
    run = {e: experiments.add_parser(e, allow_abbrev=False) for e in _RUNS}
    run["illposed-sweep"].add_argument("--p", type=float, default=3.0)
    run["illposed-sweep"].add_argument("--lams", type=_positives,
                                       default=[8.0, 16.0, 32.0, 64.0])

    nm = sub.add_parser("norms", help="norm report for a snapshot", allow_abbrev=False)
    nm.add_argument("file")
    nm.add_argument("--q", type=float, default=math.inf)
    nm.add_argument("--p", type=float, default=1.5)
    for leaf in (run["scatter"], nm):   # the CSV tables they write
        leaf.add_argument("--format", choices=("csv", "json"), default="json")
    nm.set_defaults(func=cmd_norms)

    # a leaf flag before the verb: argparse would take its value for the verb
    argv = sys.argv[1:] if argv is None else argv
    for arg in itertools.takewhile(lambda a: a not in sub.choices, argv):
        flag = arg.partition("=")[0]
        if flag.startswith("--") and flag not in ("--config", "--seed", "--out", "--help"):
            ap.error(f"{flag} is not a flag of kplab itself; "
                     "it goes after the subcommand that reads it")
    args = ap.parse_args(argv)
    try:
        if getattr(args, "format", None) == "csv" and not args.out:
            raise ConfigurationError("--format csv writes its table into --out; give --out")
        cfg, settings = _load_config(args.config, getattr(args, "experiment", args.verb))
        if args.out:
            os.makedirs(args.out, exist_ok=True)
        return args.func(args, cfg, settings)
    except (KplabError, OSError) as ex:   # OSError: a path that cannot be read or written
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
