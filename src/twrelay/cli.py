"""Experiment driver: sweeps, gap tables, weight optimization, validation,
and dual-reception factor estimation, all emitting deterministic CSV.

A sweep writes an asymptote row only where the power law is at or below the
zero-SNR sum-BER ceiling a / log2 M of the protocol's modulation; below that
crossover SNR the power law is not a sum-BER, and the row is left out.

The dual-reception factors are Monte-Carlo estimates with control variates
of exactly known mean (`simulate.estimate_d_factors`): over --trials in
kappa, whose se_* columns are the standard errors of these estimates.
sweep, gaps and beta run that estimate here, as a pre-pass over at least
D_FACTOR_TRIALS draws of the seed's stream, and hand the factors to the
analytic and high-SNR engines, which draw nothing themselves; an mc sweep
takes its leading blocks from the same pass.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 validation failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import ConfigurationError, NumericalError
from .highsnr import beta_closed_form, beta_numeric, gap_table, high_snr_profile, high_snr_sum_ber
from .scenario import (AntennaConfig, Protocol, Scenario, coefficient_set, load_scenario,
                       parse_protocol, power_profile, protocol_modulation)
from .simulate import (_BLOCK, D_FACTOR_TRIALS, SweepPoint, _gain_blocks,
                       estimate_d_factors, semi_analytic_sweep)
from .analysis import sum_ber_closed_form
from .validate import run_validation

_SWEEP_HEADER = "rho_ar_db,protocol,mode,sum_ber,std_error"


def _write_csv(path, header: str, rows) -> None:
    text = header + "\n" + "".join(line + "\n" for line in rows)
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.10e}"


def _grid(start: float, stop: float, step: float, flag: str) -> list:
    """start, start + step, ... up to stop; empty when stop < start."""
    if step <= 0:
        raise ConfigurationError(f"{flag} must be positive")
    return [start + i * step for i in range(int(math.floor((stop - start) / step + 1e-9)) + 1)]


def _parse_protocols(arg, fallback) -> list:
    if arg:
        return [parse_protocol(tok) for tok in arg.split(",") if tok.strip()]
    if fallback is not None:
        return [fallback]
    return list(Protocol)


def _scenario_from_args(args) -> Scenario:
    if getattr(args, "scenario", None):
        sc = load_scenario(args.scenario)
    else:
        sc = Scenario()
    for key in ("m_a", "m_r", "m_b", "rho_ar_db", "d0", "pl_exponent",
                "relay_rho_db", "trials", "seed", "beta"):
        val = getattr(args, key, None)
        if key == "seed" and val is None:
            val = _env_seed()
        if val is not None:
            setattr(sc, key, val)
    return sc


def _env_seed():
    raw = os.environ.get("TWRELAY_SEED")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"TWRELAY_SEED must be an integer, got {raw!r}") from None


def _add_scenario_flags(sub, with_beta: bool = True):
    sub.add_argument("scenario", nargs="?", help="scenario file (key = value lines)")
    sub.add_argument("--m-a", dest="m_a", type=int)
    sub.add_argument("--m-r", dest="m_r", type=int)
    sub.add_argument("--m-b", dest="m_b", type=int)
    sub.add_argument("--rho-ar-db", dest="rho_ar_db", type=float)
    sub.add_argument("--d0", dest="d0", type=float)
    sub.add_argument("--pl-exponent", dest="pl_exponent", type=float)
    sub.add_argument("--relay-rho-db", dest="relay_rho_db", type=float)
    sub.add_argument("--trials", dest="trials", type=int)
    sub.add_argument("--seed", dest="seed", type=int,
                     help="random seed (default: $TWRELAY_SEED, else the scenario's)")
    if with_beta:
        sub.add_argument("--beta", dest="beta", type=float,
                         help="relay weight for B's signal (amplitude, not squared)")


def cmd_sweep(args) -> int:
    """Sum-BER against the A-side SNR for each protocol and mode, as CSV.

    Every step writes one mc and one closed row per protocol. An asymptote
    row is written only where the power law is at or below the zero-SNR
    ceiling a / log2 M; the others are left out, and their count is reported
    on stderr so that a CSV on stdout stays clean.
    """
    sc = _scenario_from_args(args)
    rho_grid = _grid(args.rho_start, args.rho_stop, args.rho_step, "--rho-step")
    protocols = _parse_protocols(args.protocols, sc.protocol)
    modes = ["mc", "closed", "asymptote"] if args.mode == "all" else [args.mode]
    if not rho_grid:
        raise ConfigurationError("empty sweep range")
    ant = sc.antennas

    dfactors = None
    mc_gains = None     # the mc rows' LinkGains blocks, if the pre-pass made them
    if ant.m_r > 1 and any(p.dual_reception for p in protocols):
        pw_ref = power_profile(args.rho_stop, sc.d0, sc.pl_exponent, sc.relay_rho_db)
        d_trials = max(sc.trials, D_FACTOR_TRIALS)
        blocks = _gain_blocks(ant, d_trials, sc.seed)
        if "mc" in modes:
            # the mc rows use the first sc.trials of the same draws
            blocks = list(blocks)
            mc_gains = [g.head(sc.trials - b * _BLOCK) for b, g in enumerate(blocks)
                        if b * _BLOCK < sc.trials]
        dfactors, _ = estimate_d_factors(ant, pw_ref, trials=d_trials, gains=blocks)

    rows = []
    mc_points = []      # (rho_db, SweepPoint)
    n_above = 0
    for rho_db in rho_grid:
        pw = power_profile(rho_db, sc.d0, sc.pl_exponent, sc.relay_rho_db)
        for p in protocols:
            w = sc.weights()
            if w is None and p.uses_weights:
                w = beta_numeric(p, ant, pw, dfactors=dfactors)
            mod = protocol_modulation(p)
            for mode in modes:
                if mode == "mc":
                    mc_points.append((rho_db, SweepPoint(p, pw, w, mod)))
                elif mode == "closed":
                    coeffs = coefficient_set(p, ant, pw, w, dfactors)
                    val = sum_ber_closed_form(coeffs, ant, pw, mod)
                    rows.append((rho_db, p.value, mode, val, None))
                elif mode == "asymptote":
                    prof = high_snr_profile(p, ant, pw, mod, w, dfactors)
                    val = high_snr_sum_ber(prof, pw.rho_ar)
                    if val <= mod.a / mod.bits_per_symbol:
                        rows.append((rho_db, p.value, mode, val, None))
                    else:
                        n_above += 1
                else:
                    raise ConfigurationError(f"unknown sweep mode {mode!r}")
    if mc_points:
        # one pass over the channel draws serves every mc row
        ests = semi_analytic_sweep([pt for _, pt in mc_points], ant, trials=sc.trials,
                                   seed=sc.seed, snr_form="exact", gains=mc_gains)
        rows.extend((rho_db, pt.protocol.value, "mc", est.mean, est.std_error)
                    for (rho_db, pt), est in zip(mc_points, ests))
    if n_above:
        print(f"sweep: left out {n_above} asymptote row(s) where the power law exceeds "
              f"the zero-SNR ceiling a / log2 M (below the high-SNR regime)", file=sys.stderr)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(args.out, _SWEEP_HEADER,
               (f"{r[0]:.4f},{r[1]},{r[2]},{_fmt(r[3])},{_fmt(r[4])}" for r in rows))
    return 0


def cmd_gaps(args) -> int:
    sc = _scenario_from_args(args)
    ant = sc.antennas
    pw = sc.powers
    ant.require_analytic()      # before the pre-pass draws
    dfactors, _ = estimate_d_factors(ant, pw, trials=max(sc.trials, D_FACTOR_TRIALS),
                                     seed=sc.seed)
    table = gap_table(ant, pw, dfactors)
    rows = [f"{row.protocol.value},{_fmt(row.gap_db)},{_fmt(row.eta_sum)},"
            f"{_fmt(row.beta_sq)},{int(row.protocol is table.best)}"
            for row in table.rows]
    if args.out:
        _write_csv(args.out, "protocol,gap_db,eta_sum,beta_sq,is_best", rows)
    print(f"scenario: {ant.m_a}x{ant.m_r}x{ant.m_b}, rho_ar={sc.rho_ar_db:g} dB, "
          f"d0={sc.d0:g}, pl_exponent={sc.pl_exponent:g}")
    print(f"best protocol: {table.best.value}")
    print(f"{'protocol':<20s} {'gap_db':>10s} {'eta_sum':>12s} {'beta^2':>8s}")
    for row in table.rows:
        beta = f"{row.beta_sq:.5f}" if row.beta_sq is not None else "-"
        print(f"{row.protocol.value:<20s} {row.gap_db:>10.4f} {row.eta_sum:>12.5g} {beta:>8s}")
    return 0


def cmd_beta(args) -> int:
    sc = _scenario_from_args(args)
    p = parse_protocol(args.protocol)
    if not p.uses_weights:
        raise ConfigurationError(f"{p.value} has no relay weights")
    ant = sc.antennas
    if args.sweep not in ("d0", "rho"):
        raise ConfigurationError(f"--sweep must be d0 or rho, got {args.sweep!r}")
    # the swept scenario field, which names the CSV column, and its format
    column, fmt = ("d0", "{:.6f}") if args.sweep == "d0" else ("rho_ar_db", "{:.4f}")
    blocks = None
    if ant.m_r > 1 and p.dual_reception:
        # one pass draws and decomposes the channels; each step takes its
        # dual-reception factors from these draws at its own powers
        d_trials = max(sc.trials, D_FACTOR_TRIALS)
        blocks = list(_gain_blocks(ant, d_trials, sc.seed))
    rows = []
    for v in _grid(args.start, args.stop, args.step, "--step"):
        setattr(sc, column, v)
        pw = sc.powers
        dfactors = None
        if blocks is not None:
            dfactors, _ = estimate_d_factors(ant, pw, trials=d_trials, gains=blocks)
        closed = beta_closed_form(p, pw).beta ** 2
        numeric = beta_numeric(p, ant, pw, dfactors=dfactors).beta ** 2
        rows.append(f"{fmt.format(v)},{_fmt(closed)},{_fmt(numeric)}")
    _write_csv(args.out, f"{column},beta_sq_closed_form,beta_sq_numeric", rows)
    return 0


def cmd_kappa(args) -> int:
    sc = _scenario_from_args(args)
    m_r_values = [int(tok) for tok in args.m_r_list.split(",") if tok.strip()]
    if not m_r_values:
        raise ConfigurationError("--m-r-list must name at least one relay antenna count")
    header = ("m_r,d_arb_3,d_bra_3,d_arb_4,d_bra_4,"
              "se_arb_3,se_bra_3,se_arb_4,se_bra_4")
    rows = []
    pw = sc.powers
    for m_r in m_r_values:
        ant = AntennaConfig(sc.m_a, m_r, sc.m_b)
        d, se = estimate_d_factors(ant, pw, trials=sc.trials, seed=sc.seed)
        rows.append(f"{m_r},{_fmt(d.d_arb_3)},{_fmt(d.d_bra_3)},{_fmt(d.d_arb_4)},"
                    f"{_fmt(d.d_bra_4)},{_fmt(se[0])},{_fmt(se[1])},{_fmt(se[2])},{_fmt(se[3])}")
    _write_csv(args.out, header, rows)
    return 0


def cmd_validate(args) -> int:
    sc = _scenario_from_args(args)
    results, code = run_validation(trials=sc.trials, seed=sc.seed)
    for r in results:
        print(r.line())
    n_skip = sum(1 for r in results if r.skipped)
    n_fail = sum(1 for r in results if not r.skipped and not r.passed)
    if n_skip:
        print(f"warning: {n_skip} statistical check(s) skipped as underpowered "
              f"(trials={sc.trials} < 10000)", file=sys.stderr)
    print(f"{len(results) - n_fail - n_skip} passed, {n_fail} failed, {n_skip} skipped")
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="twrelay",
                                 description="Two-way relay beamforming performance toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="sum-BER vs average SNR curves (CSV)")
    _add_scenario_flags(sweep)
    sweep.add_argument("--protocols", help="comma-separated protocol list")
    sweep.add_argument("--rho-start", type=float, required=True)
    sweep.add_argument("--rho-stop", type=float, required=True)
    sweep.add_argument("--rho-step", type=float, required=True)
    sweep.add_argument("--mode", choices=["mc", "closed", "asymptote", "all"], default="all",
                       help="engine(s) to run; asymptote rows are written only where the "
                            "power law is at or below the zero-SNR ceiling a / log2 M")
    sweep.add_argument("--out", help="output CSV path (default stdout)")
    sweep.set_defaults(func=cmd_sweep)

    gaps = sub.add_parser("gaps", help="ranked high-SNR gap table across protocols")
    _add_scenario_flags(gaps)
    gaps.add_argument("--out", help="optional CSV path")
    gaps.set_defaults(func=cmd_gaps)

    beta = sub.add_parser("beta", help="optimal relay weight vs placement or SNR (CSV)")
    _add_scenario_flags(beta)
    beta.add_argument("--protocol", required=True)
    beta.add_argument("--sweep", choices=["d0", "rho"], required=True)
    beta.add_argument("--start", type=float, required=True)
    beta.add_argument("--stop", type=float, required=True)
    beta.add_argument("--step", type=float, required=True)
    beta.add_argument("--out", help="output CSV path (default stdout)")
    beta.set_defaults(func=cmd_beta)

    kappa = sub.add_parser("kappa", help="dual-reception factors vs relay antennas, with "
                                          "their control-variate standard errors (CSV)")
    _add_scenario_flags(kappa, with_beta=False)
    kappa.add_argument("--m-r-list", default="1,2,3,4",
                       help="comma-separated relay antenna counts")
    kappa.add_argument("--out", help="output CSV path (default stdout)")
    kappa.set_defaults(func=cmd_kappa)

    val = sub.add_parser("validate", help="run the invariant suite, exit 4 on failure")
    _add_scenario_flags(val, with_beta=False)
    val.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
