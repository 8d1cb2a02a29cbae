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
analytic and high-SNR engines, which draw nothing themselves.  The
pre-pass draws its own blocks, unless its link gains serve more than one
estimate: an mc sweep takes its leading blocks from the same pass, and
beta evaluates every step on it, so there the blocks are drawn once into a
list that each estimate reads.  Every pass draws and reduces its blocks on
worker threads (see `simulate`), and its output does not depend on their
number.  Where the estimate overflows (from about 1500 dB) the command
exits 3; past the Wishart kernel's range (14 antennas a side) the estimate
leaves out its two top-eigenvalue controls.

Each command takes flags only for the scenario fields it reads (any other
is an argparse error, exit 2), and checks its whole configuration, with
`analysis.require_analytic` for the analytic engines, before any draw.  A
scenario file may carry every key, since several commands share it.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

from .errors import ConfigurationError, NumericalError
from .highsnr import beta_closed_form, beta_numeric, gap_table, high_snr_profile, high_snr_sum_ber
from .scenario import (SCENARIO_FIELDS, AntennaConfig, Protocol, Scenario, coefficient_set,
                       load_scenario, parse_protocol, power_profile, protocol_modulation)
from .simulate import (D_FACTOR_TRIALS, SweepPoint, _gain_blocks, estimate_d_factors,
                       require_seed, require_trials, semi_analytic_sweep)
from .analysis import require_analytic, sum_ber_quadrature
from .validate import run_validation

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


# The most points a swept grid may have.
_MAX_GRID_POINTS = 10 ** 6


def _grid(start: float, stop: float, step: float, flag: str) -> list:
    """start, start + step, ... up to stop, 1 to _MAX_GRID_POINTS points."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigurationError(f"grid start, stop and {flag} must be finite")
    if step <= 0:
        raise ConfigurationError(f"{flag} must be positive")
    last = (stop - start) / step + 1e-9     # the last point's index, inf where the span overflows
    if not 0 <= last < _MAX_GRID_POINTS:
        raise ConfigurationError(f"the grid from {start:g} to {stop:g} in steps of {step:g} must "
                                 f"have 1 to {_MAX_GRID_POINTS} points")
    return [start + i * step for i in range(int(last) + 1)]


def _parse_protocols(arg, fallback) -> list:
    """The protocols named in the comma-separated arg, at least one and each
    once; where arg is None (no --protocols), fallback, or every protocol
    where that is None too."""
    if arg is None:
        return list(Protocol) if fallback is None else [fallback]
    protocols = [parse_protocol(tok) for tok in arg.split(",") if tok.strip()]
    if not protocols:
        raise ConfigurationError(f"--protocols names no protocol: {arg!r}")
    twice = sorted({p.value for p in protocols if protocols.count(p) > 1})
    if twice:
        raise ConfigurationError(f"--protocols names {', '.join(twice)} more than once")
    return protocols


_FLAG_HELP = {"seed": "random seed (default: $TWRELAY_SEED, else the scenario's)",
              "beta": "relay weight for B's signal (amplitude, not squared)"}


def _fields_but(*unread) -> list:
    # the protocol has flags of its own, --protocols and --protocol
    return [key for key in SCENARIO_FIELDS if key not in ("protocol", *unread)]


def _scenario_from_args(args) -> Scenario:
    sc = load_scenario(args.scenario) if args.scenario else Scenario()
    for key in _fields_but():
        val = getattr(args, key, None)
        if key == "seed" and val is None:
            val = _env_seed()
        if val is not None:
            setattr(sc, key, val)
    # checked once the flags have overridden the file's values, here since
    # not every command draws or reads the geometry
    sc.antennas
    sc.powers
    sc.weights()
    require_trials(sc.trials)
    require_seed(sc.seed)
    return sc


def _env_seed():
    raw = os.environ.get("TWRELAY_SEED")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"TWRELAY_SEED must be an integer, got {raw!r}") from None


def _add_scenario_flags(sub, fields) -> None:
    """The scenario file and a flag for each field in fields, those the command reads."""
    sub.add_argument("scenario", nargs="?", help="scenario file (key = value lines)")
    for key in fields:
        sub.add_argument("--" + key.replace("_", "-"), dest=key, type=SCENARIO_FIELDS[key],
                         help=_FLAG_HELP.get(key))


def cmd_sweep(args) -> int:
    """Sum-BER against the per-symbol A-side SNR rho_ar (not the SNR per bit
    of `gaps`) for each protocol and mode, as CSV.

    Every step writes one mc and one closed row per protocol. A closed row
    is the lower-bound integral (`sum_ber_quadrature`); `validate` checks the
    paper's closed form against it. An asymptote row is written only where
    the power law is at or below the zero-SNR ceiling a / log2 M; the others
    are left out, and their count is reported on stderr so that a CSV on
    stdout stays clean.

    A zero relay weight (--beta 0 or 1 for the weighted protocols) silences
    one direction: mc and closed rows give it its SNR of 0, while the
    asymptote, which has no power law there, exits 2, and so does --mode
    all.
    """
    sc = _scenario_from_args(args)
    rho_grid = _grid(args.rho_start, args.rho_stop, args.rho_step, "--rho-step")
    protocols = _parse_protocols(args.protocols, sc.protocol)
    modes = ["mc", "closed", "asymptote"] if args.mode == "all" else [args.mode]
    ant = sc.antennas
    weights = sc.weights()
    # the protocols that reach the analytic engines (in mc rows, for beta_numeric)
    analytic = [p for p in protocols if modes != ["mc"] or (weights is None and p.uses_weights)]
    if analytic:
        require_analytic(ant)

    dfactors = None
    mc_gains = None     # the mc rows' LinkGains blocks, if the pre-pass made them
    if ant.m_r > 1 and any(p.dual_reception for p in analytic):
        pw_ref = power_profile(args.rho_stop, sc.d0, sc.pl_exponent, sc.relay_rho_db)
        d_trials = max(sc.trials, D_FACTOR_TRIALS)
        if "mc" in modes:
            # the mc rows use the first sc.trials of the same draws
            mc_gains = list(_gain_blocks(ant, d_trials, sc.seed))
        dfactors, _ = estimate_d_factors(ant, pw_ref, trials=d_trials, seed=sc.seed,
                                         gains=mc_gains)

    rows = []
    mc_points = []      # (rho_db, SweepPoint)
    n_above = 0
    for rho_db in rho_grid:
        pw = power_profile(rho_db, sc.d0, sc.pl_exponent, sc.relay_rho_db)
        for p in protocols:
            w = weights
            if w is None and p.uses_weights:
                w = beta_numeric(p, ant, pw, dfactors=dfactors)
            mod = protocol_modulation(p)
            for mode in modes:
                if mode == "mc":
                    mc_points.append((rho_db, SweepPoint(p, pw, w, mod)))
                elif mode == "closed":
                    coeffs = coefficient_set(p, ant, pw, w, dfactors)
                    val = sum_ber_quadrature(coeffs, ant, pw, mod)
                    rows.append((rho_db, p.value, mode, val, None))
                else:   # asymptote
                    prof = high_snr_profile(p, ant, pw, w, dfactors)
                    val = high_snr_sum_ber(prof, pw.rho_ar)
                    if val <= mod.ceiling:
                        rows.append((rho_db, p.value, mode, val, None))
                    else:
                        n_above += 1
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
    _write_csv(args.out, "rho_ar_db,protocol,mode,sum_ber,std_error",
               (f"{r[0]:.4f},{r[1]},{r[2]},{_fmt(r[3])},{_fmt(r[4])}" for r in rows))
    return 0


def cmd_gaps(args) -> int:
    sc = _scenario_from_args(args)
    ant = sc.antennas
    pw = sc.powers
    require_analytic(ant)
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
    print("gap_db: horizontal gap at equal sum-BER on the SNR-per-bit axis rho / log2 M")
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
    # the swept scenario field, which names the CSV column, and its format
    column, fmt = ("d0", "{:.6f}") if args.sweep == "d0" else ("rho_ar_db", "{:.4f}")
    if getattr(args, column) is not None:
        flag = "--" + column.replace("_", "-")
        raise ConfigurationError(f"--sweep {args.sweep} sets {flag} at each step; leave out {flag}")
    ant = sc.antennas
    require_analytic(ant)
    grid = _grid(args.start, args.stop, args.step, "--step")
    powers = [replace(sc, **{column: v}).powers for v in grid]
    blocks = None
    if ant.m_r > 1 and p.dual_reception:
        # one pass draws the link gains; each step takes its
        # dual-reception factors from these draws at its own powers
        d_trials = max(sc.trials, D_FACTOR_TRIALS)
        blocks = list(_gain_blocks(ant, d_trials, sc.seed))
    rows = []
    for v, pw in zip(grid, powers):
        dfactors = None
        if blocks is not None:
            dfactors, _ = estimate_d_factors(ant, pw, trials=d_trials, gains=blocks)
        # the closed form holds only with one antenna at every node
        closed = beta_closed_form(p, pw).beta ** 2 if ant == AntennaConfig(1, 1, 1) else None
        numeric = beta_numeric(p, ant, pw, dfactors=dfactors).beta ** 2
        rows.append(f"{fmt.format(v)},{_fmt(closed)},{_fmt(numeric)}")
    _write_csv(args.out, f"{column},beta_sq_closed_form,beta_sq_numeric", rows)
    return 0


def cmd_kappa(args) -> int:
    sc = _scenario_from_args(args)
    try:
        m_rs = [int(tok) for tok in args.m_r_list.split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(f"--m-r-list takes comma-separated integers, "
                                 f"got {args.m_r_list!r}") from None
    ants = [AntennaConfig(sc.m_a, m_r, sc.m_b) for m_r in m_rs]
    if not ants:
        raise ConfigurationError("--m-r-list must name at least one relay antenna count")
    rows = []
    pw = sc.powers
    for ant in ants:
        d, se = estimate_d_factors(ant, pw, trials=sc.trials, seed=sc.seed)
        rows.append(f"{ant.m_r},{_fmt(d.d_arb_3)},{_fmt(d.d_bra_3)},{_fmt(d.d_arb_4)},"
                    f"{_fmt(d.d_bra_4)},{_fmt(se[0])},{_fmt(se[1])},{_fmt(se[2])},{_fmt(se[3])}")
    _write_csv(args.out, "m_r,d_arb_3,d_bra_3,d_arb_4,d_bra_4,se_arb_3,se_bra_3,se_arb_4,se_bra_4",
               rows)
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
    """The command-line parser, built once per process (`_parser`): parsing
    leaves it unchanged, so every `main` call of one process, as in tests
    or a notebook, shares it."""
    return _parser()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="twrelay",
                                 description="Two-way relay beamforming performance toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    # no abbreviated flags: a flag that a command does not take must not pass
    # as the prefix of one it does (--m-r of --m-r-list)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    sweep = add("sweep", help="sum-BER vs average SNR curves (CSV)")
    _add_scenario_flags(sweep, _fields_but("rho_ar_db"))
    sweep.add_argument("--protocols", help="comma-separated protocol list")
    sweep.add_argument("--rho-start", type=float, required=True)
    sweep.add_argument("--rho-stop", type=float, required=True)
    sweep.add_argument("--rho-step", type=float, required=True)
    sweep.add_argument("--mode", choices=["mc", "closed", "asymptote", "all"], default="all",
                       help="engine(s) to run, against the per-symbol SNR rho_ar; closed rows "
                            "are the lower-bound integral, against which validate checks the "
                            "paper's closed form; asymptote rows only where the power law is "
                            "at most the ceiling a / log2 M")
    sweep.add_argument("--out", help="output CSV path (default stdout)")
    sweep.set_defaults(func=cmd_sweep)

    gaps = add("gaps", help="ranked high-SNR gap table across protocols")
    _add_scenario_flags(gaps, _fields_but("beta"))
    gaps.add_argument("--out", help="optional CSV path")
    gaps.set_defaults(func=cmd_gaps)

    beta = add("beta", help="optimal relay weight vs placement or SNR (CSV)")
    _add_scenario_flags(beta, _fields_but("beta"))
    beta.add_argument("--protocol", required=True)
    beta.add_argument("--sweep", choices=["d0", "rho"], required=True,
                      help="the swept field: d0, the relay placement (refuses --d0), or "
                           "rho, the A-side SNR in dB (refuses --rho-ar-db)")
    beta.add_argument("--start", type=float, required=True)
    beta.add_argument("--stop", type=float, required=True)
    beta.add_argument("--step", type=float, required=True)
    beta.add_argument("--out", help="output CSV path (default stdout)")
    beta.set_defaults(func=cmd_beta)

    kappa = add("kappa", help="dual-reception factors vs relay antennas, with "
                              "their control-variate standard errors (CSV)")
    _add_scenario_flags(kappa, _fields_but("m_r", "beta"))
    kappa.add_argument("--m-r-list", default="1,2,3,4",
                       help="comma-separated relay antenna counts")
    kappa.add_argument("--out", help="output CSV path (default stdout)")
    kappa.set_defaults(func=cmd_kappa)

    val = add("validate", help="run the invariant suite, exit 4 on failure")
    _add_scenario_flags(val, ("trials", "seed"))
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
