"""The benchmark's three workloads, each a list of units.

A unit is one call into `twrelay`, either a CLI invocation (`cli.main`
with the CSV captured from stdout) or a batch of library calls.  Running a
unit returns its output text; `rows` turns the texts of a whole pass into
gated rows.  The row identifiers here are the keys of `reference.json`.

Library functions are always looked up on their module at call time, so
that the traced run sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

PROTOCOLS = ("two_slot", "first_three_slot", "second_three_slot",
             "first_four_slot", "second_four_slot")

# mc_sweep: 0 and 10 dB keep every row's standard error well below its mean
# (at 30 dB single deep fades dominate the 4x4x4 estimates), so the 4-SE
# gate against the reference stays meaningful.
MC_CONFIGS = ((2, 1, 2), (2, 2, 2), (4, 4, 4))
MC_SWEEP = (0.0, 10.0, 10.0)          # start, stop, step in dB
MC_TRIALS = 32768

ANALYTIC_CONFIGS = ((2, 1, 2), (2, 2, 2))
ANALYTIC_SWEEP = (0.0, 60.0, 10.0)
DEEP_CONFIG, DEEP_SNR_DB, DEEP_PROTOCOL = (3, 3, 3), 20.0, "first_four_slot"

CDF_CONFIGS = ((2, 1, 2), (2, 2, 2), (3, 3, 3))
CDF_PROTOCOL, CDF_DIRECTION, CDF_RHO_DB = "two_slot", "arb", 20.0
# thresholds x = r * rho_ar, geometric from 1e-3 to 10, 6 points per decade
CDF_RATIOS = tuple(10.0 ** (-3.0 + k / 6.0) for k in range(25))
QUAD_CONFIGS = ((2, 1, 2), (2, 2, 2))
QUAD_PROTOCOLS = ("two_slot", "first_four_slot")
QUAD_SNR_DB = (10.0, 20.0, 30.0)

WORKLOADS = ("mc_sweep", "analytic_sweep", "cdf_quadrature")


def cfg_name(cfg) -> str:
    return "x".join(str(v) for v in cfg)


def cdf_ratio_name(r: float) -> str:
    return f"{r:.4e}"


@dataclass(frozen=True)
class Unit:
    name: str
    run: Callable[[object], str]     # argument: the imported twrelay package


def _cli(argv: list) -> Callable[[object], str]:
    def run(tw) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tw.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()
    return run


def _cfg_args(cfg) -> list:
    return ["--m-a", str(cfg[0]), "--m-r", str(cfg[1]), "--m-b", str(cfg[2])]


def sweep_snr_db(sweep) -> tuple:
    start, stop, step = sweep
    return tuple(start + k * step for k in range(int(round((stop - start) / step)) + 1))


def cli_sweep(cfg, sweep, mode, seed, extra=()) -> Callable[[object], str]:
    """`twrelay sweep` for one antenna configuration; sweep is (start, stop, step) in dB."""
    start, stop, step = sweep
    return _cli(["sweep", *_cfg_args(cfg), "--rho-start", f"{start:g}", "--rho-stop", f"{stop:g}",
                 "--rho-step", f"{step:g}", "--mode", mode, "--seed", str(seed), *extra])


def _cdf_curve(cfg) -> Callable[[object], str]:
    def run(tw) -> str:
        sc = tw.scenario
        ant = sc.AntennaConfig(*cfg)
        pw = sc.power_profile(CDF_RHO_DB, 0.5)
        coeffs = sc.coefficient_set(sc.parse_protocol(CDF_PROTOCOL), ant, pw)
        lines = []
        for r in CDF_RATIOS:
            lines.append(_call(lambda: tw.analysis.e2e_cdf(CDF_DIRECTION, r * pw.rho_ar, coeffs, ant, pw),
                               cdf_ratio_name(r)))
        return "".join(lines)
    return run


def _quadratures(cfg) -> Callable[[object], str]:
    def run(tw) -> str:
        sc = tw.scenario
        ant = sc.AntennaConfig(*cfg)
        lines = []
        for name in QUAD_PROTOCOLS:
            p = sc.parse_protocol(name)
            for db in QUAD_SNR_DB:
                pw = sc.power_profile(db, 0.5)
                coeffs = sc.coefficient_set(p, ant, pw)
                mod = sc.protocol_modulation(p)
                lines.append(_call(lambda: tw.analysis.sum_ber_quadrature(coeffs, ant, pw, mod),
                                   f"{name}/{db:g}"))
        return "".join(lines)
    return run


def _call(fn, key: str) -> str:
    # one library row: its value, or the error it raised, as one text line
    try:
        return f"{key}|{fn()!r}\n"
    except Exception as exc:  # a raising row is a failed row, not a crash
        return f"{key}|error:{type(exc).__name__}: {exc}\n"


def units(workload: str, seed: int) -> list:
    """The units of one pass of a workload."""
    if workload == "mc_sweep":
        return [Unit(f"mc/{cfg_name(c)}", cli_sweep(c, MC_SWEEP, "mc", seed, ["--trials", str(MC_TRIALS)]))
                for c in MC_CONFIGS]
    if workload == "analytic_sweep":
        out = []
        for c in ANALYTIC_CONFIGS:
            for mode in ("closed", "asymptote"):
                out.append(Unit(f"{mode}/{cfg_name(c)}", cli_sweep(c, ANALYTIC_SWEEP, mode, seed)))
            out.append(Unit(f"gaps/{cfg_name(c)}", _cli(["gaps", *_cfg_args(c), "--seed", str(seed)])))
        out.append(Unit(f"closed/{cfg_name(DEEP_CONFIG)}",
                        cli_sweep(DEEP_CONFIG, (DEEP_SNR_DB, DEEP_SNR_DB, 10.0), "closed", seed,
                                  ["--protocols", DEEP_PROTOCOL])))
        return out
    if workload == "cdf_quadrature":
        return ([Unit(f"cdf/{cfg_name(c)}", _cdf_curve(c)) for c in CDF_CONFIGS]
                + [Unit(f"quad/{cfg_name(c)}", _quadratures(c)) for c in QUAD_CONFIGS])
    raise ValueError(f"unknown workload {workload!r}")


def warmup_units(workload: str) -> list:
    """Small calls that load every lazily imported module and code path of
    the workload (mpmath for the rescue, scipy.integrate, the eigen path)."""
    if workload == "mc_sweep":
        return [Unit("warmup/mc", cli_sweep(c, (10.0, 10.0, 10.0), "mc", 1,
                                            ["--trials", "2000", "--protocols", "two_slot"]))
                for c in MC_CONFIGS]
    if workload == "analytic_sweep":
        return [Unit("warmup/closed", cli_sweep((2, 1, 2), (10.0, 60.0, 50.0), "closed", 1,
                                                ["--protocols", "two_slot"])),
                Unit("warmup/asymptote", cli_sweep((2, 1, 2), (10.0, 10.0, 10.0), "asymptote", 1)),
                Unit("warmup/gaps", _cli(["gaps", *_cfg_args((2, 1, 2))]))]
    if workload == "cdf_quadrature":
        return [Unit("warmup/cdf", _cdf_curve((2, 1, 2))), Unit("warmup/quad", _quadratures((2, 1, 2)))]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    """One gated output value.  error is set when the unit or call raised."""

    id: str
    value: float = float("nan")
    std_error: float | None = None
    error: str | None = None


def sweep_rows(unit: str, text: str) -> list:
    kind, cfg = unit.split("/")
    lines = text.splitlines()
    if not lines or lines[0] != "rho_ar_db,protocol,mode,sum_ber,std_error":
        raise ValueError(f"{unit}: unexpected CSV header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        rho, protocol, mode, value, se = line.split(",")
        rows.append(Row(f"{mode}/{cfg}/{protocol}/{float(rho):g}", float(value),
                        float(se) if se else None))
    return rows


def _library_rows(unit: str, text: str) -> list:
    rows = []
    for line in text.splitlines():
        key, _, value = line.partition("|")
        if value.startswith("error:"):
            rows.append(Row(f"{unit}/{key}", error=value[len("error:"):]))
        else:
            rows.append(Row(f"{unit}/{key}", float(value)))
    return rows


def parse_gaps(text: str) -> list:
    """(protocol, gap_db) pairs from the `gaps` table on stdout."""
    out = []
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("protocol"))
    for line in lines[start + 1:]:
        parts = line.split()
        out.append((parts[0], float(parts[1])))
    return out


def rows(outputs: dict) -> tuple[list, list]:
    """(rows, problems) from the unit texts of one pass.  A unit that raised
    has the text 'error:...' and yields no rows; gaps units yield no rows but
    are checked for shape here."""
    found, problems = [], []
    for unit, text in outputs.items():
        if text.startswith("error:"):
            problems.append(f"{unit}: {text}")
            continue
        kind = unit.split("/")[0]
        try:
            if kind in ("mc", "closed", "asymptote"):
                found.extend(sweep_rows(unit, text))
            elif kind in ("cdf", "quad"):
                found.extend(_library_rows(unit, text))
            elif kind == "gaps":
                gaps = parse_gaps(text)
                names = sorted(p for p, _ in gaps)
                if (names != sorted(PROTOCOLS) or min(g for _, g in gaps) != 0.0
                        or not all(0.0 <= g < float("inf") for _, g in gaps)):
                    problems.append(f"{unit}: malformed gap table {gaps!r}")
        except (ValueError, StopIteration, IndexError) as exc:
            problems.append(f"{unit}: unparseable output ({exc})")
    return found, problems
