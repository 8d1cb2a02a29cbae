"""Regenerate perfbench/reference.json, the reference value of every row the
benchmark gates.

    python3 perfbench/make_reference.py            # about 6 minutes on 2 cores

Exact rows (closed form, asymptote, quadrature, CDF) come from the
benchmark's own mpmath oracle in reference.py at reference.DPS digits.
Two kinds of rows depend on Monte Carlo and get a standard deviation `sd`:
  - sweep rows of the dual-reception protocols with several relay antennas
    use d-factors that the program estimates from D_ROW_TRIALS trials.  Their
    reference uses d-factors from D_REF_TRIALS trials with another seed,
    symmetrised over the two directions (the scenario is symmetric), and sd
    is the d-factor standard error propagated through the row's derivative.
  - mc rows come from the program's own Monte-Carlo sweep at MC_REF_FACTOR
    times the workload's trials with another seed; sd is its standard error.
The closed-form references are cross-checked against scipy quadrature at
10 dB, the CDF references against the construction integral, and the MC
references against the lower bound; the results are stored alongside.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as R  # noqa: E402
import workloads as W  # noqa: E402

OUT = HERE / "reference.json"
REF_SEED = 2 ** 40 + 7            # no benchmark seed maps onto this one
MC_REF_FACTOR = 10
D_REF_TRIALS = 2_000_000
D_ROW_TRIALS = 200_000            # what sweep and gaps use: max(trials, 200000)
D_REF_SNR_DB = 60.0               # sweep estimates d-factors at --rho-stop
CLOSED_RTOL = 1e-8
QUAD_RTOL = 1e-6
CDF_RTOL = 1e-8
_D_INDEX = {"second_three_slot": (0, 1), "second_four_slot": (2, 3)}


def is_stat(protocol: str, cfg) -> bool:
    return protocol in _D_INDEX and cfg[1] > 1


def exact_entry(kind: str, protocol: str, cfg, rho_db: float) -> dict:
    """Reference entry of a sweep or quadrature row with exact inputs."""
    with mp.workdps(R.DPS):
        fn = R.asymptote if kind == "asymptote" else R.sum_ber
        value = fn(protocol, cfg, rho_db)
    rtol = QUAD_RTOL if kind == "quad" else CLOSED_RTOL
    return {"kind": kind, "value": float(value), "hi": R.ceiling(protocol), "rtol": rtol, "sd": 0.0}


def stat_entry(kind: str, protocol: str, cfg, rho_db: float, d_sym, d_se) -> dict:
    """Reference entry of a sweep row whose inputs include the program's
    d-factor estimate: value at the reference d-factors, and sd from the
    estimate's standard errors (the reference's own error is 1/MC_REF_FACTOR
    of that variance, so it is folded in as sqrt(1 + 1/MC_REF_FACTOR))."""
    fn = R.asymptote if kind == "asymptote" else R.sum_ber
    with mp.workdps(R.DPS):
        base = fn(protocol, cfg, rho_db, d_sym)
        h = mp.mpf(10) ** -20
        sd = mp.mpf(0)
        for idx in _D_INDEX[protocol]:
            d = list(d_sym)
            d[idx] += h
            sd += abs((fn(protocol, cfg, rho_db, d) - base) / h) * d_se[idx]
        sd *= mp.sqrt(1 + mp.mpf(1) / MC_REF_FACTOR)
    return {"kind": kind, "value": float(base), "hi": R.ceiling(protocol), "rtol": CLOSED_RTOL, "sd": float(sd)}


def cdf_entry(cfg, ratio: float) -> dict:
    x = ratio * 10.0 ** (W.CDF_RHO_DB / 10.0)     # the float threshold the workload passes
    with mp.workdps(R.DPS):
        arb, bra = R.directions(W.CDF_PROTOCOL, cfg, W.CDF_RHO_DB)
        value = R.e2e_cdf(x, arb if W.CDF_DIRECTION == "arb" else bra, cfg[1])
    return {"kind": "cdf", "value": float(value), "hi": 1.0, "rtol": CDF_RTOL, "sd": 0.0}


def analytic_ids():
    """(row id, kind, protocol, cfg, rho_db) of every analytic_sweep row."""
    for cfg in W.ANALYTIC_CONFIGS:
        for kind in ("closed", "asymptote"):
            for db in W.sweep_snr_db(W.ANALYTIC_SWEEP):
                for p in W.PROTOCOLS:
                    yield f"{kind}/{W.cfg_name(cfg)}/{p}/{db:g}", kind, p, cfg, db
    yield (f"closed/{W.cfg_name(W.DEEP_CONFIG)}/{W.DEEP_PROTOCOL}/{W.DEEP_SNR_DB:g}", "closed",
           W.DEEP_PROTOCOL, W.DEEP_CONFIG, W.DEEP_SNR_DB)


def cdf_quadrature_ids():
    """(row id, kind, protocol, cfg, rho_db or threshold ratio)."""
    for cfg in W.CDF_CONFIGS:
        for r in W.CDF_RATIOS:
            yield f"cdf/{W.cfg_name(cfg)}/{W.cdf_ratio_name(r)}", "cdf", W.CDF_PROTOCOL, cfg, r
    for cfg in W.QUAD_CONFIGS:
        for p in W.QUAD_PROTOCOLS:
            for db in W.QUAD_SNR_DB:
                yield f"quad/{W.cfg_name(cfg)}/{p}/{db:g}", "quad", p, cfg, db


def _import_twrelay():
    sys.path.insert(0, str(HERE.parent / "src"))
    import twrelay
    import twrelay.cli  # noqa: F401
    return twrelay


def reference_d_factors(tw) -> dict:
    ant = tw.scenario.AntennaConfig(2, 2, 2)
    pw = tw.scenario.power_profile(D_REF_SNR_DB, 0.5)
    d, se = tw.simulate.estimate_d_factors(ant, pw, trials=D_REF_TRIALS, seed=REF_SEED,
                                           return_std_errors=True)
    values = [d.d_arb_3, d.d_bra_3, d.d_arb_4, d.d_bra_4]
    sym3, sym4 = (values[0] + values[1]) / 2, (values[2] + values[3]) / 2
    scale = math.sqrt(D_REF_TRIALS / D_ROW_TRIALS)
    return {"config": "2x2x2", "rho_db": D_REF_SNR_DB, "trials": D_REF_TRIALS, "seed": REF_SEED,
            "values": values, "std_errors": list(se),
            "symmetrised": [sym3, sym3, sym4, sym4],
            "row_trials": D_ROW_TRIALS, "row_std_errors": [s * scale for s in se]}


def mc_rows(tw) -> dict:
    trials = MC_REF_FACTOR * W.MC_TRIALS
    out = {}
    for cfg in W.MC_CONFIGS:
        text = W.cli_sweep(cfg, W.MC_SWEEP, "mc", REF_SEED, ["--trials", str(trials)])(tw)
        for row in W.sweep_rows(f"mc/{W.cfg_name(cfg)}", text):
            protocol = row.id.split("/")[2]
            out[row.id] = {"kind": "mc", "value": row.value, "hi": R.ceiling(protocol),
                           "rtol": 0.0, "sd": row.std_error}
    return out


def cross_checks(dref: dict, mc: dict) -> list:
    checks = []
    d_sym = dref["symmetrised"]
    for cfg in W.ANALYTIC_CONFIGS:
        for p in W.PROTOCOLS:
            with mp.workdps(R.DPS):
                ref = float(R.sum_ber(p, cfg, 10.0, d_sym))
            quad = R.sum_ber_by_scipy_quadrature(p, cfg, 10.0, d_sym)
            checks.append({"check": "closed form vs scipy quadrature", "row": f"{W.cfg_name(cfg)}/{p}/10",
                           "reference": ref, "other": quad, "rel_diff": abs(quad - ref) / ref, "limit": 1e-10})
    for cfg in W.CDF_CONFIGS[:2]:
        with mp.workdps(30):
            arb, _ = R.directions(W.CDF_PROTOCOL, cfg, W.CDF_RHO_DB)
            for r in (0.1, 1.0):
                x = r * 10.0 ** (W.CDF_RHO_DB / 10.0)
                a, b = float(R.e2e_cdf(x, arb, cfg[1])), float(R.e2e_cdf_by_construction(x, arb, cfg[1]))
                checks.append({"check": "CDF expansion vs construction integral",
                               "row": f"{W.cfg_name(cfg)}/{r:g}", "reference": a, "other": b,
                               "rel_diff": abs(a - b) / a, "limit": 1e-12})
    for cfg in ((2, 1, 2), (2, 2, 2)):
        for p in ("two_slot", "first_four_slot"):
            for db in W.sweep_snr_db(W.MC_SWEEP):
                row = mc[f"mc/{W.cfg_name(cfg)}/{p}/{db:g}"]
                with mp.workdps(R.DPS):
                    lb = float(R.sum_ber(p, cfg, db))
                # the lower bound drops a noise term, so the exact BER lies above it
                checks.append({"check": "MC reference above the lower bound",
                               "row": f"{W.cfg_name(cfg)}/{p}/{db:g}", "reference": row["value"],
                               "other": lb, "rel_diff": (lb - row["value"]) / (4 * row["sd"]), "limit": 1.0})
    return checks


def symmetric_weights_are_optimal() -> bool:
    """The reference evaluates the weighted protocols at beta^2 = 1/2; in the
    symmetric scenario that is where the asymptote the program minimises
    has its minimum."""
    with mp.workdps(30):
        for cfg in W.ANALYTIC_CONFIGS:
            for p in R.WEIGHTED:
                mid = R.asymptote(p, cfg, 30.0, (1.3,) * 4, 0.5)
                for b2 in (0.499, 0.501):
                    if R.asymptote(p, cfg, 30.0, (1.3,) * 4, b2) < mid:
                        return False
    return True


def main() -> int:
    tw = _import_twrelay()
    if not symmetric_weights_are_optimal():
        print("beta^2 = 1/2 is not the asymptote's optimum", file=sys.stderr)
        return 1
    dref = reference_d_factors(tw)
    print("d-factors", dref["values"], flush=True)
    workloads = {"analytic_sweep": {}, "cdf_quadrature": {}}
    for row_id, kind, p, cfg, db in analytic_ids():
        if is_stat(p, cfg):
            entry = stat_entry(kind, p, cfg, db, dref["symmetrised"], dref["row_std_errors"])
        else:
            entry = exact_entry(kind, p, cfg, db)
        workloads["analytic_sweep"][row_id] = entry
        print(row_id, entry["value"], flush=True)
    for row_id, kind, p, cfg, x in cdf_quadrature_ids():
        entry = cdf_entry(cfg, x) if kind == "cdf" else exact_entry(kind, p, cfg, x)
        workloads["cdf_quadrature"][row_id] = entry
        print(row_id, entry["value"], flush=True)
    mc = mc_rows(tw)
    workloads = {"mc_sweep": mc, **workloads}
    checks = cross_checks(dref, mc)
    bad = [c for c in checks if not c["rel_diff"] <= c["limit"]]
    for c in bad:
        print("cross-check failed:", c, file=sys.stderr)
    doc = {
        "about": "Reference values of the perfbench rows; regenerate with perfbench/make_reference.py.",
        "dps": R.DPS,
        "mc": {"seed": REF_SEED, "trials": MC_REF_FACTOR * W.MC_TRIALS},
        "d_factors": dref,
        "cross_checks": checks,
        "workloads": workloads,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT} ({sum(len(v) for v in workloads.values())} rows)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
