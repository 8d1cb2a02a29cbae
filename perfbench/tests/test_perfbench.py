"""Self-tests of the benchmark: the row gate, the span arithmetic, the
host-speed normalisation, and the committed references.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import gate as G  # noqa: E402
import make_reference as MR  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
EXACT = {"kind": "closed", "value": 0.25, "hi": 0.75, "rtol": 1e-8, "sd": 0.0}


class TestGate:
    def test_accepts_value_within_tolerance(self):
        v = G.check(EXACT, 0.25 * (1 + 1e-9))
        assert v.ok and 8.9 < v.digits < 9.1

    @pytest.mark.parametrize("value, reason", [
        (0.76, "above ceiling"),
        (140.6, "above ceiling"),
        (-1.2e-13, "negative"),
        (float("nan"), "non-finite"),
        (float("inf"), "non-finite"),
        (0.25 * (1 + 1e-7), "misses reference"),
    ])
    def test_flags(self, value, reason):
        v = G.check(EXACT, value)
        assert not v.ok and reason in v.reason

    def test_out_of_range_value_keeps_its_digits(self):
        ref = dict(EXACT, value=140.6, hi=0.75, kind="asymptote")
        v = G.check(ref, 140.6)
        assert not v.ok and v.digits == G.DIGITS_CAP

    def test_raised_and_missing_rows_fail(self):
        verdicts, problems = G.gate([W.Row("a", error="NumericalError: boom"), W.Row("c", 0.1)],
                                    {"a": EXACT, "b": EXACT})
        assert [v.ok for v in verdicts] == [False, False]
        assert "raised" in verdicts[0].reason and "missing" in verdicts[1].reason
        assert problems == ["unexpected row c"]

    def test_mc_rows_use_combined_standard_error(self):
        ref = {"kind": "mc", "value": 0.1, "hi": 1.0, "rtol": 0.0, "sd": 3e-4}
        assert G.check(ref, 0.1 + 1.9e-3, std_error=4e-4).ok           # 3.8 combined SE
        assert not G.check(ref, 0.1 + 2.1e-3, std_error=4e-4).ok       # 4.2 combined SE
        assert not G.check(ref, 0.1, std_error=None).ok

    def test_rows_with_monte_carlo_inputs_have_no_digits(self):
        ref = dict(EXACT, sd=1e-4)
        v = G.check(ref, 0.25 + 3e-4)
        assert v.ok and v.digits is None
        assert G.min_digits([v], {v.id: ref}) == G.DIGITS_CAP

    def test_failed_share_is_never_zero(self):
        assert G.failed_share(0, 30) == pytest.approx(1 / 31)
        assert G.failed_share(3, 30) > G.failed_share(2, 30)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestSpeed:
    def test_normalised_removes_chunks_and_rescales(self):
        # 10 chunks of twice the reference duration inside 1 s of wall time
        samples = [2 * speed.CHUNK_REF_S] * 10
        busy = 20 * speed.CHUNK_REF_S
        assert speed.normalised(1.0, samples) == pytest.approx((1.0 - busy) / 2)

    def test_sampler_samples_while_work_runs_and_restores_handler(self):
        import signal
        before = signal.getsignal(signal.SIGALRM)
        wall, norm, samples, result = speed.timed(lambda: sum(speed.chunk() for _ in range(100)))
        assert len(samples) >= 1 and 0 < sum(samples) < wall and norm > 0
        assert result == pytest.approx(100 * speed.chunk())
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestSpans:
    def test_self_time_on_synthetic_tree(self):
        # root [0, 10] has children [1, 4] and [5, 9]; the second has a child [6, 8]
        spans = [["cli.main", 0.0, 10.0, -1], ["analysis.a", 1.0, 4.0, 0],
                 ["simulate.b", 5.0, 9.0, 0], ["specfun.c", 6.0, 8.0, 2]]
        assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0])

    def test_overlapping_children_are_merged_and_clipped(self):
        spans = [["x.p", 0.0, 10.0, -1], ["x.c", 2.0, 6.0, 0], ["x.d", 4.0, 12.0, 0]]
        assert tracing.self_times(spans)[0] == pytest.approx(2.0)

    def test_layer_metrics_add_up_to_root_duration(self):
        clock = FakeClock()
        tr = tracing.Tracer(clock)
        root = tr.begin("cli.main")
        clock.t = 1.0
        child = tr.begin("analysis.sum_ber_closed_form")
        clock.t = 2.0
        rescue = tr.begin(tracing.RESCUE_SPAN)
        clock.t = 5.0
        tr.end(rescue)
        clock.t = 5.5
        tr.end(child)
        tr.counts["specfun.bessel_k"] += 7
        clock.t = 6.0
        tr.end(root)
        m = tracing.layer_metrics(tr)
        assert m["cli.self_s"] == pytest.approx(1.5)
        assert m["analysis.sum_ber_closed_form.self_s"] == pytest.approx(1.5)
        assert m["analysis.self_s"] == pytest.approx(4.5)
        assert m["analysis.mp_rescues"] == 1 and m["analysis.mp_rescue_s"] == pytest.approx(3.0)
        assert m["specfun.bessel_k.calls"] == 7
        assert m["trace.attributed_s"] == pytest.approx(6.0)

    def test_install_wraps_every_alias_and_uninstall_restores(self):
        sys.path.insert(0, str(HERE.parent / "src"))
        import twrelay.cli  # noqa: F401
        modules = [m for name, m in sys.modules.items() if name.startswith("twrelay")]
        before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        tr = tracing.Tracer()
        tr.install()
        try:
            wrapped = {key: getattr(sys.modules[key[0]], key[1]) for key, v in before.items()
                       if getattr(sys.modules[key[0]], key[1]) is not v}
            by_original = {}
            for key, w in wrapped.items():
                by_original.setdefault(id(before[key]), set()).add(id(w))
            twrelay.scenario.power_profile(10.0, 0.5)
        finally:
            tr.uninstall()
        assert wrapped and all(len(ws) == 1 for ws in by_original.values())   # one wrapper per function
        assert any(len([k for k in wrapped if id(before[k]) == f]) > 1 for f in by_original)  # aliases
        assert all(getattr(sys.modules[m], k) is v for (m, k), v in before.items())
        assert tr.spans[0][0] == "scenario.power_profile"
        assert all(span[3] == 0 for span in tr.spans[1:])


class TestReference:
    @pytest.mark.parametrize("workload, row_id", [
        ("analytic_sweep", "closed/2x1x2/two_slot/10"),
        ("analytic_sweep", "closed/2x2x2/first_three_slot/60"),
        ("analytic_sweep", "asymptote/2x1x2/first_four_slot/0"),
        ("cdf_quadrature", "quad/2x2x2/two_slot/30"),
    ])
    def test_exact_rows_regenerate(self, workload, row_id):
        kind, cfg, protocol, db = row_id.split("/")
        cfg = tuple(int(v) for v in cfg.split("x"))
        assert MR.exact_entry(kind, protocol, cfg, float(db)) == REFERENCE["workloads"][workload][row_id]

    def test_cdf_row_regenerates(self):
        r = W.CDF_RATIOS[0]
        row_id = f"cdf/2x2x2/{W.cdf_ratio_name(r)}"
        assert MR.cdf_entry((2, 2, 2), r) == REFERENCE["workloads"]["cdf_quadrature"][row_id]

    def test_row_with_monte_carlo_inputs_regenerates(self):
        d = REFERENCE["d_factors"]
        got = MR.stat_entry("closed", "second_three_slot", (2, 2, 2), 10.0, d["symmetrised"],
                            d["row_std_errors"])
        want = REFERENCE["workloads"]["analytic_sweep"]["closed/2x2x2/second_three_slot/10"]
        assert got["value"] == want["value"] and math.isclose(got["sd"], want["sd"], rel_tol=1e-12)

    def test_cross_checks_hold(self):
        assert REFERENCE["cross_checks"]
        for c in REFERENCE["cross_checks"]:
            assert c["rel_diff"] <= c["limit"], c

    def test_reference_covers_every_row_id(self):
        ids = {row_id for row_id, *_ in MR.analytic_ids()}
        assert ids == set(REFERENCE["workloads"]["analytic_sweep"])
        ids = {row_id for row_id, *_ in MR.cdf_quadrature_ids()}
        assert ids == set(REFERENCE["workloads"]["cdf_quadrature"])
        assert len(REFERENCE["workloads"]["mc_sweep"]) == (
            len(W.MC_CONFIGS) * len(W.PROTOCOLS) * len(W.sweep_snr_db(W.MC_SWEEP)))
