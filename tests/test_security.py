"""Unit tests for the analytic security models (Appendices A/B)."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.core.security import (PAPER_TABLE7_PENALTY, _brentq,
                                 dream_r_mint_threshold,
                                 gamma_tail, mint_window_dream_r,
                                 mint_window_with_atm,
                                 para_delay_failure_factor,
                                 para_exponent_dream_r,
                                 para_probability_dream_r,
                                 para_probability_with_atm,
                                 revised_parameters, rmaq_threshold_penalty)


class TestParaGammaAnalysis:
    def test_gamma_tail_formula(self):
        # Equation 1: P(z >= T) = (1 + pT) e^{-pT}.
        p, t = 0.01, 2000
        assert gamma_tail(p, t) == pytest.approx(
            (1 + p * t) * math.exp(-p * t))

    def test_failure_factor_at_design_point(self):
        # (1 + pT) = 21 at pT = 20: the paper quotes ~20x.
        assert para_delay_failure_factor(20.0) == pytest.approx(21.0)

    def test_exponent_solves_target(self):
        x = para_exponent_dream_r()
        assert (1 + x) * math.exp(-x) == pytest.approx(math.exp(-20),
                                                       rel=1e-9)

    def test_revised_probability_near_paper(self):
        # Paper: p = 1/85 at T_RH = 2000, from its e^3 ~ 20 shortcut; the
        # exact solve gives p'T = 23.19, i.e. 1/86.
        p = para_probability_dream_r(2000)
        assert 1 / 90 < p < 1 / 80

    def test_revision_is_an_increase(self):
        assert para_probability_dream_r(2000) > 1 / 100

    def test_with_atm_near_coupled(self):
        # Paper Table 4: ATM keeps p at ~1/99.
        p = para_probability_with_atm(2000)
        assert 1 / 100 < p <= 1 / 99


class TestBrentSolve:
    """The Appendix A solve returns scipy ``brentq``'s doubles exactly.

    ``para_probability_dream_r(2000)`` feeds a ``PolicySpec`` in the
    ATM ablation, so its bits are part of a run-cache key."""

    def test_exponent_bits(self):
        assert para_exponent_dream_r().hex() == "0x1.72f8e3e2d1f6cp+4"

    @pytest.mark.parametrize("t_rh, bits", [
        (1000, "0x1.7be024bf4dc98p-6"),
        (2000, "0x1.7be024bf4dc98p-7"),
        (4000, "0x1.7be024bf4dc98p-8"),
    ])
    def test_probability_bits(self, t_rh, bits):
        assert para_probability_dream_r(t_rh).hex() == bits

    def test_matches_scipy_brentq(self):
        optimize = pytest.importorskip("scipy.optimize")
        for k in range(4, 212):  # mttf exponents 1.0 .. 52.75
            exponent = k / 4
            target = math.exp(-exponent)

            def f(x):
                return (1.0 + x) * math.exp(-x) - target

            ours = _brentq(f, exponent, 4.0 * exponent)
            assert ours.hex() == optimize.brentq(
                f, exponent, 4.0 * exponent).hex(), exponent
            assert para_exponent_dream_r(exponent) == ours
        for f, a, b in [(lambda x: math.cos(x) - x, 0.0, 1.0),
                        (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
                        (lambda x: math.exp(x) - 10.0, 10.0, -5.0)]:
            assert _brentq(f, a, b).hex() == optimize.brentq(f, a, b).hex()

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x + 5.0, 0.0, 1.0)

    def test_non_convergence_raises(self):
        # A step has no slope to interpolate, so every iteration bisects,
        # and 100 halvings of a 2e300-wide bracket stay far from 2e-12.
        with pytest.raises(RuntimeError, match="Failed to converge"):
            _brentq(lambda x: 1.0 if x > 0.5 else -1.0, -1e300, 1e300)

    def test_endpoint_root_returned(self):
        assert _brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert _brentq(lambda x: x - 3.0, 1.0, 3.0) == 3.0

    def test_no_process_imports_scipy(self):
        code = textwrap.dedent("""
            import importlib, sys
            import repro, repro.cli, repro.service.server
            from repro.core.security import revised_parameters
            from repro.experiments import registry
            for name in registry.names():
                importlib.import_module(registry.get(name).__module__)
            revised_parameters(2000)
            loaded = sorted(name for name, module in sys.modules.items()
                            if name.split(".")[0] == "scipy"
                            and module is not None)
            assert not loaded, loaded
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(repro.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


class TestMintDelayAnalysis:
    def test_dream_r_window(self):
        # Paper: W = 97 at T_RH = 2000 (20.5 activations per window).
        assert mint_window_dream_r(2000) == 97

    def test_with_atm(self):
        # Paper Table 4: W = 99 with ATM.
        assert mint_window_with_atm(2000) == 99

    def test_design_threshold(self):
        assert dream_r_mint_threshold(100) == 2000

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            mint_window_dream_r(10)


class TestRmaqPenalty:
    @pytest.mark.parametrize("window", sorted(PAPER_TABLE7_PENALTY))
    def test_matches_paper_within_rounding(self, window):
        ours = rmaq_threshold_penalty(window)
        paper = PAPER_TABLE7_PENALTY[window]
        assert abs(ours - paper) <= 2

    def test_vanishes_for_large_windows(self):
        assert rmaq_threshold_penalty(45) == 0
        assert rmaq_threshold_penalty(100) == 0

    def test_monotone_decreasing(self):
        penalties = [rmaq_threshold_penalty(w) for w in range(25, 50, 5)]
        assert penalties == sorted(penalties, reverse=True)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            rmaq_threshold_penalty(0)


class TestRevisedParameters:
    def test_table4_row(self):
        params = revised_parameters(2000)
        assert params.para_p_coupled == pytest.approx(1 / 100)
        assert params.mint_w_coupled == 100
        assert params.mint_w_dream_r == 97
        assert params.mint_w_with_atm == 99

    def test_describe_mentions_values(self):
        text = revised_parameters(2000).describe()
        assert "1/100" in text
        assert "W=100" in text
        assert "97" in text

    def test_ordering_invariant(self):
        # Coupled <= ATM <= no-ATM mitigation frequency; window reversed.
        for t_rh in (1000, 2000, 4000):
            params = revised_parameters(t_rh)
            assert params.para_p_coupled <= params.para_p_with_atm <= \
                params.para_p_dream_r
            assert params.mint_w_dream_r <= params.mint_w_with_atm <= \
                params.mint_w_coupled
