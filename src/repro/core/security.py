"""Analytic security models for DREAM-R (Appendices A and B, Tables 4/7).

DREAM-R delays the DRFM after sampling, so activations can land on the
sampled row before it is mitigated.  This module quantifies the impact
and produces the re-architected tracker parameters:

* **PARA (Appendix A)** — the activations between mitigation->sampling
  (X) and sampling->DRFM (Y) are both exponential(p); their sum is
  Gamma(2, p), whose tail ``(1 + pT) e^(-pT)`` is ``(1 + pT)`` ~ 20x
  worse than coupled PARA's ``e^(-pT)``.  The revised probability p'
  solves ``(1 + p'T) e^(-p'T) = e^(-20)``, i.e. ``p'T = 23.19`` —
  a ~16% increase (p = 1/100 -> 1/86 at T_RH = 2000).  The paper's
  1/85 comes from its ``e^3 ~ 20`` shortcut in Appendix A, not from
  this exact solve.
* **MINT (Appendix B)** — the delayed DRFM adds up to W unmitigated
  activations single-sided, so the tolerated double-sided threshold
  grows from 20W to 20.5W; meeting a target T_RH needs W = T_RH / 20.5
  (W = 100 -> 97 at T_RH = 2000).
* **ATM (Section 4.4)** — with Active Target-row Monitoring the delay
  exposure is capped at ATM-TH activations (single-sided), so the
  parameters only shrink by ATM-TH/2 double-sided: p = 1/99 and W = 99
  at T_RH = 2000 (Table 4).
* **RMAQ (Section 6.2, Table 7)** — the rate-limit filter lets an
  attacker land up to 150 extra single-sided activations on a row that
  cannot be re-sampled, but only the 1/W chance that this row is the
  failing one matters; the tolerated-threshold penalty is
  ``max(0, 75 - W ln(W) / 2)``, nonzero only below W ~ 43.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from repro.core.atm import DEFAULT_ATM_THRESHOLD
from repro.core.rmaq import MAX_ACTS_PER_TREFI, RATE_LIMIT_TREFI
from repro.trackers.mint import THRESHOLD_PER_WINDOW, window_for_threshold
from repro.trackers.para import MTTF_EXPONENT, probability_for_threshold

#: MINT threshold-per-window under delayed DRFM (20.5 x W, Appendix B).
DREAM_R_THRESHOLD_PER_WINDOW = 20.5


def para_delay_failure_factor(p_times_t: float) -> float:
    """Failure-rate inflation of delayed DRFM over coupled PARA.

    The Gamma(2, p) tail is ``(1 + pT) e^(-pT)``; relative to the
    exponential tail ``e^(-pT)`` the failure rate grows by ``1 + pT``
    (about 21x at the paper's operating point pT = 20).
    """
    if p_times_t <= 0:
        raise ValueError("p*T must be positive")
    return 1.0 + p_times_t


def gamma_tail(p: float, t: float) -> float:
    """P(X + Y >= t) for X, Y ~ Exp(p): the Appendix A Equation 1."""
    return (1.0 + p * t) * math.exp(-p * t)


#: ``scipy.optimize.brentq``'s defaults, which :func:`_brentq` keeps.
_XTOL = 2e-12
_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100


def _brentq(f, a: float, b: float) -> float:
    """Root of ``f`` in ``[a, b]`` by Brent's method.

    A step-for-step port of ``scipy.optimize.brentq`` (its C kernel, with
    its default tolerances and its errors), so it returns the same
    double; ``tests/test_security.py`` cross-checks the two where scipy
    is installed.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")


def para_exponent_dream_r(mttf_exponent: float = MTTF_EXPONENT) -> float:
    """Solve ``(1 + x) e^(-x) = e^(-mttf_exponent)`` for x = p'T.

    At the default exponent of 20 the root is x = 23.19 (bit for bit
    what ``scipy.optimize.brentq`` returns on the same bracket).
    """
    target = math.exp(-mttf_exponent)
    return _brentq(lambda x: (1.0 + x) * math.exp(-x) - target,
                   mttf_exponent, 4.0 * mttf_exponent)


def para_probability_dream_r(t_rh: int,
                             mttf_exponent: float = MTTF_EXPONENT) -> float:
    """Revised PARA probability under delayed DRFM without ATM.

    At T_RH = 2000 this returns 1/86.26, a ~16% increase over 1/100
    (the paper's 1/85 uses its ``e^3 ~ 20`` shortcut).
    """
    if t_rh < 1:
        raise ValueError("t_rh must be positive")
    return para_exponent_dream_r(mttf_exponent) / t_rh


def para_probability_with_atm(
        t_rh: int, atm_threshold: int = DEFAULT_ATM_THRESHOLD) -> float:
    """PARA probability under DREAM-R with ATM (Table 4: 1/99 at 2K).

    ATM caps the sampling->DRFM exposure at ``atm_threshold`` single-sided
    activations (``atm_threshold / 2`` double-sided), so PARA only needs
    to cover a threshold reduced by that amount.
    """
    effective = t_rh - atm_threshold // 2
    return probability_for_threshold(effective)


def mint_window_dream_r(t_rh: int) -> int:
    """Revised MINT window under delayed DRFM without ATM (97 at 2K)."""
    window = int(t_rh / DREAM_R_THRESHOLD_PER_WINDOW)
    if window < 1:
        raise ValueError(f"T_RH={t_rh} is below what DREAM-R MINT tolerates")
    return window


def mint_window_with_atm(
        t_rh: int, atm_threshold: int = DEFAULT_ATM_THRESHOLD) -> int:
    """MINT window under DREAM-R with ATM (Table 4: 99 at 2K)."""
    return window_for_threshold(t_rh - atm_threshold // 2)


def dream_r_mint_threshold(window: int) -> int:
    """Design-target T_RH of DREAM-R (MINT) for a window (Table 7 row 1)."""
    if window < 1:
        raise ValueError("window must be positive")
    return THRESHOLD_PER_WINDOW * window


def rmaq_threshold_penalty(window: int) -> int:
    """Increase in tolerated T_RH caused by RMAQ filtering (Table 7).

    The attacker can land ``2 * MAX_ACTS_PER_TREFI`` extra single-sided
    activations on the filtered row, but gains only if that row (1 of W)
    is the failing one; with MINT's per-activation failure exponent
    ``lambda ~ 1/W`` the net double-sided penalty is
    ``max(0, 75 - W ln(W) / 2)`` — matching the paper's Table 7 within
    rounding (36/25/14/2 -> 35/24/13/1 at W = 25/30/35/40, 0 above).
    """
    if window < 1:
        raise ValueError("window must be positive")
    extra = RATE_LIMIT_TREFI * MAX_ACTS_PER_TREFI
    penalty_ss = extra - window * math.log(window)
    return max(0, round(penalty_ss / 2.0))


#: Paper's Table 7 reference values: window -> T_RH penalty with RMAQ.
PAPER_TABLE7_PENALTY = {25: 36, 30: 25, 35: 14, 40: 2, 45: 0, 50: 0, 100: 0}


@dataclass(frozen=True)
class RevisedParameters:
    """One row of the paper's Table 4 for a target threshold."""

    t_rh: int
    para_p_coupled: float
    para_p_dream_r: float
    para_p_with_atm: float
    mint_w_coupled: int
    mint_w_dream_r: int
    mint_w_with_atm: int

    def describe(self) -> str:
        """Render the row the way the paper's Table 4 does."""
        return (
            f"T_RH={self.t_rh}: PARA p=1/{math.floor(1 / self.para_p_coupled)} "
            f"-> 1/{math.floor(1 / self.para_p_dream_r)} "
            f"(ATM: 1/{math.floor(1 / self.para_p_with_atm)}); "
            f"MINT W={self.mint_w_coupled} -> {self.mint_w_dream_r} "
            f"(ATM: {self.mint_w_with_atm})")


def revised_parameters(
        t_rh: int,
        atm_threshold: int = DEFAULT_ATM_THRESHOLD) -> RevisedParameters:
    """Compute the full Table 4 row for ``t_rh``."""
    return RevisedParameters(
        t_rh=t_rh,
        para_p_coupled=probability_for_threshold(t_rh),
        para_p_dream_r=para_probability_dream_r(t_rh),
        para_p_with_atm=para_probability_with_atm(t_rh, atm_threshold),
        mint_w_coupled=window_for_threshold(t_rh),
        mint_w_dream_r=mint_window_dream_r(t_rh),
        mint_w_with_atm=mint_window_with_atm(t_rh, atm_threshold),
    )
