"""The coupled baseline mitigation designs (the paper's Section 2.6).

PARA and MINT where DAR sampling and DRFM issue are tied together, with
any of NRR / DRFMsb / DRFMab as the mitigation command — the designs
whose overheads the paper's Figure 5 quantifies and DREAM-R then
improves.  The policy base classes live in :mod:`repro.mc.policy`; the
decoupled DREAM designs live in :mod:`repro.core.dream_r` and
:mod:`repro.core.dream_c`.

These designs only decide when to mitigate: the controller's port
counts and journals every command they issue, as it does for every
other design, so ``repro trace`` renders their per-command RLP
histograms and DAR-occupancy summaries, which the aggregate checks in
:mod:`repro.analysis.rlp` cross-validate.
"""

from __future__ import annotations

from repro.dram.commands import Command
from repro.exec.spec import spec_factory
from repro.mc.policy import (MitigationPolicy, MitigationPort, NoMitigation,
                             PolicyContext, PolicyFactory, PolicyStats,
                             no_mitigation_factory, uniform_draws)
from repro.trackers.mint import MintWindow, window_for_threshold
from repro.trackers.para import probability_for_threshold

__all__ = [
    "CoupledMintPolicy",
    "CoupledParaPolicy",
    "MitigationPolicy",
    "MitigationPort",
    "NoMitigation",
    "PolicyContext",
    "PolicyFactory",
    "PolicyStats",
    "coupled_mint_factory",
    "coupled_para_factory",
    "no_mitigation_factory",
]


class CoupledParaPolicy(MitigationPolicy):
    """PARA with coupled sampling and mitigation (Figure 4).

    On each ACT the row is selected with probability ``p``; a selected row
    is closed with Pre+Sample and a mitigation command is issued right
    away, so the tolerated threshold is identical to PARA-with-NRR.  The
    mitigation command is configurable: NRR (prior work's assumption),
    DRFMsb, or DRFMab.
    """

    def __init__(self, context: PolicyContext, t_rh: int,
                 command: Command = Command.DRFM_SB,
                 probability: float | None = None) -> None:
        super().__init__()
        if t_rh < 1:
            raise ValueError("t_rh must be positive")
        self.t_rh = t_rh
        self.command = command
        self.probability = (probability if probability is not None
                            else probability_for_threshold(t_rh))
        self._uniform = uniform_draws(context.rng()).__next__
        self.name = f"para-{command.value.lower()}"

    def before_activate(self, bank: int, row: int, now_ps: int) -> bool:
        self.stats.activations_observed += 1
        if self._uniform() >= self.probability:
            return False
        self.stats.selections += 1
        if self.command is Command.NRR:
            # NRR mitigates the specified row directly; no DAR involved.
            self.port.issue(Command.NRR, bank, now_ps, row=row)
            return False
        return True

    def on_sampled(self, bank: int, row: int, now_ps: int) -> None:
        # Coupled design: mitigate as soon as the DAR is populated.
        self.port.issue(self.command, bank, now_ps)


class CoupledMintPolicy(MitigationPolicy):
    """MINT with coupled sampling and mitigation (Figure 6).

    Each bank runs an independent MINT window of ``W`` activations with a
    uniformly random selected slot.  The selected row is buffered at the
    MC (the paper's SAR) and — to avoid the timing side channel — both
    explicit sampling and the mitigation command are performed only when
    the window expires.
    """

    def __init__(self, context: PolicyContext, t_rh: int,
                 command: Command = Command.DRFM_SB,
                 window: int | None = None) -> None:
        super().__init__()
        self.t_rh = t_rh
        self.command = command
        self.window = window if window is not None else \
            window_for_threshold(t_rh)
        rng = context.rng()
        self.windows = [MintWindow(self.window, rng)
                        for _ in range(context.num_banks)]
        self.name = f"mint-{command.value.lower()}"

    def before_activate(self, bank: int, row: int, now_ps: int) -> bool:
        self.stats.activations_observed += 1
        state = self.windows[bank]
        # ``can >= window`` is MintWindow.expired inlined: this runs
        # once per ACT and the property descriptor is measurable there.
        if state.can >= state.window:
            selected = state.roll_over()
            if selected is not None:
                self.stats.selections += 1
                self._mitigate(bank, selected, now_ps)
        state.observe(row)
        return False

    def _mitigate(self, bank: int, row: int, now_ps: int) -> None:
        if self.command is Command.NRR:
            self.port.issue(Command.NRR, bank, now_ps, row=row)
        else:
            ready = self.port.explicit_sample(bank, row, now_ps)
            self.port.issue(self.command, bank, ready)


@spec_factory
def coupled_para_factory(t_rh: int,
                         command: Command = Command.DRFM_SB) -> PolicyFactory:
    """Factory for :class:`CoupledParaPolicy` (Figure 5 configurations)."""
    return lambda context: CoupledParaPolicy(context, t_rh, command)


@spec_factory
def coupled_mint_factory(t_rh: int,
                         command: Command = Command.DRFM_SB) -> PolicyFactory:
    """Factory for :class:`CoupledMintPolicy` (Figure 5 configurations)."""
    return lambda context: CoupledMintPolicy(context, t_rh, command)
