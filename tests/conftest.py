"""Shared fixtures for the test suite.

Tests run against scaled-down systems (short refresh windows, small
request budgets) so the whole suite stays fast; full-size configurations
are exercised by dedicated shape/storage tests that never run the
simulator at full length.
"""

from __future__ import annotations

import pytest

from repro.dram.device import Organization
from repro.dram.subchannel import SubChannel
from repro.dram.timing import DDR5Timing
from repro.mc.policy import PolicyContext
from repro.sim.config import SimConfig, SystemConfig

# The paper-table checks are plain asserts in a helper module; rewrite
# them so a failing ordering reports the values it compared.
pytest.register_assert_rewrite("tests.paper_tables")


@pytest.fixture
def timing() -> DDR5Timing:
    """Scaled timing: JEDEC per-command values, 64-REF window."""
    return DDR5Timing.scaled(64)


@pytest.fixture
def organization() -> Organization:
    """Organization matched to the 64-REF window (1024 rows/bank)."""
    return Organization.scaled(64)


@pytest.fixture
def subchannel(timing: DDR5Timing,
               organization: Organization) -> SubChannel:
    """A fresh 32-bank sub-channel with mitigation logging on."""
    return SubChannel(0, timing, organization.banks,
                      organization.banks_per_group,
                      record_mitigations=True)


@pytest.fixture
def context(timing: DDR5Timing,
            organization: Organization) -> PolicyContext:
    """Policy context for the scaled sub-channel."""
    return PolicyContext(
        subchannel=0,
        num_banks=organization.banks,
        banks_per_group=organization.banks_per_group,
        rows_per_bank=organization.rows_per_bank,
        timing=timing,
        seed=42,
    )


@pytest.fixture
def small_system() -> SystemConfig:
    """A 2-core system for fast integration runs."""
    base = SystemConfig.baseline(refs_per_window=64, num_cores=2)
    return base


@pytest.fixture
def small_sim() -> SimConfig:
    """A small request budget for fast integration runs."""
    return SimConfig(requests_per_core=1_500, seed=7)
