"""Shared fixtures and the acceptance-report hook.

Acceptance tests append one line per criterion to REPORT; the terminal
summary prints them together at the end of the run so the overall
pass/fail pattern is visible in one block.
"""
import numpy as np
import pytest

REPORT = []


def record_criterion(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    REPORT.append(f"criterion {number}: {status}  {detail}")
    return passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not REPORT:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(REPORT):
        terminalreporter.write_line(line)


def modulated_jump_sensor():
    """The resonant two-level emitter with its decay rate modulated in time,
    gamma(t) = 1 + sin(3 t) / 2: a jump sampled bin by bin, where every
    built-in sensor's jump is one matrix for all bins."""
    from cmsense import two_level_model
    from cmsense.models import SensorModel
    base = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    sge = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return SensorModel(dim=2, hamiltonian=base.hamiltonian,
                       jump=lambda t, th: np.sqrt(1.0 + 0.5 * np.sin(3.0 * t)) * sge,
                       initial_state=base.initial_state)


@pytest.fixture
def resonant_emitter():
    from cmsense import two_level_model
    return two_level_model(omega=1.0, delta=0.0, gamma=1.0)


@pytest.fixture
def detuned_emitter():
    from cmsense import two_level_model
    return two_level_model(omega=1.0, delta=0.3, gamma=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
