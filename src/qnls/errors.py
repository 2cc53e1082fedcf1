"""Exception types shared across the package, and the rule that turns a
float fault into one of them (`float_faults_raise`)."""

from contextlib import contextmanager

import numpy as np


class QnlsError(Exception):
    """Base class for all package-specific errors."""


# --- grid / series construction ---

class NonPositiveStep(QnlsError):
    """A sampling step (dt or dx) is zero or negative."""


# --- fractional calculus ---

class OrderOutOfRange(QnlsError):
    """Fractional order outside the operational range (-2, inf)."""


class UnsupportedSupport(QnlsError):
    """A signal outside the differentiation branch's preconditions: it must
    vanish at its start and have at least 3 samples."""


# --- spectral operations ---

class NonPositiveA(QnlsError):
    """Dispersion coefficient a must be positive."""


class NonFiniteNorm(QnlsError):
    """A discrete Bourgain-type norm, or the field transform it weighs, is not finite."""


# --- dispersion / resonance ---

class BelowResonance(QnlsError):
    """mu(a) requested for a < 1/2 where the formula is undefined."""


class ResonantA(QnlsError):
    """No lower bound is claimed at the resonant value a = 1/2."""


class ParamDomainViolated(QnlsError):
    """Estimate parameters outside the lemma's admissible window."""


# --- quadrature / bilinear sweeps ---

class QuadratureNonConvergent(QnlsError):
    """Estimated truncation tail exceeds 5% of the integral value."""


class ZeroDenominator(QnlsError):
    """A ratio was requested with a vanishing denominator."""


# --- boundary forcing operator ---

class LambdaOutOfRange(QnlsError):
    """Forcing-class order lambda outside the operational window."""


class SingularQuadratureFail(QnlsError):
    """Oscillatory singular quadrature error estimate exceeds 1%."""


class WindowViolation(QnlsError):
    """(lambda, s) outside the stated window of the requested estimate branch."""


class SupportViolation(QnlsError):
    """Test function or datum support leaves the region where the operator is defined."""


class NonUniformGrid(QnlsError):
    """The ray convolution of a lambda != 0 class needs uniformly spaced, increasing xs."""


# --- IBVP solver ---

class BlowUpDetected(QnlsError):
    """Solution norm exceeded 1e6 times its initial scale, or a step met a non-finite value."""


class NonConvergentNonlinearIteration(QnlsError):
    """Per-step fixed-point sweeps failed to reduce the update."""


class EmptyLedger(QnlsError):
    """Mass ledger has no recorded samples."""


class DivergentIteration(QnlsError):
    """Contraction iterate distances increased for three consecutive steps."""


# --- CLI ---

class UnknownCommand(QnlsError):
    """Experiment command not recognized."""


class InvalidConfig(QnlsError):
    """Experiment configuration missing or malformed."""


@contextmanager
def float_faults_raise(what: str):
    """Raise numpy's default-warned float faults (overflow, invalid operation,
    division by zero) inside the block, as ParamDomainViolated naming `what`
    and the fault.  A fault that the caller's numpy error state ignores
    stays ignored."""
    try:
        with np.errstate(**{k: "raise" for k, v in np.geterr().items() if v == "warn"}):
            yield
    except FloatingPointError as exc:
        raise ParamDomainViolated(f"{what}: {exc}") from exc
