"""Exception types shared across the package."""

from __future__ import annotations


class SelfsimError(Exception):
    """Base class for all package-specific failures."""


class LevelTooLarge(SelfsimError):
    """Requested tree level exceeds the configured memory guard."""


class MissingLabel(SelfsimError):
    """An operator term uses a generator letter the graph carries no label for."""


class NotSymmetric(SelfsimError):
    """Matrix fails the relative-asymmetry bound required by the eigensolver."""


class RadiusTooSmall(SelfsimError):
    """Shift radius below twice the operator norm."""


class PoleAtBeta(SelfsimError):
    """The renormalization map is undefined on the lines beta = +-2."""


class PoleHit(SelfsimError):
    """An orbit of the auxiliary Moebius map reached the pole z = 2."""
