"""Exception hierarchy shared by all pxlap modules."""


class PxlapError(Exception):
    """Base class for all toolkit errors."""


class DomainError(PxlapError):
    """Invalid domain geometry: degenerate boxes, containment violations."""


class MeshMismatchError(PxlapError):
    """Fields defined on incompatible meshes were combined."""


class HypothesisError(PxlapError):
    """A structural hypothesis on the data is violated (e.g. p_min <= 1)."""


class NumericalError(PxlapError):
    """A numerical procedure failed in a way that signals pathological input."""


class ConstructionError(PxlapError):
    """Sub/supersolution construction could not satisfy its defining
    inequalities; the message names the violated one."""


class ConfigError(PxlapError):
    """Configuration file / CLI parameter errors. ``errors`` collects all
    individual messages so a config file is reported in one pass."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
