"""Exception and warning types used across the package."""


class AttnFlowError(Exception):
    """Base class for all package errors.

    ``code`` is the stable, machine-parseable identifier emitted by the CLI.
    """

    @property
    def code(self) -> str:
        return type(self).__name__


# --- log ingestion ---------------------------------------------------------

class MalformedRecord(AttnFlowError):
    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class EmptyInput(AttnFlowError):
    pass


class MissingTimestamps(AttnFlowError):
    pass


# --- network construction --------------------------------------------------

class NegativeWeight(AttnFlowError):
    pass


class SelfEdgeOnSourceOrSink(AttnFlowError):
    pass


class InvalidEdge(AttnFlowError):
    pass


class AllNodesDropped(AttnFlowError):
    pass


# --- flow calculus ---------------------------------------------------------

class ZeroOutflowRow(AttnFlowError):
    def __init__(self, nodes):
        self.nodes = tuple(nodes)
        super().__init__(f"nodes with no out-edges: {', '.join(self.nodes)}")


class SingularSystem(AttnFlowError):
    def __init__(self, component, min_pivot: float):
        self.component = tuple(component)
        self.min_pivot = min_pivot
        names = ", ".join(str(c) for c in self.component) or "<unlocated>"
        super().__init__(
            f"absorbing system is numerically singular (pivot {min_pivot:.3e}); "
            f"trapped component: {names}"
        )


# --- distances -------------------------------------------------------------

class UnreachablePair(AttnFlowError):
    pass


# --- fits and regression ---------------------------------------------------

class DegenerateX(AttnFlowError):
    pass


class TooFewPoints(AttnFlowError):
    pass


class NegativeValue(AttnFlowError):
    pass


class AllZero(AttnFlowError):
    pass


class SingularDesign(AttnFlowError):
    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(f"collinear design matrix columns: {', '.join(self.columns)}")


class InsufficientData(AttnFlowError):
    pass


class TooFewRows(AttnFlowError):
    pass


# --- oracle ----------------------------------------------------------------

class NotCertified(AttnFlowError):
    pass


class InvalidSpec(AttnFlowError):
    pass


class MismatchedNetworks(AttnFlowError):
    pass


class MalformedTallies(AttnFlowError):
    """A tallies file that ``simulate`` could not have written."""


# --- warnings --------------------------------------------------------------

class NonMonotonicTimestampsWarning(UserWarning):
    """Per-user timestamps were out of order; records were re-sorted stably."""


class DroppedNodesWarning(UserWarning):
    """Uncertified nodes were removed from a network."""


class StepCapWarning(UserWarning):
    """One or more random walkers hit the per-walker step cap."""
