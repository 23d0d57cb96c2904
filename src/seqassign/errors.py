"""Exception types shared across the package.

`cli.main` maps RESOURCE_ERRORS (and MemoryError) to exit code 3, and any
other SeqAssignError, OSError or ValueError to exit code 2.
"""


class SeqAssignError(Exception):
    """Base class for all package errors."""


class GraphError(SeqAssignError):
    pass


class DisconnectedGraph(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class LoopEdge(GraphError):
    pass


class TooFewEdges(GraphError):
    pass


class InvalidVertex(GraphError):
    pass


class SubsetCapExceeded(SeqAssignError):
    pass


class OutsideSimplex(SeqAssignError):
    pass


class NoExit(SeqAssignError):
    pass


class MemoryBudgetExceeded(SeqAssignError):
    def __init__(self, required_bytes: int, budget_bytes: int):
        super().__init__(
            f"table needs {required_bytes} bytes, budget is {budget_bytes}"
        )
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes


class DiskSpaceExceeded(SeqAssignError):
    def __init__(self, required_bytes: int, free_bytes: int):
        super().__init__(f"cache file needs {required_bytes} bytes, disk has {free_bytes} free")
        self.required_bytes = required_bytes
        self.free_bytes = free_bytes


class LayerOutOfRange(SeqAssignError):
    pass


class NegativeEntry(SeqAssignError):
    pass


class IoFailure(SeqAssignError):
    pass


class FormatMismatch(SeqAssignError):
    pass


class GraphHashMismatch(SeqAssignError):
    pass


class StepTooLarge(SeqAssignError):
    pass


class IllegalStrategyMove(SeqAssignError):
    pass


class DomainError(SeqAssignError):
    pass


RESOURCE_ERRORS = (MemoryBudgetExceeded, DiskSpaceExceeded, SubsetCapExceeded)
