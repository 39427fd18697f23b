"""Error types and the search-budget protocol shared by all exact solvers."""

DEFAULT_BUDGET = 10**8


class ThresholdLabError(Exception):
    pass


class DomainError(ThresholdLabError):
    """An operation was called outside its stated domain."""


class GraphFormatError(ThresholdLabError):
    """Malformed graph input. Carries the byte offset of the fault."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class BudgetExceededError(ThresholdLabError):
    """An exact search ran out of nodes.

    Distinct from a negative answer: the solvers never report a wrong exact
    value, they fail loudly instead.
    """

    def __init__(self, operation, limit):
        super().__init__(f"{operation}: search budget of {limit} nodes exceeded")
        self.operation = operation
        self.limit = limit


class SizeCapExceededError(BudgetExceededError):
    """An input is larger than a fixed size cap of a solver, counted in
    ``unit`` (vertices, trees, ...) rather than in search nodes."""

    def __init__(self, operation, limit, unit):
        ThresholdLabError.__init__(self, f"{operation}: size cap of {limit} {unit} exceeded")
        self.operation = operation
        self.limit = limit


class Budget:
    """Mutable node counter handed down through a single exact search."""

    __slots__ = ("limit", "used", "operation")

    def __init__(self, limit=None, operation="search"):
        self.limit = DEFAULT_BUDGET if limit is None else limit
        self.used = 0
        self.operation = operation

    def spend(self, amount=1):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(self.operation, self.limit)


def as_budget(budget, operation):
    if budget is None or isinstance(budget, int):
        return Budget(budget, operation)
    return budget
