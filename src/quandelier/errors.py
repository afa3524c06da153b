"""Exception types shared across the package."""


class QuandelierError(Exception):
    pass


class BudgetExceeded(QuandelierError):
    """An enumeration grew past its budget; the object may be infinite."""

    def __init__(self, reached, what="enumeration"):
        self.reached = reached
        self.what = what
        super().__init__(f"{what} exceeded budget at size {reached}")


class InfiniteGroup(BudgetExceeded):
    """The enumerated group is provably infinite, so no budget suffices.

    Raised before any enumeration starts; components is the number of
    connected components that certifies it.
    """

    def __init__(self, components):
        self.components = components
        self.reached = None
        self.what = "degree-zero adjoint subgroup"
        QuandelierError.__init__(
            self, f"{self.what} is infinite: the quandle has {components} "
                  f"connected components")


class NotAQuandle(QuandelierError):
    """An operation table violates one of the quandle axioms.

    axiom is "Q1", "Q2" or "Q3"; witness is the offending (a,), (a, b)
    or (a, b, c) tuple of 0-based elements.
    """

    def __init__(self, axiom, witness, message=None):
        self.axiom = axiom
        self.witness = witness
        super().__init__(message or f"{axiom} violated at {witness}")


class NotRightInvertible(NotAQuandle):
    """Some right-translation column of the table is not a permutation."""

    def __init__(self, column):
        super().__init__("Q2", (column,),
                         f"column {column} is not a permutation")


class NotAHomomorphism(QuandelierError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"map is not a quandle homomorphism at {witness}")


class NotACocycle(QuandelierError, ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not a cocycle, witness {witness}")


class EmptyUnion(QuandelierError):
    pass


class ParseError(QuandelierError):
    pass
