"""Exception types shared across the package."""


class A1ModError(Exception):
    """Base class for all domain errors."""


class ShapeMismatch(A1ModError):
    """Matrix shapes disagree with the graded dimensions they connect."""


class RelationViolation(A1ModError):
    """A module presentation fails one of the defining relations."""

    def __init__(self, degree, relation):
        self.degree = degree
        self.relation = relation
        super().__init__(f"relation {relation} fails at degree {degree}")


class NotQ0Local(A1ModError):
    """Classification was asked for a module with nonzero Q1-homology."""

    def __init__(self, degree, detail=""):
        self.degree = degree
        super().__init__(f"module is not Q0-local (first failure at degree {degree})"
                         + (f": {detail}" if detail else ""))


class NotStabilized(A1ModError):
    """Tower counting saw dimensions that never settled in the window."""

    def __init__(self, stem, observed):
        self.stem = stem
        self.observed = observed
        super().__init__(f"tower count at stem {stem} did not stabilize: {observed}")


class IncomparableCutoffs(A1ModError):
    """Descriptors with open-ended seagulls cannot be compared across cutoffs."""


class TruncationTooTight(A1ModError):
    """A computation needs degrees beyond the module's truncation cutoff."""


class ParseError(A1ModError):
    """Module-file syntax or consistency error, with a line number."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")
