"""Exception types shared across the package."""


class FibercommError(Exception):
    pass


class DisconnectedGraph(FibercommError):
    pass


class NonIncidentEdges(FibercommError):
    pass


class NotALoop(FibercommError):
    pass


class UnknownEdge(FibercommError):
    pass


class NotHomotopyEquivalence(FibercommError):
    pass


class NotAnAutomorphism(FibercommError):
    pass


class InfiniteIndex(FibercommError):
    pass


class ResourceBound(FibercommError):
    pass


class NotRotationless(FibercommError):
    pass


class ZeroMatrix(FibercommError):
    pass

