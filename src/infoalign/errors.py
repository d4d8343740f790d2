"""Exception types shared across the package.

Every failure mode exposed by the public API raises one of these, so callers
(including the CLI) can distinguish domain errors from genuine bugs.
"""


class InfoAlignError(Exception):
    """Base class for all domain errors raised by this package."""


# --- SMILES parsing ---

class SmilesError(InfoAlignError):
    """Base class for SMILES parse failures."""


class SmilesSyntaxError(SmilesError):
    """Illegal token or malformed construct in a SMILES string."""


class RingUnclosedError(SmilesError):
    """A ring-closure digit was opened but never closed."""


class UnbalancedParenError(SmilesError):
    """Branch parentheses do not balance."""


class UnsupportedFeatureError(SmilesError):
    """Valid SMILES outside the supported subset (stereo, isotopes, fragments)."""


# --- vector utilities ---

class ZeroVectorError(InfoAlignError):
    """Cosine similarity requested for an all-zero vector."""


# --- context graph ---

class DuplicateIdError(InfoAlignError):
    """Node id already present in the graph."""


class FinalizedError(InfoAlignError):
    """Mutation attempted on a finalized graph."""


class UnknownNodeError(InfoAlignError):
    """Referenced node id does not exist."""


class SelfLoopError(InfoAlignError):
    """Edge endpoints must be distinct."""


class MixedDimensionsError(InfoAlignError):
    """Similarity edges require one feature dimensionality per node kind."""


class CorruptFileError(InfoAlignError):
    """Binary file failed magic/version/checksum validation."""


class TableFormatError(InfoAlignError):
    """Malformed node/edge table row; message carries the line number."""


# --- walker ---

class NotAMoleculeError(InfoAlignError):
    """Walk start node is not a molecule."""


# --- differentiable core ---

class ShapeMismatchError(InfoAlignError):
    """Tensor operation received incompatible shapes."""


# --- model ---

class NoDecoderError(InfoAlignError):
    """No decoder registered for the target's (kind, dimension)."""


class PathMismatchError(InfoAlignError):
    """Walk path does not start at the molecule being encoded."""


# --- MI estimation ---

class BatchTooSmallError(InfoAlignError):
    """InfoNCE requires at least two samples per batch."""


# --- evaluation ---

class SingleClassError(InfoAlignError):
    """AUC requires both a positive and a negative example."""


class LengthMismatchError(InfoAlignError):
    """Paired sequences have different lengths."""


class TooFewError(InfoAlignError):
    """Not enough items to split."""


class DimensionMismatchError(InfoAlignError):
    """Feature dimensionality does not match the registered decoder."""
