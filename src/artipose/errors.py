"""Exception types shared across the package."""


class ArtiposeError(Exception):
    """Base class for all package-specific errors."""


# -- geometry ---------------------------------------------------------------

class DegenerateRotation(ArtiposeError):
    """6D rotation input has a near-zero or near-parallel column pair."""


class EmptyCloud(ArtiposeError):
    """An operation received a point cloud with zero points."""


# -- synth ------------------------------------------------------------------

class GraspFailure(ArtiposeError):
    """No sampled finger configuration produced enough hand-object contact."""


class EmptyView(ArtiposeError):
    """The camera view covers too few (or zero) scene pixels."""


class FewContacts(ArtiposeError):
    """A view's candidate points hold fewer hand contacts than required, so
    the cloud sampled from them would too."""


# -- nn ---------------------------------------------------------------------

class ShapeMismatch(ArtiposeError):
    """Array shapes are inconsistent with the operation's contract."""


class StaleTape(ArtiposeError):
    """Backward was called on a tape recorded against older parameters."""


# -- priors -----------------------------------------------------------------

class PartCountMismatch(ArtiposeError):
    """Box layout part count differs from the discriminator's configured P."""


class BadTimestep(ArtiposeError):
    """Diffusion timestep lies outside [1, T]."""


# -- evalcli ----------------------------------------------------------------

class IdMismatch(ArtiposeError):
    """Prediction and ground-truth scene ids do not line up."""


class CountMismatch(ArtiposeError):
    """Joint or vertex counts differ between prediction and ground truth."""


class UsageError(ArtiposeError):
    """Bad command-line invocation."""
