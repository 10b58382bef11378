"""Exception types shared across the pipeline.

Every error carries a stable ``code`` string so the CLI can emit one-line
machine-parsable error records.
"""


class PipelineError(Exception):
    code = "error"


class KBParseError(PipelineError):
    code = "parse"


class DuplicateIdError(PipelineError):
    code = "duplicate-id"


class DuplicateTripleError(PipelineError):
    code = "duplicate-triple"


class DanglingIdError(PipelineError):
    code = "dangling-id"


class MissingFormError(PipelineError):
    code = "missing-form"


class SameLanguageError(PipelineError):
    code = "same-language"


class InsufficientTriplesError(PipelineError):
    code = "insufficient-triples"


class ZeroWeightsError(PipelineError):
    code = "all-zero-weights"


class RenderOverflowError(PipelineError):
    code = "render-overflow"


class QuestionTooLongError(PipelineError):
    code = "question-too-long"


class NoMaskedPositionsError(PipelineError):
    code = "no-masked-positions"


class GoldPositionMaskedError(PipelineError):
    code = "gold-position-masked"


class NonFiniteError(PipelineError):
    code = "non-finite"


class InfeasibleCountError(PipelineError):
    code = "infeasible-count"


class LexiconCollisionError(PipelineError):
    code = "lexicon-collision"


class ConfigError(PipelineError, ValueError):
    """Also a ValueError: ``load_checkpoint`` catches an invalid ModelConfig as one."""
    code = "config"


class ArtifactMismatchError(PipelineError):
    code = "artifact-mismatch"
