"""Gradient-precision learning lab.

Finite-support learning problems, oracle-mediated learning methods
(statistical queries, batched and full-batch variants, low-precision
gradient descent), sample extraction from batch query interfaces, and
the reductions that simulate one method kind inside another.
"""

from .numerics import (
    GridError,
    GridValue,
    EmpiricalAverage,
    RoundingOracle,
    RoundingStrategy,
    ToleranceError,
    clip1,
    grid_exponent,
    recover_batch_average,
    round_approximate,
    round_nearest_multiple,
    valid_rounding,
)
from .problems import (
    Batch,
    Example,
    FiniteDistribution,
    ParityPredictor,
    SQUARE_LOSS,
    TablePredictor,
    ZeroPredictor,
    clip_predictor,
    load_distribution,
    population_loss,
    prefix_probability,
    sample_batch,
    save_distribution,
)
from .paradigms import (
    BSGDMethod,
    BSQMethod,
    BSQOracle,
    BitStream,
    DiffModel,
    ErrorEstimate,
    FBGDMethod,
    FBSQMethod,
    FBSQOracle,
    GeneratorProgram,
    LabelRestriction,
    MethodRun,
    ModelSnapshot,
    NoiseAdversary,
    PACMethod,
    QueryRangeError,
    RestrictionError,
    SQMethod,
    SQOracle,
    SQQuery,
    Transcript,
    eval_method_error,
    parity_learner,
    run_bsgd,
    run_fbgd,
)
from .extract import (
    ExtractionProgram,
    Failure,
    extract_m_samples,
    fb_extract_all,
    sample_extract,
)
from .reductions import (
    PipelineError,
    ReductionReport,
    ReplayOracle,
    bsgd_to_bsq,
    bsq_to_sq,
    build_pipeline,
    compare_methods,
    decode_examples,
    fbsq_to_sq,
    pac_to_bsq,
    pac_to_fbsq,
    population_violation_rate,
    repeat_count,
    sq_split_alternating,
    sq_to_bsq,
    sq_to_fbsq,
)

__version__ = "0.1.0"
