"""Weighted means and numerical verification of weighted Kedlaya-type
prefix-mean inequalities.

The public surface re-exports the main types and operations; see the
individual modules for the full API:

- :mod:`kedlaya.weights` - weight vectors, admissibility classes, algebra
- :mod:`kedlaya.means` - mean handles, evaluation, axiom residuals
- :mod:`kedlaya.deviation` - the root solver and closed-form families
- :mod:`kedlaya.concavity` - Jensen concavity sampling and criteria
- :mod:`kedlaya.stepfn` - exact rational step functions and the proof
  construction
- :mod:`kedlaya.inequality` - both sides of the inequality, verdicts,
  necessity probes, violation search
"""

from .concavity import (
    ConcavityVerdict,
    cdm_condition,
    estar_transform,
    gini_concavity_condition,
    qa_concavity_condition,
    sample_jensen_concavity,
    sample_midpoint_concavity,
)
from .deviation import (
    DeviationSpec,
    GeneratorSpec,
    gini,
    gini21_counterexample,
    homogeneous_deviation,
    log_generator,
    power_generator,
    power_mean,
    quasi_arithmetic,
    shifted_power,
    solve_deviation_mean,
)
from .domain import Interval
from .inequality import (
    KedlayaReport,
    NecessityProbe,
    ViolationWitness,
    affine_conjugate,
    check_kedlaya,
    counterexample_mu_prime_0,
    kedlaya_sides,
    necessity_probe,
    partial_arithmetic_means,
    reflect,
    search_violation,
    step_inequality,
)
from .means import (
    AxiomResidual,
    MeanHandle,
    arithmetic_base,
    check_elimination,
    check_nullhomogeneity,
    check_reduction,
    check_symmetry,
    evaluate,
    mean_from_id,
    mean_from_json,
    mean_to_json,
    mean_value_residual,
    sample_axiom_residuals,
    weighted_from_repetition_invariant,
)
from .stepfn import (
    ProportionalSet,
    QInterval,
    QRectangle,
    SimpleFunction1D,
    SimpleFunction2D,
    build_proof_function,
    function_from_json,
    function_to_json,
    jensen_fubini_sides,
    m_integral,
    proportional_set,
    rect,
    verify_proof_construction,
    verify_proportionality,
)
from .weights import (
    WeightVector,
    clear_denominators,
    is_in_V,
    make_weights,
    partial_sums,
    scale,
    shuffle,
    weights_from_strings,
)

__version__ = "0.1.0"
