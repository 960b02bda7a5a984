"""Finite-model toolkit for dilating operator-valued systems of
imprimitivity and representation-induced framings, with exact
linear-algebra verification at every step."""

from .algebra import (FiniteGroup, GroupAction, MeasurableSpace, Multiplier,
                      act_on_set, check_action, check_group, check_multiplier,
                      check_semigroup, cyclic_group, left_translation_action,
                      symmetric_group, trivial_multiplier)
from .banach import (DilationSpaceAlpha, DilationSystem, InducedDilationNorm,
                     build_minimal_dilation, check_q_range_invariance,
                     induced_norm_from_injective, minimality_bound,
                     restrict_probability, verify_dilation)
from .framing import (DilatedBasis, FramingSystem, build_dilated_basis,
                      cyclic_shift_framing, standard_basis_framing,
                      verify_basis_dilation, verify_framing)
from .hilbert import build_hilbert_dilation, verify_hilbert_dilation
from .imprimitivity import (ImprimitivitySystem, ProjectiveRep, check_rep,
                            check_system)
from .linalg import (NormTag, NormedSpace, Tolerance, dual_pair, hermitian_eig,
                     hermitian_inner, is_isometry, numeric_rank,
                     product_defects, subset_sums, vec_norm)
from .ovm import Ovm, OvmClass, bessel_ovm, classify, evaluate, framing_ovm
from .pipeline import run_pipeline
from .report import CheckRecord, Report
from .scenario import (Scenario, gen_example, load_scenario, save_scenario,
                       scenario_digest, serialize_scenario)

__version__ = "0.1.0"
