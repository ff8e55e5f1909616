"""oscdict: deterministic low-coherence dictionaries in C^p built from
Heisenberg and Weil representation eigenbases, with coherence analytics
and matching-pursuit sparse recovery."""

from .analysis import (CoherenceReport, coherence, shifted_coherence,
                       verify_orthonormal)
from .dictionary import (Dictionary, expected_size, extended_dictionary,
                         heisenberg_dictionary, nonsplit_oscillator,
                         oscillator_dictionary, split_oscillator)
from .field import FpField, is_prime, prime_factors
from .heisenberg import HeisenbergElement, h_mul, identity, omega, pi
from .linalg import unitarity_defect
from .sl2 import (BruhatFactorization, SL2Element, TorusDescriptor, bruhat,
                  nonsplit_tori, sl2_elements, sl2_inv, sl2_mul, sl2_order,
                  sp_action, split_representatives)
from .sparse import (RecoveryError, SparseRepresentation, omp,
                     recovery_experiment, synthesize)
from .storage import (CorruptDictionaryError, load_dictionary, load_signal,
                      save_dictionary, save_signal)
from .weil import egorov_defect, fourier_op, rho, scalar_defect

__version__ = "0.1.0"
