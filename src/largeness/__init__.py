"""Largeness certificates for finitely presented groups."""

from .words import (Presentation, Word, free_reduce, cyclic_reduce, substitute,
                    is_commutator, is_proper_power, parse_presentation,
                    parse_word, word_to_text)
from .abelian import (AbelianInvariants, Chi, abelianization, exponent_matrix,
                      hom_to_Z_basis, image_span_rank, smith_normal_form)
from .alexander import (LaurentPoly, PrimeField, QQ, alexander_matrix,
                        alexander_polynomial, chi_specialize, coordinate_change,
                        fox_derivative, rank_witness)
from .subgroups import (BoundExceeded, CosetTable, coset_enumerate,
                        low_index_subgroups, reidemeister_schreier,
                        tietze_simplify)
from .stallings import (StallingsGraph, fold, graph_basis, hall_overgroup,
                        is_covering, sg_membership)
from .torus import (Endomorphism, PeriodicWitness, endo_apply,
                    endo_is_injective, mapping_torus, preimage_subgroup,
                    stable_pullback, torus_bs_pipeline, torus_zz_pipeline,
                    witness_verify)
from .certify import (Certificate, CertifyConfig, Verdict, certify,
                      verify_certificate)

__all__ = [name for name in dir() if not name.startswith("_")]
