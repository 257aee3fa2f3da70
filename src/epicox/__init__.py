"""Finite graphs, the reflection groups built over them, and the machinery
that recovers a graph from its group.

The working pipeline: reduce a graph with f_reduce, realize it as a block
reflection system with build_C, classify the block subgroups up to special
conjugacy, rebuild the graph from commuting block involutions, and lift
graph epimorphisms to group homomorphisms that induce the original map.
"""

from .construction import (BLOCK_SIZE, LabeledCoxeterSystem, build_C,
                           build_L4, verify_L4_is_S5)
from .coxeter import (INFINITE, CoxeterMatrix, enumerate_parabolic,
                      evaluate, identity, invert, is_descent, is_spherical,
                      leading_minors, length, longest_element, mul, mul_gen,
                      preserves_form, reduced_word, simple_reflection)
from .errors import (EnumerationCapExceeded, FalsificationError,
                     InternalInconsistencyError, PreconditionError)
from .graphs import (FiniteGraph, PointedReflexiveGraph, VertexMap,
                     all_labeled_graphs, f_reduce, find_epimorphism,
                     find_injective_hom, make_pointed)
from .homomorphisms import (GeneratorMap, Presentation, induced_k_map,
                            lift_graph_epi, presentation_of, verify_relators)
from .parabolics import (ConjugacyClass, classify_s5_classes,
                         conjugacy_component, ks_step)
from .reconstruction import (KGraph, centralizer_certificate,
                             commuting_witness, k_graph, verify_reconstruction)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_SIZE", "INFINITE", "ConjugacyClass", "CoxeterMatrix",
    "EnumerationCapExceeded", "FalsificationError", "FiniteGraph",
    "GeneratorMap", "InternalInconsistencyError", "KGraph",
    "LabeledCoxeterSystem", "PointedReflexiveGraph", "PreconditionError",
    "Presentation", "VertexMap", "all_labeled_graphs", "build_C", "build_L4",
    "centralizer_certificate", "classify_s5_classes", "commuting_witness",
    "conjugacy_component", "enumerate_parabolic", "evaluate", "f_reduce",
    "find_epimorphism", "find_injective_hom", "identity", "induced_k_map",
    "invert", "is_descent", "is_spherical", "k_graph", "ks_step",
    "leading_minors", "length", "lift_graph_epi", "longest_element",
    "make_pointed", "mul", "mul_gen", "preserves_form", "presentation_of",
    "reduced_word", "simple_reflection", "verify_L4_is_S5",
    "verify_reconstruction", "verify_relators",
]
