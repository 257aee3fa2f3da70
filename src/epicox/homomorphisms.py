"""Presentations, generator-shaped maps, lifts of graph maps, and the
induced map on class vertices.

A generator map sends each source generator either to a target generator or
to the identity.  That is exactly the shape produced by lifting a
base-preserving map of pointed graphs: position i of the block of v goes to
position i of the block of f(v), or to the identity when f collapses v to
the base.  For maps of this shape the labels alone decide whether the
assignment extends to a group homomorphism, and what each block maps onto.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .construction import LabeledCoxeterSystem
from .coxeter import INFINITE, CoxeterMatrix, Word
from .errors import (FalsificationError, InternalInconsistencyError,
                     PreconditionError)
from .graphs import VertexMap, is_homomorphism
from .reconstruction import KGraph


@dataclass(frozen=True)
class Presentation:
    names: tuple[str, ...]
    relators: tuple[Word, ...]


def presentation_of(C: CoxeterMatrix) -> Presentation:
    """Squares of the generators plus one alternating relator per finite
    off-diagonal label."""
    relators = [(i, i) for i in range(C.n)]
    for i in range(C.n):
        for j in range(i + 1, C.n):
            m = C.m[i][j]
            if m != INFINITE:
                relators.append((i, j) * m)
    return Presentation(C.names, tuple(relators))


def presentation_to_text(p: Presentation) -> str:
    lines = ["generators: " + " ".join(p.names)]
    for rel in p.relators:
        if len(rel) == 2 and rel[0] == rel[1]:
            lines.append(f"{p.names[rel[0]]}^2")
        else:
            i, j = rel[0], rel[1]
            lines.append(f"({p.names[i]} {p.names[j]})^{len(rel) // 2}")
    return "\n".join(lines) + "\n"


def presentation_to_json_dict(p: Presentation) -> dict:
    return {"generators": list(p.names),
            "relators": [[p.names[i] for i in rel] for rel in p.relators]}


@dataclass(frozen=True)
class GeneratorMap:
    """Per-generator assignment; None sends a generator to the identity.

    ``relators_hold`` runs ``verify_relators`` on first use and keeps the
    answer, so a map checked once (as every lift is) is not checked again."""
    source: CoxeterMatrix
    target: CoxeterMatrix
    images: tuple[int | None, ...]

    def __post_init__(self):
        if len(self.images) != self.source.n:
            raise PreconditionError("need one image per source generator")
        for x in self.images:
            if x is not None and not (0 <= x < self.target.n):
                raise PreconditionError(f"image index {x} out of range")

    @cached_property
    def relators_hold(self) -> bool:
        return verify_relators(self)


def map_word(phi: GeneratorMap, word) -> Word:
    return tuple(phi.images[i] for i in word if phi.images[i] is not None)


def verify_relators(phi: GeneratorMap) -> bool:
    """Do all source relators evaluate to the identity in the target?

    Decided from the labels: squares always hold, and (s_i s_j)^m holds
    exactly when the images are equal, or one is the identity and m is
    even, or they are distinct generators with target label m.  An
    infinite label carries no relator, so only the source's finite pairs
    are read.
    """
    tm, img = phi.target.m, phi.images
    for i, j, m in phi.source.finite_pairs:
        a, b = img[i], img[j]
        if a == b:
            continue
        if a is None or b is None:
            if m % 2:
                return False
        elif tm[a][b] != m:
            return False
    return True


def is_onto_generators(phi: GeneratorMap) -> bool:
    hit = {x for x in phi.images if x is not None}
    return hit == set(range(phi.target.n))


def lift_graph_epi(f: VertexMap, source_system: LabeledCoxeterSystem,
                   target_system: LabeledCoxeterSystem) -> GeneratorMap:
    """Lift a base-preserving map of pointed graphs to a generator map.

    The pointed graphs are the systems' ``pointed`` graphs, made reflexive
    with the base appended last (the make_pointed convention), so f must
    have sizes n+1 and m+1 and send index n to index m.  Position i of the
    block of v maps to position i of the block of f(v), or to the identity
    when f(v) is the base.
    """
    src_p, tgt_p = source_system.pointed, target_system.pointed
    if f.source_size != src_p.n or f.target_size != tgt_p.n:
        raise PreconditionError("map sizes do not match the pointed graphs")
    if f.image[src_p.base] != tgt_p.base:
        raise PreconditionError("map does not preserve the base vertex")
    if not is_homomorphism(f, src_p.graph, tgt_p.graph):
        raise PreconditionError("map is not a homomorphism of pointed graphs")
    # generators are numbered block by block in position order, so the
    # images in generator order are the image blocks in vertex order
    to = target_system.pointed_blocks
    images = tuple(h for v in range(source_system.vertex_count)
                   for h in to[f.image[v]])
    phi = GeneratorMap(source_system.matrix, target_system.matrix, images)
    if not phi.relators_hold:
        raise InternalInconsistencyError(
            "lift of a graph homomorphism failed relator verification")
    return phi


def _classify_block_image(target: KGraph, gen_images: tuple) -> int:
    """The pointed class vertex of the standard subgroup on the given target
    generators: at most one generator collapses to the base, a member of a
    target class gives that class, and any other set aborts loudly."""
    J = frozenset(j for j in gen_images if j is not None)
    if len(J) <= 1:
        return len(target.classes)
    u = target.class_of_member.get(J)
    if u is not None:
        return u
    names = [target.system.matrix.names[j] for j in sorted(J)]
    raise FalsificationError(
        f"a block image generates the standard subgroup on {names}, which "
        "violates the order dichotomy {1, 2, 120} for block quotients")


def induced_k_map(source_system: LabeledCoxeterSystem, target: KGraph,
                  phi: GeneratorMap) -> VertexMap:
    """The map a relator-respecting map induces from the source's pointed
    graph to the target's pointed class graph, the base appended last.

    A block's image is the standard subgroup on the set J of its image
    generators.  The relators force J to be empty, one generator, or a
    labelled 4-chain, and the target's class census shows the 4-chains are
    exactly the target blocks, each alone in its class.  So |J| <= 1
    collapses the class to the base point and J equal to a target block
    gives that block's class.  The base goes to the base.  Each block's
    image goes through ``_classify_block_image``.
    """
    if phi.source != source_system.matrix or phi.target != target.system.matrix:
        raise PreconditionError("map endpoints do not match the systems")
    if not phi.relators_hold:
        raise PreconditionError("map does not respect the source relators")
    img, base = phi.images, len(target.classes)
    image = [_classify_block_image(target, tuple(img[g] for g in gens))
             for gens in source_system.block_generators]
    return VertexMap(len(image) + 1, base + 1, (*image, base))
