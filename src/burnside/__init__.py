"""Exact Burnside-ring computations and Artin/Brauer induction certificates."""

from .exact import (
    Cyclotomic,
    IntMatrix,
    extended_euclid_set,
    smith_normal_form,
    solve_triangular_integer,
)
from .groups import (
    Group,
    SubgroupLattice,
    double_cosets,
    is_n_hyper,
    p_perfect_core,
    parse_group,
    subgroup_lattice,
)
from .marks import (
    BurnsideElement,
    GhostElement,
    MarksTable,
    marks_table,
    phi,
    solve_ghost,
)
from .artin import abelian_family, artin_certificate, idempotent_multiple, in_ideal_jn
from .brauer import brauer_certificate, i_pn, local_idempotent
from .characters import (
    CharacterTable,
    ClassFunction,
    character_table,
    frobenius_check,
    induce,
    load_character_table,
    mackey_check,
    perm_character,
    restrict,
)
from .restriction import (
    EqualizerLattice,
    TableProvider,
    equalizer_lattice,
    verify_artin_restriction,
    verify_brauer_restriction,
)
from .lie import PhiData, generator_count, load_phi_data, order_n_lie, product

__version__ = "0.1.0"
