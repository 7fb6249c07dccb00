"""Word-representation and k-11-representation toolkit for graphs."""

from ._kernels import HAVE_EXT
from .core import (
    Graph,
    Permutation,
    Word,
    complete_graph,
    count_pattern_11,
    cycle_graph,
    empty_graph,
    induced_subword,
    initial_permutation,
    path_graph,
    reverse,
)
from .orient import (
    BudgetExceeded,
    Orientation,
    ShortcutWitness,
    directed_paths_with_arcs,
    find_shortcut,
    is_acyclic,
    is_semi_transitive,
    is_transitive,
    orient_by_coloring,
    search_semi_transitive,
    search_transitive,
)
from .verify import (
    Verdict,
    alternates,
    graph_of_word,
    induces_copy,
    is_permutational,
    is_t_uniform,
    verify_k11,
)
from .construct import (
    CompIndPartition,
    ConstructionError,
    SplitPartition,
    comp_ind_partition,
    comp_plus_ind_word,
    comparability_perm_rep,
    double_word,
    mycielski,
    mycielski_cycle_word,
    remove_edge_sets,
    remove_matching,
    split_word,
    three_perm_graph,
)
from .search import (
    CensusResult,
    SearchBudget,
    census_non_word_representable,
    chromatic_number,
    enumerate_nonisomorphic,
    find_k11_representant,
    find_uniform_representant,
    is_word_representable,
)

__version__ = "0.1.0"
