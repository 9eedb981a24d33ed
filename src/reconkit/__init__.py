"""reconkit: induced-subgraph incidence matrices and exact invariant reconstruction.

The package builds the incidence matrix N(G) and edge-labelled poset of the
induced-subgraph types of a finite simple graph, and reconstructs graph
invariants (characteristic polynomial, rank polynomial, spanning-tree,
unicyclic and hamiltonian-cycle counts) from three kinds of partial data:

  * the unlabelled N-matrix               -> reconkit.nrecon
  * the complete polynomial deck          -> reconkit.polydeck
  * the vertex deck, via type expansion   -> reconkit.whitney

Every pipeline is validated against independent brute-force oracles
(reconkit.oracle) on exhaustive small-graph sweeps; see the tests and the
`reconkit sweep` command.
"""

from .errors import (ConsistencyError, DomainError, Graph6ParseError,
                     InconsistentDeckError, InvalidMatrixError,
                     NotReconstructibleError, ReconkitError)
from .graphcore import (Graph, all_graphs, blocks, complete, cycle,
                        disjoint_union, elementary_graph, empty_graph, graph,
                        induced_subgraph, parse_graph6, path, vertex_deck,
                        write_graph6)
from .isotype import (IsoClass, canonical_code, count_induced, count_subgraphs,
                      kelly_count)
from .deck import (Elp, LambdaDeck, NMatrix, canonical_nmatrix,
                   child_nmatrices, count_empty_induced, elp_automorphisms,
                   elp_from_nmatrix, infer_v_e, lambda_deck, nmatrix,
                   nmatrix_from_elp, strip)
from .combi import Polynomial
from .oracle import charpoly_oracle, rankpoly_oracle
from .nrecon import Reconstruction, reconstruct
from .polydeck import PolyDeck, build_polydeck, charpoly_from_polydeck
from .whitney import (block_type, charpoly_from_vertex_deck, count_type,
                      covers_of_type)

__version__ = "0.1.0"
