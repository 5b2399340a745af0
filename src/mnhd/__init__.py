"""Exact and numeric analysis of monotonic normalized heat diffusion (MNHD)
on small graphs: a graph satisfies the MNHD when t -> H_t(u,v)/H_t(u,u) is
nondecreasing for every pair of distinct vertices, H_t = exp(-t L) being the
heat kernel of the graph Laplacian."""

from .certify import (Certificate, MnhdReport, NumericVerdict, analyze,
                      certificate_bipartite, delta_sign_analysis,
                      numeric_check)
from .designs import (Design, DesignParams, build_design, catalog,
                      complement_design, crown_design, design_742,
                      fano_design, lambda_from_n_d, pair_design,
                      predicted_spectrum, read_design, validate_design,
                      write_design)
from .errors import MnhdError
from .graphs import (Graph, GraphFacts, adjacency, build_graph, cayley_s3,
                     crown, cycle, design_742_incidence, facts,
                     fano_incidence, incidence_graph, laplacian,
                     read_edge_list, wheel6, write_edge_list)
from .heat import (DeltaSet, default_time_grid, delta_set, heat_slices,
                   heat_stack, ratio_curve)
from .quadratic import QuadMatrix, QuadValue
from .spectral import (Eigensystem, FourSpectrum, VanDamCase,
                       classify_spectrum, closed_form_projectors,
                       exact_eigensystem, group_spectrum,
                       jacobi_eigendecompose, lagrange_projector,
                       minimal_polynomial)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
