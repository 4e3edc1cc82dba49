"""grainflow: front-tracking grain growth on unstructured triangular meshes.

Both the boundary network and the grain interiors are meshed.  Nodes are
classed by topological degree (P at junctions, L on boundary lines, S in the
bulk), and geometric entities are reconstructed on top of them: surfaces as
element tags, lines as the entity ids of their L-nodes, and junction points
that name the lines ending there.  Each increment combines selective
remeshing, spline curvature, junction kinetics and Lagrangian motion.  The
engine runs partitioned over a message transport, with entity identities
kept consistent across workers; a sequential run is the one-worker case of
the same code.  Output is gathered as plain arrays and written by rank 0
without rebuilding a mesh.

Core modules:
    mesh          array-backed triangular mesh, ids never reused
    entities      topological tagging and geometric entity reconstruction
    remesh        selective collapse / smooth / glide / split / swap pass
    geometry      spline curvature and junction curvature evaluation
    motion        mobility, wall constraints, junction decomposition
    tessellation  weighted-Voronoi microstructure generation and meshing
    state         per-worker state: mesh, entities, the one id allocator
    wire          frames of typed arrays, the one format workers exchange
    transport     collective message transport (in-process and MPI)
    partitioning  dual-graph element partitioning
    protocol      the increment: ranking, scattering, shared nodes, motion
    stats         grain statistics, histograms, parallel efficiency
    runner, cli   simulation driver and command line front end
"""

__version__ = "0.1.0"

from .mesh import Mesh, build_mesh, signed_area, element_patch, dual_graph  # noqa: F401
