"""cytforge: exact-arithmetic certification of torsion Calabi-Yau, strong-KT
and balanced structures on principal 2-torus bundles over rational surfaces,
with cone checking, total-space topology, and catalogued search."""

from .catalog import CatalogRecord, VerdictFlags, append_records, load_catalog
from .certificates import Certificate, build_certificate
from .cone import ConeCertificate, is_kahler, negative_curves
from .cyt import (
    AnsatzSolution,
    BundleSpec,
    CytCertificate,
    balanced_check,
    c1_bundle_triviality,
    primitive_route_check,
    solve_scale,
    solve_symmetric_ansatz,
    verify_cyt,
)
from .errors import CytForgeError
from .reproduce import reproduce_paper
from .scalars import (
    QuadraticNumber,
    Scalar,
    exact_sign,
    format_scalar,
    parse_scalar,
    quadratic,
    solve_quadratic,
)
from .search import SearchQuery, search
from .skt import SktReport, hodge_obstruction, verify_skt
from .surfaces import (
    CohClass,
    PairingFunctionalModel,
    SurfaceModel,
    blowup_cp2,
    builtin_model,
    custom_model,
    divisibility_index,
    intersect,
    kummer_model,
    load_model,
    parse_class,
    projective_plane,
    quadric,
)
from .topology import SpectralTables, TopologyCertificate, topology_certificate

__version__ = "0.1.0"
