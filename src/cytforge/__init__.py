"""cytforge: exact-arithmetic certification of torsion Calabi-Yau, strong-KT
and balanced structures on principal 2-torus bundles over rational surfaces,
with cone checking, total-space topology, and catalogued search.

The package resolves its exports on first use (PEP 562): `import cytforge`
loads no layer, reading `cytforge.verify_cyt` imports `cytforge.cyt`, and
each lookup returns what the defining module holds now, a patch included.
"""

import sys
from importlib import import_module
from types import ModuleType

# layer -> the names the package exports from it
_LAYERS = {
    "catalog": "CatalogRecord VerdictFlags append_records load_catalog",
    "certificates": "Certificate build_certificate",
    "cone": "ConeCertificate is_kahler negative_curves",
    "cyt": "AnsatzSolution BundleSpec CytCertificate balanced_check c1_bundle_triviality primitive_route_check "
    "solve_scale solve_symmetric_ansatz verify_cyt",
    "errors": "CytForgeError",
    "reproduce": "reproduce_paper",
    "scalars": "QuadraticNumber Scalar exact_sign format_scalar parse_scalar quadratic solve_quadratic",
    "search": "SearchQuery search",
    "skt": "SktReport hodge_obstruction verify_skt",
    "surfaces": "CohClass PairingFunctionalModel SurfaceModel blowup_cp2 builtin_model custom_model divisibility_index "
    "intersect kummer_model load_model parse_class projective_plane quadric",
    "topology": "SpectralTables TopologyCertificate topology_certificate",
}
_EXPORTS = {name: layer for layer, names in _LAYERS.items() for name in names.split()}
__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # importing a submodule binds it here by its name; `search` is left
        # to __getattr__, which returns the function
        if not (name == "search" and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
