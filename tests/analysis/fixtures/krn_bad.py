"""KRN fixture: registry kernels with holes in their surface.

Linted under ``src/repro/engine/columns.py`` so the default
:class:`~repro.analysis.krn.KernelContract` applies.  ``NoBoundKernel``
lacks ``score_bound_rows``; ``NoFlagKernel`` (reached *indirectly*
through ``_build_indirect``, proving call-graph collection) never sets
``orientation_symmetric``.
"""


class GoodKernel:
    orientation_symmetric = True

    def kernel_rows(self, domain_rows, range_rows):
        return [1.0]

    def score_bound_rows(self, domain_rows, range_rows):
        return [1.0]


class NoBoundKernel:
    orientation_symmetric = False

    def kernel_rows(self, domain_rows, range_rows):
        return [1.0]


class NoFlagKernel:
    def __init__(self):
        self.rows = 0

    def kernel_rows(self, domain_rows, range_rows):
        return [1.0]

    def score_bound_rows(self, domain_rows, range_rows):
        return [1.0]


def _build_indirect(sim):
    return NoFlagKernel()


def build_column(sim, reference_values):
    if sim == "good":
        return GoodKernel()
    if sim == "nobound":
        return NoBoundKernel()
    return _build_indirect(sim)
