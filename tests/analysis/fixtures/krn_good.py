"""KRN fixture: every registered kernel implements the full surface."""


class BitKernel:
    orientation_symmetric = True

    def kernel_rows(self, domain_rows, range_rows):
        return [1.0]

    def score_bound_rows(self, domain_rows, range_rows):
        return [1.0]


class CsrKernel:
    def __init__(self):
        self.orientation_symmetric = False

    def kernel_rows(self, domain_rows, range_rows):
        return [0.5]

    def score_bound_rows(self, domain_rows, range_rows):
        return [1.0]


def build_column(sim, reference_values):
    if sim == "bit":
        return BitKernel()
    return CsrKernel()
