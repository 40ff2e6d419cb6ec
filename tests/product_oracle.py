"""The Kunneth oracle of acceptance criterion 4: the tensor product
PRS(a) (x) C_curve(beta), multiplied out one scalar at a time.  It reads
only build_prs and build_curve_code, never the surface builder, so the
decomposable code of surface_trivial is checked against it entry by
entry: same rows, same columns, same order."""

from ruledcodes.codes import LinearCode, build_curve_code, build_prs
from ruledcodes.surface import INFTY


def build_product_code(curve, a, beta):
    """Tensor product PRS(a) (x) C_curve(beta) on the trivial surface: row
    (i, j) is PRS(a)'s row i times C_curve(beta)'s row j, i major; columns
    ordered like surface_rational_points (base major, fiber minor)."""
    spec = curve.spec
    prs = build_prs(spec, a)
    cc = build_curve_code(curve, beta)
    rational = curve.rational_points()
    fibers = list(range(spec.order)) + [INFTY]
    pts = [(p, u) for p in rational for u in fibers]
    matrix = []
    for i in range(prs.k):
        for j in range(cc.k):
            row = []
            for pi, p in enumerate(rational):
                for ui in range(len(fibers)):
                    row.append(spec.mul_i(cc.matrix[j][pi], prs.matrix[i][ui]))
            matrix.append(row)
    return LinearCode(spec, matrix, pts,
                      {"family": "product", "a": a, "b": beta.degree(),
                       "N": len(rational), "g": curve.genus, "beta": beta,
                       "curve": curve})
