"""The per-t (or per-n) section-count profiles behind the distance records
of analysis' two surface families.  The package states each record as a
closed form; the tests check that the maximum of its profile gives the
same distance."""

from ruledcodes.analysis import bound_decomposable_family, bound_elm_family


def section_count_profile(family: str, params: dict):
    """Per-t (or per-n) bounds on rational points of a global section.

    family "elm_surface": #S(k) <= nN + (q+1-n)(b-dn) over 0 <= n <= m.
    family "decomposable_surface": the two-case fiber-count inequality over 0 <= t <= b.
    Returns (profile list, max); n_total - max equals the family d_lower.
    """
    q, N, g = params["q"], params["N"], params["g"]
    a, b = params["a"], params["b"]
    profile = []
    if family == "elm_surface":
        d = params["d"]
        m = min(a, b // d)
        for n in range(m + 1):
            profile.append((n, n * N + (q + 1 - n) * (b - d * n)))
    elif family == "decomposable_surface":
        e = params["e"]
        for t in range(b + 1):
            if a != 0 and t > b - a * e:
                val = q * t + N + ((b - t) // e) * (N - t)
            else:
                val = (q + 1 - a) * t + a * N
            profile.append((t, val))
    else:
        raise ValueError(f"unknown family {family!r}")
    best = max(v for _, v in profile)
    total = (q + 1) * N
    if family == "elm_surface":
        ref = bound_elm_family(q, N, g, params["d"], a, b)
    else:
        ref = bound_decomposable_family(q, N, g, params["e"], a, b)
    assert best + ref.d_lower == total, (
        "profile maximum is inconsistent with the distance record")
    return profile, best
