# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled twin of qsix._kernels_py.

Same algorithms step for step, same return shapes, same status codes; see
the pure module for the full contracts. Any change there must be mirrored
here.
"""

from cpython.mem cimport PyMem_Free, PyMem_Malloc
from libc.math cimport ceil, expm1, log

BACKEND = "c"

OK = 0
TERMINATED = 1
POLE = 2
BUDGET = 3
DIVERGED = 4

cdef int _OK = 0
cdef int _TERMINATED = 1
cdef int _POLE = 2
cdef int _BUDGET = 3
cdef int _DIVERGED = 4

cdef double _OVERFLOW = 1e150
cdef double _NAN = float("nan")


cdef inline double _cabs(double complex z):
    return abs(z)


cdef double complex _cpow_int(double complex base, long long n):
    cdef double complex acc = 1.0
    cdef double complex b = base
    cdef unsigned long long e
    cdef bint neg = n < 0
    if n == 0:
        return acc
    e = <unsigned long long>(-n) if neg else <unsigned long long>n
    while e:
        if e & 1:
            acc = acc * b
        e >>= 1
        if e:
            b = b * b
    if neg:
        return 1.0 / acc
    return acc


def cpow_int(base, n):
    """base**n by binary exponentiation; shared op order across backends."""
    return _cpow_int(base, n)


def qpoch(a, q, n, pole_eps):
    """Finite q-shifted factorial (a;q)_n for any integer n.

    Returns (value, status, bad_k); see the pure twin.
    """
    cdef double complex ca = a
    cdef double complex cq = q
    cdef long cn = n
    cdef double eps = pole_eps
    cdef double complex acc = 1.0
    cdef double complex w = 1.0
    cdef double complex aw, f
    cdef long k
    if cn == 0:
        return 1.0 + 0j, OK, 0
    if cn > 0:
        for k in range(cn):
            acc = acc * (1.0 - ca * w)
            w = w * cq
        return acc, OK, 0
    for k in range(1, -cn + 1):
        w = w / cq
        aw = ca * w
        f = 1.0 - aw
        if _cabs(f) <= eps * (1.0 + _cabs(aw)):
            return _NAN + 0j, POLE, k
        acc = acc * f
    return 1.0 / acc, OK, 0


def qpoch_inf(a, q, tail_tol, max_terms, window, zero_eps):
    """(a;q)_infinity with certified geometric tail; see the pure twin."""
    cdef double complex ca = a
    cdef double complex cq = q
    cdef double tol = tail_tol
    cdef long cap = max_terms
    cdef long win = window
    cdef double zeps = zero_eps
    cdef double absq = _cabs(cq)
    cdef double complex acc = 1.0
    cdef double complex w = 1.0
    cdef double complex aw, f
    cdef double mag, head, s, est
    cdef long run = 0
    cdef long k
    if ca == 0:
        return 1.0 + 0j, 0.0, 1, 1, OK
    for k in range(cap):
        aw = ca * w
        mag = _cabs(aw)
        f = 1.0 - aw
        if _cabs(f) <= zeps * (1.0 + mag):
            return 0.0 + 0j, 0.0, k + 1, 1, OK
        acc = acc * f
        if mag < tol:
            run += 1
            if run >= win:
                head = mag * absq
                s = head / (1.0 - absq)
                est = _cabs(acc) * expm1(s / (1.0 - head))
                return acc, est, k + 1, 0, OK
        else:
            run = 0
        w = w * cq
    return acc, float("inf"), cap, 0, BUDGET


cdef long _crossing(double ax, double lg, bint down, long floor):
    # step count after which |x q^e| has crossed 1 in this direction
    cdef long k
    if down:
        if 0.0 < ax < 1.0:
            k = <long>ceil(-log(ax) / lg)
            if k > floor:
                return k
    elif ax > 1.0:
        k = <long>ceil(log(ax) / lg)
        if k > floor:
            return k
    return floor


def series_side(num, den, q, z, direction, vwp_a, use_vwp, fixed_terms,
                tail_tol, max_terms, window, pole_eps, zero_eps,
                recompute_every):
    """One index direction of a Pochhammer-ratio power series.

    Exact transliteration of the pure twin, including the held-off
    adaptive stop and the powers-only periodic refresh; see there for the
    step algebra and the role swap in the downward direction.

    Returns (acc, tail, used, status, bad_is_num, bad_slot, bad_exp, peak,
    low).
    """
    cdef long rn = len(num)
    cdef long rd = len(den)
    cdef double complex cq = q
    cdef double complex cz = z
    cdef double complex ca = vwp_a
    cdef bint vwp = use_vwp
    cdef bint down = direction < 0
    cdef long fixed = fixed_terms
    cdef double tol = tail_tol
    cdef long cap = max_terms
    cdef long win = window
    cdef double peps = pole_eps
    cdef double zeps = zero_eps
    cdef long every = recompute_every
    cdef double complex *xs
    cdef double complex *ftop
    cdef double complex *fbot
    cdef long i, j, k
    cdef double complex one_minus_a = (1.0 - ca) if vwp else 1.0
    cdef double complex step_z = (1.0 / cz) if down else cz
    cdef long n_min = 0, half
    cdef double lg
    cdef double complex acc = 0.0
    cdef double complex g = 1.0
    cdef double complex qe = (1.0 / cq) if down else 1.0
    cdef double complex h = 1.0
    cdef double complex qsq = cq * cq
    cdef double prev_abs = 1.0
    cdef double peak = 0.0
    cdef double low = 1.0
    cdef long run = 0
    cdef long steps = 0
    cdef long n, e
    cdef long nt = rd if down else rn
    cdef long nb = rn if down else rd
    cdef long npair = nt if nt < nb else nb
    cdef double complex r, w, f, term
    cdef double abs_term, ratio, part

    xs = <double complex *>PyMem_Malloc(
        (2 * (rn + rd) if rn + rd > 0 else 1) * sizeof(double complex))
    if xs == NULL:
        raise MemoryError()
    ftop = xs + rn + rd
    fbot = ftop + nt
    try:
        for i in range(rn):
            xs[i] = num[i]
        for j in range(rd):
            xs[rn + j] = den[j]

        if fixed < 0:
            lg = -log(_cabs(cq))
            for i in range(rn + rd):
                n_min = _crossing(_cabs(xs[i]), lg, down, n_min)
            if vwp:
                half = _crossing(_cabs(ca), 2.0 * lg, down, 0)
                if half > n_min:
                    n_min = half
            if n_min > cap // 2:
                n_min = cap // 2

        while True:
            if fixed >= 0:
                if steps >= fixed:
                    return acc, 0.0, steps, OK, 0, 0, 0, peak, low
            elif steps >= cap:
                return acc, float("inf"), steps, BUDGET, 0, 0, 0, peak, low
            n = -(steps + 1) if down else steps + 1
            e = n if down else n - 1
            if down:
                for j in range(rd):
                    w = xs[rn + j] * qe
                    f = 1.0 - w
                    if _cabs(f) <= zeps * (1.0 + _cabs(w)):
                        return acc, 0.0, steps, TERMINATED, 0, j, e, peak, low
                    ftop[j] = f
                for i in range(rn):
                    w = xs[i] * qe
                    f = 1.0 - w
                    if _cabs(f) <= peps * (1.0 + _cabs(w)):
                        return acc, 0.0, steps, POLE, 1, i, e, peak, low
                    fbot[i] = f
            else:
                for i in range(rn):
                    w = xs[i] * qe
                    f = 1.0 - w
                    if _cabs(f) <= zeps * (1.0 + _cabs(w)):
                        return acc, 0.0, steps, TERMINATED, 1, i, e, peak, low
                    ftop[i] = f
                for j in range(rd):
                    w = xs[rn + j] * qe
                    f = 1.0 - w
                    if _cabs(f) <= peps * (1.0 + _cabs(w)):
                        return acc, 0.0, steps, POLE, 0, j, e, peak, low
                    fbot[j] = f
            steps += 1
            r = step_z
            for k in range(npair):
                r = r * ftop[k] / fbot[k]
            for k in range(npair, nt):
                r = r * ftop[k]
            for k in range(npair, nb):
                r = r / fbot[k]
            g = g * r
            if vwp:
                h = h * r / qsq if down else h * r * qsq
                term = (g - ca * h) / one_minus_a
            else:
                term = g
            acc = acc + term
            abs_term = _cabs(term)
            if abs_term > peak:
                peak = abs_term
            part = _cabs(1.0 + acc)
            if part < low:
                low = part
            if abs_term > _OVERFLOW or abs_term != abs_term:
                return acc, float("inf"), steps, DIVERGED, 0, 0, 0, peak, low
            if fixed < 0:
                ratio = abs_term / prev_abs if prev_abs > 0.0 else 2.0
                if (steps >= n_min and ratio < 1.0
                        and abs_term <= tol * (1.0 + _cabs(acc))):
                    run += 1
                    if run >= win:
                        tail = abs_term * ratio / (1.0 - ratio)
                        return acc, tail, steps, OK, 0, 0, 0, peak, low
                else:
                    run = 0
                prev_abs = abs_term
            if every > 0 and steps % every == 0:
                qe = _cpow_int(cq, -(steps + 1) if down else steps)
            else:
                qe = qe / cq if down else qe * cq
    finally:
        PyMem_Free(xs)
