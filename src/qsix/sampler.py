"""Deterministic constraint-aware parameter generation for identity sweeps.

Draws are keyed by (seed, draw index) through a counter-based generator, so
draw k is the same whether generated alone or as part of a batch, serially
or split across workers. The generator is Philox4x64-10 (Salmon, Moraes,
Dror, Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC'11) in pure
Python, keyed by the words (seed, index); its uniforms are bit-identical
to those of the common library implementations keyed the same way, which
the tests check. Every emitted tuple passes violations(); the same
re-check is public so sweep consumers can audit samples independently.

violations() is static for every kind: modulus ranges, the argument caps
or the decay band, pole margins (one kernel pass, `margin_hit`, over the
bases the kind's parameter class names in its table BASES) and the
opt-in diff_amp_max. Conditioning is judged on the walks the consuming
check makes: `sample_checked` runs the check on each candidate and
redraws from the same stream while it raises IllConditioned, which a sum
raises when its term hump is over its policy's hump_max, or
NonConvergence, which a sum raises where it diverges at the draw.
sample("bailey_a") passes it one such check, the bilateral sum in
(a; b, c, d, e) that its checks make; a direct caller of
sample("t_params") or sample("trunc") gets the cap by summing under
TruncationPolicy(hump_max=...). Where a check is seldom conditioned, its
sweep draws from a narrower region instead of redrawing (q-constancy's
q_modulus_range).
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from ._backend import margin_hit
from ._record import Record, set_field
from .errors import (DomainError, IllConditioned, NonConvergence,
                     PoleError, Unsatisfiable)
from .qcore import QContext, TruncationPolicy, _index
from .series import BaileyParams, TParams, TruncParams, _bailey_sum

#: documented convergence_caps keys and their defaults. Caps not listed for
#: a kind are ignored by it.
DEFAULT_CAPS = {
    # trunc: |1/(Cq^2)| range for the series argument
    "trunc_arg_min": 0.05,
    "trunc_arg_max": 20.0,
    # trunc with decay construction: |Cq^3| in [min, 2 min]; presence of the
    # key switches the C construction
    # "kn_decay_base_min": 1.5,
    # trunc, opt-in: bound on max(|U_n|, |U_{n+1}|) / |U_{n+1} - U_n| (and
    # the V analogue) over the difference-check window; the step ratio
    # tends to 1 at the window edges, so differencing loses digits there
    # "diff_amp_max": 300.0,
    # bailey_a: |a^2 q/(bcde)| rejection bound
    "bailey_a_arg_max": 0.9,
    # t_params: |C/q^3| range (C is constructed as w q^3)
    "t_arg_min": 0.05,
    "t_arg_max": 0.9,
    # all kinds: bound on max(1, max |term|) / |sum| of the series a
    # draw's check sums, as TruncationPolicy.hump_max; caps the
    # cancellation amplifier of term rounding in downstream checks
    "hump_max": 1e5,
}


class SampleConstraints(Record):
    """Acceptance region for one draw.

    q_modulus_range bounds |q|: the q-constancy sweep takes (0.4, 0.7),
    since below 0.4 few candidates' walks at C q^4 are conditioned, and
    its report's constraints say so. pole_margin, in (0, 1), is the
    minimum relative distance |1 - x q^j| / (1 + |x q^j|) from zero of
    every factor whose base x the kind's table names (see violations()).
    convergence_caps overrides entries of DEFAULT_CAPS (None, the
    default, is a new empty dict); each cap must be finite and > 0, each
    min cap at most its max, and t_arg_max and bailey_a_arg_max below 1.
    """

    q_modulus_range: tuple
    param_modulus_range: tuple
    pole_margin: float
    convergence_caps: Mapping[str, float]
    max_rejections: int

    def __init__(self, q_modulus_range=(0.25, 0.7),
                 param_modulus_range=(0.1, 3.0), pole_margin=1e-3,
                 convergence_caps=None, max_rejections=5000):
        if convergence_caps is None:
            convergence_caps = {}
        set_field(self, "q_modulus_range", q_modulus_range)
        set_field(self, "param_modulus_range", param_modulus_range)
        set_field(self, "pole_margin", pole_margin)
        set_field(self, "convergence_caps", convergence_caps)
        set_field(self, "max_rejections", max_rejections)
        qlo, qhi = q_modulus_range
        if not (0.0 < qlo <= qhi < 1.0):
            raise DomainError("q_modulus_range must be inside (0, 1)")
        plo, phi = param_modulus_range
        if not (0.0 < plo <= phi):
            raise DomainError("param_modulus_range must be positive and "
                              "ordered")
        if not 0.0 < pole_margin < 1.0:
            raise DomainError("pole_margin must lie in (0, 1)")
        if _index(max_rejections, "max_rejections") < 1:
            raise DomainError("max_rejections must be >= 1")
        unknown = set(convergence_caps) - set(DEFAULT_CAPS) \
            - {"kn_decay_base_min", "diff_amp_max"}
        if unknown:
            raise DomainError(f"unknown convergence_caps keys: "
                              f"{sorted(unknown)}")
        for name in convergence_caps:
            try:
                ok = 0.0 < self.cap(name) < math.inf
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise DomainError(f"convergence cap {name} must be a finite "
                                  f"number > 0")
        for lo, hi in (("trunc_arg_min", "trunc_arg_max"),
                       ("t_arg_min", "t_arg_max")):
            if self.cap(lo) > self.cap(hi):
                raise DomainError(f"convergence cap {lo} exceeds {hi}")
        for name in ("t_arg_max", "bailey_a_arg_max"):
            if self.cap(name) >= 1.0:
                raise DomainError(f"convergence cap {name} must be below 1, "
                                  f"where the sum converges")

    def cap(self, name: str) -> float:
        if name in self.convergence_caps:
            return float(self.convergence_caps[name])
        return DEFAULT_CAPS[name]


_MASK64 = 0xFFFFFFFFFFFFFFFF
#: Philox4x64 round multipliers and Weyl key increments
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


class Philox:
    """Philox4x64-10 stream under a two-word key. The 256-bit counter
    starts at 1 and each block of four 64-bit words is handed out in
    order, so the word stream is that of the usual library generators."""

    __slots__ = ("_k0", "_k1", "_ctr", "_buf")

    def __init__(self, k0: int, k1: int):
        self._k0, self._k1 = k0, k1
        self._ctr = 0
        self._buf = []

    def _refill(self) -> None:
        self._ctr += 1
        c = self._ctr
        c0, c1, c2, c3 = (c & _MASK64, (c >> 64) & _MASK64,
                          (c >> 128) & _MASK64, c >> 192)
        k0, k1 = self._k0, self._k1
        for _ in range(10):
            p0 = _PHILOX_M0 * c0
            p1 = _PHILOX_M1 * c2
            c0, c1, c2, c3 = ((p1 >> 64) ^ c1 ^ k0, p1 & _MASK64,
                              (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64)
            k0 = (k0 + _PHILOX_W0) & _MASK64
            k1 = (k1 + _PHILOX_W1) & _MASK64
        # popped from the end: c0 first
        self._buf = [c3, c2, c1, c0]

    def raw(self) -> int:
        """The next 64-bit word."""
        if not self._buf:
            self._refill()
        return self._buf.pop()

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """A double in [lo, hi) from the top 53 bits of one word."""
        return lo + (hi - lo) * ((self.raw() >> 11) * 2.0 ** -53)

    def integers(self, lo: int, hi: int) -> int:
        """An int in [lo, hi), unbiased: words in the incomplete last
        multiple of hi - lo are rejected."""
        n = hi - lo
        if n < 1:
            raise DomainError("integers needs lo < hi")
        limit = (1 << 64) - (1 << 64) % n
        while True:
            x = self.raw()
            if x < limit:
                return lo + x % n

    def normal(self) -> float:
        """A standard normal by Box-Muller from two uniforms; the first is
        taken from (0, 1] so its log is finite."""
        r = math.sqrt(-2.0 * math.log(1.0 - self.uniform()))
        return r * math.cos(2.0 * math.pi * self.uniform())


def _rng(seed: int, index: int) -> Philox:
    return Philox(seed & _MASK64, index & _MASK64)


def _draw_complex(rng: Philox, lo: float, hi: float) -> complex:
    mod = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(mod * math.cos(phase), mod * math.sin(phase))


#: kind -> (its parameter class, the parameters it draws from and holds
#: to param_modulus_range, in draw order); trunc and t_params build C
#: from a capped argument instead
_KINDS = {"trunc": (TruncParams, "ABDE"),
          "bailey_a": (BaileyParams, "abcde"),
          "t_params": (TParams, "XBDE")}


def _kind(kind: str) -> tuple:
    if kind not in _KINDS:
        raise DomainError(f"unknown sample kind {kind!r}")
    return _KINDS[kind]


#: kind -> the names and expressions of the bases that violations()
#: holds to the pole margin: every base of the kind's table BASES but q,
#: whose (q;q) factors 1 - q^{k+1} cannot vanish, and X, which
#: `_audited` adds
_AUDITED = {kind: tuple((name, f) for name, f in cls.BASES.items()
                        if name not in ("q", "X"))
            for kind, (cls, _) in _KINDS.items()}


def _audited(kind: str, p) -> tuple:
    """(xs, bad): xs the values of the bases that violations() holds to
    the pole margin, X among them but at X = q exactly: there the (X;q)
    zeros collapse the downward side of T by design (the unilateral
    specialization), while off that point they are poles. bad is None,
    or the name of the first base that divides by zero or whose modulus
    is not a finite double, where xs stops."""
    xs = []
    for name, f in _AUDITED[kind]:
        try:
            x = f(p)
            if abs(x) < math.inf:
                xs.append(x)
                continue
        except (ZeroDivisionError, OverflowError):
            pass
        return xs, name
    if kind == "t_params" and p.X != p.q:
        xs.append(p.X)
    return xs, None


def violations(kind: str, params, constraints: SampleConstraints) -> list:
    """Reasons the draw fails its constraints; empty means acceptable.

    The pole margin is held by the bases `_audited` gives: the kind's whole
    table, from which every sum, product and check reads its rows, so by
    every factor a check divides by.
    """
    drawn = _kind(kind)[1]
    p, con, out = params, constraints, []
    q = p.q
    qlo, qhi = con.q_modulus_range
    plo, phi = con.param_modulus_range
    if not (qlo <= abs(q) <= qhi):
        out.append(f"|q| = {abs(q):.6g} outside q_modulus_range")
    for name in drawn:
        v = getattr(p, name)
        if not (plo <= abs(v) <= phi):
            out.append(f"|{name}| = {abs(v):.6g} outside "
                       f"param_modulus_range")

    xs, bad = _audited(kind, p)
    if bad is not None:
        # the series argument and the pole margin read the table's bases
        out.append(f"factor base {bad} out of double range")
        return out
    arg = abs(p.series_arg)
    if kind == "trunc" and "kn_decay_base_min" in con.convergence_caps:
        mn = con.cap("kn_decay_base_min")
        base = abs(p.base("Cq^3"))
        if not (mn <= base <= 2.0 * mn):
            out.append(f"|Cq^3| = {base:.6g} outside decay band")
    elif kind == "trunc":
        if not con.cap("trunc_arg_min") <= arg <= con.cap("trunc_arg_max"):
            out.append(f"|1/(Cq^2)| = {arg:.6g} outside trunc arg caps")
    elif kind == "bailey_a":
        if arg > con.cap("bailey_a_arg_max"):
            out.append(f"|a^2 q/(bcde)| = {arg:.6g} exceeds cap")
    elif not con.cap("t_arg_min") <= arg <= con.cap("t_arg_max"):
        out.append(f"|C/q^3| = {arg:.6g} outside t arg caps")
    x = margin_hit(xs, q, con.pole_margin)
    if x is not None:
        out.append(f"factor base {x:.6g} within pole margin of a q-shift "
                   f"of 1")
    if (kind == "trunc" and not out
            and "diff_amp_max" in con.convergence_caps):
        amp = _diff_amp(p, lo=-5, hi=5)
        if amp > con.cap("diff_amp_max"):
            out.append(f"difference amplifier {amp:.3g} exceeds cap")
    return out


def _diff_amp(p: TruncParams, lo: int, hi: int) -> float:
    """Worst cancellation amplifier of the U and V step differences over
    n = lo..hi. A vanishing step difference counts as infinite."""
    from .identities import compute_U, compute_V

    worst = 0.0
    for compute in (compute_U, compute_V):
        try:
            vals = [compute(n, p) for n in range(lo, hi + 2)]
        except PoleError:
            return float("inf")
        for a, b in zip(vals, vals[1:]):
            d = abs(b - a)
            if d == 0.0:
                return float("inf")
            worst = max(worst, max(abs(a), abs(b)) / d)
    return worst


def _draw_once(kind: str, rng, con: SampleConstraints):
    cls, drawn = _kind(kind)
    q = _draw_complex(rng, *con.q_modulus_range)
    p = {name: _draw_complex(rng, *con.param_modulus_range)
         for name in drawn}
    if kind == "bailey_a":
        return cls(q=q, **p)
    if kind == "t_params":
        w = _draw_complex(rng, con.cap("t_arg_min"), con.cap("t_arg_max"))
        return cls(q=q, C=w * q ** 3, **p)
    if "kn_decay_base_min" in con.convergence_caps:
        mn = con.cap("kn_decay_base_min")
        C = _draw_complex(rng, mn, 2.0 * mn) / q ** 3
    else:
        arg = _draw_complex(rng, con.cap("trunc_arg_min"),
                            con.cap("trunc_arg_max"))
        C = 1.0 / (arg * q * q)
    return cls(q=q, C=C, N=0, **p)


def sample(kind: str, constraints: SampleConstraints, seed: int,
           count: int) -> list:
    """count constraint-satisfying parameter sets, deterministically keyed
    by (seed, draw index).

    trunc draws carry N = 0; window sizes are the consumer's choice.
    bailey_a draws also keep check_bailey("a")'s bilateral sum within the
    constraints' hump_max, and convergent: a candidate whose sum diverges
    (as where a base's modulus sends the terms past double range, or the
    argument underflows to 0) is redrawn. Its other errors propagate.
    Raises Unsatisfiable when a draw index exhausts max_rejections.
    """
    policy = TruncationPolicy(hump_max=constraints.cap("hump_max"))

    def check(p):
        if kind == "bailey_a":
            _bailey_sum(p, QContext(p.q, policy))

    return [p for p, _ in sample_checked(kind, constraints, seed, count,
                                         check)]


def sample_checked(kind: str, constraints: SampleConstraints, seed: int,
                   count: int, check) -> list:
    """(params, check(params)) for count draws keyed by (seed, draw index).

    A candidate is accepted when it passes violations() and check raises
    no NonConvergence on it: neither IllConditioned (a sum over its hump
    cap) nor another non-convergence (a sum that diverges at the draw,
    or runs out of its term budget). Otherwise the next candidate is
    drawn from the same stream. Any other error of check propagates.
    Raises Unsatisfiable when a draw index exhausts max_rejections; it
    names how many candidates the check refused for each reason, and
    the last refusal.
    """
    count = _index(count, "count")
    if count < 0:
        raise DomainError("count must be >= 0")
    out = []
    for index in range(count):
        rng = _rng(seed, index)
        ill = diverged = 0
        for _ in range(constraints.max_rejections):
            p = _draw_once(kind, rng, constraints)
            if violations(kind, p, constraints):
                continue
            try:
                out.append((p, check(p)))
                break
            except IllConditioned as exc:
                ill, last = ill + 1, exc
            except NonConvergence as exc:
                diverged, last = diverged + 1, exc
        else:
            why = "".join(
                f", {n} {reason}" for n, reason in
                ((ill, "over the check's hump_max"),
                 (diverged, "whose check's sum did not converge")) if n)
            if why:
                why += f" (last: {last})"
            raise Unsatisfiable(
                f"draw {index} for kind {kind!r} exhausted "
                f"{constraints.max_rejections} rejections{why}")
    return out
