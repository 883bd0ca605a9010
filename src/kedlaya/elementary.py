"""The natural logarithm and exponential from IEEE arithmetic alone.

:func:`log` and :func:`exp` are table-driven (Tang, *Table-driven
implementation of the exponential function in IEEE floating-point
arithmetic*, ACM TOMS 15(2), 1989, and *... of the logarithm function*,
ACM TOMS 16(4), 1990).  Against mpmath, on 2e5 arguments each over the
float range, near 1 and near the table points, ``log`` was within 0.51 ulp
and ``exp`` within 0.55 ulp, 0.76 ulp where its value is subnormal.  Each
is written once, in :func:`_log_exp`, over the steps that are not
``+ - * /``: ``frexp``, ``ldexp``, rounding half to even and table lookup.
Over Python floats those steps give the scalar functions; over float
arrays, their array forms, each function's attribute ``array``.  Both
forms run the same IEEE operations in the same order, so they give the
same bits, and on every IEEE-754 machine: glibc's ``log`` and ``exp``
differ between its FMA and plain builds, and numpy's between its SIMD
dispatch targets.

The tables are hex literals, checked against mpmath by the tests: for
``log``, ``log(j / 128)`` for ``j = 64..128``, and for ``exp``,
``2^(j / 32)`` for ``j = 0..31``, each a pair of doubles.
"""

from __future__ import annotations

import math

import numpy as np


def _hex(text: str) -> tuple:
    return tuple(map(float.fromhex, text.split()))


# ln 2 as lead + trail, the lead a multiple of 2^-43: n * lead, for every exponent
# n of a double, and its sum with a lead of _LOG_TABLE are multiples of 2^-43
# below 2^10, so both are exact.
_LN2 = _hex("0x1.62e42fefa3800p-1 0x1.ef35793c76730p-45")
# log(j / 128), j = 64..128: pairs lead, trail, each lead a multiple of 2^-43.
_LOG_TABLE = _hex("""
    -0x1.62e42fefa3800p-1 -0x1.ef35793c76730p-45 -0x1.5af405c364800p-1 -0x1.dfa63ac10c9fbp-45
    -0x1.5322e26867800p-1 -0x1.5ccc45d257531p-47 -0x1.4b6fd6f970c00p-1 -0x1.f7115ed4c541cp-49
    -0x1.43d9ff2f92400p-1 0x1.d984f481051f7p-48 -0x1.3c6080c36c000p-1 0x1.2b7367cfe13c2p-47
    -0x1.35028ad9d8c00p-1 -0x1.0b83f9527e6acp-46 -0x1.2dbf557b0e000p-1 0x1.7a6e507b9dc11p-46
    -0x1.269621134dc00p-1 0x1.b61f105226250p-47 -0x1.1f8635fc61800p-1 0x1.a7242c9fe81d3p-45
    -0x1.188ee40f23c00p-1 -0x1.4cc4ef8ab4650p-46 -0x1.11af823c75c00p-1 0x1.58647bb9ddcb2p-45
    -0x1.0ae76e2d05400p-1 -0x1.f486b887e7e27p-46 -0x1.04360be760400p-1 0x1.4c45fe79539e0p-47
    -0x1.fb358af7a4800p-2 -0x1.085fa3c164935p-47 -0x1.ee2a156b41000p-2 -0x1.f27f45a470251p-45
    -0x1.e148a1a272800p-2 0x1.326b207322938p-46 -0x1.d490246def800p-2 -0x1.35bafe9a767a8p-45
    -0x1.c7ff9c7455800p-2 0x1.9b6ddc15249aep-45 -0x1.bb9611b80e000p-2 -0x1.7d85bf40a666dp-45
    -0x1.af5295248d000p-2 0x1.17cc552774458p-45 -0x1.a33440224f800p-2 -0x1.3c6457f9d79f5p-45
    -0x1.973a343135800p-2 0x1.52313a502d9f0p-46 -0x1.8b639a88b3000p-2 0x1.05ae1e5e70470p-45
    -0x1.7fafa3bd81800p-2 0x1.72090c812566ap-45 -0x1.741d876c67800p-2 -0x1.d8b0949dc60b3p-45
    -0x1.68ac83e9c6800p-2 -0x1.0a0d32756eba0p-45 -0x1.5d5bddf596000p-2 0x1.a0b2a08a465dcp-47
    -0x1.522ae0738a000p-2 -0x1.ebe708164c759p-45 -0x1.4718dc271c800p-2 0x1.f27ce0967d675p-45
    -0x1.3c25277333000p-2 -0x1.83b54b606bd5cp-46 -0x1.314f1e1d36000p-2 0x1.8e27ad3213cb8p-45
    -0x1.269621134d800p-2 -0x1.c93c1df5bb3b6p-45 -0x1.1bf99635a6800p-2 -0x1.ca6ed5147bdb7p-45
    -0x1.1178e8227e800p-2 0x1.c210e63a5f01cp-45 -0x1.07138604d5800p-2 -0x1.89cdb16ed4e91p-48
    -0x1.f991c6cb3b000p-3 -0x1.bcbecca0cdf30p-46 -0x1.e530effe71000p-3 -0x1.212276041f430p-51
    -0x1.d1037f2656000p-3 0x1.84a7e75b6f6e4p-47 -0x1.bd087383be000p-3 0x1.d4bc4595412b6p-45
    -0x1.a93ed3c8ae000p-3 0x1.8724350562169p-45 -0x1.95a5adcf70000p-3 -0x1.7f22858a0ff6fp-47
    -0x1.823c16551a000p-3 -0x1.e0ddb9a631e83p-46 -0x1.6f0128b757000p-3 0x1.5118de59c21e1p-45
    -0x1.5bf406b544000p-3 0x1.27023eb68981cp-46 -0x1.4913d8333b000p-3 -0x1.5837954fdb678p-45
    -0x1.365fcb0159000p-3 -0x1.62fa8234b7289p-51 -0x1.23d712a49c000p-3 -0x1.00d238fd3df5cp-46
    -0x1.1178e8227e000p-3 -0x1.1ef78ce2d07f2p-45 -0x1.fe89139dbe000p-4 0x1.534d64fa10afdp-45
    -0x1.da72763844000p-4 -0x1.a89401fa71733p-46 -0x1.b6ac88dad6000p-4 0x1.390802bf768e5p-46
    -0x1.9335e5d594000p-4 -0x1.3115c3abd47dap-45 -0x1.700d30aeac000p-4 -0x1.c1e8da99ded32p-49
    -0x1.4d3115d208000p-4 0x1.53a2582f4e1efp-48 -0x1.2aa04a4472000p-4 0x1.0b6e8ae9c697dp-45
    -0x1.08598b59e4000p-4 0x1.7e5dd7009902cp-46 -0x1.ccb73cdddc000p-5 0x1.a68f247d82807p-46
    -0x1.894aa149fc000p-5 0x1.97995d05a267dp-46 -0x1.466aed42e0000p-5 0x1.c167375bdfd28p-45
    -0x1.0415d89e74000p-5 -0x1.111c05cf1d753p-47 -0x1.8492528c90000p-6 0x1.aa0ba325a0c34p-45
    -0x1.0205658938000p-6 0x1.3dc5b06e2f7d2p-45 -0x1.0101575890000p-7 0x1.0c76b999d2be8p-46
    0x0.0p+0 0x0.0p+0
""")
# ln 2 / 32 as lead + trail, the lead a multiple of 2^-43 (n * lead is exact for the
# |n| < 2^16 of arguments in (-746, 710): lead has 37 significant bits), and 32 / ln 2.
_LN2_32 = _hex("0x1.62e42fefa0000p-6 0x1.cf79abc9e3b3ap-45")
_INV_LN2_32 = float.fromhex("0x1.71547652b82fep+5")
# 2^(j / 32), j = 0..31: pairs nearest double, remainder.
_EXP_TABLE = _hex("""
    0x1.0000000000000p+0 0x0.0p+0 0x1.059b0d3158574p+0 0x1.d73e2a475b465p-55
    0x1.0b5586cf9890fp+0 0x1.8a62e4adc610bp-54 0x1.11301d0125b51p+0 -0x1.6c51039449b3ap-54
    0x1.172b83c7d517bp+0 -0x1.19041b9d78a76p-55 0x1.1d4873168b9aap+0 0x1.e016e00a2643cp-54
    0x1.2387a6e756238p+0 0x1.9b07eb6c70573p-54 0x1.29e9df51fdee1p+0 0x1.612e8afad1255p-55
    0x1.306fe0a31b715p+0 0x1.6f46ad23182e4p-55 0x1.371a7373aa9cbp+0 -0x1.63aeabf42eae2p-54
    0x1.3dea64c123422p+0 0x1.ada0911f09ebcp-55 0x1.44e086061892dp+0 0x1.89b7a04ef80d0p-59
    0x1.4bfdad5362a27p+0 0x1.d4397afec42e2p-56 0x1.5342b569d4f82p+0 -0x1.07abe1db13cadp-55
    0x1.5ab07dd485429p+0 0x1.6324c054647adp-54 0x1.6247eb03a5585p+0 -0x1.383c17e40b497p-54
    0x1.6a09e667f3bcdp+0 -0x1.bdd3413b26456p-54 0x1.71f75e8ec5f74p+0 -0x1.16e4786887a99p-55
    0x1.7a11473eb0187p+0 -0x1.41577ee04992fp-55 0x1.82589994cce13p+0 -0x1.d4c1dd41532d8p-54
    0x1.8ace5422aa0dbp+0 0x1.6e9f156864b27p-54 0x1.93737b0cdc5e5p+0 -0x1.75fc781b57ebcp-57
    0x1.9c49182a3f090p+0 0x1.c7c46b071f2bep-56 0x1.a5503b23e255dp+0 -0x1.d2f6edb8d41e1p-54
    0x1.ae89f995ad3adp+0 0x1.7a1cd345dcc81p-54 0x1.b7f76f2fb5e47p+0 -0x1.5584f7e54ac3bp-56
    0x1.c199bdd85529cp+0 0x1.11065895048ddp-55 0x1.cb720dcef9069p+0 0x1.503cbd1e949dbp-56
    0x1.d5818dcfba487p+0 0x1.2ed02d75b3707p-55 0x1.dfc97337b9b5fp+0 -0x1.1a5cd4f184b5cp-54
    0x1.ea4afa2a490dap+0 -0x1.e9c23179c2893p-54 0x1.f50765b6e4540p+0 0x1.9d3e12dd8a18bp-54
""")


def _log_exp(frexp, ldexp, rint, table):
    """``log`` of positive finite arguments and ``exp`` of arguments in
    ``(-746, 710)``, over the given steps: ``rint`` rounds half to even to
    an integer, and ``table`` turns a tuple of floats into what an integer,
    or an integer array, indexes.

    Each step is an augmented assignment or a new name: on Python floats the
    assignment rebinds, and on arrays it overwrites its target.  So an array
    call of ``log`` allocates 16 arrays and one of ``exp`` 10, where an
    expression per step allocated 45 and 26; and ``log`` deletes the names
    it no longer needs, so that fewer arrays are live at once and malloc
    reuses their memory rather than faulting in fresh pages.  ``exp`` overwrites its
    argument.  The operands of ``+`` and ``*`` may swap, which moves no bit."""
    ln2_lead, ln2_trail = _LN2
    pad = (math.nan,) * 64  # the log table is indexed by j = 64..128
    log_lead, log_trail = table(pad + _LOG_TABLE[0::2]), table(pad + _LOG_TABLE[1::2])
    l32_lead, l32_trail = _LN2_32
    exp_lead, exp_trail = table(_EXP_TABLE[0::2]), table(_EXP_TABLE[1::2])

    def log(x):
        # x = 2^e mant = 2^e F (1 + u), F = j / 128 nearest to mant in [1/2, 1)
        f, e = frexp(x)
        j = rint(f * 128.0)
        big_f = j / 128.0
        f -= big_f  # mant - F, exact
        u = f / big_f
        # the division's remainder, exactly: u's top 45 bits times F (7 bits) and
        # its low bits times F are exact products (Veltkamp's split of u)
        u_top = u * 257.0
        u_top -= u_top - u
        f -= u_top * big_f
        u_top -= u
        u_top *= big_f
        f += u_top  # f - (u - u_top) F: the two differ only at f = -0, which f is not
        f /= big_f  # c: f / F = u + c
        del u_top, big_f
        q = u * (-1 / 8)  # log1p(u) - u, by Horner's rule
        q += 1 / 7
        q *= u
        q += -1 / 6
        q *= u
        q += 1 / 5
        q *= u
        q += -1 / 4
        q *= u
        q += 1 / 3
        q *= u
        q += -1 / 2
        q *= u * u
        f += q  # c + q
        del q
        lo = e * ln2_trail
        lo += log_trail[j]
        f += lo  # lo + (c + q)
        del lo
        hi = e * ln2_lead
        hi += log_lead[j]  # exact
        del e, j
        y = hi + u
        hi -= y
        hi += u  # tail: y + tail = hi + u exactly (Fast2Sum, |hi| >= |u| or hi = 0)
        hi += f
        y += hi
        return y

    def exp(x):
        # x = (32 k + j) ln2 / 32 + r, |r| <= ln2 / 64: exp x = 2^k 2^(j/32) e^r
        n = rint(x * _INV_LN2_32)
        r = x
        r -= n * l32_lead  # exact
        r -= n * l32_trail
        p = r * (1 / 720)
        p += 1 / 120
        p *= r
        p += 1 / 24
        p *= r
        p += 1 / 6
        p *= r
        p += 1 / 2
        p *= r * r
        p += r  # e^r - 1
        k = n >> 5
        n &= 31  # j
        t = exp_lead[n]
        p *= t
        p += exp_trail[n]
        p += t
        return ldexp(p, k)

    return log, exp


_log, _exp = _log_exp(math.frexp, math.ldexp, round, tuple)
_log_array, _exp_array = _log_exp(np.frexp, np.ldexp, lambda v: np.rint(v, out=v).astype(np.intp),
                                  np.array)
_INF = math.inf


def log(x: float) -> float:
    """The natural logarithm of ``x``, with :func:`math.log`'s results and
    errors at 0, negative numbers, infinity and NaN, and for ints and
    fractions beyond the float range."""
    try:
        v = float(x)
    except OverflowError:  # math.log takes a big int as it is
        return math.log(x)
    if 0.0 < v < _INF:
        return _log(v)
    return math.log(x)  # -inf, ValueError, inf or nan: exact


def exp(x: float) -> float:
    """``e`` to the power ``x``, raising OverflowError as :func:`math.exp`
    does where the result is beyond the float range."""
    if -746.0 < x < 710.0:
        return _exp(x)  # math.ldexp raises past the float range
    return math.exp(x)  # 0.0, OverflowError, inf or nan: exact


def _log_rows(x: np.ndarray) -> np.ndarray:
    """:func:`log` of every element of a float array, -inf at 0 and NaN below."""
    with np.errstate(all="ignore"):
        bad = ~((x > 0.0) & (x < _INF))
        y = _log_array(np.where(bad, 1.0, x))
        y[bad] = np.log(x[bad])  # exact
    return y


def _exp_rows(x: np.ndarray) -> np.ndarray:
    """:func:`exp` of every element of a float array, inf past the float range."""
    with np.errstate(all="ignore"):  # NaN is cast to some integer; its result is NaN
        v = np.maximum(x, -746.0)
        return _exp_array(np.minimum(v, 710.0, out=v))


log.array, exp.array = _log_rows, _exp_rows
