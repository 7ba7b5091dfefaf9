"""Shared numerical constants.

The zeta values are audited high-precision literals for the defining series
zeta(k) - 1 = sum_{n>=2} n^(-k); they feed the Barnes G Taylor expansion and
the constant term of the one-point gap expansion.  ZETA_PRIME_MINUS_ONE is
the derivative of the analytically continued series at -1 (equivalently
1/12 - log A with A the Glaisher-Kinkelin constant).
"""

import math

EULER_GAMMA = 0.5772156649015328606065121
ZETA_PRIME_MINUS_ONE = -0.1654211437004509292139197
LOG_2PI = 1.837877066409345483560659

# zeta(k) - 1 for k = 2..40, stored shifted so the tiny tail values keep full
# relative precision in double.
_ZETA_MINUS_ONE_TABLE = (
    0.644934066848226436472,      # zeta(2) - 1
    0.202056903159594285400,      # zeta(3) - 1
    0.0823232337111381915160,     # zeta(4) - 1
    0.0369277551433699263314,     # zeta(5) - 1
    0.0173430619844491397145,     # zeta(6) - 1
    0.00834927738192282683980,    # zeta(7) - 1
    0.00407735619794433937869,    # zeta(8) - 1
    0.00200839282608221441785,    # zeta(9) - 1
    0.000994575127818085337146,   # zeta(10) - 1
    0.000494188604119464558702,   # zeta(11) - 1
    0.000246086553308048298638,   # zeta(12) - 1
    0.000122713347578489146752,   # zeta(13) - 1
    0.0000612481350587048292585,  # zeta(14) - 1
    0.0000305882363070204935517,  # zeta(15) - 1
    0.0000152822594086518717326,  # zeta(16) - 1
    0.00000763719763789976227360, # zeta(17) - 1
    0.00000381729326499983985646, # zeta(18) - 1
    0.00000190821271655393892566, # zeta(19) - 1
    9.53962033872796113152e-7,    # zeta(20) - 1
    4.76932986787806463117e-7,    # zeta(21) - 1
    2.38450502727732990004e-7,    # zeta(22) - 1
    1.19219925965311073068e-7,    # zeta(23) - 1
    5.96081890512594796124e-8,    # zeta(24) - 1
    2.98035035146522801861e-8,    # zeta(25) - 1
    1.49015548283650412347e-8,    # zeta(26) - 1
    7.45071178983542949198e-9,    # zeta(27) - 1
    3.72533402478845705482e-9,    # zeta(28) - 1
    1.86265972351304900640e-9,    # zeta(29) - 1
    9.31327432419668182872e-10,   # zeta(30) - 1
    4.65662906503378407299e-10,   # zeta(31) - 1
    2.32831183367650549200e-10,   # zeta(32) - 1
    1.16415501727005197759e-10,   # zeta(33) - 1
    5.82077208790270088924e-11,   # zeta(34) - 1
    2.91038504449709968693e-11,   # zeta(35) - 1
    1.45519218910419842359e-11,   # zeta(36) - 1
    7.27595983505748101452e-12,   # zeta(37) - 1
    3.63797954737865119024e-12,   # zeta(38) - 1
    1.81898965030706594758e-12,   # zeta(39) - 1
    9.09494784026388928253e-13,   # zeta(40) - 1
)


def zeta_minus_one_scaled(k: int) -> float:
    """2^k (zeta(k) - 1) for integer k >= 2, full relative precision.

    It tends to 1, so no k overflows or underflows it.  Table lookup through
    k = 40; beyond that three terms of the defining series already exceed
    double precision.
    """
    if k < 2:
        raise ValueError("zeta_minus_one_scaled requires k >= 2")
    if k <= 40:
        return math.ldexp(_ZETA_MINUS_ONE_TABLE[k - 2], k)
    return 1.0 + (2.0 / 3.0) ** k + 0.5 ** k + 0.4 ** k


TWO_PI = 2.0 * math.pi
PI_SQ = math.pi * math.pi
